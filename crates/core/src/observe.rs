//! Observed runs: the bridge between the engine-level recorder
//! ([`hetsched_sim::Recorder`]) and user-facing trace artifacts.
//!
//! [`run_once_observed`] executes one experiment exactly like
//! [`crate::runner::run_once`] — same seed derivation, same dispatch, same
//! numbers — while capturing the full event trace and the probed state
//! time series. [`render_trace`] turns that capture into a file body in
//! one of the supported [`TraceFormat`]s, with a provenance manifest
//! embedded.

use crate::config::ExperimentConfig;
use crate::provenance::manifest_json;
use crate::runner::{run_once_impl, RunResult};
use hetsched_sim::{ChromeStream, JsonlStream, ProbeConfig, ProbeSeries, Recorder, Trace};
use std::io;

/// On-disk trace encodings (`--trace-format`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line: a manifest line, then every event, then
    /// every probe sample. Grep-able, diff-able, and byte-identical across
    /// thread counts for a fixed seed.
    Jsonl,
    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`):
    /// per-worker compute/network lanes plus counter tracks for the probed
    /// residual and queue depth.
    Chrome,
}

impl TraceFormat {
    /// Parses a `--trace-format` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!(
                "unknown trace format {other:?} (expected \"jsonl\" or \"chrome\")"
            )),
        }
    }
}

/// One experiment's result together with everything the recorder captured.
#[derive(Debug)]
pub struct ObservedRun {
    /// The same [`RunResult`] an unobserved [`crate::runner::run_once`]
    /// with this config and seed would return.
    pub result: RunResult,
    /// Every engine event (batches, retirements, losses, transfers, waits,
    /// phase switches).
    pub trace: Trace,
    /// The ODE-state time series sampled on the `probe` cadence.
    pub probes: ProbeSeries,
}

/// Runs one experiment with a recorder attached. The simulated numbers are
/// bit-for-bit those of [`crate::runner::run_once`] — observation never
/// perturbs the schedule.
pub fn run_once_observed(cfg: &ExperimentConfig, seed: u64, probe: ProbeConfig) -> ObservedRun {
    let mut rec = Recorder::new(probe);
    let result = run_once_impl(cfg, seed, Some(&mut rec)).0;
    let (trace, probes) = rec.into_parts();
    ObservedRun {
        result,
        trace,
        probes,
    }
}

/// Runs one experiment and renders its trace in `format`, manifest
/// embedded.
///
/// The manifest records `threads: 1`: a traced run is always a single
/// trial on the caller's thread, so the rendered bytes are identical
/// whatever `--threads` the surrounding sweep uses.
pub fn render_trace(
    cfg: &ExperimentConfig,
    seed: u64,
    probe: ProbeConfig,
    format: TraceFormat,
) -> String {
    let obs = run_once_observed(cfg, seed, probe);
    let manifest = manifest_json(cfg, seed, 1, &[]);
    match format {
        TraceFormat::Jsonl => hetsched_sim::sink::jsonl(Some(&manifest), &obs.trace, &obs.probes),
        TraceFormat::Chrome => hetsched_sim::sink::chrome_trace(
            Some(&manifest),
            &obs.trace,
            &obs.probes,
            cfg.processors,
        ),
    }
}

/// Outcome of a [`stream_trace`] run: the usual result plus the streaming
/// recorder's memory accounting.
#[derive(Clone, Debug)]
pub struct StreamedRun {
    /// The same [`RunResult`] an unobserved run would return.
    pub result: RunResult,
    /// Largest number of trace events buffered at once (≤ the chunk size).
    pub peak_buffered_events: usize,
    /// Events written through the sink over the whole run.
    pub flushed_events: usize,
}

/// Runs one experiment streaming its trace into `out` as it is generated,
/// instead of buffering every event and rendering at the end.
///
/// The written bytes are identical to what [`render_trace`] produces for
/// the same `(cfg, seed, probe, format)` — both drive the same incremental
/// writers — but peak trace memory is bounded by `chunk_events` (plus the
/// probe series, which is columnar and small), not by the event count.
/// `out` only needs to be a `Write`; pass `&mut Vec<u8>` to capture bytes
/// or a buffered file writer to stream to disk.
pub fn stream_trace<W: io::Write>(
    cfg: &ExperimentConfig,
    seed: u64,
    probe: ProbeConfig,
    format: TraceFormat,
    chunk_events: usize,
    out: W,
) -> io::Result<StreamedRun> {
    let manifest = manifest_json(cfg, seed, 1, &[]);
    match format {
        TraceFormat::Jsonl => {
            let sink = JsonlStream::new(out, Some(&manifest));
            let mut rec = Recorder::streaming(probe, sink, chunk_events);
            let result = run_once_impl(cfg, seed, Some(&mut rec)).0;
            let (peak, flushed) = (rec.peak_buffered_events(), rec.flushed_events());
            rec.finish().into_inner()?;
            Ok(StreamedRun {
                result,
                peak_buffered_events: peak,
                flushed_events: flushed,
            })
        }
        TraceFormat::Chrome => {
            // The buffered renderer decides whether to emit network lanes by
            // scanning the trace for transfer events; streaming cannot look
            // ahead, but a priced network ships at least one batch and so
            // always produces a transfer — the config is an exact proxy.
            let has_net = !cfg.network.is_infinite();
            let sink = ChromeStream::new(out, Some(&manifest), cfg.processors, has_net);
            let mut rec = Recorder::streaming(probe, sink, chunk_events);
            let result = run_once_impl(cfg, seed, Some(&mut rec)).0;
            let (peak, flushed) = (rec.peak_buffered_events(), rec.flushed_events());
            rec.finish().into_inner()?;
            Ok(StreamedRun {
                result,
                peak_buffered_events: peak,
                flushed_events: flushed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Kernel, Strategy};
    use crate::runner::run_once;
    use hetsched_platform::ProcId;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            kernel: Kernel::Outer { n: 20 },
            strategy: Strategy::Dynamic,
            processors: 4,
            ..Default::default()
        }
    }

    #[test]
    fn trace_format_parses() {
        assert_eq!(TraceFormat::parse("jsonl"), Ok(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("chrome"), Ok(TraceFormat::Chrome));
        assert!(TraceFormat::parse("xml").is_err());
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let cfg = small_cfg();
        let plain = run_once(&cfg, 7);
        let obs = run_once_observed(&cfg, 7, ProbeConfig::by_events(16));
        assert_eq!(plain.makespan.to_bits(), obs.result.makespan.to_bits());
        assert_eq!(plain.total_blocks, obs.result.total_blocks);
        let traced_tasks: usize = obs
            .trace
            .events()
            .iter()
            .filter(|e| e.kind.is_allocation())
            .map(|e| e.tasks)
            .sum();
        assert_eq!(traced_tasks, 20 * 20, "trace covers every task");
        assert!(!obs.probes.is_empty());
        let last = obs.probes.last().unwrap();
        assert_eq!(last.remaining, 0, "final anchor sample sees completion");
    }

    #[test]
    fn observed_networked_run_probes_link_state() {
        let cfg = ExperimentConfig {
            network: hetsched_net::NetworkModel::OnePort { master_bw: 30.0 },
            ..small_cfg()
        };
        let obs = run_once_observed(&cfg, 3, ProbeConfig::by_events(8));
        let last = obs.probes.last().unwrap();
        assert!(last.link_busy > 0.0, "one-port runs probe link busy time");
        assert!(obs
            .trace
            .events()
            .iter()
            .any(|e| e.kind == hetsched_sim::EventKind::Transfer));
    }

    #[test]
    fn rendered_traces_embed_manifest_and_are_deterministic() {
        let cfg = small_cfg();
        for format in [TraceFormat::Jsonl, TraceFormat::Chrome] {
            let a = render_trace(&cfg, 9, ProbeConfig::by_events(32), format);
            let b = render_trace(&cfg, 9, ProbeConfig::by_events(32), format);
            assert_eq!(a, b, "{format:?} must be deterministic");
            assert!(a.contains("\"seed\":9"));
            assert!(a.contains("\"tool\":\"hetsched\""));
        }
        let jsonl = render_trace(&cfg, 9, ProbeConfig::by_events(32), TraceFormat::Jsonl);
        assert!(jsonl.lines().next().unwrap().contains("\"manifest\""));
        let chrome = render_trace(&cfg, 9, ProbeConfig::by_events(32), TraceFormat::Chrome);
        assert!(chrome.contains("\"traceEvents\""));
    }

    #[test]
    fn streamed_trace_matches_buffered_and_bounds_memory() {
        let configs = [
            small_cfg(),
            ExperimentConfig {
                network: hetsched_net::NetworkModel::OnePort { master_bw: 30.0 },
                ..small_cfg()
            },
        ];
        for cfg in &configs {
            for format in [TraceFormat::Jsonl, TraceFormat::Chrome] {
                let buffered = render_trace(cfg, 13, ProbeConfig::by_events(16), format);
                let mut bytes = Vec::new();
                let streamed =
                    stream_trace(cfg, 13, ProbeConfig::by_events(16), format, 8, &mut bytes)
                        .unwrap();
                assert_eq!(
                    String::from_utf8(bytes).unwrap(),
                    buffered,
                    "{format:?} streamed bytes must match the buffered render"
                );
                assert!(
                    streamed.peak_buffered_events <= 8,
                    "peak {} exceeds the chunk",
                    streamed.peak_buffered_events
                );
                assert!(streamed.flushed_events > 8, "multiple chunks flushed");
                let plain = run_once(cfg, 13);
                assert_eq!(
                    plain.makespan.to_bits(),
                    streamed.result.makespan.to_bits(),
                    "streaming never perturbs the schedule"
                );
            }
        }
    }

    #[test]
    fn probes_report_useful_fraction_for_knowledge_strategies() {
        let obs = run_once_observed(&small_cfg(), 5, ProbeConfig::by_events(8));
        let mid = obs.probes.get(obs.probes.len() / 2);
        let f = mid.useful_fraction[ProcId(0).idx()];
        assert!(f.is_finite() && (0.0..=1.0).contains(&f), "{f}");
    }
}
