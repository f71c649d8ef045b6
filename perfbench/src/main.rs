//! End-to-end and per-layer benchmark of the hetsched workspace.
//!
//! ```text
//! perfbench --workload sweep|fleet|warehouse|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds every input from `--seed`, measures rounds of the workload for
//! `--seconds`, checks every output, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` untraced and traced rounds alternate and the metrics
//! are the per-layer ones, and the spans of the last traced round go to
//! `.bench_run/spans-<workload>-<seed>.json` (Chrome trace-event JSON).
//! Every number comes from timing public calls from outside; see
//! `GLOSSARY.md` for what each one means.

mod campaign;
mod daemon;
mod host;
mod report;
mod stats;
mod store_ops;
mod timed;
mod trace;
mod warehouse;

use report::{metric, Checks, Metric};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Span, SpanTree};

/// The seed whose simulated outputs are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

/// Workloads and the one-line reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sweep",
        "paper trial campaign: infinite-network engine, outer/matmul schedulers, beta solves, trial threads",
    ),
    (
        "fleet",
        "one-port dynamic outer product at p=1e3 and 1e4, flat and as a sqrt(p) tree: net engine, tree, shard plan",
    ),
    (
        "warehouse",
        "store under mixed load: bulk and trickle ingest, group-by scans, pruned lookups, compaction",
    ),
    (
        "daemon",
        "in-process serve daemon with the store on: socket, job table, event log, manifests, store write path",
    ),
];

/// End-to-end metrics, reported untraced on every workload.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_tasks_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("ingest_rows_per_s", "rows/s"),
    ("scan_p50_ms", "ms"),
    ("lookup_p50_ms", "ms"),
    ("compact_rows_per_s", "rows/s"),
    ("disk_bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced rounds. A layer a workload does not
/// exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("platform.sample_s", "s"),
    ("analysis.optimal_beta_s", "s"),
    ("analysis.optimal_beta_calls", "count"),
    ("outer.on_request_s", "s"),
    ("outer.requests", "count"),
    ("matmul.on_request_s", "s"),
    ("matmul.requests", "count"),
    ("sim.engine_s", "s"),
    ("sim.engine_self_s", "s"),
    ("sim.net_engine_s", "s"),
    ("sim.net_engine_self_s", "s"),
    ("sim.net_task_us.p1000", "us"),
    ("sim.net_task_us.p10000", "us"),
    ("sim.tree_s", "s"),
    ("sim.tree_root_s", "s"),
    ("sim.tree_merge_s", "s"),
    ("sim.tree_shard_skew", "ratio"),
    ("sim.tree_parallel_eff", "frac"),
    ("partition.plan_s", "s"),
    ("partition.plan_calls", "count"),
    ("core.trial_p50_ms", "ms"),
    ("core.trial_max_ms", "ms"),
    ("core.parallel_map_idle_frac", "frac"),
    ("sim.probe_overhead_frac", "frac"),
    ("sim.probe_overhead_frac.iqr", "frac"),
    ("store.commit_s", "s"),
    ("store.commits", "count"),
    ("store.rows_per_commit", "rows"),
    ("store.parse_text_s", "s"),
    ("store.footer_read_s", "s"),
    ("store.segments_live_max", "count"),
    ("store.scan_tail_ms", "ms"),
    ("store.scan_samples", "count"),
    ("store.lookup_tail_ms", "ms"),
    ("store.lookup_samples", "count"),
    ("store.compact_s", "s"),
    ("store.compact_segments_before", "count"),
    ("store.compact_segments_after", "count"),
    ("store.disk_bytes", "B"),
    ("store.contains_run_s", "s"),
    ("serve.submit_rtt_p50_ms", "ms"),
    ("serve.submit_rtt_tail_ms", "ms"),
    ("serve.drain_wait_s", "s"),
    ("serve.jobs_done", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.job_parse_s", "s"),
    ("serve.job_predict_s", "s"),
    ("serve.job_run_s", "s"),
    ("serve.job_manifest_s", "s"),
    ("serve.job_store_ingest_s", "s"),
    ("serve.job_log_append_s", "s"),
    ("serve.compact_s", "s"),
    ("serve.compactions", "count"),
    ("serve.stages_over_service", "frac"),
    ("trace.overhead_frac", "frac"),
    ("bench.unattributed_s", "s"),
];

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
}

/// Wall time of every round, by phase.
#[derive(Default)]
pub struct Phases {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    /// Peak resident set of each untraced round, in MB.
    pub peak_rss_mb: Vec<f64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Untraced,
    Traced,
}

/// What a workload measured and checked.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub phases: Phases,
    pub spans: Vec<Span>,
}

/// Runs rounds until `ctx.seconds` have passed (at least one). With
/// tracing, an untraced and a traced round alternate, so both see the
/// same slow spells of a shared host.
pub fn drive(ctx: &Ctx, phases: &mut Phases, mut round: impl FnMut(Phase, usize) -> f64) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        reset_peak_rss();
        phases.untraced.push(round(Phase::Untraced, i));
        phases.peak_rss_mb.push(peak_rss_mb());
        if ctx.trace {
            phases.traced.push(round(Phase::Traced, i));
        }
        i += 1;
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
}

/// Removes a measured round's files now rather than at exit, then syncs
/// the parent directory. The sync commits the file system's journal, and
/// with it the freeing of the blocks (a discard on mounts that pass
/// deletions down to the disk), so that cost lands here, outside every
/// timed call, instead of in whichever later call the next periodic
/// commit interrupts.
pub fn discard(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
}

/// Runs `f` `repeats` times; returns the median time in reference
/// seconds (see [`host`]) and the last result.
pub fn time_setup<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let (out, secs) = host::timed(true, 1, &mut f);
        last = Some(out);
        times.push(secs);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Work per second of a run from per-round `(work, seconds)` pairs: the
/// inverse of the interquartile mean of seconds per unit of work. Every
/// round of a run repeats the same work.
pub fn rate(rounds: impl Iterator<Item = (f64, f64)>) -> f64 {
    let per_work: Vec<f64> = rounds.map(|(work, secs)| secs / work).collect();
    1.0 / stats::interquartile_mean(&per_work)
}

/// Σ a / Σ b over every round, for a ratio no clock enters.
pub fn ratio(rounds: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (a, b) = rounds.fold((0.0, 0.0), |(x, y), (da, db)| (x + da, y + db));
    a / b
}

/// Element-wise median of per-round metric lists (same names, same order).
pub fn median_layers(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let v: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
            metric(m.name, m.unit, stats::median(&v))
        })
        .collect()
}

fn arg_max(t: &SpanTree, name: &str, key: &str) -> f64 {
    t.named(name).filter_map(|s| s.arg(key)).fold(0.0, f64::max)
}

/// The store's per-layer numbers of one traced round.
pub fn store_layers(t: &SpanTree) -> Vec<Metric> {
    let commits = t.count("store.commit") as f64;
    vec![
        metric("store.commit_s", "s", t.total("store.commit")),
        metric("store.commits", "count", commits),
        metric(
            "store.rows_per_commit",
            "rows",
            t.arg_total("store.commit", "rows") / commits.max(1.0),
        ),
        metric("store.parse_text_s", "s", t.total("store.parse_text")),
        metric("store.footer_read_s", "s", t.total("store.footer_read")),
        metric(
            "store.segments_live_max",
            "count",
            arg_max(t, "store.footer_read", "segments"),
        ),
        metric("store.compact_s", "s", t.total("store.compact")),
        metric(
            "store.compact_segments_before",
            "count",
            t.arg_total("store.compact", "segments_before"),
        ),
        metric(
            "store.compact_segments_after",
            "count",
            t.arg_total("store.compact", "segments_after"),
        ),
        metric(
            "store.disk_bytes",
            "B",
            arg_max(t, "store.compact", "disk_bytes"),
        ),
        metric("store.contains_run_s", "s", t.total("store.contains_run")),
    ]
}

/// Tail latencies of every scan and lookup of the run, with the sample
/// counts they rest on.
pub fn store_tails(scans: &[f64], lookups: &[f64]) -> Vec<Metric> {
    vec![
        metric("store.scan_tail_ms", "ms", stats::tail_or_max(scans) * 1e3),
        metric("store.scan_samples", "count", scans.len() as f64),
        metric(
            "store.lookup_tail_ms",
            "ms",
            stats::tail_or_max(lookups) * 1e3,
        ),
        metric("store.lookup_samples", "count", lookups.len() as f64),
    ]
}

/// 64-bit FNV-1a over the bits of simulated outputs.
pub mod fnv {
    pub struct Fnv(u64);

    impl Default for Fnv {
        fn default() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }
    }

    impl Fnv {
        pub fn bytes(&mut self, b: &[u8]) {
            for &x in b {
                self.0 ^= u64::from(x);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        pub fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }

        pub fn f64(&mut self, v: f64) {
            self.u64(v.to_bits());
        }

        pub fn finish(&self) -> u64 {
            self.0
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free memory back to the system, then restarts
/// the peak resident set (`VmHWM`) from the current one, so the next
/// reading is the peak of what ran in between, not of what earlier
/// rounds left cached in whichever thread's arena. Where the kernel
/// refuses, readings stay the peak since the process started.
fn reset_peak_rss() {
    // SAFETY: glibc's `malloc_trim` only releases free memory; it is safe
    // to call at any time from any thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of a git checkout, when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn json_pair(v: [f64; 2]) -> String {
    format!("[{}, {}]", report::json_num(v[0]), report::json_num(v[1]))
}

fn provenance(workload: &str, ctx: &Ctx) -> String {
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .map_or("", |w| w.1);
    format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"profile\": {}, \"commit\": {}, \"ref_cal_s\": {}, \"host_cal_s\": {}}}",
        report::json_str(workload),
        report::json_str(why),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        report::json_str(&commit()),
        json_pair(host::REF_CAL_S),
        json_pair(host::median_calibration_s()),
    )
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload sweep|fleet|warehouse|daemon --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        usage(&format!("unknown workload {workload}"));
    }

    let root = PathBuf::from(".bench_run");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: root.join(format!("work-{workload}-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", ctx.work.display())));

    let outcome = match workload.as_str() {
        "sweep" => campaign::run(&ctx, false),
        "fleet" => campaign::run(&ctx, true),
        "warehouse" => warehouse::run(&ctx),
        _ => daemon::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    let prov = provenance(&workload, &ctx);
    let wanted = if trace { LAYER_METRICS } else { E2E_METRICS };
    let mut measured = if trace { outcome.layers } else { outcome.e2e };
    if trace {
        let (u, t) = (&outcome.phases.untraced, &outcome.phases.traced);
        measured.push(metric(
            "trace.overhead_frac",
            "frac",
            stats::median(t) / stats::median(u) - 1.0,
        ));
        let path = root.join(format!("spans-{workload}-{seed}.json"));
        match std::fs::write(&path, trace::chrome_json(&outcome.spans, &prov)) {
            Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), outcome.spans.len()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    } else {
        measured.push(metric(
            "peak_rss_mb",
            "MB",
            stats::median(&outcome.phases.peak_rss_mb),
        ));
    }
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            metric(name, unit, value + 0.0)
        })
        .collect();
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.0}", s * 1e3))
            .collect::<Vec<_>>()
    };
    eprintln!(
        "round walls (ms): untraced {:?}, traced {:?}",
        ms(&outcome.phases.untraced),
        ms(&outcome.phases.traced)
    );
    println!("{{\"provenance\": {prov}}}");
    println!("{}", report::result_line(&outcome.checks, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names_in = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("list end") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_string())
                .collect()
        };
        let list = |l: &[(&str, &str)]| l.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in("workloads"), list(WORKLOADS));
        assert_eq!(names_in("end_to_end"), list(E2E_METRICS));
        assert_eq!(names_in("per_layer"), list(LAYER_METRICS));
    }

    #[test]
    fn rates_and_ratios_over_rounds() {
        let secs = [1.0, 2.0, 1.5, 0.5, 4.0];
        let r = rate(secs.iter().map(|&s| (100.0, s)));
        assert!((r - 100.0 / 1.5).abs() < 1e-9);
        assert_eq!(ratio([(3.0, 1.0), (5.0, 3.0)].into_iter()), 2.0);
    }

    #[test]
    fn median_layers_is_elementwise() {
        let rounds = vec![
            vec![metric("a", "s", 3.0), metric("b", "s", 1.0)],
            vec![metric("a", "s", 1.0), metric("b", "s", 2.0)],
            vec![metric("a", "s", 2.0), metric("b", "s", 9.0)],
        ];
        let m = median_layers(&rounds);
        assert_eq!((m[0].value, m[1].value), (2.0, 2.0));
    }
}
