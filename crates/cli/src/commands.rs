//! The CLI's subcommands. Each returns its output as a `String` so the
//! unit tests can assert on it; `main` just prints.

use crate::args::Args;
use hetsched_analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched_core::{
    render_trace, run_trials_collected, stream_trace, BetaChoice, ExperimentConfig, Kernel,
    Strategy, Topology, TraceFormat,
};
use hetsched_dag::{cholesky_graph, qr_graph, simulate, Policy};
use hetsched_net::NetworkModel;
use hetsched_partition::optimal_column_partition;
use hetsched_platform::{FailureModel, Platform, ProcId, Scenario, SpeedDistribution};
use hetsched_sim::ProbeConfig;
use hetsched_util::rng::rng_for;
use std::fmt::Write as _;

/// Surfaces a `write!`-into-`String` error (infallible in practice) as a
/// command error instead of a panic, keeping output assembly panic-free.
fn wfmt(e: std::fmt::Error) -> String {
    format!("internal: failed to format command output: {e}")
}

/// Top-level dispatch.
pub fn run(argv: Vec<String>) -> Result<String, String> {
    let args = Args::parse(argv)?;
    let help = args.switch("help");
    let Some(cmd) = args.positionals().first() else {
        return if help { Ok(usage()) } else { Err(usage()) };
    };
    if help {
        return command_usage(cmd);
    }
    match cmd.as_str() {
        "simulate" => simulate_cmd(&args),
        "analyze" => analyze_cmd(&args),
        "partition" => partition_cmd(&args),
        "dag" => dag_cmd(&args),
        "figures" => figures_cmd(&args),
        "serve" => crate::serve_cmd::serve_cmd(&args),
        "submit" => crate::serve_cmd::submit_cmd(&args),
        "status" => crate::serve_cmd::status_cmd(&args),
        "logs" => crate::serve_cmd::logs_cmd(&args),
        "drain" => crate::serve_cmd::drain_cmd(&args),
        "query" => crate::store_cmd::query_cmd(&args),
        "stats" => crate::store_cmd::stats_cmd(&args),
        "ingest" => crate::store_cmd::ingest_cmd(&args),
        "compact" => crate::store_cmd::compact_cmd(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The usage section of one command (`hetsched CMD --help`).
fn command_usage(cmd: &str) -> Result<String, String> {
    let text = usage();
    let mut lines = text.lines().skip_while(|l| {
        !l.strip_prefix("  ")
            .and_then(|rest| rest.strip_prefix(cmd))
            .is_some_and(|rest| rest.starts_with(' '))
    });
    let head = lines
        .next()
        .ok_or_else(|| format!("unknown command {cmd:?}\n\n{text}"))?;
    let mut out = format!("USAGE: hetsched {cmd} [flags]\n\n{head}\n");
    // Continuation lines are indented past the command column.
    for line in lines.take_while(|l| l.starts_with("   ")) {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Help text.
pub fn usage() -> String {
    "\
hetsched — dynamic scheduling strategies on heterogeneous platforms
(Beaumont & Marchal, HPDC 2014, reproduced in Rust)

USAGE: hetsched <command> [flags]

COMMANDS
  simulate   run one strategy and report communication/makespan
             --kernel outer|matmul (outer)   --n BLOCKS (100)
             --p WORKERS (20)                --strategy random|sorted|dynamic|two-phase|static (two-phase)
             --beta analytic|homogeneous|FLOAT (analytic)
             --trials N (10)                 --seed S (0xC0FFEE)
             --scenario unif.1|unif.2|set.3|set.5|dyn.5|dyn.20
             --speeds S1,S2,…                (fixed platform; overrides --p)
             --fail K@T,…                    (worker K dies at time T; tasks re-allocated)
             --fail-exp K@MEAN,…             (worker K dies at an Exp(MEAN)-drawn time, seeded per run)
             --straggler K@F,…               (worker K permanently F× slower)
             --net infinite|one-port|multiport (infinite)
             --bandwidth B                   (master link, blocks/unit time; required unless infinite)
             --worker-bw B|B1,B2,…           (worker caps, multiport only; a list is per-worker)
             --latency L                     (per-worker link latency, priced models only)
             --price-returns                 (price C-block write-back on the master link; priced flat nets only)
             --topology flat|tree (flat)     (tree = hierarchical multi-master sharding)
             --submasters K (2)              (sub-masters under --topology tree)
             --threads T                     (run the tree shards on T threads; bit-identical for any T)
             --trace-out PATH                (write the first trial's event trace)
             --trace-format jsonl|chrome     (jsonl; chrome loads in Perfetto)
             --probe-every N                 (sample engine state every N allocations)
             --probe-delta                   (store probe counters as u32 deltas)
             --trace-buffer N                (stream the trace in N-event chunks; bounds memory)
             --store DIR                     (ingest summary/report/probe rows into a trace-analytics store)
             --campaign NAME (default)       (campaign key for --store)
  analyze    query the analytic model (β*, threshold, ratio landscape)
             --kernel outer|matmul (outer)   --n BLOCKS (100)
             --p WORKERS (20)                --speeds S1,S2,…
  partition  static square partition for given speeds (7/4-approximation)
             --speeds S1,S2,… (required)     --n BLOCKS (optional grid)
  dag        schedule a tiled factorization DAG
             --kernel cholesky|qr (cholesky) --t TILES (16)
             --p WORKERS (8)                 --policy random|data-aware|cp|critical-path (data-aware)
             --seed S (1)
  figures    regenerate paper figures / extension experiments
             positional ids (fig1 … fig11, extA … extG) --quick --trials N --seed S
             --trace-out PATH --trace-format jsonl|chrome --probe-every N
             --probe-delta --trace-buffer N
             (trace one representative run alongside the figures)
             --store DIR --campaign NAME (figures)
             (ingest every generated figure point into a trace-analytics store)
  serve      run the scheduler daemon: durable job queue over a Unix socket,
             drained via `hetsched drain`
             --socket PATH (hetsched.sock)   --log PATH (hetsched-events.jsonl)
             --results-dir DIR (hetsched-results)
             --policy fifo|spf|fair (fifo)   --workers N (2)
             --lease-ttl SECS (300)          --max-retries N (2)
             --store DIR                     (ingest each completed job's report into a
                                              trace-analytics store; replay-safe)
             --compact-threshold N (64)      (compact the store between jobs once N small
                                              segments accumulate; 0 disables)
  submit     queue a job on a running daemon; the spec is positional
             `key=value` tokens mirroring the simulate flags, plus
             name=… group=… (fair-share group)
             e.g. `hetsched submit n=64 p=16 net=one-port bandwidth=4`
             --socket PATH (hetsched.sock)
  status     queue depth + per-job state     --socket PATH
  logs       tail the daemon's event log     --socket PATH --tail N (20)
  drain      finish queued jobs, then shut the daemon down  --socket PATH
  query      scan a trace-analytics store (columnar, written by --store)
             --store DIR (required)          --select col1,col2,…
             --where \"kind=report,metric=makespan,value>=1\"  (= != < <= > >=)
             (numeric ranges: value=2..5 half-open, value=2..=5 inclusive)
             --group-by strategy             --agg count,mean(value),p95(value)
             --format csv|jsonl (csv)        --limit N
             --threads T                     (scan chunks on T threads; output is
                                              byte-identical for any T; default all cores)
             columns: campaign run kind strategy metric series config seed
                      worker events remaining blocks tasks queue_depth
                      t value sigma useful link_busy beta
  stats      canned campaign summaries over a store: per-strategy makespan
             distribution, link utilization vs β, probe-overhead trend
             --store DIR (required)          --threads T
  ingest     append artifact files to a store; the type is detected from the
             content: JSONL trace, figure CSV, serve event log, BENCH_*.json
             --store DIR (required)          --campaign NAME (default)
             positional: one or more files
  compact    merge small store segments into full-chunk segments; queries and
             replay dedupe are unchanged, only the file count drops
             --store DIR (required)          --max-segment-rows N (65536)
  help       this text
"
    .to_string()
}

fn parse_strategy(args: &Args) -> Result<Strategy, String> {
    let beta = args.get("beta").unwrap_or("analytic");
    let choice = match beta {
        "analytic" => BetaChoice::Analytic,
        "homogeneous" | "hom" => BetaChoice::Homogeneous,
        v => BetaChoice::Fixed(
            v.parse()
                .map_err(|_| format!("--beta: expected analytic|homogeneous|FLOAT, got {v:?}"))?,
        ),
    };
    match args.get("strategy").unwrap_or("two-phase") {
        "random" => Ok(Strategy::Random),
        "sorted" => Ok(Strategy::Sorted),
        "dynamic" => Ok(Strategy::Dynamic),
        "two-phase" | "2phase" | "two_phase" => Ok(Strategy::TwoPhase(choice)),
        "static" => Ok(Strategy::Static),
        other => Err(format!(
            "--strategy: expected random|sorted|dynamic|two-phase|static, got {other:?}"
        )),
    }
}

fn parse_scenario(name: &str) -> Result<Scenario, String> {
    Scenario::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or(format!(
            "--scenario: expected one of unif.1, unif.2, set.3, set.5, dyn.5, dyn.20; got {name:?}"
        ))
}

/// Parses a `--fail`/`--straggler` list: comma-separated `WORKER@VALUE`
/// pairs, e.g. `0@1.5,3@2.0`.
fn parse_worker_value_list(args: &Args, key: &str) -> Result<Vec<(usize, f64)>, String> {
    let Some(spec) = args.get(key) else {
        return Ok(Vec::new());
    };
    spec.split(',')
        .map(|item| {
            let (w, v) = item
                .trim()
                .split_once('@')
                .ok_or(format!("--{key}: expected WORKER@VALUE, got {item:?}"))?;
            let worker: usize = w
                .parse()
                .map_err(|_| format!("--{key}: bad worker index {w:?}"))?;
            let value: f64 = v.parse().map_err(|_| format!("--{key}: bad value {v:?}"))?;
            Ok((worker, value))
        })
        .collect()
}

fn parse_failures(args: &Args) -> Result<FailureModel, String> {
    let mut failures = FailureModel::none();
    for (worker, time) in parse_worker_value_list(args, "fail")? {
        if !time.is_finite() || time < 0.0 {
            return Err(format!("--fail: failure time must be ≥ 0, got {time}"));
        }
        failures = failures.fail_at(ProcId(worker as u32), time);
    }
    for (worker, mean) in parse_worker_value_list(args, "fail-exp")? {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(format!(
                "--fail-exp: mean failure time must be > 0, got {mean}"
            ));
        }
        failures = failures.fail_exponential(ProcId(worker as u32), mean);
    }
    for (worker, factor) in parse_worker_value_list(args, "straggler")? {
        if !factor.is_finite() || factor < 1.0 {
            return Err(format!("--straggler: factor must be ≥ 1, got {factor}"));
        }
        failures = failures.slow_down(ProcId(worker as u32), factor);
    }
    Ok(failures)
}

/// Parses `--net`/`--bandwidth`/`--worker-bw`/`--latency` into a network
/// model, a uniform link latency, and (when `--worker-bw` was a list) the
/// per-worker bandwidth caps.
fn parse_network(args: &Args) -> Result<(NetworkModel, f64, Option<Vec<f64>>), String> {
    let bandwidth: Option<f64> = match args.get("bandwidth") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--bandwidth: bad number {v:?}"))?,
        ),
        None => None,
    };
    // `--worker-bw B` keeps the uniform cap; `--worker-bw B1,B2,…` prices
    // each worker's link individually (the model's nominal cap becomes the
    // list maximum — per-link pricing takes over from there).
    let worker_bws = args.get_f64_list("worker-bw")?;
    let (worker_bw, per_worker): (Option<f64>, Option<Vec<f64>>) = match worker_bws {
        None => (None, None),
        Some(bws) if bws.len() == 1 => (Some(bws[0]), None),
        Some(bws) => {
            if bws.iter().any(|b| !b.is_finite() || *b <= 0.0) {
                return Err("--worker-bw: bandwidths must be positive and finite".into());
            }
            let max = bws.iter().cloned().fold(f64::MIN, f64::max);
            (Some(max), Some(bws))
        }
    };
    let latency: f64 = match args.get("latency") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--latency: bad number {v:?}"))?,
        None => 0.0,
    };
    let net = match args.get("net").unwrap_or("infinite") {
        "infinite" => {
            if bandwidth.is_some() || worker_bw.is_some() || latency != 0.0 {
                return Err(
                    "--bandwidth/--worker-bw/--latency only apply to priced models; \
                     pass --net one-port or --net multiport"
                        .into(),
                );
            }
            NetworkModel::Infinite
        }
        "one-port" | "oneport" | "1port" => {
            if worker_bw.is_some() {
                return Err("--worker-bw only applies to --net multiport".into());
            }
            NetworkModel::OnePort {
                master_bw: bandwidth.ok_or("--net one-port needs --bandwidth B")?,
            }
        }
        "multiport" => NetworkModel::BoundedMultiport {
            master_bw: bandwidth.ok_or("--net multiport needs --bandwidth B")?,
            worker_bw: worker_bw.ok_or("--net multiport needs --worker-bw B")?,
        },
        other => {
            return Err(format!(
                "--net: expected infinite|one-port|multiport, got {other:?}"
            ))
        }
    };
    net.validate()?;
    if !latency.is_finite() || latency < 0.0 {
        return Err(format!("--latency: must be ≥ 0, got {latency}"));
    }
    Ok((net, latency, per_worker))
}

/// Parses `--topology`/`--submasters` into a [`Topology`].
fn parse_topology(args: &Args) -> Result<Topology, String> {
    match args.get("topology").unwrap_or("flat") {
        "flat" => {
            if args.get("submasters").is_some() {
                return Err("--submasters only applies to --topology tree".into());
            }
            Ok(Topology::Flat)
        }
        "tree" => {
            let submasters: usize = args.get_or("submasters", 2)?;
            if submasters == 0 {
                return Err("--submasters: need at least 1 sub-master, got 0".into());
            }
            Ok(Topology::Tree { submasters })
        }
        other => Err(format!("--topology: expected flat|tree, got {other:?}")),
    }
}

/// Everything `--trace-out` and its companion flags request.
struct TraceRequest {
    path: String,
    format: TraceFormat,
    probe: ProbeConfig,
    /// `--trace-buffer N`: stream in N-event chunks instead of buffering
    /// the whole trace.
    buffer: Option<usize>,
}

/// Parses `--trace-out`/`--trace-format`/`--probe-every`/`--probe-delta`/
/// `--trace-buffer`. Returns the trace request (`None` when no trace was
/// requested) plus the parsed probe cadence. `--trace-format` and
/// `--trace-buffer` are only legal alongside `--trace-out`; the probe
/// flags additionally make sense with `--store` (probe rows land in the
/// warehouse even when no trace file is written), which the caller
/// signals via `probe_without_trace_ok`.
fn parse_trace_flags(
    args: &Args,
    probe_without_trace_ok: bool,
) -> Result<(Option<TraceRequest>, ProbeConfig), String> {
    let format = match args.get("trace-format") {
        Some(v) => TraceFormat::parse(v).map_err(|e| format!("--trace-format: {e}"))?,
        None => TraceFormat::Jsonl,
    };
    let mut probe = match args.get("probe-every") {
        Some(v) => {
            let every: u64 = v
                .parse()
                .map_err(|_| format!("--probe-every: bad count {v:?}"))?;
            ProbeConfig::by_events(every)
        }
        None => ProbeConfig::disabled(),
    };
    if args.switch("probe-delta") {
        if !probe.is_enabled() {
            return Err("--probe-delta needs a probe cadence (--probe-every N)".into());
        }
        probe = probe.with_delta_encoding();
    }
    let buffer = match args.get("trace-buffer") {
        Some(v) => {
            let chunk: usize = v
                .parse()
                .map_err(|_| format!("--trace-buffer: bad chunk size {v:?}"))?;
            if chunk == 0 {
                return Err("--trace-buffer: chunk size must be ≥ 1".into());
            }
            Some(chunk)
        }
        None => None,
    };
    match args.get("trace-out") {
        Some(path) => Ok((
            Some(TraceRequest {
                path: path.to_string(),
                format,
                probe,
                buffer,
            }),
            probe,
        )),
        None => {
            if args.get("trace-format").is_some() || args.get("trace-buffer").is_some() {
                return Err(
                    "--trace-format/--trace-buffer only apply together with --trace-out PATH"
                        .into(),
                );
            }
            if !probe_without_trace_ok
                && (args.get("probe-every").is_some() || args.switch("probe-delta"))
            {
                return Err(
                    "--probe-every/--probe-delta only apply together with --trace-out PATH \
                     (or --store DIR, which ingests the probe series)"
                        .into(),
                );
            }
            Ok((None, probe))
        }
    }
}

/// Traces one run of `cfg` (the first trial's seed stream) and writes it
/// to `path`. Returns the report line for the command output.
///
/// Without `--trace-buffer` the whole trace is rendered in memory and
/// written at once; with it, events stream to the file in fixed-size
/// chunks and peak trace memory stays O(chunk) however long the run.
/// Both paths produce byte-identical files.
fn write_trace_file(
    cfg: &ExperimentConfig,
    seed: u64,
    req: &TraceRequest,
) -> Result<String, String> {
    let seed = hetsched_core::runner::trial_seed(seed, 0);
    let path = req.path.as_str();
    let fmt_blurb = match req.format {
        TraceFormat::Jsonl => "jsonl: one JSON object per line",
        TraceFormat::Chrome => "chrome: load in Perfetto / chrome://tracing",
    };
    match req.buffer {
        None => {
            let body = render_trace(cfg, seed, req.probe, req.format);
            std::fs::write(path, &body)
                .map_err(|e| format!("--trace-out: cannot write {path:?}: {e}"))?;
            Ok(format!(
                "trace written            : {path} ({} bytes, {fmt_blurb})\n",
                body.len()
            ))
        }
        Some(chunk) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("--trace-out: cannot create {path:?}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            let streamed = stream_trace(cfg, seed, req.probe, req.format, chunk, &mut out)
                .map_err(|e| format!("--trace-out: cannot write {path:?}: {e}"))?;
            std::io::Write::flush(&mut out)
                .map_err(|e| format!("--trace-out: cannot write {path:?}: {e}"))?;
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            Ok(format!(
                "trace written            : {path} ({bytes} bytes, {fmt_blurb})\n\
                 trace streaming          : {} events in ≤{chunk}-event chunks \
                 (peak buffered: {})\n",
                streamed.flushed_events, streamed.peak_buffered_events
            ))
        }
    }
}

fn simulate_cmd(args: &Args) -> Result<String, String> {
    args.ensure_known(&[
        "kernel",
        "n",
        "p",
        "strategy",
        "beta",
        "trials",
        "seed",
        "scenario",
        "speeds",
        "fail",
        "fail-exp",
        "straggler",
        "net",
        "bandwidth",
        "worker-bw",
        "latency",
        "price-returns",
        "topology",
        "submasters",
        "threads",
        "trace-out",
        "trace-format",
        "probe-every",
        "probe-delta",
        "trace-buffer",
        "store",
        "campaign",
    ])?;
    let n: usize = args.get_or("n", 100)?;
    let kernel = match args.get("kernel").unwrap_or("outer") {
        "outer" => Kernel::Outer { n },
        "matmul" => Kernel::Matmul { n },
        other => return Err(format!("--kernel: expected outer|matmul, got {other:?}")),
    };
    let strategy = parse_strategy(args)?;
    let trials: usize = args.get_or("trials", 10)?;
    if trials == 0 {
        return Err("--trials: need at least 1 trial, got 0".into());
    }
    let seed: u64 = args.get_or("seed", 0xC0FFEE)?;

    let mut cfg = ExperimentConfig {
        kernel,
        strategy,
        processors: args.get_or("p", 20)?,
        ..Default::default()
    };
    if let Some(name) = args.get("scenario") {
        let sc = parse_scenario(name)?;
        cfg.distribution = sc.distribution();
        cfg.speed_model = sc.speed_model();
    }
    if let Some(speeds) = args.get_f64_list("speeds")? {
        cfg.processors = speeds.len();
        cfg.platform = Some(Platform::from_speeds(speeds));
    }
    cfg.failures = parse_failures(args)?;
    let (network, latency, per_worker_bw) = parse_network(args)?;
    cfg.network = network;
    cfg.link_latency = latency;
    cfg.link_bandwidths = per_worker_bw;
    cfg.price_returns = args.switch("price-returns");
    cfg.topology = parse_topology(args)?;
    cfg.tree_threads = match args.get("threads") {
        Some(v) => {
            let t: usize = v
                .parse()
                .map_err(|_| format!("--threads: bad count {v:?}"))?;
            if t == 0 {
                return Err("--threads: need at least 1 shard thread, got 0".into());
            }
            if cfg.topology.is_flat() {
                return Err("--threads only applies to --topology tree: it fans the \
                     shard engines across threads (flat trial sweeps are \
                     already parallel)"
                    .into());
            }
            Some(t)
        }
        None => None,
    };
    cfg.validate()?;
    if args.get("campaign").is_some() && args.get("store").is_none() {
        return Err("--campaign only applies together with --store DIR".into());
    }
    let (trace, probe) = parse_trace_flags(args, args.get("store").is_some())?;
    // Probes are flat-only: whether headed for a trace file or the store,
    // a probe sample snapshots ONE engine's per-worker state, and samples
    // from shards of different widths do not merge.
    if probe.is_enabled() && cfg.topology.submasters() > 1 {
        return Err(
            "--probe-every is not supported with multiple sub-masters: a probe \
             sample is a per-worker snapshot of one engine, and samples from \
             shards of different widths do not merge (merging columnar probe \
             series across differently-sized shard engines is an open ROADMAP \
             follow-up); drop --probe-every to record the merged event trace"
                .into(),
        );
    }

    // With explicit shard threads the trial sweep runs serially — the
    // parallelism budget goes to the shards, not multiplied on top of it.
    let sweep_threads = if cfg.tree_threads.is_some() {
        Some(1)
    } else {
        None
    };
    let (results, sum) = run_trials_collected(&cfg, trials, seed, sweep_threads);
    let mut out = String::new();
    writeln!(
        out,
        "{} on {:?}, p = {}, {} tasks, {} trials",
        strategy.label(kernel),
        kernel,
        cfg.processors,
        kernel.total_tasks(),
        trials
    )
    .map_err(wfmt)?;
    if let Topology::Tree { submasters } = cfg.topology {
        let mut line = format!(
            "topology                 : tree, {submasters} sub-masters (column-partitioned shards)"
        );
        if let Some(t) = cfg.tree_threads {
            write!(line, ", {t} shard threads").map_err(wfmt)?;
        }
        writeln!(out, "{line}").map_err(wfmt)?;
    }
    writeln!(
        out,
        "normalized communication : {:.3} ± {:.3}  (1.0 = lower bound)",
        sum.normalized_comm.mean(),
        sum.normalized_comm.std_dev()
    )
    .map_err(wfmt)?;
    writeln!(
        out,
        "total blocks shipped     : {:.0} ± {:.0}",
        sum.total_blocks.mean(),
        sum.total_blocks.std_dev()
    )
    .map_err(wfmt)?;
    writeln!(out, "simulated makespan       : {:.3}", sum.makespan.mean()).map_err(wfmt)?;
    if sum.beta_used.count() > 0 {
        writeln!(
            out,
            "β used                   : {:.4}",
            sum.beta_used.mean()
        )
        .map_err(wfmt)?;
    }
    if !cfg.failures.is_none() {
        writeln!(
            out,
            "tasks lost to failures   : {:.1} (re-shipped {:.1} blocks to recover)",
            sum.lost_tasks.mean(),
            sum.reshipped_blocks.mean()
        )
        .map_err(wfmt)?;
    }
    if !cfg.network.is_infinite() {
        let mut desc = format!(
            "{}, {} blocks/unit time",
            cfg.network.name(),
            cfg.network.master_bw().unwrap_or(f64::INFINITY)
        );
        if cfg.link_latency > 0.0 {
            write!(desc, ", latency {}", cfg.link_latency).map_err(wfmt)?;
        }
        writeln!(out, "network model            : {desc}").map_err(wfmt)?;
        let util = sum.link_utilization.mean();
        writeln!(
            out,
            "master-link utilization  : {:.1}% ± {:.1}%",
            100.0 * util,
            100.0 * sum.link_utilization.std_dev()
        )
        .map_err(wfmt)?;
        writeln!(
            out,
            "worker transfer wait     : {:.3} (summed over workers)",
            sum.transfer_wait.mean()
        )
        .map_err(wfmt)?;
        if cfg.price_returns {
            writeln!(
                out,
                "returned C blocks        : {:.0} (write-back priced on the master link; \
                 not counted in shipped blocks)",
                sum.returned_blocks.mean()
            )
            .map_err(wfmt)?;
        }
        // The one-line diagnosis the sweep in EXPERIMENTS.md elaborates on:
        // a saturated master link means volume, not speed, sets the
        // makespan.
        let regime = if util >= 0.9 {
            "comm-bound — the master link is the bottleneck; lower-volume \
             strategies win makespan here"
        } else if util <= 0.5 {
            "compute-bound — the link is mostly idle; volume barely affects \
             makespan"
        } else {
            "near the crossover between comm-bound and compute-bound"
        };
        writeln!(out, "regime                   : {regime}").map_err(wfmt)?;
        if cfg.price_returns {
            writeln!(
                out,
                "                           (utilization includes C-block write-back: the \
                 link saturates — and the comm-bound regime onsets — at lower input volume \
                 than input-only pricing suggests)"
            )
            .map_err(wfmt)?;
        }
    }
    if let Some(req) = trace {
        out.push_str(&write_trace_file(&cfg, seed, &req)?);
    }
    if let Some(dir) = args.get("store") {
        let campaign = args.get("campaign").unwrap_or("default");
        out.push_str(&crate::store_cmd::simulate_store_ingest(
            dir, campaign, &cfg, seed, trials, &results, &sum, probe,
        )?);
    }
    Ok(out)
}

fn analyze_cmd(args: &Args) -> Result<String, String> {
    args.ensure_known(&["kernel", "n", "p", "speeds"])?;
    let n: usize = args.get_or("n", 100)?;
    let p: usize = args.get_or("p", 20)?;
    let rs: Vec<f64> = match args.get_f64_list("speeds")? {
        Some(speeds) => Platform::from_speeds(speeds).relative_speeds(),
        None => vec![1.0 / p as f64; p],
    };
    let pp = rs.len();

    let mut out = String::new();
    let (kernel_name, beta, ratio, threshold, curve): (_, f64, f64, usize, Vec<(f64, f64)>) =
        match args.get("kernel").unwrap_or("outer") {
            "outer" => {
                let m = OuterAnalysis::from_relative_speeds(rs, n);
                let (b, r) = m.optimal_beta();
                let th = m.phase2_tasks(b) as usize;
                let curve = (2..=16)
                    .map(|i| {
                        let beta = i as f64 * 0.5;
                        (beta, m.ratio(beta))
                    })
                    .collect();
                ("outer product", b, r, th, curve)
            }
            "matmul" => {
                let m = MatmulAnalysis::from_relative_speeds(rs, n);
                let (b, r) = m.optimal_beta();
                let th = m.phase2_tasks(b) as usize;
                let curve = (2..=16)
                    .map(|i| {
                        let beta = i as f64 * 0.5;
                        (beta, m.ratio(beta))
                    })
                    .collect();
                ("matrix multiplication", b, r, th, curve)
            }
            other => return Err(format!("--kernel: expected outer|matmul, got {other:?}")),
        };

    writeln!(out, "analytic model: {kernel_name}, p = {pp}, n = {n}").map_err(wfmt)?;
    writeln!(out, "optimal β                : {beta:.4}").map_err(wfmt)?;
    writeln!(
        out,
        "predicted comm ratio     : {ratio:.4}  (1.0 = lower bound)"
    )
    .map_err(wfmt)?;
    writeln!(out, "switch when tasks remain : {threshold}").map_err(wfmt)?;
    writeln!(out, "\n{:>6}  {:>10}", "β", "ratio").map_err(wfmt)?;
    for (b, r) in curve {
        writeln!(out, "{b:>6.1}  {r:>10.4}").map_err(wfmt)?;
    }
    Ok(out)
}

fn partition_cmd(args: &Args) -> Result<String, String> {
    args.ensure_known(&["speeds", "n"])?;
    let speeds = args
        .get_f64_list("speeds")?
        .ok_or("partition needs --speeds S1,S2,…")?;
    let platform = Platform::from_speeds(speeds);
    let areas = platform.relative_speeds();
    let part = optimal_column_partition(&areas);

    let mut out = String::new();
    writeln!(
        out,
        "column partition: {} rectangles in {} columns",
        part.rects.len(),
        part.columns
    )
    .map_err(wfmt)?;
    writeln!(
        out,
        "half-perimeter cost {:.4}, lower bound {:.4}, ratio {:.4} (≤ 1.75 guaranteed)",
        part.cost,
        hetsched_partition::ColumnPartition::lower_bound(&areas),
        part.approximation_ratio(&areas)
    )
    .map_err(wfmt)?;
    writeln!(
        out,
        "\n{:>6} {:>10} {:>10} {:>10} {:>10}",
        "owner", "x", "y", "w", "h"
    )
    .map_err(wfmt)?;
    for r in &part.rects {
        writeln!(
            out,
            "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            r.owner, r.x, r.y, r.w, r.h
        )
        .map_err(wfmt)?;
    }
    if let Some(n) = args.get("n") {
        let n: usize = n.parse().map_err(|_| "--n: bad number")?;
        let grid = hetsched_partition::GridPartition::from_continuous(&part, n);
        writeln!(
            out,
            "\non the {n}×{n} block grid: {} tasks, {} blocks of static communication",
            grid.total_tasks(),
            grid.total_comm()
        )
        .map_err(wfmt)?;
    }
    Ok(out)
}

fn dag_cmd(args: &Args) -> Result<String, String> {
    args.ensure_known(&["kernel", "t", "p", "policy", "seed"])?;
    let t: usize = args.get_or("t", 16)?;
    let p: usize = args.get_or("p", 8)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let graph = match args.get("kernel").unwrap_or("cholesky") {
        "cholesky" => cholesky_graph(t),
        "qr" => qr_graph(t),
        other => return Err(format!("--kernel: expected cholesky|qr, got {other:?}")),
    };
    let policy = match args.get("policy").unwrap_or("data-aware") {
        "random" => Policy::Random,
        "data-aware" | "dataaware" => Policy::DataAware,
        "cp" | "data-aware-cp" => Policy::DataAwareCp,
        "critical-path" => Policy::CriticalPath,
        other => {
            return Err(format!(
                "--policy: expected random|data-aware|cp|critical-path, got {other:?}"
            ))
        }
    };
    let platform = Platform::sample(
        p,
        &SpeedDistribution::paper_default(),
        &mut rng_for(seed, 0),
    );
    let r = simulate(&graph, &platform, policy, &mut rng_for(seed, 1));

    let mut out = String::new();
    writeln!(
        out,
        "{} on {t}×{t} tiles: {} tasks, critical path {:.2}",
        policy.label(),
        graph.len(),
        graph.critical_path()
    )
    .map_err(wfmt)?;
    writeln!(
        out,
        "blocks shipped  : {} ({:.2}/task)",
        r.total_blocks,
        r.comm_per_task()
    )
    .map_err(wfmt)?;
    writeln!(
        out,
        "makespan        : {:.4} ({:.3}× the max(work, CP) bound)",
        r.makespan,
        r.makespan_ratio(&graph, &platform)
    )
    .map_err(wfmt)?;
    writeln!(out, "tasks per worker: {:?}", r.tasks_per_worker).map_err(wfmt)?;
    Ok(out)
}

fn figures_cmd(args: &Args) -> Result<String, String> {
    args.ensure_known(&[
        "quick",
        "trials",
        "seed",
        "trace-out",
        "trace-format",
        "probe-every",
        "probe-delta",
        "trace-buffer",
        "store",
        "campaign",
    ])?;
    let mut opts = hetsched_core::figures::FigOpts::paper();
    if args.switch("quick") {
        opts = hetsched_core::figures::FigOpts::quick();
    }
    opts.trials = args.get_or("trials", opts.trials)?;
    if opts.trials == 0 {
        return Err("--trials: need at least 1 trial, got 0".into());
    }
    opts.seed = args.get_or("seed", opts.seed)?;
    if args.get("campaign").is_some() && args.get("store").is_none() {
        return Err("--campaign only applies together with --store DIR".into());
    }
    let (trace, _probe) = parse_trace_flags(args, false)?;

    let ids: Vec<&String> = args.positionals().iter().skip(1).collect();
    if ids.is_empty() {
        return Err("figures: give at least one id (fig1 … fig11, extA … extG)".into());
    }
    let mut out = String::new();
    let mut csvs = Vec::new();
    for id in ids {
        let fig = hetsched_core::figures::by_id(id, &opts)
            .or_else(|| hetsched_core::extensions::by_id(id, &opts))
            .ok_or(format!("unknown figure id {id:?} (fig3 is a schematic)"))?;
        out.push_str(&fig.to_table());
        out.push('\n');
        if args.get("store").is_some() {
            csvs.push(fig.to_csv());
        }
    }
    if let Some(dir) = args.get("store") {
        let campaign = args.get("campaign").unwrap_or("figures");
        out.push_str(&crate::store_cmd::figures_store_ingest(
            dir, campaign, &csvs,
        )?);
    }
    if let Some(req) = trace {
        // One representative run of the paper's default experiment at the
        // figures' scale, so the sweep's tables come with an inspectable
        // schedule.
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer {
                n: if opts.quick { 40 } else { 100 },
            },
            processors: if opts.quick { 8 } else { 20 },
            ..Default::default()
        };
        out.push_str(&write_trace_file(&cfg, opts.seed, &req)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, String> {
        run(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_str("help").unwrap().contains("USAGE"));
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(run(vec![]).is_err());
    }

    #[test]
    fn simulate_outer_two_phase() {
        let out = run_str("simulate --n 30 --p 5 --trials 3 --seed 7").unwrap();
        assert!(out.contains("DynamicOuter2Phases"), "{out}");
        assert!(out.contains("normalized communication"));
        assert!(out.contains("β used"));
    }

    #[test]
    fn simulate_with_explicit_speeds_and_static() {
        let out =
            run_str("simulate --strategy static --speeds 10,20,70 --n 40 --trials 2").unwrap();
        assert!(out.contains("StaticOuter"), "{out}");
    }

    #[test]
    fn simulate_scenario_and_matmul() {
        let out = run_str(
            "simulate --kernel matmul --n 10 --p 4 --strategy dynamic --trials 2 --scenario dyn.5",
        )
        .unwrap();
        assert!(out.contains("DynamicMatrix"), "{out}");
        assert!(run_str("simulate --scenario nope").is_err());
        assert!(run_str("simulate --kernel cube").is_err());
        assert!(run_str("simulate --strategy static --kernel matmul --n 8 --p 2").is_err());
    }

    #[test]
    fn simulate_with_failures_and_stragglers() {
        let out =
            run_str("simulate --n 20 --p 4 --strategy random --trials 2 --seed 3 --fail 1@0.5")
                .unwrap();
        assert!(out.contains("tasks lost to failures"), "{out}");
        let out =
            run_str("simulate --n 20 --p 4 --strategy dynamic --trials 2 --straggler 0@4.0,2@2.0")
                .unwrap();
        assert!(out.contains("tasks lost to failures"), "{out}");

        // Bad specs and invalid scenarios are rejected.
        assert!(run_str("simulate --fail 1").is_err());
        assert!(run_str("simulate --fail abc@1.0").is_err());
        assert!(run_str("simulate --straggler 0@0.5").is_err());
        assert!(
            run_str("simulate --p 4 --fail 9@1.0").is_err(),
            "out of range"
        );
        assert!(
            run_str("simulate --strategy static --speeds 10,20 --fail 0@1.0").is_err(),
            "static cannot recover lost tasks"
        );
    }

    #[test]
    fn simulate_with_network_models() {
        let out = run_str(
            "simulate --n 20 --p 4 --strategy dynamic --trials 2 --net one-port --bandwidth 5",
        )
        .unwrap();
        assert!(out.contains("network model"), "{out}");
        assert!(out.contains("one-port"), "{out}");
        assert!(out.contains("master-link utilization"), "{out}");
        assert!(
            out.contains("comm-bound"),
            "tight link must be diagnosed: {out}"
        );

        let out = run_str(
            "simulate --n 20 --p 4 --strategy dynamic --trials 2 --net one-port \
             --bandwidth 100000 --latency 0.01",
        )
        .unwrap();
        assert!(out.contains("compute-bound"), "{out}");

        let out = run_str(
            "simulate --n 20 --p 4 --trials 2 --net multiport --bandwidth 40 --worker-bw 10",
        )
        .unwrap();
        assert!(out.contains("multiport"), "{out}");

        // Default (infinite) prints no network diagnostics.
        let out = run_str("simulate --n 20 --p 4 --trials 2").unwrap();
        assert!(!out.contains("network model"), "{out}");
    }

    #[test]
    fn simulate_tree_topology() {
        let out = run_str(
            "simulate --n 24 --p 6 --strategy dynamic --trials 2 --topology tree --submasters 3",
        )
        .unwrap();
        assert!(out.contains("tree, 3 sub-masters"), "{out}");
        assert!(out.contains("normalized communication"), "{out}");

        // Default sub-master count is 2.
        let out = run_str("simulate --n 24 --p 6 --trials 2 --topology tree").unwrap();
        assert!(out.contains("tree, 2 sub-masters"), "{out}");

        // Flat output is unchanged (no topology line).
        let out = run_str("simulate --n 24 --p 6 --trials 2").unwrap();
        assert!(!out.contains("topology"), "{out}");

        // Tree composes with a priced network.
        let out = run_str(
            "simulate --n 24 --p 6 --strategy random --trials 2 --topology tree \
             --submasters 2 --net one-port --bandwidth 50",
        )
        .unwrap();
        assert!(out.contains("tree, 2 sub-masters"), "{out}");
        assert!(out.contains("master-link utilization"), "{out}");
    }

    #[test]
    fn bad_topology_specs_are_clean_errors() {
        assert!(run_str("simulate --topology ring").is_err());
        assert!(
            run_str("simulate --p 4 --submasters 2").is_err(),
            "--submasters needs --topology tree"
        );
        assert!(
            run_str("simulate --p 4 --topology tree --submasters 9").is_err(),
            "more sub-masters than workers"
        );
        assert!(
            run_str("simulate --p 4 --topology tree --submasters 0").is_err(),
            "need at least one sub-master"
        );
        assert!(
            run_str("simulate --strategy static --topology tree --submasters 2").is_err(),
            "static is flat-only"
        );
        let err = run_str("simulate --p 4 --topology tree --submasters 0").unwrap_err();
        assert!(err.contains("--submasters"), "{err}");
        // Probes are per-engine snapshots and do not merge across shards.
        let err = run_str(
            "simulate --n 20 --p 4 --topology tree --submasters 2 \
             --trace-out /tmp/x.jsonl --probe-every 8",
        )
        .unwrap_err();
        assert!(err.contains("sub-masters"), "{err}");
        // A failure scenario that wipes out one whole shard is a clean
        // error, not an engine panic deep inside the run.
        let err = run_str(
            "simulate --n 20 --p 4 --topology tree --submasters 2 \
             --fail 0@0.0,1@0.0 --trials 1",
        )
        .unwrap_err();
        assert!(err.contains("survivor"), "{err}");
    }

    #[test]
    fn tree_shard_threads_flag() {
        // Bit-identical across thread counts: same summary line for 1/2/4.
        let base = "simulate --n 24 --p 6 --strategy dynamic --trials 2 --topology tree \
                    --submasters 3 --seed 11";
        let serial = run_str(base).unwrap();
        for t in [1, 2, 4] {
            let out = run_str(&format!("{base} --threads {t}")).unwrap();
            assert!(out.contains("tree, 3 sub-masters"), "{out}");
            assert!(out.contains(&format!("{t} shard threads")), "{out}");
            let pick = |s: &str| {
                s.lines()
                    .filter(|l| l.contains("normalized communication") || l.contains("makespan"))
                    .map(String::from)
                    .collect::<Vec<_>>()
            };
            assert_eq!(pick(&out), pick(&serial), "threads {t}");
        }

        assert!(
            run_str("simulate --n 24 --p 6 --trials 2 --threads 2").is_err(),
            "--threads needs --topology tree"
        );
        let err = run_str(&format!("{base} --threads 0")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn tree_trace_out_writes_merged_trace() {
        let dir = std::env::temp_dir().join("hetsched-cli-tree-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.jsonl");
        let path_s = path.to_str().unwrap();
        let base = format!(
            "simulate --n 24 --p 6 --strategy dynamic --trials 1 --seed 3 \
             --topology tree --submasters 3 --trace-out {path_s}"
        );
        let out = run_str(&base).unwrap();
        assert!(out.contains("trace written"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 10, "trace has events");
        // The merged trace is identical whatever the shard thread count.
        let body_mt = {
            let out = run_str(&format!("{base} --threads 2")).unwrap();
            assert!(out.contains("trace written"), "{out}");
            std::fs::read_to_string(&path).unwrap()
        };
        assert_eq!(body, body_mt, "trace bytes differ across --threads");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_worker_bandwidth_lists() {
        let out = run_str(
            "simulate --n 20 --p 4 --trials 2 --net multiport --bandwidth 40 \
             --worker-bw 10,5,20,10",
        )
        .unwrap();
        assert!(out.contains("multiport"), "{out}");

        assert!(
            run_str(
                "simulate --n 20 --p 4 --trials 2 --net multiport --bandwidth 40 \
                 --worker-bw 10,5"
            )
            .is_err(),
            "list length must match the worker count"
        );
        assert!(
            run_str(
                "simulate --n 20 --p 4 --trials 2 --net one-port --bandwidth 40 \
                 --worker-bw 10,5,20,10"
            )
            .is_err(),
            "per-worker caps are multiport-only"
        );
        assert!(run_str(
            "simulate --n 20 --p 4 --trials 2 --net multiport --bandwidth 40 \
             --worker-bw 10,0,20,10"
        )
        .is_err());
    }

    #[test]
    fn bad_network_specs_are_clean_errors() {
        assert!(run_str("simulate --net nope").is_err());
        assert!(run_str("simulate --net one-port").is_err(), "no bandwidth");
        assert!(run_str("simulate --net one-port --bandwidth 0").is_err());
        assert!(run_str("simulate --net one-port --bandwidth abc").is_err());
        assert!(
            run_str("simulate --net one-port --bandwidth 10 --worker-bw 5").is_err(),
            "worker-bw is multiport-only"
        );
        assert!(
            run_str("simulate --net multiport --bandwidth 10").is_err(),
            "multiport needs worker-bw"
        );
        assert!(run_str("simulate --bandwidth 10").is_err(), "needs --net");
        assert!(run_str("simulate --net one-port --bandwidth 10 --latency -1").is_err());
    }

    #[test]
    fn analyze_outputs_beta() {
        let out = run_str("analyze --n 100 --p 20").unwrap();
        assert!(out.contains("optimal β"), "{out}");
        // β for (20, 100) is ≈ 4.18 under the uniform-draw phase-2 model;
        // check the digits appear.
        assert!(out.contains("4.1") || out.contains("4.2"), "{out}");
        let mm = run_str("analyze --kernel matmul --n 40 --p 100").unwrap();
        assert!(mm.contains("matrix multiplication"));
    }

    #[test]
    fn partition_outputs_rects() {
        let out = run_str("partition --speeds 25,25,25,25 --n 10").unwrap();
        assert!(out.contains("4 rectangles in 2 columns"), "{out}");
        assert!(out.contains("ratio 1.0000"), "{out}");
        assert!(out.contains("100 tasks"));
        assert!(run_str("partition").is_err());
    }

    #[test]
    fn dag_runs() {
        let out = run_str("dag --t 6 --p 3 --policy cp").unwrap();
        assert!(out.contains("DataAwareCpDag"), "{out}");
        assert!(out.contains("blocks shipped"));
        let qr = run_str("dag --kernel qr --t 4 --p 2 --policy random").unwrap();
        assert!(qr.contains("RandomDag"));
        assert!(run_str("dag --policy nope").is_err());
    }

    #[test]
    fn figures_quick() {
        let out = run_str("figures fig1 --quick --trials 2").unwrap();
        assert!(out.contains("fig1"), "{out}");
        assert!(run_str("figures").is_err());
        assert!(run_str("figures fig3 --quick").is_err());
    }

    #[test]
    fn simulate_writes_trace_files() {
        let dir = std::env::temp_dir().join("hetsched-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("t.jsonl");
        let chrome = dir.join("t.json");

        let out = run_str(&format!(
            "simulate --n 20 --p 4 --strategy dynamic --trials 2 --seed 5 \
             --trace-out {} --probe-every 16",
            jsonl.display()
        ))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        let body = std::fs::read_to_string(&jsonl).unwrap();
        let first = body.lines().next().unwrap();
        assert!(first.contains("\"manifest\""), "{first}");
        assert!(first.contains("\"seed\""), "{first}");
        assert!(body.lines().any(|l| l.contains("\"kind\":\"batch\"")));
        assert!(body.lines().any(|l| l.contains("\"type\":\"probe\"")));

        let out = run_str(&format!(
            "simulate --n 20 --p 4 --strategy dynamic --trials 2 --seed 5 \
             --trace-out {} --trace-format chrome",
            chrome.display()
        ))
        .unwrap();
        assert!(out.contains("Perfetto"), "{out}");
        let body = std::fs::read_to_string(&chrome).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"manifest\""));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figures_trace_flag_writes_a_representative_run() {
        let dir = std::env::temp_dir().join("hetsched-cli-figtrace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.jsonl");
        let out = run_str(&format!(
            "figures fig1 --quick --trials 2 --trace-out {} --probe-every 32",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .any(|l| l.contains("\"type\":\"probe\"")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_buffer_streams_byte_identical_files() {
        let dir = std::env::temp_dir().join("hetsched-cli-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let buffered = dir.join("buf.jsonl");
        let streamed = dir.join("stream.jsonl");
        let base = "simulate --n 20 --p 4 --strategy dynamic --trials 2 --seed 5 --probe-every 16";
        run_str(&format!("{base} --trace-out {}", buffered.display())).unwrap();
        let out = run_str(&format!(
            "{base} --trace-out {} --trace-buffer 32",
            streamed.display()
        ))
        .unwrap();
        assert!(out.contains("trace streaming"), "{out}");
        assert!(out.contains("peak buffered"), "{out}");
        assert_eq!(
            std::fs::read(&buffered).unwrap(),
            std::fs::read(&streamed).unwrap(),
            "streamed file must be byte-identical to the buffered one"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_delta_renders_the_same_bytes() {
        let dir = std::env::temp_dir().join("hetsched-cli-delta-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.jsonl");
        let delta = dir.join("delta.jsonl");
        let base = "simulate --n 20 --p 4 --strategy dynamic --trials 1 --seed 9 --probe-every 8";
        run_str(&format!("{base} --trace-out {}", plain.display())).unwrap();
        run_str(&format!(
            "{base} --probe-delta --trace-out {}",
            delta.display()
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&delta).unwrap(),
            "delta encoding is a storage choice, never a rendering one"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_flags_require_trace_out() {
        assert!(run_str("simulate --n 20 --p 4 --trace-format chrome").is_err());
        assert!(run_str("simulate --n 20 --p 4 --probe-every 8").is_err());
        assert!(run_str("simulate --n 20 --p 4 --trace-buffer 64").is_err());
        assert!(run_str("simulate --n 20 --p 4 --probe-delta --trace-out /tmp/x").is_err());
        assert!(run_str("simulate --n 20 --p 4 --trace-out /tmp/x --trace-format xml").is_err());
        assert!(run_str("simulate --n 20 --p 4 --trace-out /tmp/x --probe-every abc").is_err());
        assert!(run_str("simulate --n 20 --p 4 --trace-out /tmp/x --trace-buffer 0").is_err());
        assert!(run_str("simulate --n 20 --p 4 --trace-out /tmp/x --trace-buffer xyz").is_err());
    }

    #[test]
    fn zero_trials_is_a_clean_error() {
        let err = run_str("simulate --n 20 --p 4 --trials 0").unwrap_err();
        assert!(err.contains("at least 1 trial"), "{err}");
        let err = run_str("figures fig1 --quick --trials 0").unwrap_err();
        assert!(err.contains("at least 1 trial"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(run_str("simulate --bogus 3").is_err());
        assert!(run_str("analyze --whatever yes").is_err());
    }

    #[test]
    fn simulate_store_round_trip_and_dedupe() {
        let dir = std::env::temp_dir().join("hetsched-cli-store-sim");
        let _ = std::fs::remove_dir_all(&dir);
        let base = format!(
            "simulate --n 24 --p 4 --trials 2 --seed 11 --probe-every 8 --store {} --campaign unit",
            dir.display()
        );
        let out = run_str(&base).unwrap();
        assert!(out.contains("ingested"), "{out}");
        // Replaying the exact same run must skip, not duplicate.
        let again = run_str(&base).unwrap();
        assert!(again.contains("skipping"), "{again}");

        let q = format!(
            "query --store {} --where kind=report,metric=makespan --group-by strategy --agg count,mean(value)",
            dir.display()
        );
        let res = run_str(&q).unwrap();
        assert!(res.contains("DynamicOuter2Phases"), "{res}");
        assert!(res.contains(",2,"), "two trials expected: {res}");
        // Probe samples landed too.
        let probes = run_str(&format!(
            "query --store {} --where kind=probe --agg count",
            dir.display()
        ))
        .unwrap();
        let n: u64 = probes.lines().nth(1).unwrap().parse().unwrap();
        assert!(n > 0, "{probes}");
        let stats = run_str(&format!("stats --store {}", dir.display())).unwrap();
        assert!(stats.contains("makespan"), "{stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn figures_store_ingests_points() {
        let dir = std::env::temp_dir().join("hetsched-cli-store-fig");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_str(&format!(
            "figures fig6 --quick --trials 1 --seed 5 --store {} --campaign figs",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("figure row(s)"), "{out}");
        let res = run_str(&format!(
            "query --store {} --where kind=figure --select series,t,value --limit 3",
            dir.display()
        ))
        .unwrap();
        assert!(res.lines().count() >= 2, "{res}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_requires_store() {
        let err = run_str("simulate --n 20 --p 4 --campaign lone").unwrap_err();
        assert!(err.contains("--store"), "{err}");
        let err = run_str("figures fig1 --quick --campaign lone").unwrap_err();
        assert!(err.contains("--store"), "{err}");
    }

    #[test]
    fn query_errors_are_contextful() {
        let dir = std::env::temp_dir().join("hetsched-cli-store-err");
        let _ = std::fs::remove_dir_all(&dir);
        run_str(&format!(
            "simulate --n 20 --p 4 --trials 1 --store {}",
            dir.display()
        ))
        .unwrap();
        let err = run_str(&format!(
            "query --store {} --select nosuchcol",
            dir.display()
        ))
        .unwrap_err();
        assert!(err.contains("unknown column"), "{err}");
        let err = run_str(&format!(
            "query --store {} --where kind~probe",
            dir.display()
        ))
        .unwrap_err();
        assert!(err.contains("malformed predicate"), "{err}");
        assert!(run_str("query").is_err());
        assert!(run_str("stats").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_detects_artifact_shapes() {
        let dir = std::env::temp_dir().join("hetsched-cli-store-ing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run.jsonl");
        run_str(&format!(
            "simulate --n 24 --p 4 --trials 1 --seed 9 --probe-every 8 --trace-out {} --trace-format jsonl",
            trace.display()
        ))
        .unwrap();
        let store = dir.join("store");
        let out = run_str(&format!(
            "ingest --store {} --campaign reingest {}",
            store.display(),
            trace.display()
        ))
        .unwrap();
        assert!(out.contains("trace row(s)"), "{out}");
        // Same file again: content-addressed segments make this idempotent.
        run_str(&format!(
            "ingest --store {} --campaign reingest {}",
            store.display(),
            trace.display()
        ))
        .unwrap();
        let count = run_str(&format!(
            "query --store {} --where kind=probe --agg count",
            store.display()
        ))
        .unwrap();
        let n1: u64 = count.lines().nth(1).unwrap().parse().unwrap();
        assert!(n1 > 0);
        let err = run_str(&format!("ingest --store {}", store.display())).unwrap_err();
        assert!(err.contains("at least one file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
