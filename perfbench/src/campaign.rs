//! The trial-campaign workloads, `sweep` and `fleet`.
//!
//! A round runs every job of the campaign through
//! `core::run_trials_collected` (the body of `run_trials_with_threads`,
//! keeping the per-trial results the checks need), then does what
//! `simulate --store` and `query` do with the results: one commit per job
//! of its summary and report rows, group-by scans, pruned lookups and a
//! compaction of the round's store.
//!
//! The traced round replays every trial through the same public calls
//! `core::run_once` makes — platform draw, β solve, shard plan, engine or
//! tree run — with a span around each and a [`Timed`] wrapper around the
//! strategy, and asserts that every replayed trial is bit-identical to the
//! untraced one.

use crate::report::{metric, Checks, Metric};
use crate::store_ops::{self, Probe};
use crate::trace::{Open, SpanTree, Tracer};
use crate::{fnv, Ctx, Outcome, Phase};
use hetsched_analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched_core::runner::{platform_for, trial_seed};
use hetsched_core::{
    parallel_map, plan_shards, run_trials_collected, BetaChoice, ExperimentConfig, Kernel,
    NetworkModel, RunResult, ShardLayout, Strategy, Topology, TrialSummary,
};
use hetsched_matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
use hetsched_outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
use hetsched_platform::Platform;
use hetsched_sim::{
    run_tree_with, Engine, NullSink, ProbeConfig, Recorder, Scheduler, ShardSpec, SimReport,
    TreeOpts,
};
use hetsched_store::{report_rows, sim_run_id, summary_rows, Row, RunKey, Store};
use hetsched_util::rng::{derive_seed, rng_for};
use std::time::Instant;

use crate::timed::Timed;

/// The run stream `core::run_once` draws the scheduling RNG from.
const STREAM_RUN: u64 = 0x22;
/// Master bandwidth of fleet's one-port link (blocks per time unit), as
/// in the repository's hierarchy sweep.
const FLEET_MASTER_BW: f64 = 20_000.0;
/// Odd query counts keep the pooled median inside one lookup target's
/// cluster instead of on the edge between two.
const SCANS: usize = 5;
/// Serial scans: with a few segments of very different sizes, which scan
/// thread gets the large ones depends on the content-hashed segment names,
/// so two threads would make the latency depend on the seed.
const QUERY_THREADS: usize = 1;
const LOOKUPS: usize = 5;

/// One experiment config run for its trials — the unit `hetsched serve`
/// accepts as a job.
pub struct Job {
    pub cfg: ExperimentConfig,
    pub trials: usize,
    pub seed: u64,
    /// Trial threads of `run_trials_with_threads`.
    pub threads: usize,
}

impl Job {
    fn tasks(&self) -> u64 {
        (self.cfg.kernel.total_tasks() * self.trials) as u64
    }
}

pub const SWEEP_STRATEGIES: [Strategy; 4] = [
    Strategy::Random,
    Strategy::Sorted,
    Strategy::Dynamic,
    Strategy::TwoPhase(BetaChoice::Analytic),
];

/// Paper-style campaign: both kernels, the four paper strategies, three
/// platform sizes, flat topology, infinite network.
pub fn sweep_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for kernel in [Kernel::Outer { n: 100 }, Kernel::Matmul { n: 30 }] {
        for p in [10, 20, 40] {
            for strategy in SWEEP_STRATEGIES {
                jobs.push(Job {
                    cfg: ExperimentConfig {
                        kernel,
                        strategy,
                        processors: p,
                        ..Default::default()
                    },
                    trials: 4,
                    seed: derive_seed(seed, jobs.len() as u64),
                    threads: 2,
                });
            }
        }
    }
    jobs
}

/// Dynamic outer product under a one-port master link at p = 10³ and
/// 10⁴ (n² ≈ 16p), flat on two trial threads and as a √p-sub-master tree
/// on two shard threads.
pub fn fleet_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (p, trials) in [(1_000usize, 4usize), (10_000, 2)] {
        let n = (16.0 * p as f64).sqrt().ceil() as usize;
        let flat = ExperimentConfig {
            kernel: Kernel::Outer { n },
            strategy: Strategy::Dynamic,
            processors: p,
            network: NetworkModel::OnePort {
                master_bw: FLEET_MASTER_BW,
            },
            ..Default::default()
        };
        let tree = ExperimentConfig {
            topology: Topology::Tree {
                submasters: (p as f64).sqrt().round() as usize,
            },
            tree_threads: Some(2),
            ..flat.clone()
        };
        for (cfg, threads) in [(flat, 2), (tree, 1)] {
            jobs.push(Job {
                cfg,
                trials,
                seed: derive_seed(seed, jobs.len() as u64),
                threads,
            });
        }
    }
    jobs
}

/// The fields of a run that a faster simulator must leave unchanged.
fn same_run(a: &RunResult, b: &RunResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.total_blocks == b.total_blocks
        && a.normalized_comm.to_bits() == b.normalized_comm.to_bits()
        && a.lower_bound.to_bits() == b.lower_bound.to_bits()
        && a.beta_used.map(f64::to_bits) == b.beta_used.map(f64::to_bits)
        && a.tasks_per_proc == b.tasks_per_proc
        && a.blocks_per_proc == b.blocks_per_proc
        && a.link_utilization.to_bits() == b.link_utilization.to_bits()
        && a.max_queue_depth == b.max_queue_depth
        && a.tier_blocks == b.tier_blocks
        && bits(&a.transfer_wait_per_proc) == bits(&b.transfer_wait_per_proc)
}

/// FNV-1a digest of every simulated statistic of a campaign.
pub fn digest(results: &[Vec<RunResult>]) -> u64 {
    let mut h = fnv::Fnv::default();
    for r in results.iter().flatten() {
        h.f64(r.makespan);
        h.u64(r.total_blocks);
        h.f64(r.normalized_comm);
        h.f64(r.lower_bound);
        h.f64(r.beta_used.unwrap_or(f64::NAN));
        h.f64(r.link_utilization);
        h.u64(r.max_queue_depth as u64);
        h.u64(r.tier_blocks);
        r.tasks_per_proc.iter().for_each(|&x| h.u64(x));
        r.blocks_per_proc.iter().for_each(|&x| h.u64(x));
        r.transfer_wait_per_proc.iter().for_each(|&x| h.f64(x));
    }
    h.finish()
}

/// Per-trial checks: every task ran exactly once and communication is
/// at or above the lower bound.
fn check_trials(job: &Job, results: &[RunResult], checks: &mut Checks) {
    let total = job.cfg.kernel.total_tasks() as u64;
    for (i, r) in results.iter().enumerate() {
        let sum: u64 = r.tasks_per_proc.iter().sum();
        checks.check(sum == total && r.normalized_comm >= 1.0 - 1e-9, || {
            format!(
                "{:?} trial {i}: {sum} of {total} tasks, normalized comm {}",
                job.cfg, r.normalized_comm
            )
        });
    }
}

/// fig1/fig4: at every (kernel, p), the data-aware strategies ship less
/// than both data-unaware ones.
fn check_data_aware(jobs: &[Job], summaries: &[TrialSummary], checks: &mut Checks) {
    for (i, group) in jobs.chunks(SWEEP_STRATEGIES.len()).enumerate() {
        let comm = |s: usize| {
            summaries[i * SWEEP_STRATEGIES.len() + s]
                .normalized_comm
                .mean()
        };
        let unaware = comm(0).min(comm(1));
        checks.check(comm(2) < unaware && comm(3) < unaware, || {
            format!(
                "{:?} p={}: data-aware comm {} / {} not below random/sorted {unaware}",
                group[0].cfg.kernel,
                group[0].cfg.processors,
                comm(2),
                comm(3)
            )
        });
    }
}

/// Runs every job untraced; returns per-job results, summaries and the
/// summed campaign time in reference seconds.
fn run_jobs(jobs: &[Job]) -> (Vec<Vec<RunResult>>, Vec<TrialSummary>, f64) {
    let mut results = Vec::with_capacity(jobs.len());
    let mut summaries = Vec::with_capacity(jobs.len());
    let mut wall = 0.0;
    for job in jobs {
        let threads = job
            .threads
            .min(job.trials)
            .max(job.cfg.tree_threads.unwrap_or(1));
        let ((r, s), secs) = crate::host::timed(true, threads, || {
            run_trials_collected(&job.cfg, job.trials, job.seed, Some(job.threads))
        });
        wall += secs;
        results.push(r);
        summaries.push(s);
    }
    (results, summaries, wall)
}

/// Measurements of a round's store step.
struct StoreStep {
    rows: usize,
    ingest_s: f64,
    scans: Vec<f64>,
    lookups: Vec<f64>,
    compact: store_ops::Compacted,
}

/// Each job's summary and report rows as `simulate --store` builds them,
/// committed one segment per series; then scans, lookups, compaction.
#[allow(clippy::too_many_arguments)]
fn store_step(
    campaign: &str,
    dir: &std::path::Path,
    jobs: &[Job],
    results: &[Vec<RunResult>],
    summaries: &[TrialSummary],
    checks: &mut Checks,
    tracer: Option<(&Tracer, &Open)>,
) -> StoreStep {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).expect("open round store");
    let mut all: Vec<Row> = Vec::new();
    let mut ingest_s = 0.0;
    let mut runs = Vec::new();
    let mut pending: Vec<Row> = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        let t = tracer.map(|(t, parent)| (t, parent, k as u64));
        let run = sim_run_id(job.seed, job.trials);
        let key = RunKey::new(campaign, &run, job.seed, &job.cfg);
        let strategy = job.cfg.strategy.label(job.cfg.kernel);
        let build = || {
            let mut rows = summary_rows(&key, strategy, &summaries[k]);
            for (i, r) in results[k].iter().enumerate() {
                rows.extend(report_rows(&key, strategy, i, trial_seed(job.seed, i), r));
            }
            rows
        };
        let ((seen, rows), secs) = crate::host::timed(t.is_none(), 1, || match t {
            Some((tr, parent, id)) => (
                tr.span("store.contains_run", Some(parent), id, |_| {
                    store.contains_run(&key.campaign, &key.run, &key.config)
                }),
                tr.span("store.build_rows", Some(parent), id, |_| build()),
            ),
            None => (
                store.contains_run(&key.campaign, &key.run, &key.config),
                build(),
            ),
        });
        ingest_s += secs;
        checks.check(seen == Ok(false), || {
            format!("{run} already stored: {seen:?}")
        });
        all.extend(rows.iter().cloned());
        pending.extend(rows);
        runs.push(run);
        // One segment per series — the jobs that differ only in strategy,
        // as a campaign script storing a figure's series at a time writes.
        let series = |j: &Job| (j.cfg.kernel, j.cfg.processors, j.cfg.topology);
        if jobs.get(k + 1).map(series) != Some(series(job)) {
            let rows = std::mem::take(&mut pending);
            ingest_s += store_ops::timed_commit(&store, rows, checks, t);
        }
    }
    let mut scans = Vec::new();
    let mut lookups = Vec::new();
    let scan = store_ops::scan(QUERY_THREADS);
    for i in 0..SCANS.max(LOOKUPS) {
        let t = tracer.map(|(t, parent)| (t, parent, (jobs.len() + i) as u64));
        if i < SCANS {
            scans.push(store_ops::timed_query(
                &store,
                &scan,
                &all,
                checks,
                t,
                "store.scan",
            ));
        }
        if i < LOOKUPS {
            let run = runs[(i * 7 + 3) % runs.len()].clone();
            let probe: Probe = if i.is_multiple_of(2) {
                store_ops::lookup(&format!("run={run}"), QUERY_THREADS, move |row| {
                    row.run == run
                })
            } else {
                store_ops::lookup(
                    &format!("run={run},worker=0..4"),
                    QUERY_THREADS,
                    move |row| row.run == run && (0..4).contains(&row.worker),
                )
            };
            lookups.push(store_ops::timed_query(
                &store,
                &probe,
                &all,
                checks,
                t,
                "store.lookup",
            ));
        }
    }
    let t = tracer.map(|(t, parent)| (t, parent, (jobs.len() + SCANS + LOOKUPS) as u64));
    let compact = store_ops::timed_compact(&store, &scan, checks, t);
    checks.check(store.total_rows() == Ok(all.len()), || {
        "stored row count differs from rows committed".to_string()
    });
    crate::discard(dir);
    StoreStep {
        rows: all.len(),
        ingest_s,
        scans,
        lookups,
        compact,
    }
}

// ---------------------------------------------------------------------------
// Traced replay of `core::run_once`.

/// Root → sub-master volume of one shard, as `core` prices it.
fn tree_input_blocks(kernel: Kernel, s: &ShardLayout) -> u64 {
    let (rows, cols) = (s.rows() as u64, s.cols() as u64);
    match kernel {
        Kernel::Outer { .. } => rows + cols,
        Kernel::Matmul { n } => {
            let n = n as u64;
            rows * n + n * cols + rows * cols
        }
    }
}

struct TraceCtx<'a> {
    tracer: &'a Tracer,
    parent: &'a Open,
    id: u64,
}

/// A flat engine run with the strategy wrapped in [`Timed`].
fn drive_flat<S: Scheduler>(
    tc: &TraceCtx,
    pf: &Platform,
    cfg: &ExperimentConfig,
    sched: S,
    seed: u64,
) -> SimReport {
    let name = if cfg.network.is_infinite() {
        "sim.engine"
    } else {
        "sim.net_engine"
    };
    let layer = match cfg.kernel {
        Kernel::Outer { .. } => "outer.on_request",
        Kernel::Matmul { .. } => "matmul.on_request",
    };
    let open = tc.tracer.open(name, Some(tc.parent), tc.id);
    let (report, timed) = Engine::new(pf, cfg.speed_model, Timed::new(sched))
        .with_failures(&cfg.failures)
        .with_network(cfg.network)
        .with_return_pricing(cfg.price_returns)
        .run(&mut rng_for(seed, STREAM_RUN));
    tc.tracer.record(
        layer,
        Some(&open),
        tc.id,
        open.start,
        open.start + timed.busy_s,
        vec![("requests", timed.requests as f64)],
    );
    tc.tracer.close(
        open,
        vec![
            ("p", pf.len() as f64),
            ("tasks", cfg.kernel.total_tasks() as f64),
        ],
    );
    report
}

/// A tree run: shard plan, then `run_tree_with` over wrapped shard
/// strategies. Each shard's active span runs from its first request to
/// its last.
fn drive_tree<S: Scheduler + Send>(
    tc: &TraceCtx,
    pf: &Platform,
    cfg: &ExperimentConfig,
    submasters: usize,
    seed: u64,
    make: impl Fn(&ShardLayout) -> S,
) -> SimReport {
    let tr = tc.tracer;
    let open = tr.open("sim.tree", Some(tc.parent), tc.id);
    let plan = tr.span("partition.plan", Some(&open), tc.id, |_| {
        plan_shards(pf, submasters, cfg.kernel.n())
    });
    let single = plan.len() == 1;
    let shards = plan
        .iter()
        .enumerate()
        .map(|(j, s)| ShardSpec {
            scheduler: Timed::new(make(s)),
            start: s.start,
            len: s.len,
            input_blocks: tree_input_blocks(cfg.kernel, s),
            rng: if single {
                rng_for(seed, STREAM_RUN)
            } else {
                rng_for(derive_seed(seed, j as u64), STREAM_RUN)
            },
        })
        .collect();
    let (outcome, scheds) = run_tree_with(
        pf,
        cfg.speed_model,
        &cfg.failures,
        cfg.network,
        shards,
        TreeOpts {
            threads: cfg.tree_threads,
        },
        None::<&mut Recorder>,
    );
    let end = tr.now();
    let mut first = f64::INFINITY;
    let mut last = open.start;
    let mut spans = Vec::new();
    for s in &scheds {
        let (Some(a), Some(b)) = (s.first, s.last) else {
            continue;
        };
        let (a, b) = (tr.at(a), tr.at(b));
        first = first.min(a);
        last = last.max(b);
        spans.push(b - a);
        let shard = tr.open_at("sim.tree_shard", Some(&open), tc.id, a);
        tr.record(
            "outer.on_request",
            Some(&shard),
            tc.id,
            a,
            a + s.busy_s,
            vec![("requests", s.requests as f64)],
        );
        tr.close_at(shard, b, vec![("requests", s.requests as f64)]);
    }
    let threads = cfg.tree_threads.unwrap_or(1).min(scheds.len()).max(1) as f64;
    let wall = end - open.start;
    let mean = spans.iter().sum::<f64>() / spans.len().max(1) as f64;
    let max = spans.iter().copied().fold(0.0, f64::max);
    tr.close(
        open,
        vec![
            ("p", pf.len() as f64),
            ("root_s", (first - open.start).max(0.0)),
            ("merge_s", (end - last).max(0.0)),
            ("skew", if mean > 0.0 { max / mean } else { 0.0 }),
            ("eff", spans.iter().sum::<f64>() / (threads * wall)),
        ],
    );
    outcome.report
}

/// `core::run_once` for the benchmark's configs, call by call.
fn traced_run_once(tc: &TraceCtx, cfg: &ExperimentConfig, seed: u64) -> RunResult {
    let tr = tc.tracer;
    let pf = tr.span("platform.sample", Some(tc.parent), tc.id, |_| {
        platform_for(cfg, seed)
    });
    let (n, p) = (cfg.kernel.n(), cfg.processors);
    let lb = cfg.kernel.lower_bound(&pf);
    let beta = match cfg.strategy {
        Strategy::TwoPhase(BetaChoice::Analytic) => Some(tr.span(
            "analysis.optimal_beta",
            Some(tc.parent),
            tc.id,
            |_| match cfg.kernel {
                Kernel::Outer { .. } => OuterAnalysis::new(&pf, n).optimal_beta().0,
                Kernel::Matmul { .. } => MatmulAnalysis::new(&pf, n).optimal_beta().0,
            },
        )),
        _ => None,
    };
    let report = match (cfg.topology, cfg.kernel, cfg.strategy) {
        (Topology::Tree { submasters }, Kernel::Outer { .. }, Strategy::Dynamic) => {
            drive_tree(tc, &pf, cfg, submasters, seed, |s| {
                DynamicOuter::rect(s.rows(), s.cols(), s.len)
            })
        }
        (Topology::Flat, Kernel::Outer { n }, s) => match s {
            Strategy::Random => drive_flat(tc, &pf, cfg, RandomOuter::new(n, p), seed),
            Strategy::Sorted => drive_flat(tc, &pf, cfg, SortedOuter::new(n, p), seed),
            Strategy::Dynamic => drive_flat(tc, &pf, cfg, DynamicOuter::new(n, p), seed),
            Strategy::TwoPhase(_) => drive_flat(
                tc,
                &pf,
                cfg,
                DynamicOuter2Phases::with_beta(n, p, beta.expect("analytic β")),
                seed,
            ),
            Strategy::Static => unreachable!("no benchmark job uses static"),
        },
        (Topology::Flat, Kernel::Matmul { n }, s) => match s {
            Strategy::Random => drive_flat(tc, &pf, cfg, RandomMatrix::new(n, p), seed),
            Strategy::Sorted => drive_flat(tc, &pf, cfg, SortedMatrix::new(n, p), seed),
            Strategy::Dynamic => drive_flat(tc, &pf, cfg, DynamicMatrix::new(n, p), seed),
            Strategy::TwoPhase(_) => drive_flat(
                tc,
                &pf,
                cfg,
                DynamicMatrix2Phases::with_beta(n, p, beta.expect("analytic β")),
                seed,
            ),
            Strategy::Static => unreachable!("no benchmark job uses static"),
        },
        other => unreachable!("no benchmark job uses {other:?}"),
    };
    RunResult {
        total_blocks: report.total_blocks,
        normalized_comm: report.normalized(lb),
        makespan: report.makespan,
        lower_bound: lb,
        beta_used: beta,
        phase_split: None,
        tasks_per_proc: report.ledger.tasks_per_proc().to_vec(),
        blocks_per_proc: report.ledger.blocks_per_proc().to_vec(),
        lost_tasks: report.lost_tasks,
        reshipped_blocks: report.reshipped_blocks,
        transfer_wait_per_proc: report.ledger.wait_per_proc().to_vec(),
        link_utilization: report.link_utilization,
        max_queue_depth: report.max_queue_depth,
        wasted_blocks: report.wasted_blocks,
        tier_blocks: report.tier_blocks,
        returned_blocks: report.returned_blocks,
        platform: pf,
    }
}

/// Traced campaign: each job's trials through `core::parallel_map` with a
/// timed closure, each trial replayed call by call.
fn traced_jobs(tracer: &Tracer, round: &Open, jobs: &[Job]) -> Vec<Vec<RunResult>> {
    let mut trial_id = 0u64;
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        let open = tracer.open("core.trials", Some(round), trial_id);
        let idx: Vec<u64> = (0..job.trials as u64).map(|i| trial_id + i).collect();
        let results = parallel_map(&idx, Some(job.threads), |i, &id| {
            tracer.span("core.trial", Some(&open), id, |trial| {
                let tc = TraceCtx {
                    tracer,
                    parent: trial,
                    id,
                };
                traced_run_once(&tc, &job.cfg, trial_seed(job.seed, i))
            })
        });
        tracer.close(open, vec![("threads", job.threads.min(job.trials) as f64)]);
        trial_id += job.trials as u64;
        out.push(results);
    }
    out
}

/// Probe overhead: the streaming `Recorder` into a `NullSink` against the
/// unrecorded engine on the same run, interleaved; `(median, IQR)` of the
/// per-pair ratio − 1.
fn probe_overhead(seed: u64) -> (f64, f64) {
    const PAIRS: usize = 40;
    let (n, p) = (100, 100);
    let pf = Platform::sample(
        p,
        &hetsched_platform::SpeedDistribution::paper_default(),
        &mut rng_for(seed, 1),
    );
    let plain = || {
        let start = Instant::now();
        let (r, _) = Engine::new(
            &pf,
            hetsched_platform::SpeedModel::Fixed,
            RandomOuter::new(n, p),
        )
        .run(&mut rng_for(seed, 2));
        std::hint::black_box(r.makespan);
        start.elapsed().as_secs_f64()
    };
    let recorded = || {
        let start = Instant::now();
        let mut rec = Recorder::streaming(ProbeConfig::by_events(64), NullSink, 1024);
        let (r, _) = Engine::new(
            &pf,
            hetsched_platform::SpeedModel::Fixed,
            RandomOuter::new(n, p),
        )
        .run_recorded(&mut rng_for(seed, 2), &mut rec);
        std::hint::black_box((r.makespan, rec.flushed_events()));
        start.elapsed().as_secs_f64()
    };
    plain();
    recorded();
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (a, b) = if i % 2 == 0 {
                let a = plain();
                (a, recorded())
            } else {
                let b = recorded();
                (plain(), b)
            };
            b / a - 1.0
        })
        .collect();
    (crate::stats::median(&ratios), crate::stats::iqr(&ratios))
}

// ---------------------------------------------------------------------------
// Running the workload.

/// Pinned digests of every simulated statistic at [`crate::DEFAULT_SEED`].
pub const SWEEP_DIGEST: u64 = 0x4e2f_9942_de70_253b;
pub const FLEET_DIGEST: u64 = 0x6a91_e964_0d19_08fd;

pub fn run(ctx: &Ctx, fleet: bool) -> Outcome {
    let campaign = if fleet { "fleet" } else { "sweep" };
    let make_jobs = if fleet { fleet_jobs } else { sweep_jobs };
    let mut checks = Checks::default();

    // Every round runs the same configs with its own seeds, drawn from the
    // run's seed and the round's index: the trial threads split a job's
    // trials into halves, so how evenly they are loaded depends on the
    // platforms drawn, and fresh draws per round make a run's figures an
    // average over draws instead of the luck of one seed's.
    let round_jobs = |round: usize| make_jobs(derive_seed(ctx.seed, round as u64));

    // Set-up: the first round's job list, every trial's platform draw, and
    // one warm-up trial of every job, so code, caches and allocator are
    // warm before the first timed round.
    let (setup_s, ()) = crate::time_setup(if fleet { 3 } else { 5 }, || {
        for job in &round_jobs(0) {
            for i in 0..job.trials {
                std::hint::black_box(platform_for(&job.cfg, trial_seed(job.seed, i)));
            }
            std::hint::black_box(hetsched_core::run_once(&job.cfg, trial_seed(job.seed, 0)));
        }
    });

    let mut e2e_rounds: Vec<[(f64, f64); 5]> = Vec::new();
    let mut scans = Vec::new();
    let mut lookups = Vec::new();
    // Each untraced round's median scan and lookup latency.
    let (mut scan_rounds, mut lookup_rounds) = (Vec::new(), Vec::new());
    // The last untraced round's index and results.
    let mut last: Option<(usize, Vec<Vec<RunResult>>)> = None;
    let tracer = Tracer::default();
    // The span file holds the last traced round.
    let mut last_spans = Vec::new();
    let mut layer_rounds: Vec<Vec<Metric>> = Vec::new();
    let mut phases = crate::Phases::default();

    crate::drive(ctx, &mut phases, |phase, round| {
        let clock = crate::host::RoundClock::start();
        let jobs = round_jobs(round);
        match phase {
            Phase::Untraced => {
                let (results, summaries, wall) = run_jobs(&jobs);
                for (job, r) in jobs.iter().zip(&results) {
                    check_trials(job, r, &mut checks);
                }
                if !fleet {
                    check_data_aware(&jobs, &summaries, &mut checks);
                }
                let st = store_step(
                    campaign,
                    &ctx.work.join(format!("store-{round}-u")),
                    &jobs,
                    &results,
                    &summaries,
                    &mut checks,
                    None,
                );
                let tasks: u64 = jobs.iter().map(Job::tasks).sum();
                e2e_rounds.push([
                    (tasks as f64, wall),
                    (jobs.len() as f64, wall),
                    (st.rows as f64, st.ingest_s),
                    (st.compact.rows as f64, st.compact.secs),
                    (st.compact.disk_bytes as f64, st.rows as f64),
                ]);
                scan_rounds.push(crate::stats::median(&st.scans));
                lookup_rounds.push(crate::stats::median(&st.lookups));
                scans.extend(st.scans);
                lookups.extend(st.lookups);
                last = Some((round, results));
            }
            Phase::Traced => {
                let before = tracer.closed();
                let root = tracer.open("bench.round", None, round as u64);
                let traced = traced_jobs(&tracer, &root, &jobs);
                let check = tracer.open("bench.check", Some(&root), round as u64);
                let (_, untraced) = last.as_ref().expect("an untraced round ran first");
                for (k, (a, b)) in traced.iter().zip(untraced).enumerate() {
                    for (i, (x, y)) in a.iter().zip(b).enumerate() {
                        checks.check(same_run(x, y), || {
                            format!("job {k} trial {i}: traced replay differs from core")
                        });
                    }
                }
                tracer.close(check, Vec::new());
                let summaries: Vec<TrialSummary> = traced
                    .iter()
                    .map(|r| hetsched_core::summarize_runs(r))
                    .collect();
                let st = store_step(
                    campaign,
                    &ctx.work.join(format!("store-{round}-t")),
                    &jobs,
                    &traced,
                    &summaries,
                    &mut checks,
                    Some((&tracer, &root)),
                );
                scans.extend(st.scans);
                lookups.extend(st.lookups);
                tracer.close(root, Vec::new());
                let spans = tracer.since(before);
                layer_rounds.push(campaign_layers(&spans));
                last_spans = spans;
            }
        }
        clock.elapsed_s()
    });

    // Verification outside the timed phase.
    let pinned = make_jobs(crate::DEFAULT_SEED);
    let (results, _, _) = run_jobs(&pinned);
    let want = if fleet { FLEET_DIGEST } else { SWEEP_DIGEST };
    let got = digest(&results);
    checks.check(got == want, || {
        format!("{campaign} digest at the default seed is {got:#018x}, pinned {want:#018x}")
    });
    if fleet {
        // The threaded tree equals the serial tree bit for bit.
        let (round, threaded) = last.as_ref().expect("at least one untraced round");
        for (job, got) in round_jobs(*round).iter().zip(threaded) {
            if job.cfg.tree_threads.is_none() {
                continue;
            }
            let serial_cfg = ExperimentConfig {
                tree_threads: None,
                ..job.cfg.clone()
            };
            let (serial, _) = run_trials_collected(&serial_cfg, job.trials, job.seed, Some(1));
            for (i, (a, b)) in serial.iter().zip(got).enumerate() {
                checks.check(same_run(a, b), || {
                    format!(
                        "p={} trial {i}: threaded tree differs from serial",
                        job.cfg.processors
                    )
                });
            }
        }
    }

    let rate = |k: usize| crate::rate(e2e_rounds.iter().map(|r| r[k]));
    let ratio = |k: usize| crate::ratio(e2e_rounds.iter().map(|r| r[k]));
    let e2e = vec![
        metric("setup_s", "s", setup_s),
        metric("sim_tasks_per_s", "1/s", rate(0)),
        metric("jobs_per_s", "1/s", rate(1)),
        metric("ingest_rows_per_s", "rows/s", rate(2)),
        metric(
            "scan_p50_ms",
            "ms",
            crate::stats::interquartile_mean(&scan_rounds) * 1e3,
        ),
        metric(
            "lookup_p50_ms",
            "ms",
            crate::stats::interquartile_mean(&lookup_rounds) * 1e3,
        ),
        metric("compact_rows_per_s", "rows/s", rate(3)),
        metric("disk_bytes_per_row", "B/row", ratio(4)),
    ];
    let mut layers = crate::median_layers(&layer_rounds);
    if ctx.trace && !fleet {
        let (frac, spread) = probe_overhead(ctx.seed);
        layers.push(metric("sim.probe_overhead_frac", "frac", frac));
        layers.push(metric("sim.probe_overhead_frac.iqr", "frac", spread));
    }
    layers.extend(crate::store_tails(&scans, &lookups));
    Outcome {
        checks,
        e2e,
        layers,
        phases,
        spans: last_spans,
    }
}

/// Per-layer numbers of one traced round.
fn campaign_layers(spans: &[crate::trace::Span]) -> Vec<Metric> {
    let t = SpanTree::new(spans);
    let trials: Vec<f64> = t.named("core.trial").map(|s| s.dur()).collect();
    let busy: f64 = trials.iter().sum();
    let cap: f64 = t
        .named("core.trials")
        .map(|s| s.arg("threads").unwrap_or(1.0) * s.dur())
        .sum();
    let net_task_us = |p: f64| {
        let runs = || t.named("sim.net_engine").filter(|s| s.arg("p") == Some(p));
        let tasks: f64 = runs().filter_map(|s| s.arg("tasks")).sum();
        let secs: f64 = runs().map(|s| s.dur()).sum();
        if tasks > 0.0 {
            secs / tasks * 1e6
        } else {
            0.0
        }
    };
    // Skew and efficiency of the largest trees, the ones that should scale.
    let tree_at = |key: &str| {
        let pmax = t
            .named("sim.tree")
            .filter_map(|s| s.arg("p"))
            .fold(0.0, f64::max);
        let v: Vec<f64> = t
            .named("sim.tree")
            .filter(|s| s.arg("p") == Some(pmax))
            .filter_map(|s| s.arg(key))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    };
    let mut out = vec![
        metric("platform.sample_s", "s", t.total("platform.sample")),
        metric(
            "analysis.optimal_beta_s",
            "s",
            t.total("analysis.optimal_beta"),
        ),
        metric(
            "analysis.optimal_beta_calls",
            "count",
            t.count("analysis.optimal_beta") as f64,
        ),
        metric("outer.on_request_s", "s", t.total("outer.on_request")),
        metric(
            "outer.requests",
            "count",
            t.arg_total("outer.on_request", "requests"),
        ),
        metric("matmul.on_request_s", "s", t.total("matmul.on_request")),
        metric(
            "matmul.requests",
            "count",
            t.arg_total("matmul.on_request", "requests"),
        ),
        metric("sim.engine_s", "s", t.total("sim.engine")),
        metric("sim.engine_self_s", "s", t.self_total("sim.engine")),
        metric("sim.net_engine_s", "s", t.total("sim.net_engine")),
        metric("sim.net_engine_self_s", "s", t.self_total("sim.net_engine")),
        metric("sim.net_task_us.p1000", "us", net_task_us(1000.0)),
        metric("sim.net_task_us.p10000", "us", net_task_us(10000.0)),
        metric("sim.tree_s", "s", t.total("sim.tree")),
        metric("sim.tree_root_s", "s", t.arg_total("sim.tree", "root_s")),
        metric("sim.tree_merge_s", "s", t.arg_total("sim.tree", "merge_s")),
        metric("sim.tree_shard_skew", "ratio", tree_at("skew")),
        metric("sim.tree_parallel_eff", "frac", tree_at("eff")),
        metric("partition.plan_s", "s", t.total("partition.plan")),
        metric(
            "partition.plan_calls",
            "count",
            t.count("partition.plan") as f64,
        ),
        metric(
            "core.trial_p50_ms",
            "ms",
            crate::stats::median(&trials) * 1e3,
        ),
        metric(
            "core.trial_max_ms",
            "ms",
            trials.iter().copied().fold(0.0, f64::max) * 1e3,
        ),
        metric(
            "core.parallel_map_idle_frac",
            "frac",
            if cap > 0.0 { 1.0 - busy / cap } else { 0.0 },
        ),
    ];
    out.extend(crate::store_layers(&t));
    out.push(metric(
        "bench.unattributed_s",
        "s",
        t.self_total("bench.round"),
    ));
    out
}
