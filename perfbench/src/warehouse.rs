//! The `warehouse` workload: one client reading and writing a store that
//! already holds a generated campaign.
//!
//! A round first generates its own campaign and pre-ingests it (the
//! set-up), then runs: a bulk ingest of more generated probe runs;
//! interleaved small ingests — each a JSONL trace rendered by
//! `core::render_trace`, parsed by `rows_for_text` and committed — each
//! followed by a full group-by scan and a pruned lookup; one
//! `Store::compact`; then more scans and lookups over the compacted
//! layout. Fragmentation builds up during the round and compaction
//! removes it, so both sides of the read/write/space trade show.
//!
//! Every round draws its data from the run's seed and its own index.
//! Segment names hash their contents, and the scan threads split the
//! name-ordered chunk list into halves, so how evenly the two threads are
//! loaded depends on the data: one seed's layout can scan twice as slowly
//! as another's. Fresh data per round makes a run's figures an average
//! over many layouts instead of the luck of one.

use crate::report::{metric, Checks, Metric};
use crate::store_ops::{self, Probe};
use crate::trace::{Open, SpanTree, Tracer};
use crate::{fnv, Ctx, Outcome, Phase};
use hetsched_core::{render_trace, ExperimentConfig, Kernel, Strategy, TraceFormat};
use hetsched_sim::ProbeConfig;
use hetsched_store::{rows_for_text, Row, Store};
use hetsched_util::rng::{derive_seed, rng_for};
use rand::Rng;

/// `run_query_with(…, 2)`: the host's two cores.
const QUERY_THREADS: usize = 2;
const PRE_RUNS: u64 = 12;
const BULK_RUNS: u64 = 6;
const SAMPLES: usize = 200;
const WORKERS: usize = 20;
const TRICKLES: usize = 12;
/// With `TRICKLES`, an odd number of queries of each kind per round, so
/// the pooled median sits inside one target's cluster.
const AFTER_COMPACT_QUERIES: usize = 3;

/// Pinned digest of the trickle traces rendered at [`crate::DEFAULT_SEED`].
pub const TRACE_DIGEST: u64 = 0xd63a_f430_9945_4692;

/// Zone-map-friendly run seeds: consecutive small integers per campaign.
fn run_seed(seed: u64, run: u64) -> u64 {
    (seed & 0xffff_ffff) * 1024 + run
}

/// One generated probe run: `SAMPLES × WORKERS` rows in sample order.
fn probe_run(seed: u64, run: u64) -> Vec<Row> {
    let mut rng = rng_for(seed, 0x5700 + run);
    let strategies = [
        "RandomOuter",
        "SortedOuter",
        "DynamicOuter",
        "DynamicOuter2Phases",
    ];
    let strategy = strategies[rng.gen_range(0..strategies.len())];
    let config = format!("{:016x}", rng.gen::<u64>());
    let run_id = format!("run-{run}");
    let mut rows = Vec::with_capacity(SAMPLES * WORKERS);
    for s in 0..SAMPLES {
        for w in 0..WORKERS {
            let mut r = Row::new("warehouse", &run_id, "probe", &config);
            r.strategy = strategy.to_string();
            r.metric = "sample".to_string();
            r.seed = run_seed(seed, run);
            r.worker = w as i64;
            r.t = s as f64 * 0.25;
            r.events = (s * 131 + w) as u64;
            r.remaining = ((SAMPLES - s) * 17) as u64;
            r.blocks = rng.gen_range(0..97);
            r.tasks = rng.gen_range(0..89);
            r.useful = rng.gen::<f64>();
            r.link_busy = rng.gen::<f64>();
            r.queue_depth = rng.gen_range(0..13);
            r.beta = 3.0;
            rows.push(r);
        }
    }
    rows
}

/// The small experiments whose traces trickle in: fixed shapes, so every
/// seed renders the same amount of work; the seed picks the run seeds.
fn trickle_configs(seed: u64) -> Vec<(ExperimentConfig, u64)> {
    (0..TRICKLES)
        .map(|i| {
            let cfg = ExperimentConfig {
                kernel: Kernel::Outer {
                    n: [24, 28, 32, 36][i % 4],
                },
                strategy: [Strategy::Random, Strategy::Dynamic, Strategy::Sorted][i % 3],
                processors: [4, 6, 8][i % 3],
                ..Default::default()
            };
            (cfg, run_seed(seed, 512 + i as u64))
        })
        .collect()
}

fn render(cfg: &ExperimentConfig, seed: u64) -> String {
    render_trace(cfg, seed, ProbeConfig::by_events(8), TraceFormat::Jsonl)
}

/// Lookup `i` of a round: a point lookup on one run's seed or a range
/// over three consecutive runs.
fn lookup(seed: u64, i: usize) -> Probe {
    let run = (i as u64 * 5 + 1) % (PRE_RUNS + BULK_RUNS - 3);
    let lo = run_seed(seed, run);
    if i.is_multiple_of(2) {
        store_ops::lookup(&format!("seed={lo}"), QUERY_THREADS, move |r| r.seed == lo)
    } else {
        let hi = lo + 3;
        store_ops::lookup(&format!("seed={lo}..{hi}"), QUERY_THREADS, move |r| {
            (lo..hi).contains(&r.seed)
        })
    }
}

struct RoundOut {
    /// Generating the campaign and pre-ingesting it.
    setup_s: f64,
    ingest_rows: usize,
    ingest_s: f64,
    render_s: f64,
    trickle_s: f64,
    tasks: u64,
    compact: store_ops::Compacted,
    live_rows: usize,
}

fn round(
    ctx: &Ctx,
    idx: usize,
    checks: &mut Checks,
    scans: &mut Vec<f64>,
    lookups: &mut Vec<f64>,
    tracer: Option<(&Tracer, &Open)>,
) -> RoundOut {
    let dir = ctx.work.join(format!("round-{idx}"));
    let span = |name: &'static str| tracer.map(|(t, root)| t.open(name, Some(root), idx as u64));
    let end = |open: Option<Open>| {
        if let (Some((t, _)), Some(o)) = (tracer, open) {
            t.close(o, Vec::new());
        }
    };
    let seed = derive_seed(ctx.seed, idx as u64);
    let calibrate = tracer.is_none();

    // Set-up: the round's campaign, pre-ingested one commit per run.
    let prep = span("bench.prepare");
    let _ = std::fs::remove_dir_all(&dir);
    let ((store, mut all, bulk), setup_s) = crate::host::timed(calibrate, 1, || {
        let store = Store::open(&dir).expect("open round store");
        let mut pre = Vec::new();
        for run in 0..PRE_RUNS {
            let rows = probe_run(seed, run);
            pre.extend(rows.iter().cloned());
            let mut batch = store.batch();
            batch.push_all(rows);
            batch.commit().expect("pre-ingest commit");
        }
        let bulk: Vec<Vec<Row>> = (PRE_RUNS..PRE_RUNS + BULK_RUNS)
            .map(|run| probe_run(seed, run))
            .collect();
        (store, pre, bulk)
    });
    end(prep);

    let t = |id: usize| tracer.map(|(t, root)| (t, root, id as u64));
    let mut ingest_rows = 0;
    let mut ingest_s = 0.0;
    for (k, rows) in bulk.into_iter().enumerate() {
        ingest_rows += rows.len();
        all.extend(rows.iter().cloned());
        ingest_s += store_ops::timed_commit(&store, rows, checks, t(k));
    }

    let scan = store_ops::scan(QUERY_THREADS);
    let (mut render_s, mut trickle_s, mut tasks) = (0.0, 0.0, 0u64);
    for (i, (cfg, trace_seed)) in trickle_configs(seed).iter().enumerate() {
        let id = 100 + i;
        let (text, rendered) = crate::host::timed(calibrate, 1, || match tracer {
            Some((tr, root)) => tr.span("core.render_trace", Some(root), id as u64, |_| {
                render(cfg, *trace_seed)
            }),
            None => render(cfg, *trace_seed),
        });
        let parse = span("store.parse_text");
        let (parsed, parse_s) =
            crate::host::timed(calibrate, 1, || rows_for_text("warehouse", &text));
        end(parse);
        let rows = match parsed {
            Ok((rows, "trace")) => rows,
            other => {
                checks.check(false, || {
                    format!("trickle {i} did not parse as a trace: {other:?}")
                });
                continue;
            }
        };
        ingest_rows += rows.len();
        all.extend(rows.iter().cloned());
        let commit_s = store_ops::timed_commit(&store, rows, checks, t(id));
        ingest_s += parse_s + commit_s;
        render_s += rendered;
        trickle_s += rendered + parse_s + commit_s;
        tasks += cfg.kernel.total_tasks() as u64;

        scans.push(store_ops::timed_query(
            &store,
            &scan,
            &all,
            checks,
            t(id),
            "store.scan",
        ));
        lookups.push(store_ops::timed_query(
            &store,
            &lookup(seed, i),
            &all,
            checks,
            t(id),
            "store.lookup",
        ));
    }

    let compact = store_ops::timed_compact(&store, &scan, checks, t(200));
    for i in 0..AFTER_COMPACT_QUERIES {
        let id = 300 + i;
        scans.push(store_ops::timed_query(
            &store,
            &scan,
            &all,
            checks,
            t(id),
            "store.scan",
        ));
        lookups.push(store_ops::timed_query(
            &store,
            &lookup(seed, TRICKLES + i),
            &all,
            checks,
            t(id),
            "store.lookup",
        ));
    }
    checks.check(store.total_rows() == Ok(all.len()), || {
        "stored row count differs from rows committed".to_string()
    });
    crate::discard(&dir);
    RoundOut {
        setup_s,
        ingest_rows,
        ingest_s,
        render_s,
        trickle_s,
        tasks,
        compact,
        live_rows: all.len(),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let tracer = Tracer::default();
    // The span file holds the last traced round.
    let mut last_spans = Vec::new();
    let mut phases = crate::Phases::default();
    let mut per_round: Vec<[(f64, f64); 5]> = Vec::new();
    let mut layer_rounds: Vec<Vec<Metric>> = Vec::new();
    let (mut scans, mut lookups) = (Vec::new(), Vec::new());
    // Each untraced round's median scan and lookup latency.
    let (mut scan_rounds, mut lookup_rounds) = (Vec::new(), Vec::new());
    crate::drive(ctx, &mut phases, |phase, i| {
        let clock = crate::host::RoundClock::start();
        let traced = phase == Phase::Traced;
        let before = tracer.closed();
        let root = traced.then(|| tracer.open("bench.round", None, i as u64));
        let queried = (scans.len(), lookups.len());
        let out = round(
            ctx,
            i * 2 + usize::from(traced),
            &mut checks,
            &mut scans,
            &mut lookups,
            root.as_ref().map(|r| (&tracer, r)),
        );
        let wall = clock.elapsed_s();
        if let Some(root) = root {
            tracer.close(root, Vec::new());
            let spans = tracer.since(before);
            let t = SpanTree::new(&spans);
            let mut layers = crate::store_layers(&t);
            layers.push(metric(
                "bench.unattributed_s",
                "s",
                t.self_total("bench.round"),
            ));
            layer_rounds.push(layers);
            last_spans = spans;
        } else {
            setups.push(out.setup_s);
            scan_rounds.push(crate::stats::median(&scans[queried.0..]));
            lookup_rounds.push(crate::stats::median(&lookups[queried.1..]));
            per_round.push([
                (out.ingest_rows as f64, out.ingest_s),
                (out.compact.rows as f64, out.compact.secs),
                (out.compact.disk_bytes as f64, out.live_rows as f64),
                (out.tasks as f64, out.render_s),
                (TRICKLES as f64, out.trickle_s),
            ]);
        }
        wall
    });

    // The trickle traces at the default seed are pinned by digest.
    let mut h = fnv::Fnv::default();
    for (cfg, seed) in trickle_configs(crate::DEFAULT_SEED) {
        h.bytes(render(&cfg, seed).as_bytes());
    }
    checks.check(h.finish() == TRACE_DIGEST, || {
        format!(
            "warehouse trace digest at the default seed is {:#018x}, pinned {TRACE_DIGEST:#018x}",
            h.finish()
        )
    });

    let rate = |k: usize| crate::rate(per_round.iter().map(|r| r[k]));
    let ratio = |k: usize| crate::ratio(per_round.iter().map(|r| r[k]));
    let e2e = vec![
        metric("setup_s", "s", crate::stats::median(&setups)),
        metric("sim_tasks_per_s", "1/s", rate(3)),
        metric("jobs_per_s", "1/s", rate(4)),
        metric("ingest_rows_per_s", "rows/s", rate(0)),
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
        metric("compact_rows_per_s", "rows/s", rate(1)),
        metric("disk_bytes_per_row", "B/row", ratio(2)),
    ];
    let mut layers = crate::median_layers(&layer_rounds);
    layers.extend(crate::store_tails(&scans, &lookups));
    Outcome {
        checks,
        e2e,
        layers,
        phases,
        spans: last_spans,
    }
}
