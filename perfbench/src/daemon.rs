//! The `daemon` workload: an in-process `hetsched_serve::serve` with two
//! workers and the store on, driven by one client connection.
//!
//! Each round starts a fresh daemon (set-up: spawn up to the first `ping`
//! reply), submits a burst of small heterogeneous job specs on one
//! connection, one request at a time (a closed loop with one client),
//! sends `drain` and waits for the reply. The analyst then queries the
//! daemon's store and compacts it.
//!
//! The traced round also replays the daemon's per-job path stage by stage
//! through the public functions it calls — `parse_job_spec`,
//! `predict_makespan`, `EventLog`, `run_trials_with_threads`,
//! `manifest_json` plus the file write, `contains_run`, `summary_rows`
//! plus commit, and the compaction trigger — so the stage times can be set
//! against the per-job service time, and checks that every replayed
//! manifest is byte-identical to the daemon's.

use crate::report::{metric, Checks, Metric};
use crate::store_ops;
use crate::trace::{Open, SpanTree, Tracer};
use crate::{fnv, Ctx, Outcome, Phase};
use hetsched_core::provenance::{json_escape, manifest_json};
use hetsched_core::{parse_job_spec, run_trials_with_threads};
use hetsched_serve::proto::{read_frame, u64_field, write_frame};
use hetsched_serve::{predict_makespan, serve, EventLog, JobOutcome, Policy, ServeOpts};
use hetsched_store::{summary_rows, Row, RunKey, Store, CHUNK_ROWS};
use hetsched_util::rng::{derive_seed, rng_for};
use rand::seq::SliceRandom;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const JOBS: usize = 2000;
const WORKERS: usize = 2;
/// `ServeOpts`' default compaction threshold.
const COMPACT_THRESHOLD: usize = 64;
/// Odd query counts keep the pooled median inside one lookup target's
/// cluster instead of on the edge between two.
const SCANS: usize = 5;
/// The analyst queries serially while the daemon's two workers are gone.
const QUERY_THREADS: usize = 1;
const LOOKUPS: usize = 5;
/// Summary rows the daemon stores per job.
const ROWS_PER_JOB: usize = 10;

/// Pinned digest of the job outcomes at [`crate::DEFAULT_SEED`].
pub const OUTCOME_DIGEST: u64 = 0x2548_e82b_6665_c0a3;

fn job_seed(seed: u64, i: usize) -> u64 {
    (seed & 0xffff_ffff) * 4096 + i as u64
}

/// The job shapes of a burst: both kernels, every dynamic strategy, free
/// or one-port network, one or two trials. Every burst holds each shape
/// equally often, so bursts of different seeds cost the same; the seed
/// orders the jobs and seeds each one's platform draw.
const SHAPES: [&str; 10] = [
    "kernel=outer n=12 p=4 strategy=random trials=1",
    "kernel=outer n=16 p=6 strategy=sorted trials=2",
    "kernel=outer n=20 p=8 strategy=dynamic trials=1",
    "kernel=outer n=24 p=10 strategy=two-phase trials=2",
    "kernel=outer n=18 p=5 strategy=dynamic trials=1 net=one-port bandwidth=40",
    "kernel=outer n=22 p=6 strategy=random trials=1 net=one-port bandwidth=25",
    "kernel=outer n=14 p=7 strategy=two-phase trials=1",
    "kernel=matmul n=6 p=3 strategy=random trials=1",
    "kernel=matmul n=8 p=5 strategy=dynamic trials=2",
    "kernel=matmul n=7 p=4 strategy=two-phase trials=1 net=one-port bandwidth=60",
];

pub fn job_specs(seed: u64) -> Vec<String> {
    let mut order: Vec<usize> = (0..JOBS).map(|i| i % SHAPES.len()).collect();
    order.shuffle(&mut rng_for(seed, 0xd4));
    order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            format!(
                "{} seed={} name=j{i} group=g{}",
                SHAPES[k],
                job_seed(seed, i),
                i % 3
            )
        })
        .collect()
}

fn opts(dir: &Path) -> ServeOpts {
    ServeOpts {
        socket: dir.join("sock"),
        log: dir.join("events.jsonl"),
        results_dir: dir.join("results"),
        policy: Policy::Fifo,
        workers: WORKERS,
        store: Some(dir.join("store")),
        compact_threshold: COMPACT_THRESHOLD,
        ..ServeOpts::default()
    }
}

fn ask(stream: &mut UnixStream, payload: &str) -> Option<String> {
    write_frame(stream, payload).ok()?;
    read_frame(stream).ok()?
}

/// Starts a daemon in `dir`; returns it and a connection that has had its
/// first `ping` reply.
fn start(dir: &Path) -> (JoinHandle<std::io::Result<()>>, UnixStream) {
    let opts = opts(dir);
    let socket = opts.socket.clone();
    let handle = std::thread::spawn(move || serve(opts));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut stream) = UnixStream::connect(&socket) {
            if ask(&mut stream, r#"{"cmd":"ping"}"#).is_some_and(|r| r.contains("\"ok\":true")) {
                return (handle, stream);
            }
        }
        assert!(Instant::now() < deadline, "daemon never answered ping");
        // Retry at once: a sleep would round the set-up time up to the
        // timer's granularity.
        std::thread::yield_now();
    }
}

struct RoundOut {
    setup_s: f64,
    /// First submit to the drain reply, in wall seconds and as timed
    /// (reference seconds when untraced).
    wall_s: f64,
    timed_s: f64,
    tasks: u64,
    rtts: Vec<f64>,
    drain_wait_s: f64,
    done: u64,
    failed: u64,
    compact: store_ops::Compacted,
    rows: usize,
}

#[allow(clippy::too_many_arguments)]
fn round(
    dir: &Path,
    seed: u64,
    checks: &mut Checks,
    scans: &mut Vec<f64>,
    lookups: &mut Vec<f64>,
    tracer: Option<(&Tracer, &Open)>,
) -> RoundOut {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("round directory");
    let calibrate = tracer.is_none();
    // Set-up: the burst — generated, each spec parsed by the daemon's own
    // parser for its task count, encoded as request frames — and a daemon
    // started up to its first `ping` reply, so the client does nothing but
    // socket I/O inside the timed window. The start alone is a fraction
    // of a millisecond that a busy host stretches tenfold for minutes at a
    // time; the burst keeps that from being all the figure is made of.
    let ((specs, tasks, requests, (handle, mut stream)), setup_s) =
        crate::host::timed(calibrate, 1, || {
            let specs = job_specs(seed);
            let tasks: u64 = specs
                .iter()
                .filter_map(|s| parse_job_spec(s).ok())
                .map(|r| (r.cfg.kernel.total_tasks() * r.trials) as u64)
                .sum();
            let requests: Vec<String> = specs
                .iter()
                .map(|s| format!(r#"{{"cmd":"submit","spec":"{}"}}"#, json_escape(s)))
                .collect();
            (specs, tasks, requests, start(dir))
        });
    if let Some((t, root)) = tracer {
        let now = t.now();
        t.record("serve.setup", Some(root), 0, now - setup_s, now, Vec::new());
    }

    let gauge = crate::host::Gauge::start(calibrate, WORKERS);
    let first = Instant::now();
    let mut rtts = Vec::with_capacity(specs.len());
    for (i, request) in requests.iter().enumerate() {
        let open = tracer.map(|(t, root)| t.open("serve.submit", Some(root), i as u64 + 1));
        let t0 = Instant::now();
        let reply = ask(&mut stream, request);
        rtts.push(t0.elapsed().as_secs_f64());
        if let (Some((t, _)), Some(o)) = (tracer, open) {
            t.close(o, Vec::new());
        }
        let id = reply.as_deref().and_then(|r| u64_field(r, "job"));
        checks.check(id == Some(i as u64 + 1), || {
            format!("submit {i} answered {reply:?}")
        });
    }
    let drain = tracer.map(|(t, root)| t.open("serve.drain_wait", Some(root), 0));
    let t0 = Instant::now();
    let reply = ask(&mut stream, r#"{"cmd":"drain"}"#).unwrap_or_default();
    let drain_wait_s = t0.elapsed().as_secs_f64();
    let wall_s = first.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(o)) = (tracer, drain) {
        t.close(o, Vec::new());
    }
    drop(stream);
    let served = handle.join();
    // Calibrated once the daemon's threads are gone.
    let timed_s = gauge.finish(wall_s);
    checks.check(matches!(served, Ok(Ok(()))), || {
        format!("daemon exited with {served:?}")
    });
    let done = u64_field(&reply, "done").unwrap_or(0);
    let failed = u64_field(&reply, "failed").unwrap_or(u64::MAX);
    checks.check(done == specs.len() as u64 && failed == 0, || {
        format!("drain reply {reply}")
    });

    // Every manifest exists; the store holds every job's summary rows.
    let check = tracer.map(|(t, root)| t.open("bench.check", Some(root), 0));
    let missing = (1..=specs.len())
        .filter(|id| !dir.join(format!("results/job-{id}.json")).is_file())
        .count();
    checks.check(missing == 0, || format!("{missing} manifests missing"));
    let store = Store::open(&dir.join("store")).expect("open the daemon's store");
    let rows: Vec<Row> = store
        .segments()
        .map(|segs| {
            segs.iter()
                .flat_map(|s| s.rows().unwrap_or_default())
                .collect()
        })
        .unwrap_or_default();
    checks.check(rows.len() == specs.len() * ROWS_PER_JOB, || {
        format!("store holds {} rows for {} jobs", rows.len(), specs.len())
    });
    // A few jobs recomputed from their specs match what the daemon stored.
    for i in [0, specs.len() / 2, specs.len() - 1] {
        let req = parse_job_spec(&specs[i]).expect("generated spec parses");
        let want = run_trials_with_threads(&req.cfg, req.trials, req.seed, Some(1))
            .makespan
            .mean();
        let run = format!("job-{}", i + 1);
        let got = rows
            .iter()
            .find(|r| r.run == run && r.metric == "makespan")
            .map(|r| r.value);
        checks.check(got.map(f64::to_bits) == Some(want.to_bits()), || {
            format!("{run}: stored makespan {got:?}, recomputed {want}")
        });
    }
    if let (Some((t, _)), Some(o)) = (tracer, check) {
        t.close(o, Vec::new());
    }

    // The analyst's queries over the fresh store, then a compaction.
    let t = |id: u64| tracer.map(|(t, root)| (t, root, id));
    let scan = store_ops::scan(QUERY_THREADS);
    for i in 0..SCANS {
        scans.push(store_ops::timed_query(
            &store,
            &scan,
            &rows,
            checks,
            t(i as u64),
            "store.scan",
        ));
    }
    for i in 0..LOOKUPS {
        let lo = job_seed(seed, (i * 37 + 5) % (specs.len() - 3));
        let probe = if i % 2 == 0 {
            store_ops::lookup(&format!("seed={lo}"), QUERY_THREADS, move |r| r.seed == lo)
        } else {
            store_ops::lookup(&format!("seed={lo}..{}", lo + 3), QUERY_THREADS, move |r| {
                (lo..lo + 3).contains(&r.seed)
            })
        };
        lookups.push(store_ops::timed_query(
            &store,
            &probe,
            &rows,
            checks,
            t(i as u64),
            "store.lookup",
        ));
    }
    let compact = store_ops::timed_compact(&store, &scan, checks, t(0));

    RoundOut {
        setup_s,
        wall_s,
        timed_s,
        tasks,
        rtts,
        drain_wait_s,
        done,
        failed,
        compact,
        rows: rows.len(),
    }
}

/// The daemon's per-job path, replayed serially through the public
/// functions it calls; returns the summed stage time.
fn replay(dir: &Path, specs: &[String], tracer: &Tracer, root: &Open, checks: &mut Checks) -> f64 {
    let rdir = dir.join("replay");
    let _ = std::fs::remove_dir_all(&rdir);
    std::fs::create_dir_all(rdir.join("results")).expect("replay directory");
    let store = Store::open(&rdir.join("store")).expect("replay store");
    let mut log = EventLog::open(&rdir.join("events.jsonl")).expect("replay log");
    let mut stages = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64 + 1;
        let job = tracer.open("serve.job", Some(root), id);
        let mut stage = |name: &'static str, f: &mut dyn FnMut(&Open)| {
            let o = tracer.open(name, Some(&job), id);
            f(&o);
            stages += tracer.close(o, Vec::new());
        };
        let mut req = None;
        stage("serve.job_parse", &mut |_| req = parse_job_spec(spec).ok());
        let Some(req) = req else {
            checks.check(false, || format!("replayed spec {i} does not parse"));
            continue;
        };
        let mut predicted = 0.0;
        stage("serve.job_predict", &mut |_| {
            predicted = predict_makespan(&req)
        });
        stage("serve.job_log_append", &mut |_| {
            let _ = log.submitted(id, spec, predicted);
            let _ = log.leased(id);
        });
        let mut summary = None;
        stage("serve.job_run", &mut |_| {
            summary = Some(run_trials_with_threads(
                &req.cfg,
                req.trials,
                req.seed,
                Some(1),
            ))
        });
        let summary = summary.expect("trials ran");
        let outcome = JobOutcome {
            makespan_mean: summary.makespan.mean(),
            total_blocks_mean: summary.total_blocks.mean(),
            normalized_comm_mean: summary.normalized_comm.mean(),
        };
        let name = format!("job-{id}.json");
        stage("serve.job_manifest", &mut |_| {
            let manifest = manifest_json(
                &req.cfg,
                req.seed,
                1,
                &[
                    ("job", id.to_string()),
                    ("name", format!("\"{}\"", json_escape(&req.name))),
                    ("group", format!("\"{}\"", json_escape(&req.group))),
                    ("trials", req.trials.to_string()),
                    ("makespan_mean", outcome.makespan_mean.to_string()),
                    ("total_blocks_mean", outcome.total_blocks_mean.to_string()),
                    (
                        "normalized_comm_mean",
                        outcome.normalized_comm_mean.to_string(),
                    ),
                ],
            );
            let _ = std::fs::write(rdir.join("results").join(&name), manifest);
        });
        let mut ingested = false;
        stage("serve.job_store_ingest", &mut |o| {
            let key = RunKey::new("serve", &format!("job-{id}"), req.seed, &req.cfg);
            let seen = tracer.span("store.contains_run", Some(o), id, |_| {
                store.contains_run(&key.campaign, &key.run, &key.config)
            });
            let rows = summary_rows(&key, req.cfg.strategy.label(req.cfg.kernel), &summary);
            let c = tracer.open("store.commit", Some(o), id);
            let n = rows.len() as f64;
            let mut batch = store.batch();
            batch.push_all(rows);
            ingested = seen == Ok(false) && batch.commit().is_ok();
            tracer.close(c, vec![("rows", n)]);
        });
        checks.check(ingested, || {
            format!("replayed store ingest of job {id} failed")
        });
        stage("serve.job_log_append", &mut |_| {
            let _ = log.done(id, &outcome);
        });
        stage("serve.compact", &mut |_| {
            if store.small_segment_count().unwrap_or(0) >= COMPACT_THRESHOLD {
                let _ = store.compact(CHUNK_ROWS);
                let now = tracer.now();
                tracer.record("serve.compaction", Some(&job), id, now, now, Vec::new());
            }
        });
        tracer.close(job, Vec::new());
        let same = std::fs::read(rdir.join("results").join(&name)).ok()
            == std::fs::read(dir.join("results").join(&name)).ok();
        checks.check(same, || {
            format!("replayed {name} differs from the daemon's")
        });
    }
    stages
}

/// FNV-1a of every job outcome at `seed`, computed directly.
fn outcome_digest(seed: u64) -> u64 {
    let mut h = fnv::Fnv::default();
    for spec in job_specs(seed) {
        let req = parse_job_spec(&spec).expect("generated spec parses");
        let s = run_trials_with_threads(&req.cfg, req.trials, req.seed, Some(1));
        h.f64(s.makespan.mean());
        h.f64(s.total_blocks.mean());
        h.f64(s.normalized_comm.mean());
        h.f64(predict_makespan(&req));
    }
    h.finish()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    // Every round submits its own burst, drawn from the run's seed and
    // the round's index (round 0 is the untimed warm-up): the job order
    // decides which jobs two workers run side by side and when the store
    // compacts, so fresh bursts make a run's figures an average over many
    // orders instead of the luck of one.
    let round_seed = |round: usize| derive_seed(ctx.seed, round as u64);
    let tracer = Tracer::default();
    // The span file holds the last traced round.
    let mut last_spans = Vec::new();
    let mut phases = crate::Phases::default();
    let mut setups = Vec::new();
    let mut per_round: Vec<[(f64, f64); 5]> = Vec::new();
    let mut layer_rounds: Vec<Vec<Metric>> = Vec::new();
    let (mut scans, mut lookups) = (Vec::new(), Vec::new());
    // Each untraced round's median scan and lookup latency.
    let (mut scan_rounds, mut lookup_rounds) = (Vec::new(), Vec::new());
    // One untimed round first, so the first timed one does not pay for
    // cold caches.
    let warm = ctx.work.join("warm-up");
    round(
        &warm,
        round_seed(0),
        &mut checks,
        &mut Vec::new(),
        &mut Vec::new(),
        None,
    );
    crate::discard(&warm);
    crate::drive(ctx, &mut phases, |phase, i| {
        let dir: PathBuf = ctx
            .work
            .join(format!("round-{i}-{}", phase == Phase::Traced));
        let before = tracer.closed();
        let root = (phase == Phase::Traced).then(|| tracer.open("bench.round", None, i as u64));
        let queried = (scans.len(), lookups.len());
        let seed = round_seed(i + 1);
        let out = round(
            &dir,
            seed,
            &mut checks,
            &mut scans,
            &mut lookups,
            root.as_ref().map(|r| (&tracer, r)),
        );
        // Round wall for the tracing overhead: the timed phase only.
        let wall = out.wall_s;
        match root {
            None => {
                setups.push(out.setup_s);
                scan_rounds.push(crate::stats::median(&scans[queried.0..]));
                lookup_rounds.push(crate::stats::median(&lookups[queried.1..]));
                per_round.push([
                    (JOBS as f64, out.timed_s),
                    (out.tasks as f64, out.timed_s),
                    (out.rows as f64, out.timed_s),
                    (out.compact.rows as f64, out.compact.secs),
                    (out.compact.disk_bytes as f64, out.rows as f64),
                ]);
            }
            Some(root) => {
                let stages = replay(&dir, &job_specs(seed), &tracer, &root, &mut checks);
                tracer.close(root, Vec::new());
                let spans = tracer.since(before);
                let t = SpanTree::new(&spans);
                let mut layers = vec![
                    metric(
                        "serve.submit_rtt_p50_ms",
                        "ms",
                        crate::stats::median(&out.rtts) * 1e3,
                    ),
                    metric(
                        "serve.submit_rtt_tail_ms",
                        "ms",
                        crate::stats::tail_or_max(&out.rtts) * 1e3,
                    ),
                    metric("serve.drain_wait_s", "s", out.drain_wait_s),
                    metric("serve.jobs_done", "count", out.done as f64),
                    metric("serve.jobs_failed", "count", out.failed as f64),
                    metric("serve.job_parse_s", "s", t.total("serve.job_parse")),
                    metric("serve.job_predict_s", "s", t.total("serve.job_predict")),
                    metric("serve.job_run_s", "s", t.total("serve.job_run")),
                    metric("serve.job_manifest_s", "s", t.total("serve.job_manifest")),
                    metric(
                        "serve.job_store_ingest_s",
                        "s",
                        t.total("serve.job_store_ingest"),
                    ),
                    metric(
                        "serve.job_log_append_s",
                        "s",
                        t.total("serve.job_log_append"),
                    ),
                    metric("serve.compact_s", "s", t.total("serve.compact")),
                    metric(
                        "serve.compactions",
                        "count",
                        t.count("serve.compaction") as f64,
                    ),
                    metric(
                        "serve.stages_over_service",
                        "frac",
                        stages / (WORKERS as f64 * out.wall_s),
                    ),
                ];
                layers.extend(crate::store_layers(&t));
                layers.push(metric(
                    "bench.unattributed_s",
                    "s",
                    t.self_total("bench.round"),
                ));
                layer_rounds.push(layers);
                last_spans = spans;
            }
        }
        crate::discard(&dir);
        wall
    });

    checks.check(
        outcome_digest(crate::DEFAULT_SEED) == OUTCOME_DIGEST,
        || {
            format!(
            "daemon outcome digest at the default seed is {:#018x}, pinned {OUTCOME_DIGEST:#018x}",
            outcome_digest(crate::DEFAULT_SEED)
        )
        },
    );

    let rate = |k: usize| crate::rate(per_round.iter().map(|r| r[k]));
    let ratio = |k: usize| crate::ratio(per_round.iter().map(|r| r[k]));
    let e2e = vec![
        metric("setup_s", "s", crate::stats::median(&setups)),
        metric("jobs_per_s", "1/s", rate(0)),
        metric("sim_tasks_per_s", "1/s", rate(1)),
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
    layers.extend(crate::store_tails(&scans, &lookups));
    Outcome {
        checks,
        e2e,
        layers,
        phases,
        spans: last_spans,
    }
}
