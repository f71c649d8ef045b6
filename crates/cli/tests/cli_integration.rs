//! End-to-end tests that drive the compiled `hetsched` binary the way a
//! shell user would: real argv, real exit codes, captured stdout/stderr.
//!
//! Cargo exposes the binary path via `CARGO_BIN_EXE_hetsched`, so these run
//! under a plain `cargo test` with no extra tooling.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

fn hetsched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetsched"))
        .args(args)
        .output()
        .expect("failed to spawn hetsched binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUBCOMMANDS: [&str; 15] = [
    "simulate",
    "analyze",
    "partition",
    "dag",
    "figures",
    "serve",
    "submit",
    "status",
    "logs",
    "drain",
    "query",
    "stats",
    "ingest",
    "compact",
    "help",
];

#[test]
fn help_lists_every_subcommand_and_flag_group() {
    let out = hetsched(&["help"]);
    assert!(out.status.success(), "help must exit 0: {}", stderr(&out));
    let text = stdout(&out);

    for cmd in SUBCOMMANDS {
        assert!(text.contains(cmd), "help must list `{cmd}`:\n{text}");
    }
    for flag in [
        "--store",
        "--campaign",
        "--select",
        "--where",
        "--group-by",
        "--agg",
        "--kernel",
        "--fail-exp",
        "--price-returns",
        "--socket",
        "--lease-ttl",
        "--n",
        "--p",
        "--strategy",
        "--beta",
        "--trials",
        "--seed",
        "--scenario",
        "--speeds",
        "--fail",
        "--straggler",
        "--net",
        "--bandwidth",
        "--worker-bw",
        "--latency",
        "--policy",
        "--quick",
        "--threads",
        "--max-segment-rows",
        "--compact-threshold",
    ] {
        assert!(text.contains(flag), "help must list `{flag}`:\n{text}");
    }
}

#[test]
fn every_subcommand_answers_help() {
    let out = hetsched(&["--help"]);
    assert!(out.status.success(), "--help must exit 0: {}", stderr(&out));
    assert!(stdout(&out).contains("COMMANDS"), "{}", stdout(&out));
    assert!(stderr(&out).is_empty(), "{}", stderr(&out));
    for cmd in SUBCOMMANDS {
        let out = hetsched(&[cmd, "--help"]);
        let text = stdout(&out);
        assert!(
            out.status.success(),
            "`{cmd} --help` must exit 0: {}",
            stderr(&out)
        );
        assert!(stderr(&out).is_empty(), "`{cmd} --help`: {}", stderr(&out));
        let section = text
            .lines()
            .find(|l| l.starts_with(&format!("  {cmd} ")))
            .unwrap_or_else(|| panic!("`{cmd} --help` lacks its usage line:\n{text}"));
        assert!(
            text.starts_with(&format!("USAGE: hetsched {cmd}")),
            "{text}"
        );
        assert!(!section.is_empty());
        assert!(
            !text.contains("COMMANDS"),
            "`{cmd} --help` is one section:\n{text}"
        );
    }
    let simulate = stdout(&hetsched(&["simulate", "--help"]));
    assert!(simulate.contains("--trace-out"), "{simulate}");
    assert!(!simulate.contains("--group-by"), "{simulate}");
}

#[test]
fn no_arguments_is_an_error_that_shows_usage() {
    let out = hetsched(&[]);
    assert!(!out.status.success(), "bare invocation must be an error");
    let err = stderr(&out);
    assert!(err.contains("USAGE"), "usage must be shown: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn tiny_simulate_run_exits_zero() {
    let out = hetsched(&[
        "simulate",
        "--n",
        "12",
        "--p",
        "4",
        "--strategy",
        "dynamic",
        "--trials",
        "2",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("makespan"), "report incomplete:\n{text}");
}

#[test]
fn tiny_networked_run_exits_zero() {
    let out = hetsched(&[
        "simulate",
        "--n",
        "12",
        "--p",
        "4",
        "--trials",
        "2",
        "--net",
        "one-port",
        "--bandwidth",
        "8",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("network model"),
        "diagnostics missing:\n{text}"
    );
    assert!(text.contains("master-link utilization"), "{text}");
}

#[test]
fn unknown_command_is_a_clean_error() {
    let out = hetsched(&["simulat"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("error:"), "expected error prefix, got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn invalid_fail_spec_is_a_clean_error() {
    for spec in ["3", "3@", "@1.0", "3@abc", "notanumber@1.0"] {
        let out = hetsched(&["simulate", "--n", "12", "--p", "4", "--fail", spec]);
        assert!(!out.status.success(), "`--fail {spec}` must be rejected");
        let err = stderr(&out);
        assert!(err.contains("error:"), "`--fail {spec}`: {err}");
        assert!(!err.contains("panicked"), "`--fail {spec}` panicked: {err}");
    }
}

#[test]
fn tree_topology_traces_and_probes_reject_cleanly() {
    // Tree tracing is supported: the merged shard trace lands on disk.
    let path = std::env::temp_dir().join(format!(
        "hetsched-cli-{}-tree-trace.jsonl",
        std::process::id()
    ));
    let path_s = path.to_str().unwrap();
    let out = hetsched(&[
        "simulate",
        "--n",
        "12",
        "--p",
        "4",
        "--trials",
        "1",
        "--topology",
        "tree",
        "--trace-out",
        path_s,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("trace written"), "{}", stdout(&out));
    let meta = std::fs::metadata(&path).expect("trace file written");
    assert!(meta.len() > 0, "trace file is empty");
    std::fs::remove_file(&path).ok();

    // Probes stay flat-only under multiple sub-masters: per-worker probe
    // snapshots of differently-sized shard engines do not merge.
    let out = hetsched(&[
        "simulate",
        "--n",
        "12",
        "--p",
        "4",
        "--topology",
        "tree",
        "--trace-out",
        "/tmp/never-written.jsonl",
        "--probe-every",
        "8",
    ]);
    assert!(!out.status.success(), "tree + probes must be rejected");
    let err = stderr(&out);
    assert!(err.contains("sub-masters"), "must say why: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn bad_submasters_and_doomed_shards_are_clean_errors() {
    for submasters in ["0", "9"] {
        let out = hetsched(&[
            "simulate",
            "--n",
            "12",
            "--p",
            "4",
            "--topology",
            "tree",
            "--submasters",
            submasters,
        ]);
        assert!(
            !out.status.success(),
            "--submasters {submasters} on p=4 must be rejected"
        );
        let err = stderr(&out);
        assert!(err.contains("error:"), "expected error prefix: {err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }

    // Killing every worker of shard 0 (workers 0..2 of a 2-shard split)
    // used to trip the engine's survivor assert mid-run; now it is a
    // clean up-front error.
    let out = hetsched(&[
        "simulate",
        "--n",
        "12",
        "--p",
        "4",
        "--topology",
        "tree",
        "--submasters",
        "2",
        "--fail",
        "0@0.0,1@0.0",
    ]);
    assert!(!out.status.success(), "doomed shard must be rejected");
    let err = stderr(&out);
    assert!(
        err.contains("survivor"),
        "must explain the shard rule: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

// ---------------------------------------------------------------------------
// Service mode: daemon + client subcommands over the Unix socket.

/// A scratch directory plus the daemon flags pointing into it.
struct ServeDir {
    dir: PathBuf,
}

impl ServeDir {
    fn new(name: &str) -> ServeDir {
        let dir = std::env::temp_dir().join(format!("hetsched-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ServeDir { dir }
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("daemon.sock")
    }

    fn log(&self) -> PathBuf {
        self.dir.join("events.jsonl")
    }

    fn results(&self) -> PathBuf {
        self.dir.join("results")
    }

    /// Spawns `hetsched serve` pointed at this directory and waits for
    /// the socket to appear (the daemon's readiness signal).
    fn spawn_daemon(&self, workers: &str) -> Child {
        let child = Command::new(env!("CARGO_BIN_EXE_hetsched"))
            .args([
                "serve",
                "--socket",
                self.socket().to_str().unwrap(),
                "--log",
                self.log().to_str().unwrap(),
                "--results-dir",
                self.results().to_str().unwrap(),
                "--workers",
                workers,
            ])
            .spawn()
            .expect("spawn daemon");
        wait_until("daemon socket", || self.socket().exists());
        child
    }

    fn client(&self, args: &[&str]) -> Output {
        let mut argv = args.to_vec();
        let socket = self.socket();
        argv.push("--socket");
        argv.push(socket.to_str().unwrap());
        hetsched(&argv)
    }
}

impl Drop for ServeDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_for_exit(mut child: Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("timed out waiting for {what} to exit");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn serve_round_trip_submit_status_logs_drain() {
    let dir = ServeDir::new("roundtrip");
    let daemon = dir.spawn_daemon("2");

    let out = dir.client(&["submit", "n=16", "p=4", "trials=2", "seed=3", "name=alpha"]);
    assert!(out.status.success(), "submit: {}", stderr(&out));
    assert!(stdout(&out).contains("submitted job 1"), "{}", stdout(&out));

    let out = dir.client(&[
        "submit",
        "n=24",
        "p=4",
        "trials=2",
        "seed=4",
        "name=beta",
        "strategy=random",
    ]);
    assert!(out.status.success(), "submit: {}", stderr(&out));
    assert!(stdout(&out).contains("submitted job 2"), "{}", stdout(&out));

    // A malformed spec is refused client-side with a clean error.
    let out = dir.client(&["submit", "warp=9"]);
    assert!(!out.status.success(), "bad spec must be rejected");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));

    let out = dir.client(&["status"]);
    assert!(out.status.success(), "status: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("alpha") && text.contains("beta"), "{text}");

    // Drain blocks until both jobs are terminal, then stops the daemon.
    let out = dir.client(&["drain"]);
    assert!(out.status.success(), "drain: {}", stderr(&out));
    assert!(
        stdout(&out).contains("2 done, 0 failed"),
        "{}",
        stdout(&out)
    );
    wait_for_exit(daemon, "drained daemon");

    // The event log reconciles with the emitted result manifests.
    let log = std::fs::read_to_string(dir.log()).expect("event log");
    assert_eq!(log.matches(r#""event":"done""#).count(), 2, "{log}");
    assert!(log.trim_end().ends_with(r#"{"event":"drained"}"#), "{log}");
    for id in [1, 2] {
        let manifest = dir.results().join(format!("job-{id}.json"));
        assert!(manifest.exists(), "missing {}", manifest.display());
    }
    assert!(!dir.socket().exists(), "socket removed on clean shutdown");
}

/// Reads the per-job result manifests a drained campaign left behind.
fn manifests(results: &Path, jobs: u64) -> Vec<Vec<u8>> {
    (1..=jobs)
        .map(|id| {
            let path = results.join(format!("job-{id}.json"));
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        })
        .collect()
}

const RECOVERY_JOBS: &[&[&str]] = &[
    &["submit", "n=16", "p=4", "trials=2", "seed=21", "name=quick"],
    &[
        "submit",
        "n=48",
        "p=8",
        "trials=30",
        "seed=22",
        "name=heavy",
    ],
    &["submit", "n=32", "p=8", "trials=10", "seed=23", "name=tail"],
];

#[test]
fn crash_recovery_replays_to_identical_results() {
    // Baseline: the same three jobs on an uninterrupted single-worker
    // daemon. FIFO + one worker makes the execution order deterministic.
    let baseline = ServeDir::new("recovery-baseline");
    let daemon = baseline.spawn_daemon("1");
    for job in RECOVERY_JOBS {
        let out = baseline.client(job);
        assert!(out.status.success(), "baseline submit: {}", stderr(&out));
    }
    let out = baseline.client(&["drain"]);
    assert!(out.status.success(), "baseline drain: {}", stderr(&out));
    wait_for_exit(daemon, "baseline daemon");
    let expected = manifests(&baseline.results(), 3);

    // Crash run: same jobs, but the daemon is SIGKILLed as soon as the
    // first manifest lands — mid-campaign, with work still queued.
    let crashed = ServeDir::new("recovery-crash");
    let mut daemon = crashed.spawn_daemon("1");
    for job in RECOVERY_JOBS {
        let out = crashed.client(job);
        assert!(out.status.success(), "crash-run submit: {}", stderr(&out));
    }
    wait_until("first manifest", || {
        crashed.results().join("job-1.json").exists()
    });
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();
    // SIGKILL leaves the socket file behind; remove it so the restarted
    // daemon's freshly-bound socket is what the readiness wait sees.
    let _ = std::fs::remove_file(crashed.socket());

    // Restart over the same log + results dir: replay re-queues whatever
    // was interrupted, re-runs it deterministically, and drains to the
    // same final state.
    let daemon = crashed.spawn_daemon("1");
    let out = crashed.client(&["drain"]);
    assert!(out.status.success(), "recovered drain: {}", stderr(&out));
    assert!(
        stdout(&out).contains("3 done, 0 failed"),
        "{}",
        stdout(&out)
    );
    wait_for_exit(daemon, "recovered daemon");

    let recovered = manifests(&crashed.results(), 3);
    for (i, (a, b)) in expected.iter().zip(&recovered).enumerate() {
        assert_eq!(
            a,
            b,
            "job {} manifest differs between uninterrupted and recovered runs",
            i + 1
        );
    }
    let log = std::fs::read_to_string(crashed.log()).expect("event log");
    assert_eq!(
        log.matches(r#""event":"daemon_start""#).count(),
        2,
        "one start, one restart: {log}"
    );
    assert_eq!(
        log.matches(r#""event":"done""#).count(),
        3,
        "every job reaches done exactly once across both lives: {log}"
    );
}

// ---------------------------------------------------------------------------
// Trace-analytics warehouse: query / stats / ingest against a real store.

/// A scratch directory holding a store populated by one probed
/// `simulate --store` run.
fn populated_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetsched-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = hetsched(&[
        "simulate",
        "--n",
        "24",
        "--p",
        "4",
        "--trials",
        "2",
        "--seed",
        "17",
        "--probe-every",
        "8",
        "--store",
        dir.to_str().unwrap(),
        "--campaign",
        "itest",
    ]);
    assert!(out.status.success(), "populate: {}", stderr(&out));
    assert!(stdout(&out).contains("ingested"), "{}", stdout(&out));
    dir
}

#[test]
fn store_query_and_stats_over_a_simulated_campaign() {
    let dir = populated_store("store-query");
    let store = dir.to_str().unwrap();

    let query = [
        "query",
        "--store",
        store,
        "--where",
        "kind=report,metric=makespan",
        "--group-by",
        "strategy",
        "--agg",
        "count,mean(value),p50(value)",
    ];
    let out = hetsched(&query);
    assert!(out.status.success(), "query: {}", stderr(&out));
    let first = stdout(&out);
    assert!(first.contains("DynamicOuter2Phases"), "{first}");
    assert!(
        first.starts_with("strategy,count,mean(value),p50(value)"),
        "{first}"
    );

    // Golden byte-stability: the same query twice gives identical bytes.
    let again = hetsched(&query);
    assert!(again.status.success(), "repeat query: {}", stderr(&again));
    assert_eq!(first, stdout(&again), "query output must be byte-stable");

    // JSONL rendering of the same result is also available.
    let mut jsonl = query.to_vec();
    jsonl.extend_from_slice(&["--format", "jsonl"]);
    let out = hetsched(&jsonl);
    assert!(out.status.success(), "jsonl query: {}", stderr(&out));
    assert!(stdout(&out).contains(r#""strategy":"#), "{}", stdout(&out));

    // The canned summaries see the same campaign.
    let out = hetsched(&["stats", "--store", store]);
    assert!(out.status.success(), "stats: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("makespan"), "{text}");
    assert!(!text.contains("store is empty"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_merges_fragmented_store_without_changing_query_output() {
    let dir =
        std::env::temp_dir().join(format!("hetsched-cli-{}-store-compact", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap().to_string();

    // Several small simulate runs, each committing its own segment(s).
    for seed in ["3", "5", "7", "11"] {
        let out = hetsched(&[
            "simulate",
            "--n",
            "24",
            "--p",
            "4",
            "--trials",
            "2",
            "--seed",
            seed,
            "--probe-every",
            "8",
            "--store",
            &store,
            "--campaign",
            "frag",
        ]);
        assert!(out.status.success(), "seed {seed}: {}", stderr(&out));
    }
    let segments = |dir: &std::path::Path| -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("seg-") && name.ends_with(".hsc")
            })
            .count()
    };
    let before = segments(&dir);
    assert!(
        before >= 4,
        "expected a fragmented store, got {before} segments"
    );

    // Golden query with association-free aggregates (count/min/max/pNN are
    // exact whatever the chunk layout, so bytes must survive compaction).
    let query = [
        "query",
        "--store",
        store.as_str(),
        "--where",
        "kind=report,metric=makespan",
        "--group-by",
        "strategy",
        "--agg",
        "count,min(value),max(value),p50(value)",
    ];
    let out = hetsched(&query);
    assert!(out.status.success(), "golden query: {}", stderr(&out));
    let golden = stdout(&out);
    assert!(golden.contains("DynamicOuter2Phases"), "{golden}");

    // The same query through the parallel scanner is byte-identical.
    for threads in ["1", "2", "8"] {
        let mut mt = query.to_vec();
        mt.extend_from_slice(&["--threads", threads]);
        let out = hetsched(&mt);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            golden,
            "--threads {threads} must not change output bytes"
        );
    }

    let out = hetsched(&["compact", "--store", &store]);
    assert!(out.status.success(), "compact: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("compacted"), "{text}");
    let after = segments(&dir);
    assert!(
        after < before,
        "compaction must shrink the store: {before} -> {after}"
    );

    let out = hetsched(&query);
    assert!(out.status.success(), "post-compact query: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        golden,
        "compaction must not change query output"
    );

    // A second pass finds nothing left to merge.
    let out = hetsched(&["compact", "--store", &store]);
    assert!(out.status.success(), "re-compact: {}", stderr(&out));
    assert!(
        stdout(&out).contains("nothing to compact"),
        "{}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_rejects_invalid_thread_counts_and_percentiles() {
    let dir = populated_store("store-bad-flags");
    let store = dir.to_str().unwrap();

    let out = hetsched(&[
        "query",
        "--store",
        store,
        "--agg",
        "count",
        "--threads",
        "0",
    ]);
    assert!(!out.status.success(), "--threads 0 must be rejected");
    let err = stderr(&out);
    assert!(err.contains("--threads"), "{err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");

    let out = hetsched(&["query", "--store", store, "--agg", "p101(value)"]);
    assert!(!out.status.success(), "p101 must be rejected");
    let err = stderr(&out);
    assert!(err.contains("[0, 100]"), "{err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_rejects_unknown_columns_and_malformed_predicates() {
    let dir = populated_store("store-errors");
    let store = dir.to_str().unwrap();

    let out = hetsched(&["query", "--store", store, "--select", "flavour"]);
    assert!(!out.status.success(), "unknown column must be rejected");
    let err = stderr(&out);
    assert!(err.contains("unknown column"), "{err}");
    assert!(err.contains("flavour"), "must name the column: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");

    let out = hetsched(&["query", "--store", store, "--where", "kind~probe"]);
    assert!(
        !out.status.success(),
        "malformed predicate must be rejected"
    );
    let err = stderr(&out);
    assert!(err.contains("malformed predicate"), "{err}");
    assert!(err.contains("kind~probe"), "must quote the input: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");

    let out = hetsched(&["query", "--store", store, "--agg", "median(value)"]);
    assert!(!out.status.success(), "unknown aggregate must be rejected");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("hetsched-cli-{}-store-empty", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();

    let out = hetsched(&["query", "--store", store, "--select", "campaign,run"]);
    assert!(out.status.success(), "empty query: {}", stderr(&out));
    assert_eq!(stdout(&out), "campaign,run\n", "header only, no rows");

    let out = hetsched(&["stats", "--store", store]);
    assert!(out.status.success(), "empty stats: {}", stderr(&out));
    assert!(stdout(&out).contains("store is empty"), "{}", stdout(&out));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_round_trips_a_trace_file() {
    let dir = std::env::temp_dir().join(format!("hetsched-cli-{}-store-trace", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let store = dir.join("store");

    let out = hetsched(&[
        "simulate",
        "--n",
        "24",
        "--p",
        "4",
        "--trials",
        "1",
        "--seed",
        "5",
        "--probe-every",
        "8",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-format",
        "jsonl",
    ]);
    assert!(out.status.success(), "trace run: {}", stderr(&out));

    let out = hetsched(&[
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--campaign",
        "replayed",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "ingest: {}", stderr(&out));
    assert!(stdout(&out).contains("trace row(s)"), "{}", stdout(&out));

    let out = hetsched(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--where",
        "kind=probe",
        "--agg",
        "count",
    ]);
    assert!(out.status.success(), "count query: {}", stderr(&out));
    let text = stdout(&out);
    let n: u64 = text.lines().nth(1).unwrap_or("0").parse().unwrap();
    assert!(n > 0, "probe samples must survive the round trip: {text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn invalid_bandwidth_spec_is_a_clean_error() {
    let cases: &[&[&str]] = &[
        &["--net", "one-port"],                        // missing --bandwidth
        &["--net", "one-port", "--bandwidth", "zero"], // not a number
        &["--net", "one-port", "--bandwidth", "-3"],   // non-positive
        &["--net", "warp-drive", "--bandwidth", "10"], // unknown model
        &["--bandwidth", "10"],                        // bandwidth without --net
        &["--net", "multiport", "--bandwidth", "10"],  // missing --worker-bw
    ];
    for extra in cases {
        let mut args = vec!["simulate", "--n", "12", "--p", "4"];
        args.extend_from_slice(extra);
        let out = hetsched(&args);
        assert!(!out.status.success(), "{extra:?} must be rejected");
        let err = stderr(&out);
        assert!(err.contains("error:"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?} panicked: {err}");
    }
}
