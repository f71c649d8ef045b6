//! The real threaded runtime against the simulator: same schedulers, real
//! data, verified numerics, consistent communication accounting.

use hetsched::exec::block::{reference_matmul, reference_outer, BlockedMatrix, BlockedVector};
use hetsched::exec::{run_matmul, run_outer, ExecConfig};
use hetsched::matmul::{DynamicMatrix2Phases, RandomMatrix};
use hetsched::outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};

#[test]
fn all_outer_strategies_produce_the_exact_product() {
    let n = 15;
    let l = 4;
    let a = BlockedVector::random(n, l, 1);
    let b = BlockedVector::random(n, l, 2);
    let reference = reference_outer(&a, &b);
    let cfg = ExecConfig::homogeneous(4, 9);

    let runs: Vec<(&str, BlockedMatrix)> = vec![
        ("random", run_outer(RandomOuter::new(n, 4), &a, &b, &cfg).0),
        ("sorted", run_outer(SortedOuter::new(n, 4), &a, &b, &cfg).0),
        (
            "dynamic",
            run_outer(DynamicOuter::new(n, 4), &a, &b, &cfg).0,
        ),
        (
            "two-phase",
            run_outer(DynamicOuter2Phases::with_beta(n, 4, 3.0), &a, &b, &cfg).0,
        ),
    ];
    for (label, m) in runs {
        assert_eq!(m.max_abs_diff(&reference), 0.0, "{label}");
    }
}

#[test]
fn matmul_two_phase_matches_reference_with_many_workers() {
    let n = 8;
    let l = 5;
    let a = BlockedMatrix::random(n, l, 3);
    let b = BlockedMatrix::random(n, l, 4);
    let reference = reference_matmul(&a, &b);
    let cfg = ExecConfig {
        speeds: vec![1.0, 1.0, 2.0, 3.0, 5.0, 8.0],
        seed: 10,
        faults: Vec::new(),
    };
    let (c, report) = run_matmul(DynamicMatrix2Phases::with_beta(n, 6, 2.5), &a, &b, &cfg);
    assert!(c.max_abs_diff(&reference) < 1e-10);
    assert_eq!(report.total_tasks(), 512);
}

#[test]
fn exec_comm_ordering_matches_simulation_findings() {
    // The real runtime must reproduce the paper's ordering: the data-aware
    // scheduler moves far fewer input blocks than the random one.
    let n = 20;
    let l = 2;
    let a = BlockedMatrix::random(n, l, 5);
    let b = BlockedMatrix::random(n, l, 6);
    let cfg = ExecConfig::homogeneous(8, 11);
    let (_, dyn_report) = run_matmul(DynamicMatrix2Phases::with_beta(n, 8, 3.0), &a, &b, &cfg);
    let (_, rnd_report) = run_matmul(RandomMatrix::new(n, 8), &a, &b, &cfg);
    assert!(
        dyn_report.input_blocks_shipped * 3 < rnd_report.input_blocks_shipped * 2,
        "dynamic {} vs random {}",
        dyn_report.input_blocks_shipped,
        rnd_report.input_blocks_shipped
    );
}

#[test]
fn exec_ships_at_most_what_the_scheduler_accounted() {
    // The master ships lazily (only blocks the allocated tasks need), so
    // real traffic is bounded by the scheduler's own ledger for the same
    // run. We re-run the identical scheduler/seed in the simulator to get
    // the ledger... the RNG streams differ between engine and exec, so the
    // comparison is statistical: exec's lazy volume must not exceed the
    // per-strategy worst case.
    let n = 16;
    let l = 2;
    let a = BlockedVector::random(n, l, 7);
    let b = BlockedVector::random(n, l, 8);
    let cfg = ExecConfig::homogeneous(4, 12);
    let (_, report) = run_outer(RandomOuter::new(n, 4), &a, &b, &cfg);
    // RandomOuter ships at most 2 blocks per task and at least each block
    // once.
    assert!(report.input_blocks_shipped <= 2 * (n * n) as u64);
    assert!(report.input_blocks_shipped >= 2 * n as u64);
}

#[test]
fn exec_respects_exactly_once_under_concurrency() {
    // Sum of per-worker task counts equals the task total for every
    // strategy — checked through the runtime (allocation and execution
    // race with real threads).
    let n = 12;
    let cfg = ExecConfig::homogeneous(6, 13);
    let a = BlockedVector::random(n, 3, 9);
    let b = BlockedVector::random(n, 3, 10);
    for _ in 0..3 {
        let (_, report) = run_outer(DynamicOuter::new(n, 6), &a, &b, &cfg);
        assert_eq!(report.total_tasks(), (n * n) as u64);
        assert_eq!(report.tasks_per_worker.len(), 6, "one counter per worker");
    }
}

#[test]
fn killed_worker_still_yields_the_exact_product() {
    // A worker thread is killed once the master has assigned it five
    // tasks; its whole assignment history is lost (results only flush at
    // shutdown) and the survivors recompute it. The final matrix must still match the sequential reference bit
    // for bit, and the ledger must balance.
    let n = 12;
    let l = 3;
    let a = BlockedVector::random(n, l, 21);
    let b = BlockedVector::random(n, l, 22);
    let reference = reference_outer(&a, &b);
    let cfg = ExecConfig::homogeneous(4, 23).fail_after_tasks(2, 5);
    let (m, report) = run_outer(DynamicOuter::new(n, 4), &a, &b, &cfg);
    assert_eq!(m.max_abs_diff(&reference), 0.0);
    assert_eq!(report.total_tasks(), (n * n) as u64);
    assert!(report.total_tasks_lost() > 0, "the fault must have fired");
    assert_eq!(
        report.tasks_per_worker[2], 0,
        "the dead worker's work is voided"
    );
}

#[test]
fn exec_result_blocks_counted_correctly() {
    // Outer: every C block travels back exactly once (unique owner).
    let n = 10;
    let cfg = ExecConfig::homogeneous(3, 14);
    let a = BlockedVector::random(n, 2, 11);
    let b = BlockedVector::random(n, 2, 12);
    let (_, report) = run_outer(RandomOuter::new(n, 3), &a, &b, &cfg);
    assert_eq!(report.result_blocks_returned, (n * n) as u64);

    // Matmul: between n² (single contributor each) and p·n².
    let am = BlockedMatrix::random(n, 2, 13);
    let bm = BlockedMatrix::random(n, 2, 14);
    let (_, report) = run_matmul(RandomMatrix::new(n, 3), &am, &bm, &cfg);
    assert!(report.result_blocks_returned >= (n * n) as u64);
    assert!(report.result_blocks_returned <= (3 * n * n) as u64);
}
