//! Real execution of the outer product under any scheduler.

use crate::block::{outer_kernel, BlockedMatrix, BlockedVector};
use crate::protocol::{BlockTag, ExecConfig, ExecReport};
use crate::runtime::{execute, Kernel};
use hetsched_sim::Scheduler;

/// `M = a·bᵗ`: task `i·n + j` computes result block `(i, j)` from block
/// `i` of `a` and block `j` of `b`.
struct Outer<'a> {
    a: &'a BlockedVector,
    b: &'a BlockedVector,
}

impl Kernel for Outer<'_> {
    fn n(&self) -> usize {
        self.a.n_blocks()
    }

    fn l(&self) -> usize {
        self.a.l()
    }

    fn input_blocks(&self) -> usize {
        self.a.n_blocks()
    }

    fn task(&self, id: u32) -> (usize, usize, (usize, usize)) {
        let n = self.n();
        let (i, j) = (id as usize / n, id as usize % n);
        (i, j, (i, j))
    }

    fn copy_block(&self, tag: BlockTag) -> Vec<f64> {
        match tag {
            BlockTag::A(i) => self.a.copy_block(i as usize),
            BlockTag::B(j) => self.b.copy_block(j as usize),
        }
    }

    fn compute(&self, a: &[f64], b: &[f64], c: &mut [f64]) {
        // A result block has exactly one task and reaches each worker at
        // most once, so overwriting the zeroed block is adding to it.
        outer_kernel(a, b, c);
    }
}

/// Executes `M = a·bᵗ` with `cfg.speeds.len()` worker threads driven by
/// `scheduler`. Returns the assembled matrix and the execution report.
///
/// The scheduler must have been constructed for `n = a.n_blocks()` blocks
/// and `p = cfg.speeds.len()` workers (`total_tasks() == n²`).
pub fn run_outer<S: Scheduler>(
    scheduler: S,
    a: &BlockedVector,
    b: &BlockedVector,
    cfg: &ExecConfig,
) -> (BlockedMatrix, ExecReport) {
    let n = a.n_blocks();
    assert_eq!(b.n_blocks(), n);
    assert_eq!(b.l(), a.l());
    assert_eq!(
        scheduler.total_tasks(),
        n * n,
        "scheduler sized for a different problem"
    );
    execute(&Outer { a, b }, scheduler, cfg, 0xE8EC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::reference_outer;
    use hetsched_outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};

    fn check<S: Scheduler>(scheduler: S, n: usize, l: usize, cfg: &ExecConfig) -> ExecReport {
        let a = BlockedVector::random(n, l, 11);
        let b = BlockedVector::random(n, l, 22);
        let (m, report) = run_outer(scheduler, &a, &b, cfg);
        let reference = reference_outer(&a, &b);
        // Outer product blocks are computed exactly once each: equality is
        // exact (no accumulation-order effects).
        assert_eq!(m.max_abs_diff(&reference), 0.0);
        assert_eq!(report.total_tasks(), (n * n) as u64);
        report
    }

    #[test]
    fn dynamic_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(4, 1);
        let report = check(DynamicOuter::new(12, 4), 12, 4, &cfg);
        assert_eq!(report.result_blocks_returned, 144);
        assert!(report.input_blocks_shipped >= 2 * 12);
    }

    #[test]
    fn random_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 2);
        check(RandomOuter::new(10, 3), 10, 3, &cfg);
    }

    #[test]
    fn sorted_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 3);
        check(SortedOuter::new(8, 3), 8, 2, &cfg);
    }

    #[test]
    fn two_phase_executes_correctly() {
        let cfg = ExecConfig::homogeneous(5, 4);
        check(DynamicOuter2Phases::with_beta(14, 5, 3.0), 14, 3, &cfg);
    }

    #[test]
    fn heterogeneous_speeds_skew_task_shares() {
        // Blocks must be big enough that the kernel dominates channel
        // round-trips, otherwise both workers alternate in lock-step and
        // the emulated speeds cannot show.
        let cfg = ExecConfig {
            speeds: vec![1.0, 8.0],
            seed: 5,
            faults: Vec::new(),
        };
        let report = check(RandomOuter::new(16, 2), 16, 96, &cfg);
        // The 8× worker must do clearly more tasks (timing noise allowed,
        // hence a loose 1.5× assertion for a nominal 8× gap).
        let slow = report.tasks_per_worker[0] as f64;
        let fast = report.tasks_per_worker[1] as f64;
        assert!(fast > 1.5 * slow, "fast worker did {fast}, slow did {slow}");
    }

    #[test]
    fn lazy_shipping_never_exceeds_two_blocks_per_task() {
        let cfg = ExecConfig::homogeneous(4, 6);
        let report = check(RandomOuter::new(10, 4), 10, 2, &cfg);
        assert!(report.input_blocks_shipped <= 2 * 100);
        // And never below the single-copy minimum for the blocks used.
        assert!(report.input_blocks_shipped >= 2 * 10);
    }

    #[test]
    fn single_worker_matches_lower_bound_exactly() {
        let cfg = ExecConfig::homogeneous(1, 7);
        let report = check(DynamicOuter::new(9, 1), 9, 2, &cfg);
        assert_eq!(report.input_blocks_shipped, 18);
    }

    #[test]
    fn killed_worker_is_recovered_exactly_once() {
        // Worker 1's thread is killed once it has been assigned 5 tasks,
        // losing every result it held. The master re-queues its
        // assignments and the survivors produce a bit-exact matrix anyway.
        let cfg = ExecConfig::homogeneous(3, 8).fail_after_tasks(1, 5);
        let report = check(RandomOuter::new(10, 3), 10, 3, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
        // RandomOuter allocates one task per request, so the master had
        // assigned exactly five when it killed the worker.
        assert_eq!(report.tasks_lost_per_worker[1], 5);
        assert_eq!(report.tasks_lost_per_worker[1], report.jobs_per_worker[1]);
        assert_eq!(report.tasks_lost_per_worker[0], 0);
        assert_eq!(report.tasks_lost_per_worker[2], 0);
    }

    #[test]
    fn killed_worker_recovery_works_for_data_aware_strategies() {
        for seed in [1u64, 2, 3] {
            let cfg = ExecConfig::homogeneous(4, seed).fail_after_tasks(2, 8);
            let report = check(DynamicOuter2Phases::with_beta(12, 4, 3.0), 12, 2, &cfg);
            assert!(
                report.total_tasks_lost() > 0,
                "fault never fired (seed {seed})"
            );
            // The allocations up to the kill follow from the seed alone.
            let again = check(DynamicOuter2Phases::with_beta(12, 4, 3.0), 12, 2, &cfg);
            assert_eq!(again.tasks_lost_per_worker, report.tasks_lost_per_worker);
        }
    }

    #[test]
    fn unfireable_fault_is_cancelled() {
        // Threshold far above the task count: the fault can never fire and
        // the run must terminate normally, losing nothing.
        let cfg = ExecConfig::homogeneous(2, 9).fail_after_tasks(0, 1_000_000);
        let report = check(RandomOuter::new(6, 2), 6, 2, &cfg);
        assert_eq!(report.total_tasks_lost(), 0);
    }
}
