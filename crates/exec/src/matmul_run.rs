//! Real execution of the matrix multiplication under any scheduler.

use crate::block::{gemm_kernel, BlockedMatrix};
use crate::protocol::{BlockTag, ExecConfig, ExecReport};
use crate::runtime::{execute, Kernel};
use hetsched_sim::Scheduler;

/// `C = A·B`: task `(i·n + j)·n + k` adds `A[i,k]·B[k,j]` to `C[i,j]`.
/// Input block ids are row-major: `A[i,k]` is `i·n + k`, `B[k,j]` is
/// `k·n + j`.
struct Matmul<'a> {
    a: &'a BlockedMatrix,
    b: &'a BlockedMatrix,
}

impl Kernel for Matmul<'_> {
    fn n(&self) -> usize {
        self.a.n_blocks()
    }

    fn l(&self) -> usize {
        self.a.l()
    }

    fn input_blocks(&self) -> usize {
        self.n() * self.n()
    }

    fn task(&self, id: u32) -> (usize, usize, (usize, usize)) {
        let n = self.n();
        let id = id as usize;
        let (rest, k) = (id / n, id % n);
        let (i, j) = (rest / n, rest % n);
        (i * n + k, k * n + j, (i, j))
    }

    fn copy_block(&self, tag: BlockTag) -> Vec<f64> {
        let n = self.n();
        match tag {
            BlockTag::A(id) => self.a.copy_block(id as usize / n, id as usize % n),
            BlockTag::B(id) => self.b.copy_block(id as usize / n, id as usize % n),
        }
    }

    fn compute(&self, a: &[f64], b: &[f64], c: &mut [f64]) {
        gemm_kernel(self.l(), a, b, c);
    }
}

/// Executes `C = A·B` with `cfg.speeds.len()` worker threads driven by
/// `scheduler` (`total_tasks() == n³` for `n = a.n_blocks()`).
///
/// Each worker accumulates its `C[i,j]` contributions locally and flushes
/// them at shutdown; the master sums the per-worker contributions. Result
/// blocks therefore travel once per (worker, C-block) pair, matching the
/// paper's accounting where `C` traffic is deferred to the end of the
/// computation.
pub fn run_matmul<S: Scheduler>(
    scheduler: S,
    a: &BlockedMatrix,
    b: &BlockedMatrix,
    cfg: &ExecConfig,
) -> (BlockedMatrix, ExecReport) {
    let n = a.n_blocks();
    assert_eq!(b.n_blocks(), n);
    assert_eq!(b.l(), a.l());
    assert_eq!(
        scheduler.total_tasks(),
        n * n * n,
        "scheduler sized for a different problem"
    );
    execute(&Matmul { a, b }, scheduler, cfg, 0xE8ED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::reference_matmul;
    use hetsched_matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};

    fn check<S: Scheduler>(
        scheduler: S,
        n: usize,
        l: usize,
        cfg: &ExecConfig,
    ) -> (BlockedMatrix, ExecReport) {
        let a = BlockedMatrix::random(n, l, 31);
        let b = BlockedMatrix::random(n, l, 32);
        let (c, report) = run_matmul(scheduler, &a, &b, cfg);
        let reference = reference_matmul(&a, &b);
        // Contributions are summed in arrival order at the master, so allow
        // floating-point reassociation noise.
        let diff = c.max_abs_diff(&reference);
        assert!(diff < 1e-10, "numerical mismatch: {diff}");
        assert_eq!(report.total_tasks(), (n * n * n) as u64);
        (c, report)
    }

    #[test]
    fn dynamic_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(4, 1);
        let (_, report) = check(DynamicMatrix::new(6, 4), 6, 4, &cfg);
        // Every worker that computed anything returns ≥ 1 C block; at most
        // p·n² total.
        assert!(report.result_blocks_returned <= 4 * 36);
        assert!(report.result_blocks_returned >= 36);
    }

    #[test]
    fn random_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 2);
        check(RandomMatrix::new(5, 3), 5, 3, &cfg);
    }

    #[test]
    fn sorted_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(2, 3);
        check(SortedMatrix::new(4, 2), 4, 2, &cfg);
    }

    #[test]
    fn two_phase_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(5, 4);
        check(DynamicMatrix2Phases::with_beta(6, 5, 2.5), 6, 3, &cfg);
    }

    #[test]
    fn single_worker_ships_every_input_block_once() {
        let cfg = ExecConfig::homogeneous(1, 5);
        let (_, report) = check(DynamicMatrix::new(5, 1), 5, 2, &cfg);
        // 2n² input blocks (A and B; C never travels to workers here).
        assert_eq!(report.input_blocks_shipped, 50);
        assert_eq!(report.result_blocks_returned, 25);
    }

    #[test]
    fn heterogeneous_speeds_skew_task_shares() {
        // Large enough blocks that the gemm kernel dominates messaging.
        let cfg = ExecConfig {
            speeds: vec![1.0, 6.0],
            seed: 9,
            faults: Vec::new(),
        };
        let (_, report) = check(RandomMatrix::new(6, 2), 6, 24, &cfg);
        let slow = report.tasks_per_worker[0] as f64;
        let fast = report.tasks_per_worker[1] as f64;
        assert!(fast > 1.5 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn killed_worker_is_recovered_exactly_once() {
        // Worker 0 is killed once it has been assigned 6 tasks; its local C
        // accumulators (partial sums!) are lost with it and the master
        // re-queues every task it ever held, so no contribution is
        // double-counted.
        let cfg = ExecConfig::homogeneous(3, 12).fail_after_tasks(0, 6);
        let (_, report) = check(RandomMatrix::new(5, 3), 5, 3, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
        // RandomMatrix allocates one task per request: the master's count
        // of jobs for worker 0 is its count of assigned tasks, all lost.
        assert_eq!(report.tasks_lost_per_worker[0], 6);
        assert_eq!(report.tasks_lost_per_worker[0], report.jobs_per_worker[0]);
        assert_eq!(report.tasks_per_worker[0], 0);
    }

    #[test]
    fn killed_worker_recovery_works_for_data_aware_strategies() {
        let cfg = ExecConfig::homogeneous(4, 13).fail_after_tasks(3, 10);
        let (_, report) = check(DynamicMatrix::new(6, 4), 6, 2, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
    }
}
