//! `RandomMatrix`: the locality-oblivious baseline.

use crate::cube::WorkerCube;
use crate::state::MatmulState;
use crate::strategies::random_step;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing `A`, `B`, `C` blocks.
#[derive(Clone, Debug)]
pub struct RandomMatrix {
    state: MatmulState,
    workers: Vec<WorkerCube>,
}

impl RandomMatrix {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        RandomMatrix {
            state: MatmulState::new(n),
            workers: WorkerCube::fleet(n, p),
        }
    }

    /// Rectangular shard variant (`ni × nj × nk` task cuboid) for the
    /// hierarchical tree topology.
    pub fn rect(ni: usize, nj: usize, nk: usize, p: usize) -> Self {
        RandomMatrix {
            state: MatmulState::rect(ni, nj, nk),
            workers: WorkerCube::fleet_rect(ni, nj, nk, p),
        }
    }

    /// Read-only view of the task state (for audits).
    pub fn state(&self) -> &MatmulState {
        &self.state
    }

    /// Read-only view of a worker (for audits).
    pub fn worker(&self, k: ProcId) -> &WorkerCube {
        &self.workers[k.idx()]
    }
}

impl Scheduler for RandomMatrix {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        random_step(&mut self.state, &mut self.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Back into the uniform pool; a future random draw re-allocates
        // them, shipping only the blocks the new owner is missing.
        for &id in ids {
            self.state.reinsert(id);
        }
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        Some(self.workers[k.idx()].knowledge_fraction())
    }

    fn remaining(&self) -> usize {
        self.state.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.state.total()
    }

    fn name(&self) -> &'static str {
        "RandomMatrix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{matmul_lower_bound, Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks_under_engine() {
        let pf = Platform::from_speeds(vec![10.0, 90.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(8, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 512);
    }

    #[test]
    fn communication_far_above_lower_bound() {
        let pf = Platform::homogeneous(8);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(12, 8))
                .run(&mut rng);
        let lb = matmul_lower_bound(12, &pf);
        assert!(report.normalized(lb) > 2.0);
    }

    #[test]
    fn per_task_comm_bounded_by_three() {
        let pf = Platform::homogeneous(3);
        let mut rng = rng_for(2, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(6, 3))
                .run(&mut rng);
        assert!(report.total_blocks <= 3 * 216);
    }
}
