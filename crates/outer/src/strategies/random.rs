//! `RandomOuter`: the locality-oblivious baseline.

use crate::ownership::WorkerData;
use crate::state::OuterState;
use crate::strategies::random_step;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing inputs — the MapReduce-style baseline the paper argues against.
#[derive(Clone, Debug)]
pub struct RandomOuter {
    state: OuterState,
    workers: Vec<WorkerData>,
}

impl RandomOuter {
    /// `n` blocks per vector, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        RandomOuter {
            state: OuterState::new(n),
            workers: WorkerData::fleet(n, p),
        }
    }

    /// Rectangular shard variant (`rows × cols` task grid) for the
    /// hierarchical tree topology.
    pub fn rect(rows: usize, cols: usize, p: usize) -> Self {
        RandomOuter {
            state: OuterState::rect(rows, cols),
            workers: WorkerData::fleet_rect(rows, cols, p),
        }
    }

    /// Read-only view of the task state (for audits).
    pub fn state(&self) -> &OuterState {
        &self.state
    }

    /// Read-only view of a worker's ownership (for audits).
    pub fn worker(&self, k: ProcId) -> &WorkerData {
        &self.workers[k.idx()]
    }
}

impl Scheduler for RandomOuter {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        random_step(&mut self.state, &mut self.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Back into the uniform pool; a future random draw re-allocates
        // them, shipping only the inputs the new owner is missing.
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
        "RandomOuter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks_under_engine() {
        let pf = Platform::from_speeds(vec![10.0, 30.0, 60.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(20, 3))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 400);
    }

    #[test]
    fn communication_far_above_lower_bound() {
        // Random allocation replicates massively: with p = 16 workers and
        // n = 30, expect much more than the lower bound.
        let pf = Platform::homogeneous(16);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(30, 16))
                .run(&mut rng);
        let lb = hetsched_platform::outer_lower_bound(30, &pf);
        assert!(
            report.normalized(lb) > 2.0,
            "random should be far from the bound, got {}",
            report.normalized(lb)
        );
    }

    #[test]
    fn comm_never_exceeds_two_blocks_per_task() {
        let pf = Platform::homogeneous(4);
        let mut rng = rng_for(2, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(15, 4))
                .run(&mut rng);
        assert!(report.total_blocks <= 2 * 225);
    }

    #[test]
    fn name() {
        assert_eq!(RandomOuter::new(2, 1).name(), "RandomOuter");
    }
}
