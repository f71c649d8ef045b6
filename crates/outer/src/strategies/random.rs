//! `RandomOuter` / `RandomMatrix`: the locality-oblivious baseline.

use crate::pool::TaskPool;
use crate::space::TaskSpace;
use crate::strategies::random_step;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing inputs — the MapReduce-style baseline the paper argues against.
#[derive(Clone, Debug)]
pub struct Random<S: TaskSpace> {
    pool: TaskPool<S>,
    workers: Vec<S::Worker>,
}

impl<S: TaskSpace> Random<S> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Self::shard(S::square(n), p)
    }

    /// `p` workers over `space`: the full problem or a hierarchy shard.
    pub fn shard(space: S, p: usize) -> Self {
        Random {
            pool: TaskPool::new(space),
            workers: space.fleet(p),
        }
    }
}

impl<S: TaskSpace> Scheduler for Random<S> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        random_step(&mut self.pool, &mut self.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Back into the uniform pool; a future random draw re-allocates
        // them, shipping only the inputs the new owner is missing.
        for &id in ids {
            self.pool.reinsert(id);
        }
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        Some(S::knowledge(&self.workers[k.idx()]))
    }

    fn remaining(&self) -> usize {
        self.pool.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.pool.total()
    }

    fn name(&self) -> &'static str {
        S::NAMES.random
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomOuter;
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
