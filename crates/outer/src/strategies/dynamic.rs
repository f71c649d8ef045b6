//! `DynamicOuter` / `DynamicMatrix`: the data-aware strategy
//! (Algorithms 1 and 3).

use crate::grid::Grid;
use crate::pool::TaskPool;
use crate::space::TaskSpace;
use crate::strategies::dynamic_step;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Per request, grows the worker's index sets by one new random index each,
/// ships the blocks that brings, and allocates every still-unprocessed task
/// the worker can now form.
///
/// Efficient in steady state (a few blocks buy a whole new row and column,
/// or three slabs, of tasks) but pathological in the end game: when few
/// tasks remain, extensions keep enabling nothing and the worker buys
/// blocks without work — the motivation for [`TwoPhase`](crate::TwoPhase).
#[derive(Clone, Debug)]
pub struct Dynamic<S: TaskSpace> {
    pool: TaskPool<S>,
    workers: Vec<S::Worker>,
}

impl<S: TaskSpace> Dynamic<S> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Self::shard(S::square(n), p)
    }

    /// `p` workers over `space`: the full problem or a hierarchy shard.
    pub fn shard(space: S, p: usize) -> Self {
        Dynamic {
            pool: TaskPool::new(space),
            workers: space.fleet(p),
        }
    }

    /// Read-only view of the task pool (for audits).
    pub fn state(&self) -> &TaskPool<S> {
        &self.pool
    }

    /// Read-only view of a worker's blocks (for audits).
    pub fn worker(&self, k: ProcId) -> &S::Worker {
        &self.workers[k.idx()]
    }
}

impl Dynamic<Grid> {
    /// [`shard`](Self::shard) over a `rows × cols` outer-product grid.
    pub fn rect(rows: usize, cols: usize, p: usize) -> Self {
        Self::shard(Grid::rect(rows, cols), p)
    }
}

impl<S: TaskSpace> Scheduler for Dynamic<S> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        dynamic_step(&mut self.pool, &mut self.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinserted tasks become orphans: `dynamic_step` hands each one to
        // the first requester that already holds its inputs (zero new
        // blocks), or sweeps them up once a worker reaches full knowledge.
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
        S::NAMES.dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicOuter;
    use hetsched_platform::{outer_lower_bound, Platform, SpeedDistribution, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks() {
        let pf = Platform::from_speeds(vec![15.0, 85.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(30, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 900);
    }

    #[test]
    fn beats_random_on_communication() {
        let mut rng = rng_for(1, 0);
        let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut rng);
        let lb = outer_lower_bound(100, &pf);

        let (dyn_report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(100, 20))
                .run(&mut rng_for(1, 1));
        let (rnd_report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, crate::RandomOuter::new(100, 20))
                .run(&mut rng_for(1, 1));
        let d = dyn_report.normalized(lb);
        let r = rnd_report.normalized(lb);
        assert!(d < r, "dynamic {d} should beat random {r}");
        // Paper Fig. 2 territory: dynamic around 2.5–3, random around 4.5.
        assert!(d < 3.5, "dynamic too costly: {d}");
        assert!(r > 3.5, "random unexpectedly cheap: {r}");
    }

    #[test]
    fn comm_at_least_lower_bound() {
        let mut rng = rng_for(2, 0);
        let pf = Platform::sample(10, &SpeedDistribution::paper_default(), &mut rng);
        let lb = outer_lower_bound(50, &pf);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(50, 10))
                .run(&mut rng);
        assert!(report.total_blocks as f64 >= lb * 0.999);
    }

    #[test]
    fn worker_ownership_symmetric_in_pure_dynamic() {
        // Pure DynamicOuter always extends a and b together, so |I| and |J|
        // can differ by at most ... they stay equal unless the vector ran
        // out; with n much larger than what a worker learns they are equal.
        let pf = Platform::homogeneous(8);
        let mut rng = rng_for(3, 0);
        let (_, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(60, 8))
                .run(&mut rng);
        for k in pf.procs() {
            let w = sched.worker(k);
            assert_eq!(w.a.count(), w.b.count(), "worker {k}");
            assert!(w.a.count() > 0);
        }
    }

    #[test]
    fn single_worker_is_optimal() {
        // Alone, dynamic ships each block exactly once: 2n blocks = LB.
        let pf = Platform::from_speeds(vec![3.0]);
        let mut rng = rng_for(4, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(40, 1))
                .run(&mut rng);
        assert_eq!(report.total_blocks, 80);
    }
}
