//! `DynamicMatrix`: the data-aware strategy (Algorithm 3).

use crate::cube::WorkerCube;
use crate::state::MatmulState;
use crate::strategies::dynamic_step;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Per request, extends the worker's index sets `I`, `J`, `K` by one random
/// new index each (shipping the `3(2y+1)` new boundary blocks of its data
/// brick) and allocates every still-unprocessed task of the three new slabs.
#[derive(Clone, Debug)]
pub struct DynamicMatrix {
    state: MatmulState,
    workers: Vec<WorkerCube>,
}

impl DynamicMatrix {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        DynamicMatrix {
            state: MatmulState::new(n),
            workers: WorkerCube::fleet(n, p),
        }
    }

    /// Rectangular shard variant (`ni × nj × nk` task cuboid) for the
    /// hierarchical tree topology.
    pub fn rect(ni: usize, nj: usize, nk: usize, p: usize) -> Self {
        DynamicMatrix {
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

impl Scheduler for DynamicMatrix {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        dynamic_step(&mut self.state, &mut self.workers[k.idx()], rng, out)
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Reinserted tasks become orphans: `dynamic_step` hands each one to
        // the first requester that already owns its three blocks (zero new
        // blocks), or sweeps them up once a worker reaches full knowledge.
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
        "DynamicMatrix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::RandomMatrix;
    use hetsched_platform::{matmul_lower_bound, Platform, SpeedDistribution, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn completes_all_tasks() {
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let mut rng = rng_for(0, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(10, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 1000);
    }

    #[test]
    fn beats_random_on_communication() {
        let mut seed = rng_for(1, 0);
        let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut seed);
        let lb = matmul_lower_bound(20, &pf);
        let (d, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(20, 20))
            .run(&mut rng_for(1, 1));
        let (r, _) = hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(20, 20))
            .run(&mut rng_for(1, 1));
        assert!(
            d.normalized(lb) < r.normalized(lb),
            "dynamic {} vs random {}",
            d.normalized(lb),
            r.normalized(lb)
        );
    }

    #[test]
    fn single_worker_is_optimal() {
        // Alone, dynamic ships each of the 3n² blocks exactly once.
        let pf = Platform::from_speeds(vec![3.0]);
        let mut rng = rng_for(2, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(9, 1))
                .run(&mut rng);
        assert_eq!(report.total_blocks, 3 * 81);
    }

    #[test]
    fn index_sets_stay_balanced_in_pure_dynamic() {
        let pf = Platform::homogeneous(6);
        let mut rng = rng_for(3, 0);
        let (_, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(15, 6))
                .run(&mut rng);
        for k in pf.procs() {
            let w = sched.worker(k);
            assert_eq!(w.i_set.count(), w.j_set.count());
            assert_eq!(w.j_set.count(), w.k_set.count());
            assert!(w.i_set.count() > 0);
        }
    }
}
