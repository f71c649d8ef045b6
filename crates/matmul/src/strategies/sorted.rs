//! `SortedMatrix`: lexicographic task order.

use crate::cube::WorkerCube;
use crate::state::MatmulState;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates tasks in lexicographic `(i, j, k)` order and ships missing
/// blocks. Consecutive tasks share `C[i,j]` (and often `A`/`B` rows), so it
/// communicates a little less than [`RandomMatrix`](crate::RandomMatrix)
/// while remaining oblivious to per-worker locality.
#[derive(Clone, Debug)]
pub struct SortedMatrix {
    state: MatmulState,
    workers: Vec<WorkerCube>,
    cursor: u32,
}

impl SortedMatrix {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        SortedMatrix {
            state: MatmulState::new(n),
            workers: WorkerCube::fleet(n, p),
            cursor: 0,
        }
    }

    /// Rectangular shard variant (`ni × nj × nk` task cuboid) for the
    /// hierarchical tree topology.
    pub fn rect(ni: usize, nj: usize, nk: usize, p: usize) -> Self {
        SortedMatrix {
            state: MatmulState::rect(ni, nj, nk),
            workers: WorkerCube::fleet_rect(ni, nj, nk, p),
            cursor: 0,
        }
    }

    /// Read-only view of the task state (for audits).
    pub fn state(&self) -> &MatmulState {
        &self.state
    }
}

impl Scheduler for SortedMatrix {
    fn on_request(&mut self, k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let total = self.state.total() as u32;
        while self.cursor < total {
            let (i, j, kk) = self.state.coords(self.cursor);
            if !self.state.is_processed(i, j, kk) {
                break;
            }
            self.cursor += 1;
        }
        if self.cursor >= total {
            return Allocation::DONE;
        }
        let (i, j, kk) = self.state.coords(self.cursor);
        self.cursor += 1;
        let fresh = self.state.mark_processed(i, j, kk);
        debug_assert!(fresh);
        out.push(self.state.task_id(i, j, kk));
        let blocks = self.workers[k.idx()].acquire_task_blocks(i, j, kk);
        Allocation { tasks: 1, blocks }
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Rewind the cursor to the earliest reinserted task; the skip loop
        // in `on_request` re-walks the (processed) gap and re-allocates the
        // lost tasks in lexicographic order.
        for &id in ids {
            if self.state.reinsert(id) {
                self.cursor = self.cursor.min(id);
            }
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
        "SortedMatrix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn allocates_in_lexicographic_order() {
        let mut s = SortedMatrix::new(3, 1);
        let mut rng = rng_for(0, 0);
        let mut count = 0;
        let mut expect = 0u32;
        let mut out = Vec::new();
        while s.remaining() > 0 {
            assert_eq!(s.cursor, expect);
            out.clear();
            let a = s.on_request(ProcId(0), &mut rng, &mut out);
            assert_eq!(a.tasks, 1);
            assert_eq!(out.as_slice(), &[expect]);
            expect += 1;
            count += 1;
        }
        assert_eq!(count, 27);
    }

    #[test]
    fn single_worker_total_blocks_is_3n2() {
        let n = 5;
        let pf = Platform::from_speeds(vec![2.0]);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedMatrix::new(n, 1))
                .run(&mut rng);
        assert_eq!(report.total_blocks, 3 * (n * n) as u64);
    }

    #[test]
    fn completes_under_engine_heterogeneous() {
        let pf = Platform::from_speeds(vec![10.0, 50.0, 100.0]);
        let mut rng = rng_for(2, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedMatrix::new(7, 3))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 343);
    }
}
