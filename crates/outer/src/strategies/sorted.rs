//! `SortedOuter`: lexicographic task order.

use crate::ownership::WorkerData;
use crate::state::OuterState;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates tasks in lexicographic `(i, j)` order and ships the missing
/// inputs. Equivalent to `RandomOuter` in its obliviousness to data
/// locality, but with a deterministic issue order: a worker does get row
/// reuse for consecutive tasks of the same row, which is why it tracks
/// slightly below `RandomOuter` in the paper's figures.
#[derive(Clone, Debug)]
pub struct SortedOuter {
    state: OuterState,
    workers: Vec<WorkerData>,
    cursor: u32,
}

impl SortedOuter {
    /// `n` blocks per vector, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        SortedOuter {
            state: OuterState::new(n),
            workers: WorkerData::fleet(n, p),
            cursor: 0,
        }
    }

    /// Rectangular shard variant (`rows × cols` task grid) for the
    /// hierarchical tree topology.
    pub fn rect(rows: usize, cols: usize, p: usize) -> Self {
        SortedOuter {
            state: OuterState::rect(rows, cols),
            workers: WorkerData::fleet_rect(rows, cols, p),
            cursor: 0,
        }
    }

    /// Read-only view of the task state (for audits).
    pub fn state(&self) -> &OuterState {
        &self.state
    }
}

impl Scheduler for SortedOuter {
    fn on_request(&mut self, k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let total = self.state.total() as u32;
        // Skip tasks already processed (possible if the cursor was advanced
        // for another worker in a mixed/two-phase use of this scheduler).
        while self.cursor < total {
            let (i, j) = self.state.coords(self.cursor);
            if !self.state.is_processed(i, j) {
                break;
            }
            self.cursor += 1;
        }
        if self.cursor >= total {
            return Allocation::DONE;
        }
        let (i, j) = self.state.coords(self.cursor);
        self.cursor += 1;
        let fresh = self.state.mark_processed(i, j);
        debug_assert!(fresh);
        out.push(self.state.task_id(i, j));
        let worker = &mut self.workers[k.idx()];
        let mut blocks = 0;
        if worker.a.acquire(i) {
            blocks += 1;
        }
        if worker.b.acquire(j) {
            blocks += 1;
        }
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
        "SortedOuter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn allocates_in_lexicographic_order() {
        let mut s = SortedOuter::new(3, 1);
        let mut rng = rng_for(0, 0);
        let mut order = Vec::new();
        let mut out = Vec::new();
        while s.remaining() > 0 {
            let before = s.cursor;
            out.clear();
            let a = s.on_request(ProcId(0), &mut rng, &mut out);
            assert_eq!(a.tasks, 1);
            assert_eq!(out.as_slice(), &[before]);
            order.push(before);
        }
        assert_eq!(order, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn single_worker_comm_is_2n() {
        // One worker in lexicographic order: ships each a block once per
        // row (n rows) and every b block during the first row: 2n total
        // unique blocks.
        let n = 12;
        let pf = Platform::from_speeds(vec![5.0]);
        let mut rng = rng_for(1, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedOuter::new(n, 1)).run(&mut rng);
        assert_eq!(report.total_blocks, 2 * n as u64);
    }

    #[test]
    fn completes_under_engine_heterogeneous() {
        let pf = Platform::from_speeds(vec![10.0, 100.0]);
        let mut rng = rng_for(2, 0);
        let (report, sched) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedOuter::new(25, 2))
                .run(&mut rng);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(report.ledger.total_tasks(), 625);
        // The fast worker gets the lion's share.
        assert!(report.ledger.tasks(ProcId(1)) > report.ledger.tasks(ProcId(0)));
    }

    #[test]
    fn row_reuse_bounds_per_task_comm() {
        // Lexicographic order revisits the same row n times consecutively:
        // a-block comm is at most p·n overall (each worker learns a row's
        // block at most once).
        let n = 10;
        let p = 3;
        let pf = Platform::homogeneous(p);
        let mut rng = rng_for(3, 0);
        let (report, _) =
            hetsched_sim::Engine::new(&pf, SpeedModel::Fixed, SortedOuter::new(n, p)).run(&mut rng);
        assert!(report.total_blocks <= 2 * (n * n) as u64);
        assert!(report.total_blocks >= 2 * n as u64);
    }
}
