//! `SortedOuter` / `SortedMatrix`: lexicographic task order.

use crate::pool::TaskPool;
use crate::space::TaskSpace;
use hetsched_platform::ProcId;
use hetsched_sim::{Allocation, Scheduler};
use rand::rngs::StdRng;

/// Allocates tasks in lexicographic order (increasing task id) and ships
/// the missing inputs. As oblivious to data locality as
/// [`Random`](crate::Random), but consecutive tasks share inputs (a row
/// block of the outer product, the `C` block and often an `A`/`B` row of
/// the matrix product), which is why it tracks slightly below `Random` in
/// the paper's figures.
#[derive(Clone, Debug)]
pub struct Sorted<S: TaskSpace> {
    pool: TaskPool<S>,
    workers: Vec<S::Worker>,
    cursor: u32,
}

impl<S: TaskSpace> Sorted<S> {
    /// `n` blocks per dimension, `p` workers.
    pub fn new(n: usize, p: usize) -> Self {
        Self::shard(S::square(n), p)
    }

    /// `p` workers over `space`: the full problem or a hierarchy shard.
    pub fn shard(space: S, p: usize) -> Self {
        Sorted {
            pool: TaskPool::new(space),
            workers: space.fleet(p),
            cursor: 0,
        }
    }

    /// The next task id the lexicographic scan examines.
    pub fn cursor(&self) -> u32 {
        self.cursor
    }
}

impl<S: TaskSpace> Scheduler for Sorted<S> {
    fn on_request(&mut self, k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let total = self.pool.total() as u32;
        // Skip tasks already processed (the cursor rewinds over a processed
        // gap after a failure).
        while self.cursor < total && self.pool.is_processed(self.cursor) {
            self.cursor += 1;
        }
        if self.cursor >= total {
            return Allocation::DONE;
        }
        let id = self.cursor;
        self.cursor += 1;
        let fresh = self.pool.claim(id, out);
        debug_assert!(fresh);
        Allocation {
            tasks: 1,
            blocks: self
                .pool
                .space()
                .acquire_inputs(&mut self.workers[k.idx()], id),
        }
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        // Rewind the cursor to the earliest reinserted task; the skip loop
        // in `on_request` re-walks the (processed) gap and re-allocates the
        // lost tasks in lexicographic order.
        for &id in ids {
            if self.pool.reinsert(id) {
                self.cursor = self.cursor.min(id);
            }
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
        S::NAMES.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SortedOuter;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_util::rng::rng_for;

    #[test]
    fn allocates_in_lexicographic_order() {
        let mut s = SortedOuter::new(3, 1);
        let mut rng = rng_for(0, 0);
        let mut order = Vec::new();
        let mut out = Vec::new();
        while s.remaining() > 0 {
            let before = s.cursor();
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
