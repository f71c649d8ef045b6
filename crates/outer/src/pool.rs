//! The task pool every strategy allocates from.

use crate::space::TaskSpace;
use hetsched_util::{FixedBitSet, SwapList};
use rand::rngs::StdRng;

/// The tasks of one [`TaskSpace`], keyed by linear id: which have been
/// allocated ("processed" in the paper's vocabulary — allocation wins the
/// race), plus an O(1) uniform sampler over the unprocessed residue.
#[derive(Clone, Debug)]
pub struct TaskPool<S> {
    space: S,
    processed: FixedBitSet,
    remaining: SwapList,
    /// Tasks returned to the pool by a worker failure and not yet
    /// re-allocated. Also in `remaining`; kept apart so the data-aware
    /// strategies can offer them to workers that already hold their inputs.
    /// Empty except under fault injection.
    orphans: Vec<u32>,
}

impl<S: TaskSpace> TaskPool<S> {
    /// Fresh pool with every task of `space` unprocessed.
    pub fn new(space: S) -> Self {
        let total = space.tasks();
        TaskPool {
            space,
            processed: FixedBitSet::new(total),
            remaining: SwapList::full(total),
            orphans: Vec::new(),
        }
    }

    /// The task space the pool covers.
    #[inline]
    pub fn space(&self) -> S {
        self.space
    }

    /// Total number of tasks.
    #[inline]
    pub fn total(&self) -> usize {
        self.processed.len()
    }

    /// Tasks not yet allocated.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining.len()
    }

    /// True if task `id` has been allocated.
    #[inline]
    pub fn is_processed(&self, id: u32) -> bool {
        self.processed.contains(id as usize)
    }

    /// Marks task `id` allocated; returns `true` if it was unprocessed.
    pub fn take(&mut self, id: u32) -> bool {
        if !self.processed.insert(id as usize) {
            return false;
        }
        let removed = self.remaining.remove(id);
        debug_assert!(removed);
        if !self.orphans.is_empty() {
            if let Some(pos) = self.orphans.iter().position(|&o| o == id) {
                self.orphans.swap_remove(pos);
            }
        }
        true
    }

    /// [`take`](Self::take), appending `id` to `out` if it was unprocessed.
    #[inline]
    pub fn claim(&mut self, id: u32, out: &mut Vec<u32>) -> bool {
        let fresh = self.take(id);
        if fresh {
            out.push(id);
        }
        fresh
    }

    /// Returns a previously allocated task to the pool — its owner failed
    /// before computing it. Returns `true` if the task was indeed allocated.
    pub fn reinsert(&mut self, id: u32) -> bool {
        if !self.processed.remove(id as usize) {
            return false;
        }
        let inserted = self.remaining.insert(id);
        debug_assert!(inserted);
        self.orphans.push(id);
        true
    }

    /// The failure-reinserted tasks not yet re-allocated.
    #[inline]
    pub fn orphans(&self) -> &[u32] {
        &self.orphans
    }

    /// A uniformly random unprocessed task, or `None` when done.
    pub fn random_unprocessed(&self, rng: &mut StdRng) -> Option<u32> {
        self.remaining.peek_random(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grid;
    use hetsched_util::rng::rng_for;

    #[test]
    fn fresh_state_counts() {
        let g = Grid::square(10);
        let s = TaskPool::new(g);
        assert_eq!(s.total(), 100);
        assert_eq!(s.remaining(), 100);
        assert!(!s.is_processed(g.id(3, 4)));
    }

    #[test]
    fn mark_processed_updates_both_views() {
        let g = Grid::square(5);
        let mut s = TaskPool::new(g);
        assert!(s.take(g.id(2, 3)));
        assert!(!s.take(g.id(2, 3)), "idempotent");
        assert!(s.is_processed(g.id(2, 3)));
        assert_eq!(s.remaining(), 24);
    }

    #[test]
    fn random_unprocessed_never_returns_processed() {
        let g = Grid::square(4);
        let mut s = TaskPool::new(g);
        let mut rng = rng_for(0, 0);
        // Process everything except (1, 2).
        for i in 0..4 {
            for j in 0..4 {
                if (i, j) != (1, 2) {
                    s.take(g.id(i, j));
                }
            }
        }
        for _ in 0..20 {
            assert_eq!(s.random_unprocessed(&mut rng), Some(g.id(1, 2)));
        }
        s.take(g.id(1, 2));
        assert_eq!(s.random_unprocessed(&mut rng), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn reinsert_returns_task_to_pool() {
        let g = Grid::square(4);
        let mut s = TaskPool::new(g);
        assert!(!s.reinsert(g.id(1, 2)), "unprocessed tasks stay put");
        assert!(s.take(g.id(1, 2)));
        assert_eq!(s.remaining(), 15);
        assert!(s.reinsert(g.id(1, 2)));
        assert!(!s.is_processed(g.id(1, 2)));
        assert_eq!(s.remaining(), 16);
        assert!(!s.orphans().is_empty());
        assert_eq!(s.orphans(), &[g.id(1, 2)]);
        // Re-allocation clears the orphan marker.
        assert!(s.take(g.id(1, 2)));
        assert!(s.orphans().is_empty());
        assert_eq!(s.remaining(), 15);
    }
}
