//! The outer-product task grid and a worker's view of the two input
//! vectors.

use crate::pool::TaskPool;
use crate::space::{Names, TaskSpace};
use hetsched_sim::Allocation;
use hetsched_util::OwnedSet;
use rand::rngs::StdRng;

/// The `rows × cols` task grid of the outer product (an `n × n` square for
/// a flat run): task `T(i,j)` needs the blocks `a_i` and `b_j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// A `rows × cols` grid — a hierarchy shard of the full task grid.
    /// Zero-extent shards are allowed (no tasks).
    pub fn rect(rows: usize, cols: usize) -> Self {
        Grid { rows, cols }
    }

    /// Linear task id of `T(i,j)`, row-major.
    #[inline]
    pub fn id(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i < self.rows && j < self.cols);
        (i * self.cols + j) as u32
    }

    /// Inverse of [`id`](Self::id).
    #[inline]
    pub fn coords(&self, id: u32) -> (usize, usize) {
        (id as usize / self.cols, id as usize % self.cols)
    }
}

/// A worker's view of both input vectors.
#[derive(Clone, Debug)]
pub struct WorkerData {
    /// Blocks of `a` on the worker (the paper's index set `I`).
    pub a: OwnedSet,
    /// Blocks of `b` on the worker (the paper's index set `J`).
    pub b: OwnedSet,
}

impl TaskSpace for Grid {
    type Worker = WorkerData;

    const NAMES: Names = Names {
        random: "RandomOuter",
        sorted: "SortedOuter",
        dynamic: "DynamicOuter",
        two_phase: "DynamicOuter2Phases",
    };

    fn square(n: usize) -> Self {
        assert!(n >= 1, "need at least one block per vector");
        Grid::rect(n, n)
    }

    fn tasks(&self) -> usize {
        self.rows * self.cols
    }

    /// `a` spans the grid's rows, `b` its columns.
    fn worker(&self) -> WorkerData {
        WorkerData {
            a: OwnedSet::new(self.rows),
            b: OwnedSet::new(self.cols),
        }
    }

    fn acquire_inputs(&self, w: &mut WorkerData, id: u32) -> u64 {
        let (i, j) = self.coords(id);
        u64::from(w.a.acquire(i)) + u64::from(w.b.acquire(j))
    }

    fn holds_inputs(&self, w: &WorkerData, id: u32) -> bool {
        let (i, j) = self.coords(id);
        w.a.owns(i) && w.b.owns(j)
    }

    /// Ships one new random `a` block and one new random `b` block and
    /// allocates the unprocessed tasks of the new row and column of the
    /// worker's known sub-grid.
    fn extend(
        pool: &mut TaskPool<Grid>,
        w: &mut WorkerData,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Option<Allocation> {
        let g = pool.space();
        let mut grown = Allocation::DONE;
        let new_a = w.a.acquire_random(rng);
        if let Some(i) = new_a {
            grown.blocks += 1;
            // New row i against the b blocks known *before* this round's
            // new column, so the (i, j) corner is counted exactly once.
            for &j in w.b.owned_list() {
                grown.tasks += usize::from(pool.claim(g.id(i, j as usize), out));
            }
        }
        let new_b = w.b.acquire_random(rng);
        if let Some(j) = new_b {
            grown.blocks += 1;
            // New column j against all known a blocks, including a fresh i.
            for &i in w.a.owned_list() {
                grown.tasks += usize::from(pool.claim(g.id(i as usize, j), out));
            }
        }
        (new_a.is_some() || new_b.is_some()).then_some(grown)
    }

    /// Fraction of all `rows + cols` input blocks the worker owns (`x_k`
    /// tracks `|I_k| = |J_k|` for the dynamic strategy).
    fn knowledge(w: &WorkerData) -> f64 {
        let owned = w.a.count() + w.b.count();
        let total = owned + w.a.unknown_count() + w.b.unknown_count();
        owned as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_independent() {
        let mut fleet = Grid::square(4).fleet(3);
        fleet[0].a.acquire(1);
        assert!(fleet[0].a.owns(1));
        assert!(!fleet[1].a.owns(1));
        assert!(!fleet[0].b.owns(1));
    }

    #[test]
    fn a_and_b_are_independent_dimensions() {
        let mut w = Grid::square(5).worker();
        w.a.acquire(2);
        assert!(w.a.owns(2));
        assert!(!w.b.owns(2));
        w.b.acquire(4);
        assert_eq!(w.a.count(), 1);
        assert_eq!(w.b.count(), 1);
    }

    #[test]
    fn task_id_round_trip() {
        let s = Grid::square(7);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(s.coords(s.id(i, j)), (i, j));
            }
        }
    }
}
