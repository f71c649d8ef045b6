//! The matrix-multiplication task cube and a worker's view of the three
//! matrices.

use hetsched_outer::{Names, TaskPool, TaskSpace};
use hetsched_sim::Allocation;
use hetsched_util::{BitGrid, OwnedSet};
use rand::rngs::StdRng;

/// The `ni × nj × nk` task cuboid (an `n × n × n` cube for a flat run):
/// task `T(i,j,k)` performs `C[i,j] += A[i,k]·B[k,j]`. A hierarchy shard
/// keeps the full `k` depth and tiles the `(i, j)` plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    ni: usize,
    nj: usize,
    nk: usize,
}

impl Cube {
    /// An `ni × nj × nk` cuboid — a hierarchy shard of the full task cube.
    /// Zero-extent shards are allowed (no tasks).
    pub fn rect(ni: usize, nj: usize, nk: usize) -> Self {
        Cube { ni, nj, nk }
    }

    /// Linear task id of `T(i,j,k)`, `k` fastest.
    #[inline]
    pub fn id(&self, i: usize, j: usize, k: usize) -> u32 {
        debug_assert!(i < self.ni && j < self.nj && k < self.nk);
        ((i * self.nj + j) * self.nk + k) as u32
    }

    /// Inverse of [`id`](Self::id).
    #[inline]
    pub fn coords(&self, id: u32) -> (usize, usize, usize) {
        let id = id as usize;
        let k = id % self.nk;
        let ij = id / self.nk;
        (ij / self.nj, ij % self.nj, k)
    }
}

/// A worker's view of the three matrices.
///
/// Two layers, because the two phases need different granularity:
///
/// * the **index sets** `I`, `J`, `K` drive the data-aware phase — the
///   worker is entitled to the sub-bricks `A[I,K]`, `B[K,J]`, `C[I,J]`;
/// * the **ownership grids** record individual blocks, which is what the
///   random phase needs (a random task may ship `A[i,k]` without `i` or `k`
///   ever joining the index sets).
///
/// The grids are the ground truth for communication accounting; the index
/// sets are a strategy-level construct on top.
#[derive(Clone, Debug)]
pub struct WorkerCube {
    /// Row index set `I`.
    pub i_set: OwnedSet,
    /// Column index set `J`.
    pub j_set: OwnedSet,
    /// Inner index set `K`.
    pub k_set: OwnedSet,
    /// Blocks of `A` on the worker, indexed `(i, k)`.
    pub owns_a: BitGrid,
    /// Blocks of `B` on the worker, indexed `(k, j)`.
    pub owns_b: BitGrid,
    /// Blocks of `C` the worker has contributed to, indexed `(i, j)`.
    pub owns_c: BitGrid,
}

impl WorkerCube {
    /// Ships the blocks of one task `T(i,j,k)` that are missing; returns
    /// how many blocks that took (0–3).
    pub fn acquire_task_blocks(&mut self, i: usize, j: usize, k: usize) -> u64 {
        u64::from(self.owns_a.insert(i, k))
            + u64::from(self.owns_b.insert(k, j))
            + u64::from(self.owns_c.insert(i, j))
    }

    /// Total blocks of `A`, `B`, `C` on the worker.
    pub fn total_blocks(&self) -> usize {
        self.owns_a.count_ones() + self.owns_b.count_ones() + self.owns_c.count_ones()
    }
}

impl TaskSpace for Cube {
    type Worker = WorkerCube;

    const NAMES: Names = Names {
        random: "RandomMatrix",
        sorted: "SortedMatrix",
        dynamic: "DynamicMatrix",
        two_phase: "DynamicMatrix2Phases",
    };

    fn square(n: usize) -> Self {
        assert!(n >= 1, "need at least one block per dimension");
        Cube::rect(n, n, n)
    }

    fn tasks(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// `A` is `ni × nk`, `B` is `nk × nj`, `C` is `ni × nj`.
    fn worker(&self) -> WorkerCube {
        let (ni, nj, nk) = (self.ni, self.nj, self.nk);
        WorkerCube {
            i_set: OwnedSet::new(ni),
            j_set: OwnedSet::new(nj),
            k_set: OwnedSet::new(nk),
            owns_a: BitGrid::new(ni, nk),
            owns_b: BitGrid::new(nk, nj),
            owns_c: BitGrid::new(ni, nj),
        }
    }

    fn acquire_inputs(&self, w: &mut WorkerCube, id: u32) -> u64 {
        let (i, j, k) = self.coords(id);
        w.acquire_task_blocks(i, j, k)
    }

    /// The ownership grids are the ground truth here: they also cover
    /// blocks bought outside the index-set brick.
    fn holds_inputs(&self, w: &WorkerCube, id: u32) -> bool {
        let (i, j, k) = self.coords(id);
        w.owns_a.contains(i, k) && w.owns_b.contains(k, j) && w.owns_c.contains(i, j)
    }

    /// Algorithm 3's round. Ordering matters for exact counting. Each
    /// matrix's new blocks are the new row crossed with the *old*
    /// perpendicular set plus the new column crossed with the *updated*
    /// parallel set, which enumerates the boundary of the grown brick
    /// exactly once:
    ///
    /// * extend `I` by `i` → ship `A[i, K_old]`, `C[i, J_old]`;
    /// * extend `J` by `j` → ship `C[I_new, j]`, `B[K_old, j]`;
    /// * extend `K` by `k` → ship `A[I_new, k]`, `B[k, J_new]`.
    ///
    /// Tasks are then the three slabs `{i}×J×K`, `I∖{i}×{j}×K`,
    /// `I∖{i}×J∖{j}×{k}` of the grown brick — `3y²+3y+1` of them when all
    /// three sets could be extended from a `y³` brick, which ships
    /// `3(2y+1)` blocks — minus whatever other workers already won.
    fn extend(
        pool: &mut TaskPool<Cube>,
        w: &mut WorkerCube,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Option<Allocation> {
        let c = pool.space();
        let mut grown = Allocation::DONE;
        let ni = w.i_set.acquire_random(rng);
        if let Some(i) = ni {
            // K and J not extended yet: these are the "old" sets.
            for &k in w.k_set.owned_list() {
                grown.blocks += u64::from(w.owns_a.insert(i, k as usize));
            }
            for &j in w.j_set.owned_list() {
                grown.blocks += u64::from(w.owns_c.insert(i, j as usize));
            }
        }
        let nj = w.j_set.acquire_random(rng);
        if let Some(j) = nj {
            for &i in w.i_set.owned_list() {
                grown.blocks += u64::from(w.owns_c.insert(i as usize, j));
            }
            for &k in w.k_set.owned_list() {
                grown.blocks += u64::from(w.owns_b.insert(k as usize, j));
            }
        }
        let nk = w.k_set.acquire_random(rng);
        if let Some(k) = nk {
            for &i in w.i_set.owned_list() {
                grown.blocks += u64::from(w.owns_a.insert(i as usize, k));
            }
            for &j in w.j_set.owned_list() {
                grown.blocks += u64::from(w.owns_b.insert(k, j as usize));
            }
        }
        if ni.is_none() && nj.is_none() && nk.is_none() {
            return None;
        }

        if let Some(i) = ni {
            for &j in w.j_set.owned_list() {
                for &k in w.k_set.owned_list() {
                    grown.tasks += usize::from(pool.claim(c.id(i, j as usize, k as usize), out));
                }
            }
        }
        if let Some(j) = nj {
            for &i in w.i_set.owned_list() {
                if Some(i as usize) == ni {
                    continue;
                }
                for &k in w.k_set.owned_list() {
                    grown.tasks += usize::from(pool.claim(c.id(i as usize, j, k as usize), out));
                }
            }
        }
        if let Some(k) = nk {
            for &i in w.i_set.owned_list() {
                if Some(i as usize) == ni {
                    continue;
                }
                for &j in w.j_set.owned_list() {
                    if Some(j as usize) == nj {
                        continue;
                    }
                    grown.tasks += usize::from(pool.claim(c.id(i as usize, j as usize, k), out));
                }
            }
        }
        Some(grown)
    }

    /// Fraction of all `A`, `B`, `C` blocks the worker owns.
    fn knowledge(w: &WorkerCube) -> f64 {
        let total = w.owns_a.total() + w.owns_b.total() + w.owns_c.total();
        w.total_blocks() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_util::rng::rng_for;

    #[test]
    fn acquire_task_blocks_counts_missing_only() {
        let mut w = Cube::square(5).worker();
        assert_eq!(w.acquire_task_blocks(1, 2, 3), 3);
        // Same task again: everything already there.
        assert_eq!(w.acquire_task_blocks(1, 2, 3), 0);
        // Shares A[1,3] with the first task (same i, k), ships B and C.
        assert_eq!(w.acquire_task_blocks(1, 4, 3), 2);
        assert_eq!(w.total_blocks(), 5);
    }

    #[test]
    fn grids_are_matrix_specific() {
        let mut w = Cube::square(4).worker();
        w.acquire_task_blocks(0, 1, 2);
        assert!(w.owns_a.contains(0, 2));
        assert!(w.owns_b.contains(2, 1));
        assert!(w.owns_c.contains(0, 1));
        assert!(!w.owns_a.contains(0, 1));
    }

    #[test]
    fn fleet_is_independent() {
        let mut fleet = Cube::square(3).fleet(2);
        fleet[0].acquire_task_blocks(0, 0, 0);
        assert_eq!(fleet[0].total_blocks(), 3);
        assert_eq!(fleet[1].total_blocks(), 0);
    }

    #[test]
    fn fresh_state_counts() {
        let c = Cube::square(5);
        let s = TaskPool::new(c);
        assert_eq!(s.total(), 125);
        assert_eq!(s.remaining(), 125);
        assert!(!s.is_processed(c.id(1, 2, 3)));
    }

    #[test]
    fn mark_processed_updates_both_views() {
        let c = Cube::square(4);
        let mut s = TaskPool::new(c);
        assert!(s.take(c.id(1, 2, 3)));
        assert!(!s.take(c.id(1, 2, 3)));
        assert!(s.is_processed(c.id(1, 2, 3)));
        assert_eq!(s.remaining(), 63);
    }

    #[test]
    fn reinsert_returns_task_to_pool() {
        let c = Cube::square(3);
        let mut s = TaskPool::new(c);
        s.take(c.id(1, 0, 2));
        let id = c.id(1, 0, 2);
        assert!(s.reinsert(id));
        assert!(!s.reinsert(id), "already back in the pool");
        assert!(!s.is_processed(c.id(1, 0, 2)));
        assert_eq!(s.remaining(), 27);
        assert_eq!(s.orphans(), &[id]);
        // Re-allocation strips the orphan marker.
        assert!(s.take(c.id(1, 0, 2)));
        assert!(s.orphans().is_empty());
    }

    #[test]
    fn task_id_round_trip() {
        let s = Cube::square(4);
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    assert_eq!(s.coords(s.id(i, j, k)), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn random_unprocessed_respects_processing() {
        let c = Cube::square(3);
        let mut s = TaskPool::new(c);
        let mut rng = rng_for(0, 0);
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    if (i, j, k) != (2, 1, 0) {
                        s.take(c.id(i, j, k));
                    }
                }
            }
        }
        for _ in 0..10 {
            assert_eq!(s.random_unprocessed(&mut rng), Some(c.id(2, 1, 0)));
        }
        s.take(c.id(2, 1, 0));
        assert_eq!(s.random_unprocessed(&mut rng), None);
    }
}
