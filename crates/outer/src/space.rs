//! The seam between a kernel and the strategies written once over it.
//!
//! A kernel is a task space — the outer product's `rows × cols`
//! [`Grid`](crate::Grid), matrix multiplication's `ni × nj × nk` cube —
//! plus a record of the input blocks each worker holds. The strategies in
//! [`crate::strategies`] need only the operations below; the task pool,
//! the random and sorted steps, the orphan pre-pass, the full-knowledge
//! sweep and the two-phase switch are written once on top of them.

use crate::pool::TaskPool;
use hetsched_sim::Allocation;
use rand::rngs::StdRng;
use std::fmt::Debug;

/// The [`Scheduler::name`](hetsched_sim::Scheduler::name) of each strategy
/// over one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Names {
    /// [`Random`](crate::Random).
    pub random: &'static str,
    /// [`Sorted`](crate::Sorted).
    pub sorted: &'static str,
    /// [`Dynamic`](crate::Dynamic).
    pub dynamic: &'static str,
    /// [`TwoPhase`](crate::TwoPhase).
    pub two_phase: &'static str,
}

/// A kernel's task space: a full problem or one hierarchy shard of it.
///
/// Tasks are keyed by a linear id in `0..tasks()`; the id order is the
/// lexicographic task order [`Sorted`](crate::Sorted) walks.
pub trait TaskSpace: Copy + Debug + Send + 'static {
    /// The input blocks one worker holds.
    type Worker: Clone + Debug + Send;

    /// Display names of the four strategies over this kernel.
    const NAMES: Names;

    /// The full problem with `n` blocks per dimension.
    fn square(n: usize) -> Self;

    /// Number of tasks.
    fn tasks(&self) -> usize;

    /// A worker holding nothing.
    fn worker(&self) -> Self::Worker;

    /// `p` workers holding nothing.
    fn fleet(&self, p: usize) -> Vec<Self::Worker> {
        (0..p).map(|_| self.worker()).collect()
    }

    /// Ships to `w` the inputs of task `id` it is missing; returns how many
    /// blocks that took.
    fn acquire_inputs(&self, w: &mut Self::Worker, id: u32) -> u64;

    /// True if `w` already holds every input of task `id`.
    fn holds_inputs(&self, w: &Self::Worker, id: u32) -> bool;

    /// One data-aware extension round (Algorithms 1 and 3): grow each of
    /// `w`'s index sets by one random index it does not hold yet, ship the
    /// blocks that brings, and allocate every unprocessed task the worker
    /// can now form, appending their ids to `out`. `None` if every index
    /// set was already full, so nothing grew and nothing was allocated.
    fn extend(
        pool: &mut TaskPool<Self>,
        w: &mut Self::Worker,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Option<Allocation>;

    /// Fraction of the kernel's input blocks `w` holds — the knowledge state
    /// the paper's analysis evolves per worker. Probes report it.
    fn knowledge(w: &Self::Worker) -> f64;
}
