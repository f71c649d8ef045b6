//! The outer-product kernel `M = a·bᵗ`, and the four dynamic scheduling
//! strategies of the paper written once for every kernel (paper §3, lifted
//! to matrix multiplication in §4).
//!
//! Vectors `a` and `b` are split into `n = N/l` blocks; task `T(i,j)`
//! computes the block outer product `a_i·b_jᵗ`. There are `n²` independent
//! tasks, but each `a_i` is an input to `n` of them — the whole game is to
//! allocate tasks so that the blocks already cached on a worker are reused,
//! keeping the master→worker communication volume close to the lower bound
//! `2n·Σ√rs_k`.
//!
//! Four strategies, in increasing order of data awareness:
//!
//! * [`Random`] — uniformly random unprocessed task per request; ship
//!   whatever inputs are missing.
//! * [`Sorted`] — tasks in lexicographic order; ship missing inputs.
//! * [`Dynamic`] — per request, extend the worker's index sets by one new
//!   random index each and allocate every still-unprocessed task the worker
//!   can now form (for the outer product: ship one new `a` and one new `b`
//!   block, take the new row and column of its known sub-grid).
//! * [`TwoPhase`] — `Dynamic` until fewer than `e^{−β}` of the tasks
//!   remain, then `Random` for the end game.
//!
//! Each is generic over a [`TaskSpace`], the seam a kernel fills in: its
//! shape, its per-worker record, the block cost of a task's missing inputs
//! and one extension round. This crate supplies the outer product's
//! [`Grid`]; `hetsched-matmul` supplies the matrix-multiplication cube. The
//! paper's names are aliases: [`RandomOuter`] is `Random<Grid>`, and so on.

pub mod grid;
pub mod pool;
pub mod space;
pub mod strategies;

pub use grid::{Grid, WorkerData};
pub use pool::TaskPool;
pub use space::{Names, TaskSpace};
pub use strategies::{
    beta_threshold, dynamic_step, phase1_fraction_threshold, random_step, Dynamic, Random, Sorted,
    TwoPhase,
};

/// [`Random`] over the outer-product grid.
pub type RandomOuter = Random<Grid>;
/// [`Sorted`] over the outer-product grid.
pub type SortedOuter = Sorted<Grid>;
/// [`Dynamic`] over the outer-product grid (Algorithm 1).
pub type DynamicOuter = Dynamic<Grid>;
/// [`TwoPhase`] over the outer-product grid (Algorithm 2).
pub type DynamicOuter2Phases = TwoPhase<Grid>;
