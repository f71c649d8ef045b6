//! The matrix-multiplication kernel `C = A·B` (paper §4): its task cube,
//! and the outer-product strategies of `hetsched-outer` lifted onto it.
//!
//! All three matrices are split into `n × n` blocks of size `l × l`; the
//! elementary task `T(i,j,k)` performs the block update
//! `C[i,j] += A[i,k]·B[k,j]`. There are `n³` tasks; each block of `A`/`B` is
//! an input to `n` of them and each block of `C` is updated by `n`, so the
//! communication-avoiding structure is three-dimensional: a worker that
//! knows the index sets `I`, `J`, `K` holds the sub-bricks
//! `A[I,K]`, `B[K,J]`, `C[I,J]` and can run every task in `I × J × K`.
//!
//! This crate supplies only that geometry — the [`Cube`] task space, the
//! per-worker [`WorkerCube`] and Algorithm 3's extension round (grow `I`,
//! `J`, `K` by one random index each, shipping the `3(2y+1)` new boundary
//! blocks). The strategies themselves are written once in `hetsched-outer`;
//! the paper's four names are aliases over the cube:
//! [`RandomMatrix`], [`SortedMatrix`], [`DynamicMatrix`] and
//! [`DynamicMatrix2Phases`] (switch to random when fewer than `e^{−β}·n³`
//! tasks remain).
//!
//! Block accounting counts `C` traffic like the paper does: result blocks
//! travel worker→master instead of master→worker, but only the total volume
//! matters.

pub mod cube;

pub use cube::{Cube, WorkerCube};

use hetsched_outer::{Dynamic, Random, Sorted, TwoPhase};

/// [`Random`] over the matrix-multiplication cube.
pub type RandomMatrix = Random<Cube>;
/// [`Sorted`] over the matrix-multiplication cube.
pub type SortedMatrix = Sorted<Cube>;
/// [`Dynamic`] over the matrix-multiplication cube (Algorithm 3).
pub type DynamicMatrix = Dynamic<Cube>;
/// [`TwoPhase`] over the matrix-multiplication cube.
pub type DynamicMatrix2Phases = TwoPhase<Cube>;
