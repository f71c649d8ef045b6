//! Shared infrastructure for the `hetsched` workspace.
//!
//! This crate deliberately has no dependency on the rest of the workspace and
//! provides the small, hot data structures the simulators are built from:
//!
//! * [`bitset::FixedBitSet`] — fixed-capacity bitset backed by `u64` words;
//! * [`grid::BitGrid`] / [`grid::BitCube`] — 2-D/3-D bitsets used to track
//!   processed tasks and per-worker block ownership;
//! * [`sample::SwapList`] — index set with O(1) uniform random removal and
//!   O(1) removal by value, used to sample "a task that is still unprocessed"
//!   or "a block this worker does not know yet" without rejection loops;
//! * [`float::OrderedF64`] — totally ordered finite `f64` for event queues;
//! * [`stats::OnlineStats`] — Welford accumulator for trial aggregation;
//! * [`rng`] — SplitMix64 seed derivation so every (experiment, trial)
//!   pair gets an independent, reproducible stream;
//! * [`csv`] — minimal CSV emission for the figure-regeneration binaries;
//! * [`json`] — JSON string escaping and the field readers every JSON
//!   consumer (store ingest, serve protocol and event log) shares;
//! * [`parallel_map`] — the order-preserving scoped-thread map behind
//!   trial campaigns, store scans and tree shards.

pub mod bitset;
pub mod csv;
pub mod float;
pub mod grid;
pub mod json;
pub mod owned;
pub mod parallel;
pub mod rng;
pub mod sample;
pub mod stats;

pub use bitset::FixedBitSet;
pub use float::OrderedF64;
pub use grid::{BitCube, BitGrid};
pub use owned::OwnedSet;
pub use parallel::parallel_map;
pub use sample::SwapList;
pub use stats::OnlineStats;
