//! Experiment orchestration for the `hetsched` workspace.
//!
//! This crate turns the kernels, strategies, platform models and analytic
//! models of the lower-level crates into *experiments*:
//!
//! * [`config`] — declarative experiment descriptions
//!   ([`ExperimentConfig`]: kernel, strategy, platform recipe);
//! * [`runner`] — seeded single runs ([`run_once`]) and parallel
//!   multi-trial campaigns ([`run_trials`], scoped threads, one
//!   derived RNG stream per trial);
//! * [`figures`] — one function per figure of the paper, returning the
//!   plotted data series (means and standard deviations over trials,
//!   normalized by the communication lower bound);
//! * [`extensions`] — measured experiments beyond the paper: the static
//!   7/4-partition trade-off, the `dyn.*` model ablation, and the
//!   analysis-flavour comparison;
//! * [`observe`] — observed runs: the same experiments with an engine
//!   recorder attached, rendered as JSONL or Chrome-trace artifacts;
//! * [`provenance`] — the manifests embedded in every artifact (seed,
//!   config, threads, build);
//! * [`series`] — the figure data model and its CSV rendering;
//! * [`spec`] — one-line `key=value` job specs, the wire format of the
//!   scheduler daemon (`hetsched serve`).
//!
//! Everything is deterministic given the master seed: platform draws,
//! scheduler decisions and trial parallelism all derive independent
//! `SplitMix64` streams from it.

pub mod config;
pub mod extensions;
pub mod figures;
pub mod observe;
pub mod provenance;
pub mod runner;
pub mod series;
pub mod shard;
pub mod spec;

pub use config::{BetaChoice, ExperimentConfig, Kernel, Strategy};
pub use hetsched_net::NetworkModel;
pub use hetsched_sim::Topology;
pub use observe::{
    render_trace, run_once_observed, stream_trace, ObservedRun, StreamedRun, TraceFormat,
};
pub use provenance::{config_json, figure_manifest_json, manifest_json};
pub use runner::{
    parallel_map, run_once, run_trials, run_trials_collected, run_trials_with_threads,
    summarize_runs, RunResult, TrialSummary,
};
pub use series::{FigureData, Point, Series};
pub use shard::{plan_shards, ShardLayout};
pub use spec::{parse_job_spec, JobRequest};
