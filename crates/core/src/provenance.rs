//! Run provenance: every artifact the workspace writes — `results/*.csv`,
//! `BENCH_*.json`, trace files — carries a manifest recording the seed, the
//! full experiment configuration, the thread count, and the build, so a
//! number in a file can always be traced back to the exact run that
//! produced it.
//!
//! Manifests are single-line JSON objects built by hand (the workspace has
//! no JSON dependency). They are embedded where the format allows (the
//! first JSONL line, Chrome's `otherData`, a top-level `manifest` key in
//! `BENCH_*.json`) and written as `<artifact>.manifest.json` sidecars next
//! to CSV files, which have nowhere to put structured metadata.

use crate::config::{ExperimentConfig, Kernel, Strategy};
use crate::figures::FigOpts;
pub use hetsched_util::json::json_escape;

/// `"tool":…` prefix fields shared by every manifest flavour: crate
/// version and build info (profile, OS, architecture).
fn tool_fields() -> String {
    format!(
        "\"tool\":\"hetsched\",\"version\":\"{}\",\"build\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\"",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// One-line JSON manifest for a single-experiment artifact (a trace file,
/// a bench entry): seed, thread count, and the full [`ExperimentConfig`].
///
/// Enum-shaped fields (`distribution`, `speed_model`, `network`,
/// `failures`) are recorded as their `Debug` rendering inside a JSON
/// string — stable enough to reproduce a run from, without hand-writing a
/// serializer per type. `extra` appends caller-supplied `"key":value`
/// pairs whose values must already be valid JSON fragments.
pub fn manifest_json(
    cfg: &ExperimentConfig,
    seed: u64,
    threads: usize,
    extra: &[(&str, String)],
) -> String {
    let mut s = format!(
        "{{{},\"seed\":{},\"threads\":{},\"config\":{}",
        tool_fields(),
        seed,
        threads,
        config_json(cfg),
    );
    for (k, v) in extra {
        s.push_str(&format!(",\"{}\":{}", json_escape(k), v));
    }
    s.push('}');
    s
}

/// The `"config"` object of [`manifest_json`] on its own: the full
/// [`ExperimentConfig`] as a one-line JSON object, seed- and
/// build-independent. Two configs render identically exactly when every
/// field the runner consults matches, which is what makes this string the
/// natural input for a config hash (the trace-analytics store keys runs
/// by it).
pub fn config_json(cfg: &ExperimentConfig) -> String {
    let kernel = match cfg.kernel {
        Kernel::Outer { .. } => "outer",
        Kernel::Matmul { .. } => "matmul",
    };
    // The label alone would collapse every two-phase β choice onto one
    // key — `--beta 1` and `--beta 4` are different experiments, so the
    // β mode rides in a separate field.
    let beta_mode = match cfg.strategy {
        Strategy::TwoPhase(choice) => format!("\"{}\"", json_escape(&format!("{choice:?}"))),
        _ => "null".to_string(),
    };
    // `tree_threads` is deliberately omitted: shard threading is
    // bit-identical for every value, so it must not split a config key.
    format!(
        "{{\"kernel\":\"{}\",\"n\":{},\"strategy\":\"{}\",\"beta_mode\":{},\"processors\":{},\"distribution\":\"{}\",\"speed_model\":\"{}\",\"network\":\"{}\",\"link_latency\":{},\"failures\":\"{}\",\"topology\":\"{}\",\"price_returns\":{},\"link_bandwidths\":{}}}",
        kernel,
        cfg.kernel.n(),
        cfg.strategy.label(cfg.kernel),
        beta_mode,
        cfg.processors,
        json_escape(&format!("{:?}", cfg.distribution)),
        json_escape(&format!("{:?}", cfg.speed_model)),
        json_escape(&format!("{:?}", cfg.network)),
        cfg.link_latency,
        json_escape(&format!("{:?}", cfg.failures)),
        json_escape(&format!("{:?}", cfg.topology)),
        cfg.price_returns,
        match &cfg.link_bandwidths {
            Some(bws) => format!("\"{}\"", json_escape(&format!("{bws:?}"))),
            None => "null".to_string(),
        },
    )
}

/// One-line JSON manifest for a figure artifact: the figure id plus the
/// [`FigOpts`] that produced it (trials, seed, quick mode, threads).
pub fn figure_manifest_json(id: &str, opts: &FigOpts) -> String {
    format!(
        "{{{},\"figure\":\"{}\",\"seed\":{},\"trials\":{},\"hetero_trials\":{},\"quick\":{},\"threads\":{}}}",
        tool_fields(),
        json_escape(id),
        opts.seed,
        opts.trials,
        opts.hetero_trials,
        opts.quick,
        match opts.threads {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_balanced(s: &str) {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced: {s}");
        }
        assert_eq!(depth, 0, "unbalanced: {s}");
        assert!(!in_str, "unterminated string: {s}");
    }

    #[test]
    fn manifest_records_seed_config_and_build() {
        let cfg = ExperimentConfig::default();
        let m = manifest_json(&cfg, 42, 3, &[("note", "\"hi\"".into())]);
        assert_balanced(&m);
        assert!(!m.contains('\n'), "manifest must be a single line");
        assert!(m.contains("\"seed\":42"));
        assert!(m.contains("\"threads\":3"));
        assert!(m.contains("\"strategy\":\"DynamicOuter2Phases\""));
        assert!(m.contains("\"kernel\":\"outer\""));
        assert!(m.contains("\"n\":100"));
        assert!(m.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(m.contains("\"note\":\"hi\""));
    }

    #[test]
    fn figure_manifest_records_opts() {
        let m = figure_manifest_json("extG", &FigOpts::quick());
        assert_balanced(&m);
        assert!(m.contains("\"figure\":\"extG\""));
        assert!(m.contains("\"quick\":true"));
        let full = figure_manifest_json("fig2", &FigOpts::paper());
        assert!(full.contains("\"threads\":null") || full.contains("\"threads\":"));
        assert_balanced(&full);
    }
}
