//! Metric values, the correctness ledger and the result line.

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Operations attempted and failed; every failed check names itself on
/// stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// A finite number printed with all its digits (shortest round-trip
/// form); non-finite values print as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", hetsched_core::provenance::json_escape(s))
}

/// The final result line. A non-finite metric makes the run incorrect.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not finite", m.name);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && finite && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}
