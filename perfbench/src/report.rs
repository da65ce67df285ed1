//! The result of one benchmark run and its JSON line.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// What a workload run hands back to the command line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (steps, jobs or trials).
    pub attempted: u64,
    /// Operations that failed or whose output check did not hold.
    pub failed: u64,
    /// Why operations failed, one message per failure record.
    pub mismatches: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records `count` failed operations and why.
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed += count;
        self.mismatches.push(what());
    }

    /// Records an output check; a failing one is one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what);
        }
    }

    /// True when nothing failed and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final JSON line, restricted to the metrics named in `names`.
    pub fn json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
