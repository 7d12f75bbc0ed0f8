//! Result of one run and its renderings: the one-line JSON object the
//! benchmark contract asks for, and a table for people.

use std::collections::BTreeMap;

use crate::spec::unit_of;

/// Metric values by declared name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`. The name must be declared in
    /// [`crate::spec`]: an undeclared metric is a bug in the reporter.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not declared in spec.rs"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Free-form facts recorded beside the metrics (crypto mode, sample
    /// counts, thread count); printed to stderr, not part of the result.
    pub notes: Vec<(&'static str, String)>,
}

/// The contract's result line: `correct`, `attempted`, `failed`, and
/// exactly the `declared` metrics, each with its unit. Errors if a
/// declared metric was not produced or is not a finite number.
pub fn json_line(r: &RunResult, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = r
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not produced"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

/// A table of the `declared` metrics for people.
pub fn table(workload: &str, r: &RunResult, declared: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{workload}: correct={} ops_attempted={} ops_failed={}\n",
        r.correct, r.attempted, r.failed
    );
    for (name, unit) in declared {
        match r.metrics.get(name) {
            Some(v) => out.push_str(&format!("  {name:<40} {v:>14.4} {unit}\n")),
            None => out.push_str(&format!("  {name:<40} {:>14} {unit}\n", "-")),
        }
    }
    for (k, v) in &r.notes {
        out.push_str(&format!("  # {k}: {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use ahl_bench::json::JsonValue;

    fn full() -> RunResult {
        let mut r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Default::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metrics.set(name, 1.5 + i as f64);
        }
        r
    }

    #[test]
    fn json_line_has_every_declared_metric_with_unit() {
        let line = json_line(&full(), END_TO_END).expect("complete");
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let JsonValue::Object(m) = v.get("metrics").expect("metrics") else {
            panic!("object")
        };
        assert_eq!(m.len(), END_TO_END.len(), "exactly the declared metrics");
        for ((name, unit), (key, e)) in END_TO_END.iter().zip(m) {
            assert_eq!(name, key);
            assert!(e.get("value").and_then(JsonValue::as_f64).is_some());
            assert_eq!(e.get("unit"), Some(&JsonValue::Str(unit.to_string())));
        }
    }

    #[test]
    fn json_line_refuses_missing_and_non_finite() {
        let mut r = RunResult::default();
        assert!(json_line(&r, END_TO_END).is_err());
        r = full();
        r.metrics.set("setup_s", f64::NAN);
        assert!(json_line(&r, END_TO_END).is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Metrics::default().set("made.up", 1.0);
    }
}
