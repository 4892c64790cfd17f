//! What one run measured, checked and observed, and how it is printed.

use crate::stats::{share, Samples};
use std::fmt::Write as _;

/// One named measurement with its unit and the number of samples (calls,
/// rounds or set-ups) it was computed from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Input properties and outcome counts a claim has to quote.
    pub properties: Vec<String>,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// A latency in microseconds: `stat` of `samples`, counted by their
    /// number.
    pub fn latency(
        &mut self,
        name: impl Into<String>,
        samples: &Samples,
        stat: fn(&Samples) -> f64,
    ) {
        self.metric(name, "us", stat(samples), samples.len() as u64);
    }

    /// `part ÷ whole`, counted by `whole`.
    pub fn ratio(&mut self, name: impl Into<String>, part: u64, whole: u64) {
        self.metric(name, "ratio", share(part, whole), whole);
    }

    pub fn property(&mut self, line: impl Into<String>) {
        self.properties.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The human-readable report: every metric with unit and sample count,
    /// then the property report and the checks.
    pub fn render_text(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<40} {:>14} {:<8} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>14.4} {:<8} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for line in &self.properties {
            let _ = writeln!(out, "  property: {line}");
        }
        let _ = writeln!(
            out,
            "  calls: {} attempted, {} failed",
            self.attempted, self.failed
        );
        if self.errors.is_empty() {
            let _ = writeln!(out, "  output checks: all passed");
        }
        for e in &self.errors {
            let _ = writeln!(out, "  OUTPUT CHECK FAILED: {e}");
        }
        out
    }

    /// The one-line result object: exactly the `declared` metrics, by name
    /// and unit. A declared metric this run did not measure is 0 when
    /// `absent_is_zero` (a layer the workload does not exercise) and makes
    /// the run incorrect otherwise.
    pub fn render_json(&mut self, declared: &[(&str, &str)], absent_is_zero: bool) -> String {
        let mut body = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit != unit => {
                    self.errors
                        .push(format!("metric {name} measured in {} not {unit}", m.unit));
                    m.value
                }
                Some(m) => m.value,
                None if absent_is_zero => 0.0,
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            body.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("a_us", "us", 1.5, 3);
        report.metric("extra", "count", 2.0, 1);
        let line = report.render_json(&[("a_us", "us"), ("b", "ratio")], true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
        let line = report.render_json(&[("b", "ratio")], false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
