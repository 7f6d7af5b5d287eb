//! The result of one run: metrics with units, operation counts, answer
//! mismatches and run metadata. Everything but the last line of standard
//! output is for people; the last line is the machine-readable result.

use pinot::common::json::Json;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    meta: BTreeMap<String, Json>,
    pub attempted: usize,
    pub failed: usize,
    /// Wrong answers, each with the query that produced it.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Count one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one answer check; a wrong answer is a failure and is kept with
    /// its query so the run can print it.
    pub fn check(&mut self, pql: &str, outcome: Result<(), String>) {
        self.op(outcome.is_ok());
        if let Err(why) = outcome {
            self.mismatches.push(format!("{pql} :: {why}"));
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric_names(&self) -> Vec<&'static str> {
        self.metrics.keys().copied().collect()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// The machine-readable result line.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj(vec![("value", value.into()), ("unit", (*unit).into())]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    pub fn meta_json(&self) -> Json {
        Json::Obj(self.meta.clone())
    }

    /// Print the human-readable lines, then the result line last.
    pub fn print(&self) {
        for m in &self.mismatches {
            println!("# MISMATCH {m}");
        }
        println!("# meta {}", self.meta_json().emit());
        for (name, (value, unit)) in &self.metrics {
            println!("# {name:<32} {value:>14.4} {unit}");
        }
        println!(
            "# attempted={} failed={} error_rate={:.6}",
            self.attempted,
            self.failed,
            self.error_rate()
        );
        println!("{}", self.result_json().emit());
    }
}
