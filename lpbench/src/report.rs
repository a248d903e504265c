//! What one run reports: the result line the driver reads, and a detail
//! line for people (sample counts, oracle totals, why a run is invalid).

use crate::json::Json;
use crate::metrics::{metrics_json, END_TO_END};

#[derive(Debug, Default)]
pub struct Report {
    /// Why the run's outputs are wrong; empty means correct.
    pub failures: Vec<String>,
    /// Broadcasts measured.
    pub attempted: u64,
    /// Broadcasts that died out: reached under half of their subscribers.
    /// (The shortfall of single deliveries is `delivered_share`.)
    pub failed: u64,
    end_to_end: Vec<(String, &'static str, f64)>,
    /// Every per-layer metric, from a traced run.
    pub layers: Vec<(String, &'static str, f64)>,
    details: Vec<(String, Json)>,
}

impl Report {
    pub fn fail(&mut self, why: &str) {
        self.failures.push(why.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        let &(known, unit, ..) = END_TO_END
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("end-to-end metric {name} is not in the contract"));
        self.end_to_end.push((known.to_string(), unit, value));
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.push((name.to_string(), Json::Num(value)));
    }

    pub fn detail_list(&mut self, name: &str, values: impl Iterator<Item = f64>) {
        self.details
            .push((name.to_string(), Json::Arr(values.map(Json::Num).collect())));
    }

    /// The metrics this run prints: per-layer when traced, else end-to-end.
    pub fn metrics(&self) -> &[(String, &'static str, f64)] {
        if self.layers.is_empty() {
            &self.end_to_end
        } else {
            &self.layers
        }
    }

    /// The last line of standard output.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(self.metrics())),
        ])
    }

    pub fn detail_json(&self) -> Json {
        let mut pairs = self.details.clone();
        pairs.push((
            "failures".to_string(),
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        ));
        Json::Obj(vec![("detail".to_string(), Json::Obj(pairs))])
    }
}
