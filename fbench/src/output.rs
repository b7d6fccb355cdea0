//! The metric catalogue and the one-line JSON result every run prints.

use fahana_runtime::Json;

/// The benchmark's declaration, the one place metric names and units are
/// kept. `README.md` says what each metric means on each workload.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// A metric section of `BENCHMARK.json` — `end_to_end` (untraced runs) or
/// `per_layer` (traced runs) — as (name, unit) pairs in declared order.
pub fn catalogue(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(DECLARED).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{section}` entry lacks `{key}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Named measurements collected by a workload.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The names set so far, in the order they were first set.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(name, _)| *name)
    }
}

/// What one run did, before it is printed.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that make the run's output wrong; printed, and they turn
    /// `correct` false.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.errors.push(message.into());
    }
}

/// Renders the result line for `catalogue`: every metric in it, in
/// catalogue order, with its unit. A metric the workload did not set is
/// reported as 0.
pub fn result_line(result: &RunResult, catalogue: &[(String, String)]) -> String {
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).unwrap_or(0.0);
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(result.errors.is_empty() && result.failed == 0),
        ),
        ("attempted".into(), Json::Int(result.attempted as i64)),
        ("failed".into(), Json::Int(result.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [Vec<(String, String)>; 2] {
        [
            catalogue("end_to_end").unwrap(),
            catalogue("per_layer").unwrap(),
        ]
    }

    #[test]
    fn every_named_metric_prints_with_its_unit() {
        for catalogue in both() {
            assert!(!catalogue.is_empty());
            let mut result = RunResult {
                attempted: 3,
                ..RunResult::default()
            };
            result.metrics.set("setup_s", 1.25);
            result.metrics.set("p99_ms", 1.25);
            let line = result_line(&result, &catalogue);
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = match &doc {
                Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in &catalogue {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                assert!(metric.get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(
                metrics
                    .get(&catalogue[0].0)
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64(),
                Some(1.25)
            );
        }
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut result = RunResult {
            attempted: 1,
            ..RunResult::default()
        };
        result.fail("wrong byte");
        let end_to_end = catalogue("end_to_end").unwrap();
        let doc = Json::parse(&result_line(&result, &end_to_end)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(1));
    }
}
