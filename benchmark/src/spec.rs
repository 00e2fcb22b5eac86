//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! at build time so names, units, directions and bounds exist once.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn defs(list: &Value) -> Vec<MetricDef> {
    list.as_array()
        .expect("BENCHMARK.json: metric list")
        .iter()
        .map(|m| MetricDef {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            higher_is_better: m["better"] == "higher",
            bound: m["bound"].as_f64(),
        })
        .collect()
}

pub fn load() -> Spec {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: doc["run_seconds"].as_f64().expect("run_seconds"),
        end_to_end: defs(&doc["end_to_end"]),
        per_layer: defs(&doc["per_layer"]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn benchmark_json_names_the_four_workloads_and_a_setup_metric() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        let spec = load();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let mut all: Vec<_> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name)
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
    }
}
