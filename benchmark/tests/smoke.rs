//! Drives the built binary end to end at `--smoke` size: every workload,
//! untraced and traced, must pass its oracle and print every metric that
//! `BENCHMARK.json` names.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["kv-wire", "kv-durable", "retail-orders", "home-telemetry"];

fn names(list: &serde_json::Value) -> Vec<String> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|m| m["name"].as_str().unwrap().to_string())
        .collect()
}

fn smoke(workload: &str, trace: &str) -> serde_json::Value {
    let output = Command::new(env!("CARGO_BIN_EXE_knactor-benchmark"))
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "11",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("NOT comparable"), "smoke runs are flagged");
    serde_json::from_str(stdout.lines().last().unwrap()).expect("last line is the result")
}

#[test]
fn every_workload_passes_its_oracle_and_reports_every_metric() {
    let spec: serde_json::Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(workload, trace);
            assert_eq!(
                result["correct"], true,
                "{workload} trace {trace}: {result}"
            );
            assert_eq!(result["failed"], 0, "{workload} trace {trace}: {result}");
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            let got = result["metrics"].as_object().unwrap();
            let want = names(&spec[list]);
            assert_eq!(got.len(), want.len(), "{workload} trace {trace}");
            for name in want {
                let value = got
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert!(
                    value["value"].as_f64().is_some(),
                    "{workload}: {name} = {value}"
                );
                assert!(
                    value["unit"].as_str().is_some(),
                    "{workload}: {name} has no unit"
                );
            }
        }
    }
    let trace = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-kv-wire.jsonl");
    let spans = std::fs::read_to_string(trace).expect("the traced run wrote its spans");
    assert!(spans.lines().next().unwrap().contains("\"start_ns\""));
}

#[test]
fn bad_arguments_are_refused() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_knactor-benchmark"))
            .args(args)
            .output()
            .unwrap()
            .status
            .success()
    };
    assert!(!run(&["run", "--workload", "nope"]));
    assert!(!run(&["run", "--seconds", "0"]));
    assert!(!run(&["compare", "only-one.json"]));
    assert!(!run(&[]));
}
