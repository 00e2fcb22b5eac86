//! The Knactor benchmark.
//!
//! ```text
//! knactor-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                       [--repeats N] [--smoke] [--out FILE]
//! knactor-benchmark compare A.json B.json
//! ```
//!
//! `run` measures each selected workload in a fresh child process (so
//! `peak_rss_mb` and the runtime's threads belong to that workload alone),
//! checks its outputs, prints every metric by name with its unit, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` for what each metric means and which layer should move it.

mod compare;
mod driver;
mod gen;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use gen::Workload;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

const USAGE: &str = "usage:
  knactor-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeats N] [--smoke] [--out FILE]
  knactor-benchmark compare A.json B.json
workloads: kv-wire kv-durable retail-orders home-telemetry (default: all four)";

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeats: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeats: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--repeats" => {
                parsed.repeats = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if parsed.repeats == 0 || parsed.repeats > 100 {
                    return Err("--repeats must be 1..=100".to_string());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out`: traces, and scratch space removed after each run.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit of the checkout the benchmark was built in, if it is one.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// Run one workload once in a fresh child process; `Err` when the child
/// failed to produce a result.
fn run_child(args: &RunArgs, workload: Workload, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| {
        format!(
            "{} child ended with {} and no result ({e})",
            workload.name(),
            output.status
        )
    })
}

fn print_run(run: &Value) {
    let comparable = if run["comparable"] == true {
        ""
    } else {
        "  [smoke size: NOT comparable]"
    };
    println!(
        "\n== {}  seed {}  trace {}{comparable}",
        run["workload"].as_str().unwrap_or("?"),
        run["seed"],
        run["trace"]
    );
    if let Some(metrics) = run["metrics"].as_object() {
        for (name, m) in metrics {
            let unresolved = run["health"]["paced_unresolved"] == true
                && (name.starts_with("op_p") || name.starts_with("flow_p"));
            println!(
                "  {name:<34} {:>14.4} {:<6} n={}{}",
                m["value"].as_f64().unwrap_or(f64::NAN),
                m["unit"].as_str().unwrap_or(""),
                m["n"],
                if unresolved {
                    "  UNRESOLVED: generator ran late"
                } else {
                    ""
                }
            );
        }
    }
    if let Some(health) = run["health"].as_object() {
        for (name, v) in health {
            println!("  ({name} = {v})");
        }
    }
    println!(
        "  correct={} attempted={} failed={} failed_share={:.6}",
        run["correct"],
        run["attempted"],
        run["failed"],
        run["failed"].as_f64().unwrap_or(0.0) / run["attempted"].as_f64().unwrap_or(1.0).max(1.0)
    );
    for fault in run["faults"].as_array().into_iter().flatten() {
        println!("  FAULT: {}", fault.as_str().unwrap_or("?"));
    }
}

/// Median and quartiles over repeats, per workload × metric.
fn print_repeat_summary(runs: &[Value]) {
    println!("\n== over repeats: median [q1 .. q3] spread");
    for workload in Workload::ALL {
        let of: Vec<&Value> = runs
            .iter()
            .filter(|r| r["workload"] == workload.name())
            .collect();
        let Some(names) = of.first().and_then(|r| r["metrics"].as_object()) else {
            continue;
        };
        for name in names.keys() {
            let values: Vec<f64> = of
                .iter()
                .filter_map(|r| r["metrics"][name.as_str()]["value"].as_f64())
                .collect();
            if values.len() >= 2 {
                let [q1, q2, q3] = stats::quartiles(&values);
                println!(
                    "  {:<15} {name:<30} {q2:>12.4} [{q1:.4} .. {q3:.4}] {:.1}%",
                    workload.name(),
                    stats::spread(&values) * 100.0
                );
            }
        }
    }
}

fn run(args: RunArgs) -> ExitCode {
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    let header = json!({
        "commit": commit(),
        "cores": stats::cores(),
        "kernel": stats::kernel(),
        "machine.fsync_us": stats::fsync_probe_us(&out_dir()),
        "seed": args.seed,
        "seconds": args.seconds.unwrap_or(spec::load().run_seconds),
        "trace": args.trace,
        "smoke": args.smoke,
    });
    println!("knactor-benchmark {header}");

    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs = Vec::new();
    for &workload in &workloads {
        for repeat in 0..args.repeats {
            match run_child(&args, workload, args.seed + repeat as u64) {
                Ok(run) => {
                    print_run(&run);
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if args.repeats > 1 {
        print_repeat_summary(&runs);
    }
    if let Some(path) = &args.out {
        let doc = json!({"header": header, "runs": runs});
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // The closing line: the last run of each workload, metrics by bare name
    // for one workload and `workload/metric` for several.
    let mut metrics = serde_json::Map::new();
    for workload in &workloads {
        let last = runs.iter().rev().find(|r| r["workload"] == workload.name());
        for (name, m) in last
            .and_then(|r| r["metrics"].as_object())
            .into_iter()
            .flatten()
        {
            let key = if workloads.len() == 1 {
                name.clone()
            } else {
                format!("{}/{name}", workload.name())
            };
            metrics.insert(key, json!({"value": m["value"], "unit": m["unit"]}));
        }
    }
    let sum = |field: &str| runs.iter().filter_map(|r| r[field].as_u64()).sum::<u64>();
    let correct = runs.iter().all(|r| r["correct"] == true);
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": sum("attempted"),
            "failed": sum("failed"),
            "metrics": Value::Object(metrics),
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child: one workload, one run, in this fresh process.
fn child(args: RunArgs) -> ExitCode {
    let spec = spec::load();
    let workload = args.workload.expect("the parent names the workload");
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    // The program roots WALs of remotely created durable stores under the
    // temporary directory; keep that inside the checkout too.
    std::env::set_var("TMPDIR", &scratch);

    let size = if args.smoke {
        run::Size::smoke()
    } else {
        run::Size::full(args.seconds.unwrap_or(spec.run_seconds))
    };
    let runtime = tokio::runtime::Runtime::new().expect("runtime");
    let outcome = runtime.block_on(async {
        if args.trace {
            probes::run_traced(workload, args.seed, size, &scratch, &out_dir()).await
        } else {
            run::run_untraced(workload, args.seed, size, &scratch).await
        }
    });
    let _ = std::fs::remove_dir_all(&scratch);

    let mut result = match outcome {
        Ok(Value::Object(result)) => result,
        Ok(other) => unreachable!("a run reports an object, not {other}"),
        Err(e) => {
            eprintln!("error: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    // Attach units, and insist on exactly the metrics BENCHMARK.json names.
    let defs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = serde_json::Map::new();
    for def in defs {
        let Some(m) = result.get("metrics").and_then(|m| m.get(&def.name)) else {
            eprintln!("error: the run did not measure {}", def.name);
            return ExitCode::FAILURE;
        };
        metrics.insert(
            def.name.clone(),
            json!({"value": m["value"], "unit": def.unit, "n": m["n"]}),
        );
    }
    result.insert("metrics", Value::Object(metrics));
    result.insert("workload", json!(workload.name()));
    result.insert("seed", json!(args.seed));
    result.insert("trace", json!(u8::from(args.trace)));
    result.insert("comparable", json!(!args.smoke));
    println!("{}", Value::Object(result));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "run" | "child" => match parse_run_args(rest) {
            Ok(parsed) if command == "run" => run(parsed),
            Ok(parsed) => child(parsed),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        "compare" => {
            let load = |path: &String| -> Result<Value, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
            };
            match rest {
                [a, b] => match (load(a), load(b)) {
                    (Ok(a), Ok(b)) => {
                        if compare::compare(&spec::load(), &a, &b) {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                },
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
