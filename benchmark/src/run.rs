//! One untraced run of one workload in this (fresh) process: `rounds`
//! rounds, each set-up → warm-up → `paced` → `sat` → drain → oracle on a
//! fresh server.
//!
//! Why rounds: the vendored runtime polls sockets on a 200 µs timer, and
//! the pollers of one set of connections lock into a phase that lasts as
//! long as the connections do — a whole environment runs 10% fast or slow.
//! Several environments per run, their samples pooled, average that out;
//! they also give `setup_s` its several set-ups.
//!
//! Why `paced` before `sat`: latencies are then taken at a state that
//! depends only on the seed and the frozen rate. A faster program appends
//! more in a timed `sat` phase, and on home-telemetry the rollup's cost
//! grows with the log, so the other order would charge a gain in one phase
//! to the other.

use crate::driver::{run_phase, Pace, Phase, PhaseReport};
use crate::gen::Workload;
use crate::stats::{self, percentile, sort};
use crate::workloads::{setup, Env};
use knactor_types::Result;
use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Measured seconds over all rounds: `PACED_SHARE` of them `paced`,
    /// the rest `sat`.
    pub seconds: f64,
    /// Unmeasured warm-up at the paced rate, per round.
    pub warmup_seconds: f64,
    pub rounds: usize,
}

impl Size {
    pub fn full(seconds: f64) -> Size {
        Size {
            seconds,
            warmup_seconds: 0.5,
            rounds: 3,
        }
    }

    /// A tenth of the work, to prove the harness end to end. Its numbers
    /// are not comparable with full runs.
    pub fn smoke() -> Size {
        Size {
            seconds: 2.0,
            warmup_seconds: 0.2,
            rounds: 1,
        }
    }

    pub fn is_smoke(self) -> bool {
        self.rounds == 1
    }
}

/// Share of the measured seconds spent in `paced`: percentiles need the
/// samples, and on home-telemetry every `sat` second queues two more of
/// rollup work that the run must then wait out.
pub const PACED_SHARE: f64 = 0.6;

/// Generator lateness above which `paced` numbers describe the generator,
/// not the program.
const LATE_LIMIT_MS: f64 = 1.0;

/// What one round measured.
pub struct Round {
    pub paced: PhaseReport,
    pub sat: PhaseReport,
    pub sat_seconds: f64,
    pub flow_ms: Vec<f64>,
    /// Resident memory once `paced` has drained, MB.
    pub rss_after_paced_mb: f64,
    pub sat_cpu_ms: f64,
    /// Ops and flows attempted / failed over warm-up, `paced` and `sat`.
    pub attempted: u64,
    pub failed: u64,
    pub backlog_after_sat: u64,
    pub drain_s: f64,
}

/// Warm-up, `paced`, `sat` on a set-up environment, each followed by a
/// drain to quiescence. `seconds` covers `paced` + `sat`.
pub async fn run_round(env: &mut Env, seconds: f64, warmup_seconds: f64) -> Round {
    let workload = env.workload;
    let open = |seconds| Phase {
        pace: Pace::Open {
            rate: workload.paced_rate(),
        },
        seconds,
        hold_flows: false,
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut tally = |report: &PhaseReport, env: &Env| {
        // Every flow rides on an op; one that never completed is a second
        // failure of that op's purpose, so it is counted on its own.
        attempted += report.attempted;
        failed += report.failed + env.flows.abandon_all() as u64;
    };

    // Warm-up runs at the paced rate: it is there to fill caches and finish
    // lazy set-up, not to queue work the measured phases would inherit.
    let warmup = run_phase(&mut env.conns, &env.flows, open(warmup_seconds)).await;
    env.quiesce().await;
    tally(&warmup, env);
    env.flows.take_latencies_ms();

    let paced = run_phase(&mut env.conns, &env.flows, open(seconds * PACED_SHARE)).await;
    env.quiesce().await;
    tally(&paced, env);
    let flow_ms = env.flows.take_latencies_ms();
    let rss_after_paced_mb = stats::rss_mb();

    let sat_seconds = seconds * (1.0 - PACED_SHARE);
    let closed = Phase {
        pace: Pace::Closed {
            window: workload.sat_window(),
        },
        seconds: sat_seconds,
        hold_flows: workload.unit_is_flow(),
    };
    let cpu0 = stats::process_cpu_ms();
    let sat = run_phase(&mut env.conns, &env.flows, closed).await;
    let sat_cpu_ms = stats::process_cpu_ms() - cpu0;
    let drain = env.quiesce().await;
    tally(&sat, env);

    Round {
        paced,
        sat,
        sat_seconds,
        flow_ms,
        rss_after_paced_mb,
        sat_cpu_ms,
        attempted,
        failed,
        backlog_after_sat: drain.backlog,
        drain_s: drain.seconds,
    }
}

/// Metrics by name: `{"value", "n"}` each; `main` adds the units.
#[derive(Default)]
pub struct Metrics(serde_json::Map);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name, json!({"value": value, "n": samples}));
    }

    /// The median of `seconds`, scaled to the metric's unit.
    pub fn put_median(&mut self, name: &str, per_second: f64, seconds: &[f64]) {
        let value = if seconds.is_empty() {
            0.0
        } else {
            stats::median(seconds) * per_second
        };
        self.put(name, value, seconds.len());
    }

    pub fn into_value(self) -> Value {
        Value::Object(self.0)
    }
}

/// The child's whole job with `--trace 0`. The result is one JSON object;
/// `main` adds units and prints it.
pub async fn run_untraced(workload: Workload, seed: u64, size: Size, dir: &Path) -> Result<Value> {
    let mut setup_s = Vec::new();
    let mut faults = Vec::new();
    let (mut op_ms, mut flow_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let (mut sat_completed, mut sat_done, mut sat_seconds, mut sat_cpu_ms) = (0, 0, 0.0, 0.0);
    let (mut gen_cpu_ms, mut load_s) = (0.0, 0.0);
    let (mut backlog, mut drain_s) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    for round in 0..size.rounds {
        let start = Instant::now();
        // Rounds differ in their op streams as runs differ in their seeds.
        let round_seed = seed.wrapping_mul(1000).wrapping_add(round as u64);
        let mut env = setup(workload, round_seed, &dir.join(format!("wal-{round}"))).await?;
        setup_s.push(start.elapsed().as_secs_f64());
        let measured = run_round(
            &mut env,
            size.seconds / size.rounds as f64,
            size.warmup_seconds,
        )
        .await;
        faults.extend(env.check().await);

        // Memory is read in the first round only: later rounds sit on what
        // the allocator kept from the `sat` phases before them.
        if round == 0 {
            rss_mb = measured.rss_after_paced_mb;
        }
        sat_completed += measured.sat.completed;
        sat_done += measured.sat.attempted - measured.sat.failed;
        sat_seconds += measured.sat_seconds;
        sat_cpu_ms += measured.sat_cpu_ms;
        gen_cpu_ms += measured.paced.gen_cpu_ms + measured.sat.gen_cpu_ms;
        load_s += measured.paced.elapsed_s + measured.sat.elapsed_s;
        attempted += measured.attempted;
        failed += measured.failed;
        op_ms.extend(measured.paced.op_ms);
        late_ms.extend(measured.paced.late_ms);
        flow_ms.extend(measured.flow_ms);
        backlog.push(measured.backlog_after_sat as f64);
        drain_s.push(measured.drain_s);
    }
    if op_ms.is_empty() || flow_ms.is_empty() {
        faults.push("the paced phases completed no op or no flow".to_string());
    }

    let (op_ms, flow_ms, late_ms) = (sort(op_ms), sort(flow_ms), sort(late_ms));
    let late_p99 = percentile(&late_ms, 0.99);
    let mut m = Metrics::default();
    m.put_median("setup_s", 1.0, &setup_s);
    m.put(
        "ops_per_s",
        sat_completed as f64 / sat_seconds,
        sat_completed as usize,
    );
    m.put("op_p50_ms", percentile(&op_ms, 0.5), op_ms.len());
    m.put("op_p95_ms", percentile(&op_ms, 0.95), op_ms.len());
    m.put("flow_p50_ms", percentile(&flow_ms, 0.5), flow_ms.len());
    m.put("flow_p95_ms", percentile(&flow_ms, 0.95), flow_ms.len());
    m.put(
        "cpu_ms_per_op",
        sat_cpu_ms / sat_done.max(1) as f64,
        sat_done as usize,
    );
    m.put("rss_mb", rss_mb, 1);

    Ok(json!({
        "correct": faults.is_empty(),
        "attempted": attempted,
        "failed": failed + faults.len() as u64,
        "faults": faults,
        "metrics": m.into_value(),
        "health": {
            "gen.sched_late_p99_ms": late_p99,
            "gen.cpu_share": gen_cpu_ms / (load_s * 1e3),
            // A starved generator must never read as a slow program.
            "paced_unresolved": late_p99 > LATE_LIMIT_MS,
            "op_p99_ms": percentile(&op_ms, 0.99),
            "peak_rss_mb": stats::peak_rss_mb(),
            "op_percentile_supported": stats::highest_supported_percentile(op_ms.len()),
            "flow_percentile_supported": stats::highest_supported_percentile(flow_ms.len()),
            "core.backlog_after_sat": stats::median(&backlog),
            "core.drain_s": stats::median(&drain_s),
        },
    }))
}
