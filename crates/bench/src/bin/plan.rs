//! Cost-based planner bench: does the tuner's metrics→plan loop actually
//! buy throughput, and does the live switch harm any record?
//!
//! ```text
//! cargo run -p knactor-bench --bin plan --release          # full
//! cargo run -p knactor-bench --bin plan --release -- quick # CI variant
//! ```
//!
//! Both runs go over a real TCP exchange with Redis-profiled stores
//! (modelled 250µs reads / 300µs writes): direct execution pays those
//! windows client-side per activation, a pushdown UDF folds them into
//! the exchange — the asymmetry the cost model prices.
//!
//! * **static** — the untuned baseline: the edge is pinned to Direct and
//!   a batch of keys is pushed through; steady-state throughput is
//!   keys/second from first write to full propagation.
//! * **tuned** — the same edge deployed Direct, but with the tuner
//!   running. The workload shifts from a light trickle (below the
//!   tuner's activation floor — no evidence, no switch) to streaming
//!   load; the tuner scores the measured window, re-plans the edge to
//!   pushdown live, and the same batch is measured post-convergence.
//!
//! Emits `BENCH_plan.json`. Asserts (always) zero records lost or
//! duplicated across the re-plan, and (full mode) tuned steady-state
//! throughput ≥ 1.5× the untuned static plan.

use knactor_core::tuner::{Tuner, TunerConfig, TunerPolicy};
use knactor_core::{CastBinding, CastMode, Composer, Composition};
use knactor_net::proto::ProfileSpec;
use knactor_net::{ExchangeApi, ExchangeServer, TcpClient};
use knactor_rbac::Subject;
use knactor_types::Revision;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dxg(prefix: &str) -> String {
    format!(
        "Input:\n  A: Bench/v1/A/{prefix}a\n  B: Bench/v1/B/{prefix}b\nDXG:\n  B:\n    copied: A.tag\n"
    )
}

fn bindings(prefix: &str) -> BTreeMap<String, CastBinding> {
    let mut b = BTreeMap::new();
    b.insert(
        "A".to_string(),
        CastBinding::correlated(format!("{prefix}a/state").as_str()),
    );
    b.insert(
        "B".to_string(),
        CastBinding::correlated(format!("{prefix}b/state").as_str()),
    );
    b
}

async fn create_stores(api: &Arc<dyn ExchangeApi>, prefix: &str) {
    for s in [format!("{prefix}a/state"), format!("{prefix}b/state")] {
        api.create_store(s.as_str().into(), ProfileSpec::Redis)
            .await
            .unwrap();
    }
}

/// Stream `keys` distinct keys into the source store as fast as the wire
/// accepts, then measure until every one has propagated to the target.
/// Returns (throughput keys/s, elapsed ms).
async fn push_and_measure(
    api: &Arc<dyn ExchangeApi>,
    prefix: &str,
    start_at: usize,
    keys: usize,
    deadline: Duration,
) -> (f64, u64) {
    let source = format!("{prefix}a/state");
    let target = format!("{prefix}b/state");
    let start = Instant::now();
    for i in start_at..start_at + keys {
        api.create(
            source.as_str().into(),
            format!("k-{i}").as_str().into(),
            json!({"tag": format!("t{i}")}),
        )
        .await
        .unwrap();
    }
    let expected = start_at + keys;
    let limit = Instant::now() + deadline;
    loop {
        let (objects, _) = api.list(target.as_str().into()).await.unwrap();
        if objects.len() >= expected {
            break;
        }
        assert!(
            Instant::now() < limit,
            "{prefix}: only {}/{expected} keys propagated within {deadline:?}",
            objects.len()
        );
        tokio::time::sleep(Duration::from_millis(5)).await;
    }
    let elapsed = start.elapsed();
    (
        keys as f64 / elapsed.as_secs_f64(),
        elapsed.as_millis() as u64,
    )
}

/// Untuned baseline: the edge pinned to one static mode.
async fn run_static(
    api: &Arc<dyn ExchangeApi>,
    prefix: &str,
    mode: CastMode,
    keys: usize,
    deadline: Duration,
) -> (f64, u64) {
    create_stores(api, prefix).await;
    let composer = Composer::new(format!("plan-{prefix}"), Arc::clone(api));
    composer
        .apply(Composition::new().with_cast(
            knactor_dxg::Dxg::parse(&dxg(prefix)).unwrap(),
            bindings(prefix),
            mode,
        ))
        .await
        .unwrap();
    let out = push_and_measure(api, prefix, 0, keys, deadline).await;
    composer.drain_all().await.unwrap();
    composer.shutdown_all().await;
    out
}

struct TunedOutcome {
    convergence_ms: u64,
    keys_before_switch: usize,
    throughput: f64,
    steady_ms: u64,
    total_keys: usize,
    lost: usize,
    duplicated: usize,
    replans: u64,
}

/// The closed loop: deploy Direct, shift the workload from trickle to
/// streaming, let the tuner re-plan live, then measure steady state.
async fn run_tuned(
    api: &Arc<dyn ExchangeApi>,
    prefix: &str,
    keys: usize,
    deadline: Duration,
) -> TunedOutcome {
    create_stores(api, prefix).await;
    let composer = Arc::new(Composer::new(format!("plan-{prefix}"), Arc::clone(api)));
    composer
        .apply(Composition::new().with_cast(
            knactor_dxg::Dxg::parse(&dxg(prefix)).unwrap(),
            bindings(prefix),
            CastMode::Direct,
        ))
        .await
        .unwrap();

    // Duplicate audit: every target mutation, from the beginning.
    let mut target_events = api
        .watch(format!("{prefix}b/state").as_str().into(), Revision::ZERO)
        .await
        .unwrap();

    let tuner = Tuner::spawn(
        Arc::clone(&composer),
        TunerConfig {
            interval: Duration::from_millis(200),
            policy: TunerPolicy {
                hysteresis: 0.2,
                cooldown: Duration::from_secs(1),
                // Above the trickle phase's total: the switch can only
                // happen once the workload has shifted to streaming.
                min_activations: 10,
            },
            shard_map: None,
            pushdown_udf: format!("plan-{prefix}-udf"),
        },
    );

    // Phase 1 — light trickle: too few activations per window to act on.
    let source = format!("{prefix}a/state");
    let mut written = 0usize;
    for _ in 0..8 {
        api.create(
            source.as_str().into(),
            format!("k-{written}").as_str().into(),
            json!({"tag": format!("t{written}")}),
        )
        .await
        .unwrap();
        written += 1;
        tokio::time::sleep(Duration::from_millis(60)).await;
    }

    // Phase 2 — the workload shifts to streaming; the tuner must find
    // the cheaper plan and switch under load.
    let shift_start = Instant::now();
    let mut switched = false;
    while shift_start.elapsed() < deadline {
        api.create(
            source.as_str().into(),
            format!("k-{written}").as_str().into(),
            json!({"tag": format!("t{written}")}),
        )
        .await
        .unwrap();
        written += 1;
        if written.is_multiple_of(10) {
            if let Some(applied) = composer.applied().await {
                let section = applied.cast.expect("cast section applied");
                if matches!(
                    section.mode_overrides.get("B"),
                    Some(CastMode::Pushdown { .. })
                ) {
                    switched = true;
                    break;
                }
            }
        }
        tokio::time::sleep(Duration::from_millis(2)).await;
    }
    assert!(switched, "tuner never converged to pushdown");
    let convergence_ms = shift_start.elapsed().as_millis() as u64;
    let keys_before_switch = written;

    // Let in-flight direct activations finish so the steady-state
    // measurement is purely the tuned plan.
    let limit = Instant::now() + deadline;
    loop {
        let (objects, _) = api
            .list(format!("{prefix}b/state").as_str().into())
            .await
            .unwrap();
        if objects.len() >= written {
            break;
        }
        assert!(Instant::now() < limit, "pre-switch keys never drained");
        tokio::time::sleep(Duration::from_millis(5)).await;
    }

    // Phase 3 — steady state under the tuned plan.
    let (throughput, steady_ms) = push_and_measure(api, prefix, written, keys, deadline).await;
    let total_keys = written + keys;

    composer.drain_all().await.unwrap();
    tuner.shutdown().await;

    // Audit: zero loss (every key present once in the target), zero
    // duplicates (the watch saw exactly one mutation per key).
    let (objects, _) = api
        .list(format!("{prefix}b/state").as_str().into())
        .await
        .unwrap();
    let lost = total_keys - objects.len().min(total_keys);
    tokio::time::sleep(Duration::from_millis(200)).await;
    let mut per_key: BTreeMap<String, usize> = BTreeMap::new();
    while let Some(event) = target_events.try_recv() {
        if !event.is_delete() {
            *per_key.entry(event.key.as_str().to_string()).or_default() += 1;
        }
    }
    let duplicated = per_key.values().filter(|&&n| n > 1).count();

    let replans = knactor_core::metrics::global()
        .snapshot()
        .counter_value(
            "knactor_planner_replans_total",
            &[("composer", &format!("plan-{prefix}"))],
        )
        .unwrap_or(0);

    composer.shutdown_all().await;
    TunedOutcome {
        convergence_ms,
        keys_before_switch,
        throughput,
        steady_ms,
        total_keys,
        lost,
        duplicated,
        replans,
    }
}

async fn run(keys: usize, full: bool) -> serde_json::Value {
    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let client = TcpClient::connect(server.local_addr(), Subject::operator("plan-bench"))
        .await
        .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    let deadline = Duration::from_secs(120);

    // Baseline: the untuned static plan the workload started with.
    let (static_tput, static_ms) =
        run_static(&api, "static", CastMode::Direct, keys, deadline).await;

    // Reference ceiling: pushdown pinned from the start.
    let (pinned_tput, pinned_ms) = run_static(
        &api,
        "pinned",
        CastMode::Pushdown {
            udf_name: "plan-pinned-udf".to_string(),
        },
        keys,
        deadline,
    )
    .await;

    // The closed loop.
    let tuned = run_tuned(&api, "tuned", keys, deadline).await;

    server.shutdown().await;

    let speedup = tuned.throughput / static_tput;
    eprintln!(
        "static {static_tput:.0}/s, pinned pushdown {pinned_tput:.0}/s, \
         tuned {:.0}/s ({speedup:.2}x), converged in {}ms after {} keys",
        tuned.throughput, tuned.convergence_ms, tuned.keys_before_switch
    );

    assert_eq!(tuned.lost, 0, "records lost across the re-plan");
    assert_eq!(tuned.duplicated, 0, "records duplicated across the re-plan");
    assert!(tuned.replans >= 1, "the tuner must have re-planned");
    if full {
        assert!(
            speedup >= 1.5,
            "tuned steady state must be ≥1.5× the untuned static plan, got {speedup:.2}x"
        );
    }

    json!({
        "description": "Cost-based planner bench (cargo run -p knactor-bench --bin plan --release). One cast edge over a real TCP exchange with Redis-profiled stores (modelled 250µs reads / 300µs writes). 'static' pins the edge to Direct; 'pinned_pushdown' pins the reference ceiling; 'tuned' starts Direct under a shifting workload (trickle → streaming) and the tuner re-plans it to pushdown live from measured metrics windows. Throughput is keys/second from first write to full propagation. Contract: zero records lost or duplicated across the re-plan; tuned steady state ≥1.5× static (asserted in full mode).",
        "keys_per_measurement": keys,
        "static_direct": {"throughput_per_s": static_tput, "elapsed_ms": static_ms},
        "pinned_pushdown": {"throughput_per_s": pinned_tput, "elapsed_ms": pinned_ms},
        "tuned": {
            "throughput_per_s": tuned.throughput,
            "steady_state_ms": tuned.steady_ms,
            "convergence_ms": tuned.convergence_ms,
            "keys_before_switch": tuned.keys_before_switch,
            "total_keys": tuned.total_keys,
            "replans": tuned.replans,
            "lost": tuned.lost,
            "duplicated": tuned.duplicated,
        },
        "speedup_tuned_vs_static": speedup,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let keys = if quick { 150 } else { 1000 };

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let result = runtime.block_on(run(keys, !quick));

    let pretty = serde_json::to_string(&result).unwrap();
    println!("{pretty}");
    std::fs::write("BENCH_plan.json", format!("{pretty}\n")).expect("write BENCH_plan.json");
    eprintln!("wrote BENCH_plan.json");
}
