//! Live-reconfiguration micro-bench: how fast is a 1-edge change on a
//! 16-edge composition, and does the swap lose or duplicate records?
//!
//! ```text
//! cargo run -p knactor-bench --bin reconfig --release          # full
//! cargo run -p knactor-bench --bin reconfig --release -- quick # CI variant
//! ```
//!
//! Emits `BENCH_reconfig.json` in the working directory:
//!
//! * **apply latency** — first apply (16 cast edges + 1 sync spawn),
//!   a 1-edge expression change (reconfigure-in-place), and a no-op
//!   re-apply (all edges classified untouched).
//! * **swap loss** — a producer streams records through the sync edge
//!   while the hot cast edge is flipped back and forth; appended vs
//!   delivered vs duplicated counts the records harmed by the swaps
//!   (the composer's contract: zero).
//!
//! Also emits `target/metrics.prom`: the run's full metrics-registry
//! snapshot in Prometheus text format (store ops, activation-stage
//! histograms, composer apply timings) — the scrape CI uploads as an
//! artifact.

use knactor_core::{CastBinding, CastMode, Composer, Composition, SyncConfig, SyncDest, SyncMode};
use knactor_net::proto::{OpSpec, ProfileSpec, QuerySpec};
use knactor_net::ExchangeApi;
use knactor_rbac::Subject;
use knactor_types::StoreId;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EDGES: usize = 16;

/// A star DXG: one source alias `A`, `n` target edges each copying one
/// field. The last target carries `hot_expr` so two specs differ in
/// exactly that edge.
fn star_dxg(n: usize, hot_expr: &str) -> String {
    let mut s = String::from("Input:\n  A: Bench/v1/A/a\n");
    for i in 1..=n {
        s.push_str(&format!("  T{i:02}: Bench/v1/T{i:02}/t{i:02}\n"));
    }
    s.push_str("DXG:\n");
    for i in 1..n {
        s.push_str(&format!("  T{i:02}:\n    copied: A.tag\n"));
    }
    s.push_str(&format!("  T{n:02}:\n    copied: {hot_expr}\n"));
    s
}

fn bindings(n: usize) -> BTreeMap<String, CastBinding> {
    let mut b = BTreeMap::new();
    b.insert("A".to_string(), CastBinding::correlated("a/state"));
    for i in 1..=n {
        b.insert(
            format!("T{i:02}"),
            CastBinding::correlated(format!("t{i:02}/state").as_str()),
        );
    }
    b
}

fn composition(hot_expr: &str) -> Composition {
    Composition::new()
        .with_cast(
            knactor_dxg::Dxg::parse(&star_dxg(EDGES, hot_expr)).expect("bench dxg"),
            bindings(EDGES),
            CastMode::Direct,
        )
        .with_sync(SyncConfig {
            name: "relay".to_string(),
            source: StoreId::new("ev/log"),
            dest: SyncDest::Log(StoreId::new("out/log")),
            query: QuerySpec {
                ops: vec![OpSpec::Rename {
                    from: "n".into(),
                    to: "m".into(),
                }],
            },
            mode: SyncMode::Stream,
        })
}

fn micros(samples: &mut [u64]) -> (u64, u64, u64) {
    samples.sort_unstable();
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    let median = samples[samples.len() / 2];
    let max = *samples.last().unwrap();
    (mean, median, max)
}

async fn run(iterations: usize, stream_records: usize) -> serde_json::Value {
    let (_object, _log, client) =
        knactor_net::loopback::in_process(Subject::operator("reconfig-bench"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    api.create_store("a/state".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    for i in 1..=EDGES {
        api.create_store(
            format!("t{i:02}/state").as_str().into(),
            ProfileSpec::Instant,
        )
        .await
        .unwrap();
    }
    for l in ["ev/log", "out/log"] {
        api.log_create_store(l.into()).await.unwrap();
    }

    let composer = Composer::new("bench", Arc::clone(&api));

    // First apply: every edge spawns.
    let start = Instant::now();
    let report = composer.apply(composition("A.tag")).await.unwrap();
    let first_apply_us = start.elapsed().as_micros() as u64;
    assert_eq!(report.spawned.len(), EDGES + 1);

    // 1-edge change, alternating the hot edge's expression. Warm up,
    // then measure; every apply must reconfigure exactly one edge.
    let exprs = ["upper(A.tag)", "A.tag"];
    for i in 0..3 {
        composer.apply(composition(exprs[i % 2])).await.unwrap();
    }
    let mut change_us: Vec<u64> = Vec::with_capacity(iterations);
    for i in 0..iterations {
        // Warmup left the hot edge on exprs[0]; start from the other.
        let next = composition(exprs[(i + 1) % 2]);
        let start = Instant::now();
        let report = composer.apply(next).await.unwrap();
        change_us.push(start.elapsed().as_micros() as u64);
        assert_eq!(report.reconfigured.len(), 1, "{report:?}");
        assert_eq!(report.restarts(), 0, "{report:?}");
    }
    let (change_mean, change_median, change_max) = micros(&mut change_us);

    // Cross-check ad-hoc timers against the metrics registry: every
    // apply above also landed in knactor_composer_apply_seconds.
    let snapshot = knactor_core::metrics::global().snapshot();
    let apply_hist = snapshot
        .histograms
        .iter()
        .find(|h| {
            h.name == "knactor_composer_apply_seconds"
                && h.labels
                    .iter()
                    .any(|(k, v)| k == "composer" && v == "bench")
        })
        .expect("composer apply histogram registered");
    assert!(
        apply_hist.count as usize >= iterations,
        "registry saw {} applies, bench ran {}",
        apply_hist.count,
        iterations
    );

    // No-op re-apply: everything classified untouched.
    let mut noop_us: Vec<u64> = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let same = composition(exprs[iterations % 2]);
        let start = Instant::now();
        let report = composer.apply(same).await.unwrap();
        noop_us.push(start.elapsed().as_micros() as u64);
        assert_eq!(
            report.untouched.len(),
            EDGES + 1,
            "iteration {i}: {report:?}"
        );
    }
    let (noop_mean, noop_median, noop_max) = micros(&mut noop_us);

    // Swap-loss: stream records through the sync while flipping the hot
    // cast edge. The sync edge is untouched by every apply, so its tail
    // position must carry across and no record may be lost or replayed.
    let producer_api = Arc::clone(&api);
    let producer = tokio::spawn(async move {
        for i in 0..stream_records {
            producer_api
                .log_append("ev/log".into(), json!({"n": i}))
                .await
                .unwrap();
            if i % 16 == 0 {
                tokio::time::sleep(Duration::from_micros(200)).await;
            }
        }
    });
    let mut applies_during_stream = 0usize;
    while !producer.is_finished() {
        composer
            .apply(composition(exprs[applies_during_stream % 2]))
            .await
            .unwrap();
        applies_during_stream += 1;
    }
    producer.await.unwrap();
    composer.drain_all().await.unwrap();
    let out = api.log_read("out/log".into(), 0).await.unwrap();
    let mut seen = std::collections::BTreeSet::new();
    let mut duplicated = 0usize;
    for record in &out {
        if !seen.insert(record.fields["m"].as_u64().unwrap()) {
            duplicated += 1;
        }
    }
    let lost = stream_records - seen.len();

    composer.shutdown_all().await;

    // Registry-derived quantiles for the same operation the ad-hoc
    // timers measured, so later PRs can regress against stable names.
    let final_snapshot = knactor_core::metrics::global().snapshot();
    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/metrics.prom", final_snapshot.to_prometheus())
        .expect("write target/metrics.prom");
    eprintln!("wrote target/metrics.prom");
    let apply_hist = final_snapshot
        .histograms
        .iter()
        .find(|h| h.name == "knactor_composer_apply_seconds")
        .expect("apply histogram");
    let registry_apply = json!({
        "count": apply_hist.count,
        "p50_us": apply_hist.p50().map(|s| s * 1e6),
        "p95_us": apply_hist.p95().map(|s| s * 1e6),
        "p99_us": apply_hist.p99().map(|s| s * 1e6),
        "max_us": apply_hist.max_seconds().map(|s| s * 1e6),
    });

    json!({
        "description": "Composer live-reconfiguration bench (cargo run -p knactor-bench --bin reconfig --release). A 17-edge composition (16 cast edges in a star DXG + 1 sync relay); the 1-edge change flips the hot edge's expression, which the composer reconfigures in place while every other edge keeps running. Latencies in microseconds. Swap-loss streams records through the sync relay during repeated applies and counts records lost or duplicated across the swaps (contract: zero).",
        "edges": EDGES + 1,
        "iterations": iterations,
        "apply_latency_us": {
            "first_apply_all_edges_spawn": first_apply_us,
            "one_edge_change": {"mean": change_mean, "median": change_median, "max": change_max},
            "noop_reapply": {"mean": noop_mean, "median": noop_median, "max": noop_max},
        },
        "swap_loss": {
            "records_appended": stream_records,
            "records_delivered": out.len(),
            "lost": lost,
            "duplicated": duplicated,
            "applies_during_stream": applies_during_stream,
        },
        "registry_apply_seconds": registry_apply,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let (iterations, stream_records) = if quick { (20, 500) } else { (200, 5000) };

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let result = runtime.block_on(run(iterations, stream_records));

    let pretty = serde_json::to_string(&result).unwrap();
    println!("{pretty}");
    std::fs::write("BENCH_reconfig.json", format!("{pretty}\n"))
        .expect("write BENCH_reconfig.json");
    eprintln!("wrote BENCH_reconfig.json");

    let loss = &result["swap_loss"];
    assert_eq!(loss["lost"], json!(0), "records lost during swaps");
    assert_eq!(
        loss["duplicated"],
        json!(0),
        "records duplicated during swaps"
    );
}
