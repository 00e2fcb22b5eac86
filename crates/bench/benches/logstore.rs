//! Log-exchange costs: ingestion throughput and the Sync integrator's
//! dataflow operators (Fig. 4's telemetry path).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use knactor_logstore::{AggFn, LogConfig, LogStore, Query};
use serde_json::json;

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_ingest");

    group.bench_function("append", |b| {
        let log = LogStore::new("bench/ingest");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            log.append(json!({"triggered": i.is_multiple_of(2), "sensitivity": i % 10}))
        });
    });

    group.bench_function("append_batch_100", |b| {
        b.iter_batched(
            || {
                (
                    LogStore::new("bench/batch"),
                    (0..100)
                        .map(|i| json!({"kwh": i as f64 * 0.01}))
                        .collect::<Vec<_>>(),
                )
            },
            |(log, batch)| log.append_batch(batch),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

/// `n` motion records in segments of 100, sealed as row segments
/// (`columnar: false`, the seed layout) or re-encoded columnar.
fn motion_log(n: usize, columnar: bool) -> std::sync::Arc<LogStore> {
    let log = LogStore::with_config(
        "bench/motion",
        LogConfig {
            segment_capacity: 100,
            columnar,
            compaction: None,
        },
    );
    for i in 0..n {
        log.append(json!({
            "triggered": i % 3 == 0,
            "sensitivity": i % 10,
            "room": if i % 2 == 0 { "kitchen" } else { "hall" },
        }));
    }
    log
}

/// The Sync operators over 1k records, once per sealed-segment layout:
/// `row/*` against `columnar/*` is the Log-DE layout ablation. Below 4096
/// records `run_store` stays on one thread, so a pair differs in layout
/// only.
fn bench_query_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_query_1k");
    let queries = [
        (
            "filter",
            Query::new().filter("this.triggered == true").unwrap(),
        ),
        ("rename", Query::new().rename("triggered", "motion")),
        ("sort", Query::new().sort("sensitivity", true).unwrap()),
        (
            "aggregate_grouped",
            Query::new()
                .aggregate(Some("room"), AggFn::Sum, Some("sensitivity"), "total")
                .unwrap(),
        ),
        (
            "full_pipeline",
            Query::new()
                .filter("this.triggered == true")
                .unwrap()
                .rename("triggered", "motion")
                .project(["motion", "room"])
                .limit(100),
        ),
    ];
    for (layout, columnar) in [("row", false), ("columnar", true)] {
        let log = motion_log(1000, columnar);
        for (name, query) in &queries {
            group.bench_function(&format!("{layout}/{name}"), |b| {
                b.iter(|| query.run_store(&log).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_query_ops);
criterion_main!(benches);
