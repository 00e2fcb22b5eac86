//! Row/columnar/compaction parity for every Query combinator.
//!
//! `Query::run_store` (parallel, columnar fast paths) must return results
//! bit-identical to the row-oriented reference path — `Query::run_with`
//! over `read_all()` payloads — on a row-configured store, a columnar
//! store, and a store whose segments are being compacted *while the
//! queries run*. Stats (dropped-record counters) must match too: the
//! layout is never allowed to change what a query observes.

use knactor_expr::FnRegistry;
use knactor_logstore::{AggFn, CompactionPolicy, LogConfig, LogStore, Query};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// SplitMix64 (same idiom as prop_expr.rs) — deterministic telemetry.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Telemetry-shaped but deliberately heterogeneous: `n` is occasionally a
/// string (so filters/derives hit eval errors and bump drop counters),
/// fields go missing, and `kwh` mixes ints and floats.
fn telemetry(n_records: usize) -> Vec<Value> {
    let mut rng = SplitMix(0x7061_7269_7479_2121);
    (0..n_records)
        .map(|i| {
            let mut map = serde_json::Map::new();
            map.insert(
                "room",
                json!(["kitchen", "hall", "garage"][rng.below(3) as usize]),
            );
            if rng.below(10) > 0 {
                map.insert("kind", json!(["energy", "motion"][rng.below(2) as usize]));
            }
            match rng.below(12) {
                0 => {
                    map.insert("n", json!("not-a-number"));
                }
                1 => {}
                _ => {
                    map.insert("n", json!(rng.below(100) as i64 - 50));
                }
            }
            if rng.below(2) == 0 {
                map.insert("kwh", json!(rng.below(80) as f64 / 16.0));
            } else {
                map.insert("kwh", json!(rng.below(5)));
            }
            map.insert("i", json!(i));
            Value::Object(map)
        })
        .collect()
}

/// Every combinator alone plus representative pipelines.
fn query_suite() -> Vec<(&'static str, Query)> {
    let agg = |g: Option<&str>, f: AggFn, field: Option<&str>, out: &str| {
        Query::new().aggregate(g, f, field, out).unwrap()
    };
    vec![
        ("empty", Query::new()),
        ("filter", Query::new().filter("this.n > 0").unwrap()),
        (
            "filter_string_eq",
            Query::new().filter("this.room == \"kitchen\"").unwrap(),
        ),
        // `and` chains split into per-field fast-path stages; parity
        // must hold including error drops on the heterogeneous `n`.
        (
            "filter_conjunction",
            Query::new()
                .filter("this.kind == \"energy\" and this.kwh > 2")
                .unwrap(),
        ),
        (
            "filter_conjunction_error",
            Query::new().filter("this.n > 0 and this.kwh > 1").unwrap(),
        ),
        (
            "filter_or_two_fields",
            Query::new().filter("this.n > 40 or this.kwh > 3").unwrap(),
        ),
        ("rename", Query::new().rename("kind", "event")),
        ("project", Query::new().project(["room", "kwh"])),
        (
            "derive",
            Query::new().derive("wh", "this.kwh * 1000").unwrap(),
        ),
        ("sort_asc", Query::new().sort("n", false).unwrap()),
        ("sort_desc", Query::new().sort("kwh", true).unwrap()),
        ("limit", Query::new().limit(17)),
        ("agg_count", agg(None, AggFn::Count, None, "total")),
        ("agg_sum", agg(None, AggFn::Sum, Some("kwh"), "kwh_sum")),
        ("agg_avg", agg(None, AggFn::Avg, Some("n"), "n_avg")),
        ("agg_min", agg(None, AggFn::Min, Some("n"), "n_min")),
        ("agg_max", agg(None, AggFn::Max, Some("kwh"), "kwh_max")),
        ("agg_last", agg(None, AggFn::Last, Some("i"), "last_i")),
        (
            "group_count",
            agg(Some("room"), AggFn::Count, None, "total"),
        ),
        (
            "group_sum",
            agg(Some("room"), AggFn::Sum, Some("kwh"), "kwh_sum"),
        ),
        (
            "group_avg",
            agg(Some("kind"), AggFn::Avg, Some("n"), "n_avg"),
        ),
        (
            "group_last",
            agg(Some("room"), AggFn::Last, Some("i"), "last_i"),
        ),
        (
            "filter_then_group",
            Query::new()
                .filter("this.kind == \"energy\"")
                .unwrap()
                .aggregate(Some("room"), AggFn::Sum, Some("kwh"), "kwh_sum")
                .unwrap(),
        ),
        (
            "rename_project_filter",
            Query::new()
                .rename("kind", "event")
                .project(["event", "n", "room"])
                .filter("this.n >= -10")
                .unwrap(),
        ),
        (
            "derive_sort_limit",
            Query::new()
                .derive("wh", "this.kwh * 1000")
                .unwrap()
                .sort("wh", true)
                .unwrap()
                .limit(9),
        ),
        (
            "group_then_sort",
            Query::new()
                .aggregate(Some("room"), AggFn::Avg, Some("kwh"), "kwh_avg")
                .unwrap()
                .sort("kwh_avg", true)
                .unwrap(),
        ),
    ]
}

fn assert_parity(store: &LogStore, label: &str) {
    let fns = FnRegistry::standard();
    let reference: Vec<Value> = store.read_all().into_iter().map(|r| r.fields).collect();
    for (name, q) in query_suite() {
        let want = q.run_with(reference.iter().cloned(), &fns).unwrap();
        let got = q.run_store_with(store, &fns).unwrap();
        assert_eq!(
            got.0, want.0,
            "{label}/{name}: run_store rows must match row-path reference"
        );
        assert_eq!(
            got.1, want.1,
            "{label}/{name}: drop counters must match row-path reference"
        );
    }
}

fn fill(store: &LogStore, records: &[Value]) {
    for r in records {
        store.append(r.clone());
    }
}

#[test]
fn row_store_matches_reference() {
    let store = LogStore::with_config(
        "parity/row",
        LogConfig {
            segment_capacity: 64,
            columnar: false,
            compaction: None,
        },
    );
    fill(&store, &telemetry(700));
    assert_parity(&store, "row");
}

#[test]
fn columnar_store_matches_reference() {
    let store = LogStore::with_config(
        "parity/col",
        LogConfig {
            segment_capacity: 64,
            columnar: true,
            compaction: None,
        },
    );
    fill(&store, &telemetry(700));
    assert_parity(&store, "columnar");
}

#[test]
fn columnar_and_row_rows_are_bit_identical() {
    // Same data, two layouts, one query suite: outputs must agree with
    // each other, not merely each with its own snapshot.
    let records = telemetry(500);
    let row = LogStore::with_config(
        "parity/row2",
        LogConfig {
            segment_capacity: 32,
            columnar: false,
            compaction: None,
        },
    );
    let col = LogStore::with_config(
        "parity/col2",
        LogConfig {
            segment_capacity: 32,
            columnar: true,
            compaction: None,
        },
    );
    fill(&row, &records);
    fill(&col, &records);
    let fns = FnRegistry::standard();
    for (name, q) in query_suite() {
        let a = q.run_store_with(&row, &fns).unwrap();
        let b = q.run_store_with(&col, &fns).unwrap();
        assert_eq!(a.0, b.0, "{name}: row vs columnar rows diverged");
        assert_eq!(a.1, b.1, "{name}: row vs columnar stats diverged");
    }
}

#[test]
fn queries_racing_compaction_match_reference() {
    // Tiny segments so compaction always has candidate runs, and a rival
    // thread splicing merges in while the suite runs. Every query must
    // still match the row-path reference computed from its own snapshot.
    let store = LogStore::with_config(
        "parity/compact",
        LogConfig {
            segment_capacity: 16,
            columnar: true,
            compaction: Some(CompactionPolicy {
                min_segments: 2,
                target_records: 64,
            }),
        },
    );
    fill(&store, &telemetry(900));

    let stop = Arc::new(AtomicBool::new(false));
    let rival = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.compact_now();
                std::thread::yield_now();
            }
        })
    };

    // Interleave appends with full suite passes so sealing, background
    // compaction, and the rival thread all overlap query execution.
    let extra = telemetry(300);
    for chunk in extra.chunks(100) {
        for r in chunk {
            store.append(r.clone());
        }
        assert_parity(&store, "mid-compaction");
    }

    stop.store(true, Ordering::Relaxed);
    rival.join().unwrap();

    // After quiescence the merged layout still matches.
    store.compact_now();
    assert_parity(&store, "post-compaction");
    let (sealed, _) = store.segment_counts();
    assert!(sealed < 1200 / 16, "compaction must actually have merged");
}
