//! Log-DE query throughput bench: what do columnar sealed segments, the
//! parallel segment-at-a-time executor, and compaction buy over the
//! row-oriented seed path?
//!
//! ```text
//! cargo run -p knactor-bench --bin log --release          # full (1M records)
//! cargo run -p knactor-bench --bin log --release -- quick # CI variant
//! ```
//!
//! Two stores hold the *same* seeded telemetry: one configured like the
//! seed (row segments, no compaction), one with the current defaults
//! (columnar seal, parallel `run_store`). The baseline for every query is
//! the seed's execution path — materialize `read_all()` and run the
//! pipeline over the collected rows on one thread. The candidate is
//! `Query::run_store` on the columnar store. Parity tests guarantee the
//! two return bit-identical rows, so this measures representation and
//! scheduling only.
//!
//! Emits `BENCH_log.json`. Headline numbers: `speedup_aggregate` and
//! `speedup_filter` (acceptance floor: ≥ 4× on the full 1M-record run)
//! and `retained_reduction` (row bytes / columnar-compacted bytes,
//! floor ≥ 2× on repetitive telemetry).

use knactor_logstore::{AggFn, CompactionPolicy, LogConfig, LogStore, Query};
use serde_json::{json, Value};
use std::time::Instant;

/// SplitMix64 — deterministic record stream, no RNG dependency.
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

/// Smart-home-shaped telemetry: few distinct values per field, long runs
/// of the same device chattering — the dictionary/RLE sweet spot and an
/// honest model of the paper's workloads.
fn telemetry(n: usize) -> Vec<Value> {
    let mut rng = SplitMix(0x6C6F_675F_6465);
    let rooms = ["kitchen", "hall", "garage", "bedroom"];
    let kinds = ["energy", "motion", "door"];
    (0..n)
        .map(|i| {
            json!({
                "kind": kinds[rng.below(3) as usize],
                "room": rooms[rng.below(4) as usize],
                "device": format!("dev{}", rng.below(16)),
                "kwh": rng.below(64) as f64 / 16.0,
                "on": rng.below(2) == 0,
                "i": i,
            })
        })
        .collect()
}

fn fill(store: &LogStore, records: &[Value], chunk: usize) {
    for c in records.chunks(chunk) {
        store.append_batch(c.iter().cloned());
    }
}

/// Best-of-N wall time for `f`, in seconds.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.unwrap())
}

/// The seed path: collect `read_all()` payloads, run single-threaded.
fn run_seed_path(store: &LogStore, q: &Query) -> Vec<Value> {
    q.run(store.read_all().into_iter().map(|r| r.fields))
        .expect("seed-path query")
}

fn bench_query(
    name: &str,
    q: &Query,
    row: &LogStore,
    col: &LogStore,
    iters: usize,
) -> (serde_json::Value, f64) {
    let n = row.len() as f64;
    let (seed_s, seed_rows) = best_of(iters, || run_seed_path(row, q));
    let (store_s, store_rows) = best_of(iters, || q.run_store(col).expect("run_store query"));
    assert_eq!(seed_rows, store_rows, "{name}: paths must agree");
    let speedup = seed_s / store_s;
    eprintln!(
        "{name:>10}: seed {:>12.0} rec/s | columnar+parallel {:>12.0} rec/s | {speedup:.2}x",
        n / seed_s,
        n / store_s
    );
    (
        json!({
            "query": name,
            "seed_records_per_sec": n / seed_s,
            "store_records_per_sec": n / store_s,
            "speedup": speedup,
            "result_rows": store_rows.len(),
        }),
        speedup,
    )
}

fn run(records: usize, iters: usize, quick: bool) -> serde_json::Value {
    eprintln!("generating {records} records...");
    let data = telemetry(records);

    // Seed configuration: row segments, nothing merged.
    let row = LogStore::with_config(
        "bench/log-row",
        LogConfig {
            columnar: false,
            compaction: None,
            ..Default::default()
        },
    );
    // Current defaults plus background-style compaction, run to
    // quiescence before timing so segment counts are steady-state.
    let col = LogStore::with_config(
        "bench/log-col",
        LogConfig {
            columnar: true,
            compaction: None,
            ..Default::default()
        },
    );
    fill(&row, &data, 1024);
    fill(&col, &data, 1024);
    col.compact_now();
    drop(data);

    let filter = Query::new()
        .filter("this.kind == \"energy\" and this.kwh > 2")
        .unwrap();
    let aggregate = Query::new()
        .filter("this.kind == \"energy\"")
        .unwrap()
        .aggregate(Some("room"), AggFn::Sum, Some("kwh"), "kwh_sum")
        .unwrap();

    let (filter_row, speedup_filter) = bench_query("filter", &filter, &row, &col, iters);
    let (agg_row, speedup_aggregate) = bench_query("aggregate", &aggregate, &row, &col, iters);

    // Retention: same repetitive telemetry, row accounting vs columnar
    // segments merged by compaction (shared dictionaries, longer runs).
    let compacted = LogStore::with_config(
        "bench/log-compact",
        LogConfig {
            segment_capacity: 1024,
            columnar: true,
            compaction: Some(CompactionPolicy::default()),
        },
    );
    let rep: Vec<Value> = (0..records.min(131_072))
        .map(|i| json!({"kind": "energy", "room": "kitchen", "device": "dev1", "on": i % 512 != 0}))
        .collect();
    let rep_row = LogStore::with_config(
        "bench/log-rep-row",
        LogConfig {
            columnar: false,
            compaction: None,
            ..Default::default()
        },
    );
    fill(&rep_row, &rep, 1024);
    fill(&compacted, &rep, 1024);
    compacted.compact_now();
    let row_bytes = rep_row.retained_bytes();
    let compacted_bytes = compacted.retained_bytes();
    let retained_reduction = row_bytes as f64 / compacted_bytes as f64;
    let (sealed, columnar_count) = compacted.segment_counts();
    eprintln!(
        "retention: row {row_bytes}B vs compacted columnar {compacted_bytes}B -> {retained_reduction:.2}x ({sealed} segments, {columnar_count} columnar)"
    );

    json!({
        "description": "Log-DE query bench (cargo run -p knactor-bench --bin log --release). Two stores hold identical seeded telemetry; the baseline is the seed path (read_all + single-threaded Query::run on a row-segment store), the candidate is Query::run_store on a columnar store (parallel segments, columnar filter/aggregate fast paths). Parity suites guarantee bit-identical rows. retained_reduction compares row-segment retained bytes against columnar segments merged by compaction on repetitive telemetry.",
        "records": records,
        "iters": iters,
        "quick": quick,
        "queries": [filter_row, agg_row],
        "speedup_filter": speedup_filter,
        "speedup_aggregate": speedup_aggregate,
        "retention": {
            "records": rep.len(),
            "row_bytes": row_bytes,
            "compacted_columnar_bytes": compacted_bytes,
            "sealed_segments": sealed,
        },
        "retained_reduction": retained_reduction,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let (records, iters) = if quick { (65_536, 3) } else { (1_000_000, 5) };

    // `run_store`'s parallel path spans worker threads itself; the bench
    // only needs a runtime for store-internal background tasks.
    let result = run(records, iters, quick);

    let pretty = serde_json::to_string(&result).unwrap();
    println!("{pretty}");
    std::fs::write("BENCH_log.json", format!("{pretty}\n")).expect("write BENCH_log.json");
    eprintln!("wrote BENCH_log.json");

    let retained = result["retained_reduction"].as_f64().unwrap();
    assert!(
        retained >= 2.0,
        "retained-bytes reduction {retained:.2}x below the 2x floor"
    );
    // Query-speedup floors only gate the full run: quick mode's store is
    // small enough that thread fan-out overhead eats the win.
    if !quick {
        for key in ["speedup_filter", "speedup_aggregate"] {
            let speedup = result[key].as_f64().unwrap();
            assert!(speedup >= 4.0, "{key} {speedup:.2}x below the 4x floor");
        }
    }
}
