//! Wire-batching throughput bench: how much does batching at every layer
//! (batched wire ops → corked framing → WAL group commit) buy over the
//! one-op-one-frame-one-fsync baseline?
//!
//! ```text
//! cargo run -p knactor-bench --bin wire --release          # full
//! cargo run -p knactor-bench --bin wire --release -- quick # CI variant
//! ```
//!
//! A real [`knactor_net::server::ExchangeServer`] on loopback TCP, a real
//! [`knactor_net::client::TcpClient`], and — for the fsync rows — a real
//! WAL fsynced on commit. Stores use a zero-delay durable profile (no
//! simulated apiserver latencies), so the measured cost is the genuine
//! wire + framing + fsync pipeline and nothing else.
//!
//! The matrix is batch size {1, 16, 64, 256} × fsync {off, on}. Batch 1
//! is the per-record baseline: one `create` request, one frame, one
//! fsync per record. Larger sizes send one `BatchCommit` per chunk, which
//! the server stages as one WAL group and acknowledges after a single
//! covering fsync. Emits `BENCH_wire.json`; the headline number is
//! `speedup_batch64_fsync` (acceptance floor: ≥ 3×).
//!
//! A second sweep measures **shard scaling**: partition-aligned batch-64
//! commits from 8 concurrent writers through a
//! [`knactor_net::ShardRouter`] over 1/2/4/8 routed-TCP shard nodes, each
//! running the apiserver-modelled durable engine (fsync WAL + the paper's
//! per-commit latency — the per-node serial resource that sharding
//! overlaps). Full runs gate `shard_scaling.speedup_4_shards ≥ 2×`.
//!
//! A third sweep measures **replication cost and replica-read scaling**
//! on a 3-node replica set (leader + 2 followers): batch-64 write
//! throughput for acked (no quorum), `Replicated(1)`, and
//! `Replicated(2)` profiles — the price of each added ack — and read
//! throughput from 8 concurrent readers through a
//! [`knactor_net::ReplicaRouter`] that load-balances reads across the
//! set versus the same readers pinned to the leader alone. The read
//! store runs the apiserver-modelled engine with a `Replicated(1)`
//! quorum: like the shard sweep, the paper's per-op latency is the
//! per-node serial resource — each node serves its connection serially,
//! so replicas overlap modelled read latency the same way shards
//! overlap modelled commit latency. (On the zero-latency durable
//! engine a single pipelined connection already saturates client-side
//! framing, so there is no per-node resource left for replicas to
//! overlap.) Full runs gate `replication.read_scaling_8_readers ≥ 1.5×`.

use knactor_logstore::LogExchange;
use knactor_net::client::TcpClient;
use knactor_net::proto::ProfileSpec;
use knactor_net::server::ExchangeServer;
use knactor_net::{ExchangeApi, ReplicaRouter, ReplicatedExchange, RetryPolicy, ShardedExchange};
use knactor_rbac::Subject;
use knactor_store::profile::WatchDelivery;
use knactor_store::{BatchOp, DataExchange, EngineProfile};
use knactor_types::{ObjectKey, Revision, StoreId};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 4] = [1, 16, 64, 256];

/// Durable profile with no simulated per-op delays: the bench measures
/// the real pipeline, not the apiserver's modelled latency.
fn bench_profile(dir: &std::path::Path, store: &str, fsync: bool) -> EngineProfile {
    let mut wal = dir.to_path_buf();
    wal.push(format!("{}.wal", store.replace('/', "_")));
    EngineProfile {
        name: if fsync { "wal-fsync" } else { "wal-nofsync" }.to_string(),
        wal_path: Some(wal),
        fsync,
        read_delay: Duration::ZERO,
        write_delay: Duration::ZERO,
        watch: WatchDelivery::Push,
        history_cap: knactor_store::profile::DEFAULT_HISTORY_CAP,
        repl_acks: 0,
    }
}

/// Sum of one counter across its label sets in a scraped snapshot.
fn counter_total(snapshot: &knactor_types::metrics::MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// Write `records` objects into a fresh store, `batch` per request.
/// Returns (records/sec, fsyncs consumed).
async fn run_config(
    server: &ExchangeServer,
    client: &TcpClient,
    data_dir: &std::path::Path,
    records: usize,
    batch: usize,
    fsync: bool,
) -> (f64, u64) {
    let store_name = format!("wire/b{batch}-{}", if fsync { "fsync" } else { "nofsync" });
    let store = StoreId::new(store_name.as_str());
    server
        .object
        .create_store(store.clone(), bench_profile(data_dir, &store_name, fsync))
        .expect("create bench store");

    let fsyncs_before = counter_total(
        &client.metrics().await.expect("scrape metrics"),
        "knactor_wal_fsyncs_total",
    );
    let start = Instant::now();
    if batch == 1 {
        // Per-record baseline: one request, one frame, one fsync each.
        for i in 0..records {
            client
                .create(
                    store.clone(),
                    ObjectKey::new(format!("k{i:06}").as_str()),
                    json!({"i": i, "payload": "0123456789abcdef"}),
                )
                .await
                .expect("create");
        }
    } else {
        for chunk_start in (0..records).step_by(batch) {
            let ops: Vec<BatchOp> = (chunk_start..(chunk_start + batch).min(records))
                .map(|i| BatchOp::Create {
                    key: ObjectKey::new(format!("k{i:06}").as_str()),
                    value: json!({"i": i, "payload": "0123456789abcdef"}),
                })
                .collect();
            let items = client
                .batch_commit(store.clone(), ops)
                .await
                .expect("batch_commit");
            for item in items {
                item.into_revision().expect("per-item commit");
            }
        }
    }
    let elapsed = start.elapsed();
    let fsyncs_after = counter_total(
        &client.metrics().await.expect("scrape metrics"),
        "knactor_wal_fsyncs_total",
    );

    // Everything acked must be readable: the batches really committed.
    let (objects, _) = client.list(store).await.expect("list");
    assert_eq!(objects.len(), records, "committed records");

    let throughput = records as f64 / elapsed.as_secs_f64();
    (throughput, fsyncs_after - fsyncs_before)
}

/// Concurrent writers per shard-scaling config. Enough to keep every
/// shard's WAL pipeline busy at 8 shards.
const SCALING_WRITERS: usize = 8;
/// Batch size for the shard-scaling sweep — the single-node headline row.
const SCALING_BATCH: usize = 64;

/// Aggregate write throughput through a [`ShardRouter`] over `shards`
/// routed-TCP shard nodes, each with its own fsync WAL.
///
/// [`SCALING_WRITERS`] tasks issue batch-[`SCALING_BATCH`] commits
/// concurrently through one router. Writers are **partition-aligned** —
/// each writer's keys all live on its designated shard, the way a
/// partitioned producer batches per partition — so every commit is one
/// whole sub-batch on one node. Stores use the paper's apiserver-modelled
/// durable engine: its per-commit latency is each node's serial resource
/// (a node's connection handles one request at a time), which is exactly
/// what sharding overlaps. Returns records/sec across all writers.
async fn run_sharded(shards: usize, records: usize) -> f64 {
    let exchange = ShardedExchange::launch(shards)
        .await
        .expect("launch shards");
    let router = Arc::new(
        exchange
            .client(Subject::operator("wire-bench"))
            .await
            .expect("connect router"),
    );
    let store = StoreId::new(format!("scale/s{shards}").as_str());
    router
        .create_store(store.clone(), ProfileSpec::Apiserver)
        .await
        .expect("create sharded store");

    // Pre-compute each writer's key set: scan candidates and keep the
    // ones the shard map places on the writer's target shard (writers
    // round-robin over shards). Key generation stays outside the timed
    // window.
    let per_writer = records / SCALING_WRITERS;
    let keys_for: Vec<Vec<ObjectKey>> = (0..SCALING_WRITERS)
        .map(|w| {
            let target = w % shards;
            let mut keys = Vec::with_capacity(per_writer);
            let mut n = 0u64;
            while keys.len() < per_writer {
                let key = ObjectKey::new(format!("w{w}-k{n:06}").as_str());
                if router.shard_of_key(&store, &key) == target {
                    keys.push(key);
                }
                n += 1;
            }
            keys
        })
        .collect();

    let start = Instant::now();
    let mut writers = Vec::with_capacity(SCALING_WRITERS);
    for (w, keys) in keys_for.into_iter().enumerate() {
        let router = Arc::clone(&router);
        let store = store.clone();
        writers.push(tokio::spawn(async move {
            for chunk in keys.chunks(SCALING_BATCH) {
                let ops: Vec<BatchOp> = chunk
                    .iter()
                    .map(|key| BatchOp::Create {
                        key: key.clone(),
                        value: json!({"w": w, "payload": "0123456789abcdef"}),
                    })
                    .collect();
                let items = router
                    .batch_commit(store.clone(), ops)
                    .await
                    .expect("batch_commit");
                for item in items {
                    item.into_revision().expect("per-item commit");
                }
            }
        }));
    }
    for writer in writers {
        writer.await.expect("writer task");
    }
    let elapsed = start.elapsed();

    // Every acked record must be visible through the router, and the
    // virtual revision (sum of shard revisions) must match the commits.
    let committed = SCALING_WRITERS * per_writer;
    let (objects, revision) = router.list(store).await.expect("list");
    assert_eq!(objects.len(), committed, "committed records across shards");
    assert!(
        revision.0 as usize >= committed,
        "virtual revision below commit count"
    );
    exchange.shutdown().await;

    committed as f64 / elapsed.as_secs_f64()
}

/// Followers in the replication sweep's replica set (3 nodes total).
const REPL_FOLLOWERS: usize = 2;
/// Concurrent readers in the replica-read scaling sweep.
const REPL_READERS: usize = 8;
/// Keys seeded for the read sweep.
const REPL_KEYS: usize = 256;

/// Batch-64 write throughput into a fresh replica set. `acks == 0` is
/// the acked baseline (durable leader, followers replicate but the
/// leader never waits for them); `acks == n` writes through a
/// `Replicated(n)` profile, so every commit waits for `n` follower
/// acks. Returns records/sec.
async fn run_replicated_writes(acks: usize, records: usize) -> f64 {
    let cluster = ReplicatedExchange::launch(REPL_FOLLOWERS)
        .await
        .expect("launch replica set");
    let router = cluster
        .router(RetryPolicy::fast(7))
        .await
        .expect("connect router");
    let store = StoreId::new(format!("repl/w{acks}").as_str());
    let profile = if acks == 0 {
        ProfileSpec::Durable
    } else {
        ProfileSpec::Replicated { acks }
    };
    router
        .create_store(store.clone(), profile)
        .await
        .expect("create replicated store");

    let start = Instant::now();
    for chunk_start in (0..records).step_by(SCALING_BATCH) {
        let ops: Vec<BatchOp> = (chunk_start..(chunk_start + SCALING_BATCH).min(records))
            .map(|i| BatchOp::Create {
                key: ObjectKey::new(format!("k{i:06}").as_str()),
                value: json!({"i": i, "payload": "0123456789abcdef"}),
            })
            .collect();
        let items = router
            .batch_commit(store.clone(), ops)
            .await
            .expect("batch_commit");
        for item in items {
            item.into_revision().expect("per-item commit");
        }
    }
    let elapsed = start.elapsed();

    let (objects, _) = router.list(store).await.expect("list");
    assert_eq!(objects.len(), records, "committed records");
    cluster.shutdown().await;

    records as f64 / elapsed.as_secs_f64()
}

/// Read throughput from [`REPL_READERS`] concurrent readers over a
/// seeded apiserver-modelled `Replicated(1)` store: either pinned to
/// the leader alone (`nodes == 1`) or load-balanced across the whole
/// replica set by the [`ReplicaRouter`]. Returns gets/sec.
async fn run_replica_reads(cluster: &ReplicatedExchange, nodes: usize, gets: usize) -> f64 {
    let addrs = cluster.addrs();
    let router = Arc::new(
        ReplicaRouter::connect(
            &addrs[..nodes],
            Subject::operator("wire-bench"),
            RetryPolicy::fast(7),
        )
        .await
        .expect("connect read router"),
    );
    let store = StoreId::new("repl/read");

    let per_reader = gets / REPL_READERS;
    let start = Instant::now();
    let mut readers = Vec::with_capacity(REPL_READERS);
    for r in 0..REPL_READERS {
        let router = Arc::clone(&router);
        let store = store.clone();
        readers.push(tokio::spawn(async move {
            for i in 0..per_reader {
                let key = ObjectKey::new(format!("r{:06}", (r * 37 + i) % REPL_KEYS).as_str());
                let obj = router.get(store.clone(), key).await.expect("get");
                assert!(obj.value.get("i").is_some(), "seeded value");
            }
        }));
    }
    for reader in readers {
        reader.await.expect("reader task");
    }
    let elapsed = start.elapsed();

    (per_reader * REPL_READERS) as f64 / elapsed.as_secs_f64()
}

async fn run(records: usize) -> serde_json::Value {
    let data_dir = std::env::temp_dir().join(format!("knactor-wire-bench-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).expect("bench data dir");
    let server = ExchangeServer::bind(
        "127.0.0.1:0",
        Arc::new(DataExchange::new()),
        Arc::new(LogExchange::new()),
    )
    .await
    .expect("bind server");
    let client = TcpClient::connect(server.local_addr(), Subject::operator("wire-bench"))
        .await
        .expect("connect");

    let mut rows = Vec::new();
    let mut by_key = std::collections::BTreeMap::new();
    for fsync in [false, true] {
        for batch in BATCH_SIZES {
            let (throughput, fsyncs) =
                run_config(&server, &client, &data_dir, records, batch, fsync).await;
            eprintln!(
                "batch={batch:>3} fsync={fsync:5} -> {throughput:>10.0} rec/s ({fsyncs} fsyncs)"
            );
            by_key.insert((fsync, batch), throughput);
            rows.push(json!({
                "batch": batch,
                "fsync": fsync,
                "records": records,
                "records_per_sec": throughput,
                "fsyncs": fsyncs,
            }));
        }
    }

    let speedup = |fsync: bool, batch: usize| by_key[&(fsync, batch)] / by_key[&(fsync, 1)];
    let speedup_batch64_fsync = speedup(true, 64);

    // Server-side batching observability, scraped over the same wire.
    let snapshot = client.metrics().await.expect("scrape metrics");
    let group_records = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "knactor_wal_group_commit_records")
        .map(|h| json!({"count": h.count, "max": h.max_ns}));

    let _ = std::fs::remove_dir_all(&data_dir);

    // Shard-scaling sweep: the same write workload through a ShardRouter
    // over 1/2/4/8 routed-TCP shard nodes, each with its own fsync WAL.
    let mut scaling_rows = Vec::new();
    let mut scaling_by_shards = std::collections::BTreeMap::new();
    for shards in [1usize, 2, 4, 8] {
        let throughput = run_sharded(shards, records).await;
        eprintln!("shards={shards} -> {throughput:>10.0} rec/s aggregate");
        scaling_by_shards.insert(shards, throughput);
        scaling_rows.push(json!({
            "shards": shards,
            "writers": SCALING_WRITERS,
            "batch": SCALING_BATCH,
            "records": records,
            "records_per_sec": throughput,
        }));
    }
    let scaling_4x = scaling_by_shards[&4] / scaling_by_shards[&1];

    // Replication sweep: the write-side cost of each added ack, then
    // replica-read scaling over one seeded replica set.
    let mut repl_write_rows = Vec::new();
    for acks in [0usize, 1, 2] {
        let throughput = run_replicated_writes(acks, records).await;
        let label = if acks == 0 {
            "acked".to_string()
        } else {
            format!("replicated({acks})")
        };
        eprintln!("repl writes {label:>13} -> {throughput:>10.0} rec/s");
        repl_write_rows.push(json!({
            "mode": label,
            "acks": acks,
            "batch": SCALING_BATCH,
            "records": records,
            "records_per_sec": throughput,
        }));
    }

    let cluster = ReplicatedExchange::launch(REPL_FOLLOWERS)
        .await
        .expect("launch read replica set");
    let seed_router = cluster
        .router(RetryPolicy::fast(7))
        .await
        .expect("connect seed router");
    let read_store = StoreId::new("repl/read");
    seed_router
        .create_store(
            read_store.clone(),
            ProfileSpec::ReplicatedApiserver { acks: 1 },
        )
        .await
        .expect("create read store");
    for chunk_start in (0..REPL_KEYS).step_by(SCALING_BATCH) {
        let ops: Vec<BatchOp> = (chunk_start..(chunk_start + SCALING_BATCH).min(REPL_KEYS))
            .map(|i| BatchOp::Create {
                key: ObjectKey::new(format!("r{i:06}").as_str()),
                value: json!({"i": i, "payload": "0123456789abcdef"}),
            })
            .collect();
        seed_router
            .batch_commit(read_store.clone(), ops)
            .await
            .expect("seed batch");
    }
    cluster
        .await_converged(
            &read_store,
            Revision(REPL_KEYS as u64),
            Duration::from_secs(10),
        )
        .await
        .expect("replicas converge before read sweep");
    let reads_leader_only = run_replica_reads(&cluster, 1, records).await;
    let reads_replicated = run_replica_reads(&cluster, REPL_FOLLOWERS + 1, records).await;
    let read_scaling = reads_replicated / reads_leader_only;
    eprintln!(
        "repl reads leader-only -> {reads_leader_only:>10.0} get/s; \
         {} nodes -> {reads_replicated:>10.0} get/s ({read_scaling:.2}x)",
        REPL_FOLLOWERS + 1
    );
    cluster.shutdown().await;

    json!({
        "description": "Wire-batching throughput bench (cargo run -p knactor-bench --bin wire --release). Real TCP server + client on loopback; each config writes the same records into a fresh WAL-backed store, batch 1 as single create requests, larger batches as one BatchCommit per chunk (one frame out, one WAL group fsync to cover the chunk). records_per_sec is sustained write throughput; speedups are vs the batch-1 row with the same fsync setting.",
        "records_per_config": records,
        "configs": rows,
        "speedup_vs_batch1": {
            "nofsync": {
                "batch16": speedup(false, 16),
                "batch64": speedup(false, 64),
                "batch256": speedup(false, 256),
            },
            "fsync": {
                "batch16": speedup(true, 16),
                "batch64": speedup(true, 64),
                "batch256": speedup(true, 256),
            },
        },
        "speedup_batch64_fsync": speedup_batch64_fsync,
        "wal_group_commit_records": group_records,
        "shard_scaling": {
            "description": "Aggregate write throughput through a ShardRouter over N routed-TCP shard nodes running the apiserver-modelled durable engine (fsync WAL + the paper's measured per-commit latency). 8 concurrent partition-aligned writers (each writer's keys co-located on its shard, as a partitioned producer batches) issue batch-64 commits through one router; each node serves its connection serially, so per-node commit latency is the serial resource sharding overlaps. speedup_4_shards is aggregate rec/s at 4 shards vs 1 shard (acceptance floor in full runs: >= 2x).",
            "configs": scaling_rows,
            "speedup_2_shards": scaling_by_shards[&2] / scaling_by_shards[&1],
            "speedup_4_shards": scaling_4x,
            "speedup_8_shards": scaling_by_shards[&8] / scaling_by_shards[&1],
        },
        "replication": {
            "description": "Replication sweep on a 3-node replica set (leader + 2 followers). Writes: batch-64 commits through a ReplicaRouter into a durable store with no quorum (acked) vs Replicated(1) vs Replicated(2) — each added ack makes the commit wait for one more follower to durably stage the group. Reads: 8 concurrent readers issue gets over a converged replicated store running the apiserver-modelled engine (the paper's per-op read latency is each node's serial resource, same basis as the shard sweep), pinned to the leader alone vs load-balanced across the set by the ReplicaRouter; each node serves its connection serially, so replicas overlap modelled read latency the way shards overlap modelled commit latency. read_scaling_8_readers is set-wide gets/s over leader-only gets/s (acceptance floor in full runs: >= 1.5x).",
            "writes": repl_write_rows,
            "reads": {
                "readers": REPL_READERS,
                "keys": REPL_KEYS,
                "gets": records,
                "leader_only_gets_per_sec": reads_leader_only,
                "replicated_gets_per_sec": reads_replicated,
            },
            "read_scaling_8_readers": read_scaling,
        },
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let records = if quick { 512 } else { 2048 };

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let result = runtime.block_on(run(records));

    let pretty = serde_json::to_string(&result).unwrap();
    println!("{pretty}");
    std::fs::write("BENCH_wire.json", format!("{pretty}\n")).expect("write BENCH_wire.json");
    eprintln!("wrote BENCH_wire.json");

    let speedup = result["speedup_batch64_fsync"].as_f64().unwrap();
    assert!(
        speedup >= 3.0,
        "batch-64 fsync speedup {speedup:.2}x below the 3x floor"
    );
    // The shard-scaling floor only gates full runs: quick/CI runs write
    // too few records per config for the sweep to be load-bearing.
    if !quick {
        let scaling = result["shard_scaling"]["speedup_4_shards"]
            .as_f64()
            .unwrap();
        assert!(
            scaling >= 2.0,
            "4-shard aggregate write speedup {scaling:.2}x below the 2x floor"
        );
        let read_scaling = result["replication"]["read_scaling_8_readers"]
            .as_f64()
            .unwrap();
        assert!(
            read_scaling >= 1.5,
            "replica-read scaling {read_scaling:.2}x below the 1.5x floor at 8 readers"
        );
    }
}
