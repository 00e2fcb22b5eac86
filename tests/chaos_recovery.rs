//! Deterministic chaos suite: the whole stack under injected faults.
//!
//! Every scenario derives its fault schedule from one seed, printed at
//! the top of the test (`chaos seed: ...`). A failure is reproduced by
//! re-running with that seed pinned:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --test chaos_recovery
//! ```
//!
//! The seed feeds both the [`FaultProxy`] (frame drops / duplicates /
//! delays / connection kills on the wire) and the [`ResilientClient`]'s
//! backoff jitter, so the *entire* failure schedule is a pure function of
//! it. CI runs a fixed seed matrix plus one time-derived seed per build,
//! so coverage widens over time while every failure stays replayable.
//!
//! What the scenarios assert, across drops, duplicates, delays and
//! forced disconnects:
//!
//! * **exactly-once commits** — retried idempotent writes commit once:
//!   the final store revision equals the logical write count, gapless;
//! * **exactly-once-after-dedup watch delivery** — a resilient watch
//!   delivers revisions `1..=N` in order with no gaps and no duplicates;
//! * **convergence** — Cast integrations reach the same final state with
//!   and without faults.
//!
//! (No lost committed writes across crash/restart is covered by the
//! store-level suite in `crates/store/tests/crash_points.rs`, which arms
//! WAL crash points directly.)

use knactor::net::{FaultApi, FaultPlan, FaultProxy, ResilientClient, RetryPolicy};
use knactor::prelude::*;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

/// The scenario seed: `CHAOS_SEED` if set (the reproduction path),
/// otherwise the scenario's fixed default. Always printed so a CI
/// failure carries its own reproduction recipe.
fn chaos_seed(default: u64) -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    println!("chaos seed: {seed} (rerun with CHAOS_SEED={seed})");
    seed
}

fn key(i: u64) -> ObjectKey {
    ObjectKey::new(format!("chaos-{i}"))
}

fn val(i: u64) -> Value {
    json!({"n": i, "payload": format!("data-{i}")})
}

/// Retried idempotent writes commit exactly once. 40 creates go through
/// a proxy that drops, duplicates, delays and kills; each one is retried
/// by the resilient client until acknowledged. A clean side-channel
/// client then audits the server: every object present with the right
/// value, and the store revision is *exactly* the write count — a
/// duplicated or double-committed request would overshoot it, a lost
/// one would undershoot.
#[tokio::test]
async fn chaos_writes_commit_exactly_once_through_flaky_wire() {
    let seed = chaos_seed(0xC0FF_EE01);
    const WRITES: u64 = 40;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::flaky(seed))
        .await
        .unwrap();
    let client = ResilientClient::connect(
        proxy.local_addr(),
        Subject::integrator("chaos"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);

    api.create_store("chaos/state".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    for i in 0..WRITES {
        api.create("chaos/state".into(), key(i), val(i))
            .await
            .unwrap();
    }

    // Audit over a clean connection: the faulted path must not have
    // smuggled extra commits in, nor lost acknowledged ones.
    let audit = TcpClient::connect(server.local_addr(), Subject::operator("audit"))
        .await
        .unwrap();
    let (objects, revision) = audit.list("chaos/state".into()).await.unwrap();
    assert_eq!(
        objects.len() as u64,
        WRITES,
        "every acked create is present"
    );
    assert_eq!(
        revision,
        Revision(WRITES),
        "revision must be exactly the commit count: no gaps, no duplicate commits"
    );
    for i in 0..WRITES {
        let got = audit.get("chaos/state".into(), key(i)).await.unwrap();
        assert_eq!(
            *got.value,
            val(i),
            "value for {} corrupted in transit",
            key(i)
        );
    }
    println!("proxy faults: {}", proxy.stats().summary());

    proxy.shutdown();
    server.shutdown().await;
}

/// Watch resume delivers every revision exactly once, in order. The
/// watcher subscribes through the flaky proxy and its connection is
/// additionally force-killed every 10 commits; the writer commits over a
/// clean connection. Dropped event frames surface as revision gaps
/// (resubscribe + replay), duplicated frames as revision repeats
/// (deduped), kills as stream ends (reconnect + resume) — and after all
/// of it the consumer must see revisions `1..=N` exactly, in order.
#[tokio::test]
async fn chaos_watch_delivers_every_revision_exactly_once() {
    let seed = chaos_seed(0xC0FF_EE02);
    const WRITES: u64 = 50;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    server
        .object
        .create_store(StoreId::new("chaos/feed"), EngineProfile::instant())
        .unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::flaky(seed))
        .await
        .unwrap();

    let watcher = ResilientClient::connect(
        proxy.local_addr(),
        Subject::operator("watcher"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let watcher: Arc<dyn ExchangeApi> = Arc::new(watcher);
    let mut events = watcher
        .watch("chaos/feed".into(), Revision::ZERO)
        .await
        .unwrap();

    let writer = TcpClient::connect(server.local_addr(), Subject::operator("writer"))
        .await
        .unwrap();
    for i in 0..WRITES {
        writer
            .create("chaos/feed".into(), key(i), val(i))
            .await
            .unwrap();
        if i % 10 == 9 {
            // Sever every proxied connection mid-stream; the resilient
            // watch must reconnect and resume from its last revision.
            proxy.kill_connections();
        }
    }

    let seen = tokio::time::timeout(Duration::from_secs(30), async {
        let mut seen = Vec::new();
        while (seen.len() as u64) < WRITES {
            match events.recv().await {
                Some(event) => seen.push(event),
                None => break,
            }
        }
        seen
    })
    .await
    .expect("watch did not deliver all revisions in time");

    let revisions: Vec<u64> = seen.iter().map(|e| e.revision.0).collect();
    let expected: Vec<u64> = (1..=WRITES).collect();
    assert_eq!(
        revisions, expected,
        "watch must deliver every revision exactly once, in order"
    );
    for (i, event) in seen.iter().enumerate() {
        assert_eq!(event.key, key(i as u64), "event {i} carries the wrong key");
    }
    println!("proxy faults: {}", proxy.stats().summary());

    proxy.shutdown();
    server.shutdown().await;
}

/// Deploy the same Cast integration twice — once on a clean in-process
/// exchange, once over the flaky wire — feed both the same inputs, and
/// require the same final state. Faults may reorder and delay the
/// faulted deployment's activations, but they must not change what it
/// converges to.
#[tokio::test]
async fn chaos_cast_converges_to_faultless_state() {
    let seed = chaos_seed(0xC0FF_EE03);
    const OBJECTS: u64 = 12;
    let dxg_spec =
        "Input:\n  A: chaos/v1/A/a\n  B: chaos/v1/B/b\nDXG:\n  B:\n    shout: upper(A.greeting)\n";
    let config = || -> CastConfig {
        let mut bindings = std::collections::BTreeMap::new();
        bindings.insert("A".to_string(), CastBinding::correlated("a/state"));
        bindings.insert("B".to_string(), CastBinding::correlated("b/state"));
        CastConfig {
            name: "chaos".into(),
            dxg: Dxg::parse(dxg_spec).unwrap(),
            bindings,
            mode: CastMode::Direct,
        }
    };
    let deploy = |api: &Arc<dyn ExchangeApi>| {
        let api = Arc::clone(api);
        async move {
            api.create_store("a/state".into(), ProfileSpec::Instant)
                .await?;
            api.create_store("b/state".into(), ProfileSpec::Instant)
                .await?;
            Cast::new(api).spawn(config()).await
        }
    };
    let feed = |api: &Arc<dyn ExchangeApi>| {
        let api = Arc::clone(api);
        async move {
            for i in 0..OBJECTS {
                api.create(
                    "a/state".into(),
                    key(i),
                    json!({"greeting": format!("msg-{i}")}),
                )
                .await?;
            }
            Ok::<_, Error>(())
        }
    };
    let converged = |api: &Arc<dyn ExchangeApi>| {
        let api = Arc::clone(api);
        async move {
            let mut finals = Vec::new();
            for i in 0..OBJECTS {
                let value = knactor::testkit::await_object_state(
                    &api,
                    "b/state",
                    key(i),
                    Duration::from_secs(30),
                    |v| !v["shout"].is_null(),
                )
                .await
                .unwrap_or_else(|e| panic!("b/state {} never converged: {e}", key(i)));
                finals.push((key(i), value["shout"].clone()));
            }
            finals
        }
    };

    // Baseline: clean in-process exchange.
    let (_object, _log, clean) = knactor::net::loopback::in_process(Subject::integrator("chaos"));
    let clean: Arc<dyn ExchangeApi> = Arc::new(clean);
    let baseline_cast = deploy(&clean).await.unwrap();
    feed(&clean).await.unwrap();
    let baseline = converged(&clean).await;

    // Faulted: same integration through a flaky proxy, activations and
    // watches riding the resilient client's retry/resume machinery.
    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::flaky(seed))
        .await
        .unwrap();
    let faulted = ResilientClient::connect(
        proxy.local_addr(),
        Subject::integrator("chaos"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let faulted: Arc<dyn ExchangeApi> = Arc::new(faulted);
    let faulted_cast = deploy(&faulted).await.unwrap();
    feed(&faulted).await.unwrap();
    // Audit convergence over a clean connection so the assertion itself
    // is not subject to injected faults.
    let audit = TcpClient::connect(server.local_addr(), Subject::operator("audit"))
        .await
        .unwrap();
    let audit: Arc<dyn ExchangeApi> = Arc::new(audit);
    let chaotic = converged(&audit).await;

    assert_eq!(
        baseline, chaotic,
        "faults must not change what the integration converges to"
    );
    assert_eq!(baseline[0].1, json!("MSG-0"));
    println!("proxy faults: {}", proxy.stats().summary());

    baseline_cast.shutdown().await;
    faulted_cast.shutdown().await;
    proxy.shutdown();
    server.shutdown().await;
}

/// Batched writes under chaos: `batch_commit` frames are dropped,
/// duplicated, delayed and their connections killed, so whole batches
/// vanish (retried), execute twice (every item collides with its own
/// earlier execution), or land with the ack lost. The resilient client's
/// per-item recovery must turn all of that into exactly-once commits:
/// every item eventually acks a revision, the audit sees every object
/// exactly once, and the store revision is *exactly* the item count — a
/// double-committed batch would overshoot it.
#[tokio::test]
async fn chaos_batch_commits_exactly_once_through_flaky_wire() {
    let seed = chaos_seed(0xC0FF_EE05);
    const BATCHES: u64 = 10;
    const PER_BATCH: u64 = 8;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::flaky(seed))
        .await
        .unwrap();
    let client = ResilientClient::connect(
        proxy.local_addr(),
        Subject::integrator("chaos"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);

    api.create_store("chaos/batched".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    for b in 0..BATCHES {
        let ops: Vec<BatchOp> = (0..PER_BATCH)
            .map(|j| {
                let i = b * PER_BATCH + j;
                BatchOp::Create {
                    key: key(i),
                    value: val(i),
                }
            })
            .collect();
        let items = api.batch_commit("chaos/batched".into(), ops).await.unwrap();
        for (j, item) in items.into_iter().enumerate() {
            item.into_revision()
                .unwrap_or_else(|e| panic!("batch {b} item {j} did not recover to a commit: {e}"));
        }
        if b % 3 == 2 {
            // Sever mid-run: the next batch rides a fresh connection and
            // may collide with this one's unacked execution.
            proxy.kill_connections();
        }
    }

    const WRITES: u64 = BATCHES * PER_BATCH;
    let audit = TcpClient::connect(server.local_addr(), Subject::operator("audit"))
        .await
        .unwrap();
    let (objects, revision) = audit.list("chaos/batched".into()).await.unwrap();
    assert_eq!(objects.len() as u64, WRITES, "every acked item is present");
    assert_eq!(
        revision,
        Revision(WRITES),
        "revision must be exactly the item count: no lost or double-committed batch items"
    );
    for i in 0..WRITES {
        assert_eq!(
            *audit
                .get("chaos/batched".into(), key(i))
                .await
                .unwrap()
                .value,
            val(i)
        );
    }
    println!("proxy faults: {}", proxy.stats().summary());

    proxy.shutdown();
    server.shutdown().await;
}

/// Gapless watch over batched fan-out. Batched commits make the server
/// emit `EventBatch` frames (runs of events in one frame); the proxy
/// drops/duplicates *whole frames*, so a single fault now harms a run of
/// events at once, and forced kills sever subscriptions mid-batch. The
/// resilient watcher must still deliver revisions `1..=N` exactly once,
/// in order.
#[tokio::test]
async fn chaos_batched_watch_stays_gapless() {
    let seed = chaos_seed(0xC0FF_EE06);
    const BATCHES: u64 = 8;
    const PER_BATCH: u64 = 8;
    const WRITES: u64 = BATCHES * PER_BATCH;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    server
        .object
        .create_store(StoreId::new("chaos/batchfeed"), EngineProfile::instant())
        .unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::flaky(seed))
        .await
        .unwrap();

    let watcher = ResilientClient::connect(
        proxy.local_addr(),
        Subject::operator("watcher"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let watcher: Arc<dyn ExchangeApi> = Arc::new(watcher);
    let mut events = watcher
        .watch("chaos/batchfeed".into(), Revision::ZERO)
        .await
        .unwrap();

    // Writer commits whole batches over a clean connection; each batch
    // lands as one run of consecutive revisions fanned out together.
    let writer = TcpClient::connect(server.local_addr(), Subject::operator("writer"))
        .await
        .unwrap();
    for b in 0..BATCHES {
        let ops: Vec<BatchOp> = (0..PER_BATCH)
            .map(|j| {
                let i = b * PER_BATCH + j;
                BatchOp::Create {
                    key: key(i),
                    value: val(i),
                }
            })
            .collect();
        let items = writer
            .batch_commit("chaos/batchfeed".into(), ops)
            .await
            .unwrap();
        assert!(items.iter().all(|i| !i.is_err()));
        if b % 3 == 1 {
            proxy.kill_connections();
        }
    }

    let seen = tokio::time::timeout(Duration::from_secs(30), async {
        let mut seen = Vec::new();
        while (seen.len() as u64) < WRITES {
            match events.recv().await {
                Some(event) => seen.push(event),
                None => break,
            }
        }
        seen
    })
    .await
    .expect("batched watch did not deliver all revisions in time");

    let revisions: Vec<u64> = seen.iter().map(|e| e.revision.0).collect();
    let expected: Vec<u64> = (1..=WRITES).collect();
    assert_eq!(
        revisions, expected,
        "batched fan-out must stay gapless and duplicate-free through faults"
    );
    println!("proxy faults: {}", proxy.stats().summary());

    proxy.shutdown();
    server.shutdown().await;
}

/// The in-process fault decorator tells the same exactly-once story
/// without a socket in sight: creates driven through [`FaultApi`] see
/// lost requests, lost replies (executed-but-unacked) and duplicated
/// executions, and a caller doing OCC-style idempotent retries — treat
/// `AlreadyExists` on a retry as the lost ack — still ends with exactly
/// one commit per logical write.
#[tokio::test]
async fn chaos_loopback_fault_api_keeps_commits_exactly_once() {
    let seed = chaos_seed(0xC0FF_EE04);
    const WRITES: u64 = 30;

    let (object, _log, clean) = knactor::net::loopback::in_process(Subject::integrator("chaos"));
    let clean: Arc<dyn ExchangeApi> = Arc::new(clean);
    let faulted = FaultApi::new(clean.clone(), FaultPlan::flaky(seed));

    object
        .create_store(StoreId::new("chaos/local"), EngineProfile::instant())
        .unwrap();
    for i in 0..WRITES {
        let mut attempt = 0u32;
        loop {
            match faulted.create("chaos/local".into(), key(i), val(i)).await {
                Ok(_) => break,
                // A retry finding the object already there means the
                // "lost" earlier attempt actually committed.
                Err(Error::AlreadyExists(_)) if attempt > 0 => break,
                Err(Error::Transport(_) | Error::Timeout(_)) => attempt += 1,
                Err(e) => panic!("unexpected error creating {}: {e}", key(i)),
            }
            assert!(attempt < 100, "retries exhausted for {}", key(i));
        }
    }

    let store = object.store(&StoreId::new("chaos/local")).unwrap();
    assert_eq!(store.len() as u64, WRITES);
    assert_eq!(
        store.revision(),
        Revision(WRITES),
        "revision must equal the logical write count despite duplicated executions"
    );
    for i in 0..WRITES {
        assert_eq!(*store.get(&key(i)).unwrap().value, val(i));
    }
    println!("fault-api faults: {}", faulted.stats().summary());
}
