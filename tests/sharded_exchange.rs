//! The chaos suite, re-run against a **4-shard exchange**: every invariant
//! the single-node chaos suite proves (`tests/chaos_recovery.rs`) must
//! survive sharding, because the [`ShardRouter`] is just another
//! [`ExchangeApi`] — integrator code cannot tell the difference.
//!
//! Faults are injected per shard: each shard node sits behind its own
//! seeded [`FaultProxy`], and the router's per-shard [`ResilientClient`]s
//! retry and resume **per shard** — a fault on one node never re-sends
//! another node's traffic.
//!
//! Seeds follow the chaos convention: printed at the top, overridable
//! with `CHAOS_SEED=<seed>` for exact replay (CI runs the same seed
//! matrix as `chaos_recovery`).

use knactor::net::proto::{Request, Response};
use knactor::net::{BoxFuture, Exchange, ExchangeServer, Subscription, TcpClient};
use knactor::net::{FaultPlan, FaultProxy, RetryPolicy, ShardRouter};
use knactor::prelude::*;
use knactor::store::ShardMap;
use serde_json::json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;

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

/// A 4-shard exchange with one flaky proxy per shard node.
struct ChaosShards {
    exchange: ShardedExchange,
    proxies: Vec<FaultProxy>,
}

impl ChaosShards {
    async fn launch(seed: u64, plan: fn(u64) -> FaultPlan) -> ChaosShards {
        let exchange = ShardedExchange::launch(SHARDS).await.unwrap();
        let mut proxies = Vec::with_capacity(SHARDS);
        for (i, addr) in exchange.addrs().into_iter().enumerate() {
            // Each shard gets its own fault stream forked off the seed,
            // so the schedule stays a pure function of (seed, shard).
            proxies.push(
                FaultProxy::spawn(addr, plan(seed ^ (0xD15C_0000 + i as u64)))
                    .await
                    .unwrap(),
            );
        }
        ChaosShards { exchange, proxies }
    }

    fn proxied_addrs(&self) -> Vec<SocketAddr> {
        self.proxies.iter().map(|p| p.local_addr()).collect()
    }

    /// A router whose per-shard clients ride the flaky proxies with
    /// per-shard retry/resume.
    async fn faulted_router(&self, seed: u64, subject: Subject) -> ShardRouter {
        ShardRouter::connect_resilient(
            self.exchange.map().clone(),
            &self.proxied_addrs(),
            subject,
            RetryPolicy::fast(seed),
        )
        .await
        .unwrap()
    }

    /// A clean router straight to the shard nodes, for audits.
    async fn audit_router(&self, subject: Subject) -> ShardRouter {
        ShardRouter::connect_tcp(self.exchange.map().clone(), &self.exchange.addrs(), subject)
            .await
            .unwrap()
    }

    fn kill_connections(&self) {
        for proxy in &self.proxies {
            proxy.kill_connections();
        }
    }

    async fn shutdown(self) {
        for proxy in &self.proxies {
            proxy.shutdown();
        }
        for proxy in &self.proxies {
            println!("proxy faults: {}", proxy.stats().summary());
        }
        self.exchange.shutdown().await;
    }
}

/// Exactly-once writes through four flaky wires: 40 creates scatter over
/// the shards, every one retried per shard until acked; the clean audit
/// must see every object exactly once and a virtual revision of exactly
/// the write count (sum of shard revisions — an overshoot means some
/// shard double-committed, an undershoot means one lost an acked write).
#[tokio::test]
async fn sharded_writes_commit_exactly_once_through_flaky_wire() {
    let seed = chaos_seed(0x5AAD_EE01);
    const WRITES: u64 = 40;

    let shards = ChaosShards::launch(seed, FaultPlan::flaky).await;
    let api: Arc<dyn ExchangeApi> = Arc::new(
        shards
            .faulted_router(seed, Subject::integrator("chaos"))
            .await,
    );

    api.create_store("chaos/state".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    for i in 0..WRITES {
        api.create("chaos/state".into(), key(i), val(i))
            .await
            .unwrap();
    }

    let audit = shards.audit_router(Subject::operator("audit")).await;
    let (objects, revision) = audit.list("chaos/state".into()).await.unwrap();
    assert_eq!(
        objects.len() as u64,
        WRITES,
        "every acked create is present"
    );
    assert_eq!(
        revision,
        Revision(WRITES),
        "virtual revision must be exactly the commit count: no shard lost or double-committed"
    );
    for i in 0..WRITES {
        let got = audit.get("chaos/state".into(), key(i)).await.unwrap();
        assert_eq!(*got.value, val(i), "value for {} corrupted", key(i));
    }

    shards.shutdown().await;
}

/// The merged watch stays dense through per-shard faults and forced
/// disconnects: revisions must be exactly 1..=N in order (the router's
/// virtual numbering), and every written key must appear exactly once.
#[tokio::test]
async fn sharded_watch_delivers_every_write_exactly_once() {
    let seed = chaos_seed(0x5AAD_EE02);
    const WRITES: u64 = 50;

    let shards = ChaosShards::launch(seed, FaultPlan::flaky).await;
    let watcher: Arc<dyn ExchangeApi> = Arc::new(
        shards
            .faulted_router(seed, Subject::operator("watcher"))
            .await,
    );
    let writer = shards.audit_router(Subject::operator("writer")).await;

    writer
        .create_store("chaos/feed".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    let mut events = watcher
        .watch("chaos/feed".into(), Revision::ZERO)
        .await
        .unwrap();

    for i in 0..WRITES {
        writer
            .create("chaos/feed".into(), key(i), val(i))
            .await
            .unwrap();
        if i % 10 == 9 {
            // Sever every proxied connection on every shard mid-stream;
            // each shard's resilient watch must resume from its own
            // per-shard cursor.
            shards.kill_connections();
        }
    }

    let seen = tokio::time::timeout(Duration::from_secs(60), async {
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
    .expect("merged watch did not deliver all revisions in time");

    let revisions: Vec<u64> = seen.iter().map(|e| e.revision.0).collect();
    let expected: Vec<u64> = (1..=WRITES).collect();
    assert_eq!(
        revisions, expected,
        "merged watch must deliver dense virtual revisions, exactly once, in order"
    );
    // Cross-shard delivery order may interleave, but the key *set* must
    // be exactly the writes — no loss, no duplication.
    let mut keys: Vec<ObjectKey> = seen.iter().map(|e| e.key.clone()).collect();
    keys.sort();
    let mut expected_keys: Vec<ObjectKey> = (0..WRITES).map(key).collect();
    expected_keys.sort();
    assert_eq!(keys, expected_keys);

    shards.shutdown().await;
}

/// Batched commits scatter-gathered across four flaky wires stay
/// exactly-once: per-shard sub-batches are retried independently with
/// per-item OCC disambiguation, and the audited virtual revision equals
/// the total item count.
#[tokio::test]
async fn sharded_batch_commits_exactly_once_through_flaky_wire() {
    let seed = chaos_seed(0x5AAD_EE03);
    const BATCHES: u64 = 10;
    const PER_BATCH: u64 = 8;

    let shards = ChaosShards::launch(seed, FaultPlan::flaky).await;
    let api: Arc<dyn ExchangeApi> = Arc::new(
        shards
            .faulted_router(seed, Subject::integrator("chaos"))
            .await,
    );

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
            shards.kill_connections();
        }
    }

    const WRITES: u64 = BATCHES * PER_BATCH;
    let audit = shards.audit_router(Subject::operator("audit")).await;
    let (objects, revision) = audit.list("chaos/batched".into()).await.unwrap();
    assert_eq!(objects.len() as u64, WRITES, "every acked item is present");
    assert_eq!(
        revision,
        Revision(WRITES),
        "virtual revision must be exactly the item count across shards"
    );

    shards.shutdown().await;
}

/// The refactor's success test: the same Cast integration, with zero
/// integrator-code changes, converges to the same state on a clean
/// single-node exchange and on a faulted 4-shard exchange.
#[tokio::test]
async fn sharded_cast_converges_to_faultless_state() {
    let seed = chaos_seed(0x5AAD_EE04);
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

    // Baseline: clean single-node in-process exchange.
    let (_object, _log, clean) = knactor::net::loopback::in_process(Subject::integrator("chaos"));
    let clean: Arc<dyn ExchangeApi> = Arc::new(clean);
    let baseline_cast = deploy(&clean).await.unwrap();
    feed(&clean).await.unwrap();
    let baseline = converged(&clean).await;

    // Sharded + faulted: the identical integrator code over a 4-shard
    // exchange behind flaky proxies.
    let shards = ChaosShards::launch(seed, FaultPlan::flaky).await;
    let faulted: Arc<dyn ExchangeApi> = Arc::new(
        shards
            .faulted_router(seed, Subject::integrator("chaos"))
            .await,
    );
    let faulted_cast = deploy(&faulted).await.unwrap();
    feed(&faulted).await.unwrap();
    let audit: Arc<dyn ExchangeApi> =
        Arc::new(shards.audit_router(Subject::operator("audit")).await);
    let chaotic = converged(&audit).await;

    assert_eq!(
        baseline, chaotic,
        "sharding + faults must not change what the integration converges to"
    );
    assert_eq!(baseline[0].1, json!("MSG-0"));

    baseline_cast.shutdown().await;
    faulted_cast.shutdown().await;
    shards.shutdown().await;
}

/// Scatter-gather partial failure (the satellite test): with one shard
/// node unreachable, a batch spanning all shards must yield typed
/// per-item errors for the dead shard's keys *only*, commit everything
/// else, and retry only the dead shard's sub-batch — the healthy shards
/// see their sub-batch exactly once.
#[tokio::test]
async fn one_shard_down_fails_only_its_items_and_retries_only_its_sub_batch() {
    let seed = chaos_seed(0x5AAD_EE05);

    // Transparent proxies: the only fault in this scenario is the outage.
    let shards = ChaosShards::launch(seed, FaultPlan::none).await;
    let router = Arc::new(
        ShardRouter::connect_resilient(
            shards.exchange.map().clone(),
            &shards.proxied_addrs(),
            Subject::integrator("chaos"),
            RetryPolicy::fast(seed),
        )
        .await
        .unwrap(),
    );
    router
        .create_store("chaos/partial".into(), ProfileSpec::Instant)
        .await
        .unwrap();

    // Pick the victim shard, then compose a batch with keys on every
    // shard so the outage splits it.
    let store = StoreId::new("chaos/partial");
    let keys: Vec<ObjectKey> = (0..32).map(key).collect();
    let down_shard = router.shard_of_key(&store, &keys[0]);

    // Take the victim's proxy down: connections die and reconnects are
    // refused — the node is unreachable.
    shards.proxies[down_shard].shutdown();
    shards.proxies[down_shard].kill_connections();
    tokio::time::sleep(Duration::from_millis(50)).await;

    // Snapshot healthy-shard traffic so we can prove their sub-batches
    // were sent exactly once (no whole-batch retry).
    let healthy_before: Vec<(usize, u64)> = (0..SHARDS)
        .filter(|&s| s != down_shard)
        .map(|s| {
            (
                s,
                shards.proxies[s]
                    .stats()
                    .frames_forwarded
                    .load(std::sync::atomic::Ordering::Relaxed),
            )
        })
        .collect();

    let ops: Vec<BatchOp> = keys
        .iter()
        .map(|k| BatchOp::Create {
            key: k.clone(),
            value: json!({"v": k.as_str()}),
        })
        .collect();
    let items = router.batch_commit(store.clone(), ops).await.unwrap();

    let mut failed = 0;
    let mut committed = 0;
    for (k, item) in keys.iter().zip(&items) {
        if router.shard_of_key(&store, k) == down_shard {
            let err = item
                .as_error()
                .unwrap_or_else(|| panic!("{k} is on the dead shard but its item succeeded"));
            assert!(
                matches!(err, Error::Transport(_) | Error::Timeout(_)),
                "dead shard's items must fail with a typed transport error, got {err:?}"
            );
            failed += 1;
        } else {
            assert!(
                !item.is_err(),
                "{k} is on a healthy shard but failed: {item:?}"
            );
            committed += 1;
        }
    }
    assert!(
        failed > 0,
        "no key landed on the dead shard — widen the key range"
    );
    assert!(committed > 0, "no key landed on a healthy shard");

    // Healthy shards saw exactly one request + one reply for their
    // sub-batch: the failed shard's retries never re-sent their items.
    for (s, before) in healthy_before {
        let after = shards.proxies[s]
            .stats()
            .frames_forwarded
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            after - before,
            2,
            "healthy shard {s} saw re-sent traffic during the dead shard's retries"
        );
    }

    // The healthy shards' commits are durable and visible.
    let audit = shards.audit_router(Subject::operator("audit")).await;
    let (objects, _) = audit.list(store.clone()).await.unwrap();
    assert_eq!(
        objects.len(),
        committed,
        "healthy commits must all be visible"
    );

    shards.shutdown().await;
}

/// Pin the router's topology contract: the shard map is **fixed at
/// construction**. A `rebalanced()` successor map bumps its version but
/// does not (and must not) bleed into a live router — re-routing without
/// migrating resident data would silently misroute every moved key. The
/// only way topology changes reach traffic is constructing a new router,
/// where a map/client count mismatch is a *typed* error (`try_new`),
/// never a misroute. (Live rebalance-with-migration is future work —
/// DESIGN.md §9.)
#[tokio::test]
async fn rebalanced_map_needs_a_new_router_and_mismatch_is_typed() {
    let (_objects, _logs, router) = ShardRouter::in_process(SHARDS, Subject::integrator("pin"));

    // A rebalance produces a *successor* map...
    let grown = router
        .map()
        .rebalanced((0..SHARDS + 1).map(|i| format!("shard-{i}")).collect());
    assert_eq!(grown.version(), router.map().version() + 1);
    assert_eq!(grown.shard_count(), SHARDS + 1);
    // ...but the live router keeps routing by its construction-time map:
    // same version, same owners, for every key.
    assert_eq!(router.map().version(), 1);
    assert_eq!(router.shard_count(), SHARDS);
    for i in 0..200u64 {
        let owner = router.shard_of_key(&StoreId::new("pin/state"), &key(i));
        assert!(
            owner < SHARDS,
            "owner index escaped the constructed topology"
        );
    }

    // Wiring the successor map to the *old* client set is refused with a
    // typed error — the failure a control plane can catch and handle.
    let (_o2, _l2, donor) = ShardRouter::in_process(SHARDS, Subject::integrator("pin"));
    let clients: Vec<Arc<dyn Exchange>> = (0..SHARDS)
        .map(|_| {
            let (_, _, lb) = knactor::net::loopback::in_process(Subject::integrator("pin"));
            Arc::new(lb) as Arc<dyn Exchange>
        })
        .collect();
    let _ = donor;
    let err = match ShardRouter::try_new(grown, clients) {
        Ok(_) => panic!("count mismatch must not construct a router"),
        Err(e) => e,
    };
    assert!(
        matches!(err, Error::Internal(_)),
        "count mismatch must be a typed error, got {err:?}"
    );
}

/// A shard client that can be pointed at its node again after the node
/// was restarted — a bare [`TcpClient`] never reconnects by itself.
struct Repointable(std::sync::Mutex<Arc<TcpClient>>);

impl Exchange for Repointable {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        let client = Arc::clone(&self.0.lock().expect("no holder panics"));
        Box::pin(async move { client.call(request).await })
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        let client = Arc::clone(&self.0.lock().expect("no holder panics"));
        Box::pin(async move { client.open(request).await })
    }
}

/// Regression: a sharded watch used to go deaf on a shard whose stream had
/// ended. Every shard fed a forwarder task onto one shared channel, so
/// when one shard's connection died its forwarder left and the merged
/// stream stayed open on the others — still delivering dense virtual
/// revisions, silently without the dead shard's events, a gap no consumer
/// could detect. The merged stream now *ends* with any member, and the
/// consumer (here a Cast's run loop) re-opens from its cursor: once the
/// shard is back, its keys are heard again.
#[tokio::test]
async fn a_sharded_watch_ends_with_any_shard_and_hears_it_again_after_a_restart() {
    let subject = || Subject::integrator("deaf");
    let mut servers = Vec::new();
    for _ in 0..2 {
        servers.push(ExchangeServer::bind_ephemeral().await.unwrap());
    }
    let connect = |addr: SocketAddr| async move {
        Arc::new(TcpClient::connect(addr, subject()).await.unwrap())
    };
    let restartable = Arc::new(Repointable(std::sync::Mutex::new(
        connect(servers[1].local_addr()).await,
    )));
    let members: Vec<Arc<dyn Exchange>> = vec![
        connect(servers[0].local_addr()).await,
        Arc::clone(&restartable) as _,
    ];
    let router = Arc::new(ShardRouter::new(ShardMap::uniform(2), members));
    let api: Arc<dyn ExchangeApi> = Arc::clone(&router) as _;
    for store in ["a/state", "b/state"] {
        api.create_store(store.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }
    let dxg =
        "Input:\n  A: deaf/v1/A/a\n  B: deaf/v1/B/b\nDXG:\n  B:\n    shout: upper(A.greeting)\n";
    let bindings = [
        ("A".to_string(), CastBinding::correlated("a/state")),
        ("B".to_string(), CastBinding::correlated("b/state")),
    ];
    let cast = Cast::new(Arc::clone(&api))
        .spawn(CastConfig {
            name: "deaf".into(),
            dxg: Dxg::parse(dxg).unwrap(),
            bindings: bindings.into(),
            mode: CastMode::Direct,
        })
        .await
        .unwrap();
    let feed = |range: std::ops::Range<u64>| {
        let api = Arc::clone(&api);
        async move {
            for i in range {
                let greeting = json!({"greeting": format!("msg-{i}")});
                api.create("a/state".into(), key(i), greeting)
                    .await
                    .unwrap();
            }
        }
    };
    let shouted = |range: std::ops::Range<u64>| {
        let api = Arc::clone(&api);
        async move {
            for i in range {
                let limit = Duration::from_secs(30);
                let set = |v: &Value| !v["shout"].is_null();
                knactor::testkit::await_object_state(&api, "b/state", key(i), limit, set)
                    .await
                    .unwrap_or_else(|e| panic!("b/state {} never converged: {e}", key(i)));
            }
        }
    };

    let mut watch = api.watch("a/state".into(), Revision::ZERO).await.unwrap();
    feed(0..16).await;
    for _ in 0..16 {
        watch.recv().await.expect("a merged event");
    }
    shouted(0..16).await;
    let on_restarted: Vec<u64> = (16..48)
        .filter(|i| router.shard_of_key(&"a/state".into(), &key(*i)) == 1)
        .collect();
    assert!(!on_restarted.is_empty());

    // Shard 1's node goes down: the merged stream ends instead of staying
    // open on shard 0 alone.
    let down = servers.pop().unwrap();
    let (addr, object, log) = (
        down.local_addr(),
        Arc::clone(&down.object),
        Arc::clone(&down.log),
    );
    down.shutdown().await;
    let ended = async { while watch.recv().await.is_some() {} };
    tokio::time::timeout(Duration::from_secs(10), ended)
        .await
        .expect("the merged watch stayed open without one of its shards");

    // The node comes back on its address with its state; the router's
    // client is pointed at it again. What is written from now on — on the
    // restarted shard too — reaches the Cast, whose run loop re-opened the
    // merged watch from its cursor.
    servers.push(
        ExchangeServer::bind(&addr.to_string(), object, log)
            .await
            .unwrap(),
    );
    let reconnected = connect(addr).await;
    *restartable.0.lock().expect("no holder panics") = reconnected;
    feed(16..48).await;
    shouted(16..48).await;

    cast.shutdown().await;
    for server in servers {
        server.shutdown().await;
    }
}
