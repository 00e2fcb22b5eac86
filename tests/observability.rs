//! End-to-end observability: a real composition runs against a TCP
//! exchange while `Metrics` requests scrape the registry over the wire —
//! mid-flight and after drain — and the scraped numbers must agree with
//! ground truth (records appended, objects written, faults injected).
//!
//! The registry is process-global, so every assertion here is scoped by
//! label (test-unique store and integrator names) or computed as a delta
//! across snapshots; other tests in this binary cannot disturb them.

use knactor::net::{FaultPlan, FaultProxy, ResilientClient, RetryPolicy};
use knactor::prelude::*;
use knactor::types::metrics::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const OBS_DXG: &str = "\
Input:
  A: Obs/v1/A/a
  B: Obs/v1/B/b
DXG:
  B:
    copied: A.tag
";

fn counter<'a>(
    snap: &'a MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a CounterSnapshot> {
    snap.counters.iter().find(|c| {
        c.name == name
            && labels
                .iter()
                .all(|(k, v)| c.labels.iter().any(|(ck, cv)| ck == k && cv == v))
    })
}

fn counter_value(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    counter(snap, name, labels).map_or(0, |c| c.value)
}

fn histogram<'a>(
    snap: &'a MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a HistogramSnapshot> {
    snap.histograms.iter().find(|h| {
        h.name == name
            && labels
                .iter()
                .all(|(k, v)| h.labels.iter().any(|(hk, hv)| hk == k && hv == v))
    })
}

async fn scrape(addr: std::net::SocketAddr) -> MetricsSnapshot {
    let client = TcpClient::connect(addr, Subject::operator("scraper"))
        .await
        .unwrap();
    client.metrics().await.unwrap()
}

/// A retail-shaped composition (cast edge + sync relay) deployed through
/// `Composer::apply` against a TCP exchange. Scrapes over the wire must
/// see the activity while it happens, and after drain the activation
/// counters must equal the records actually delivered — the registry is
/// a second, independent witness of zero loss.
#[tokio::test]
async fn scraped_metrics_agree_with_delivered_records() {
    const RECORDS: usize = 24;
    const OBJECTS: usize = 6;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let client = TcpClient::connect(server.local_addr(), Subject::operator("obs"))
        .await
        .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    for s in ["obsa/state", "obsb/state"] {
        api.create_store(s.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }
    for l in ["obsev/log", "obsout/log"] {
        api.log_create_store(l.into()).await.unwrap();
    }

    let mut bindings = BTreeMap::new();
    bindings.insert("A".to_string(), CastBinding::correlated("obsa/state"));
    bindings.insert("B".to_string(), CastBinding::correlated("obsb/state"));
    let composition = Composition::new()
        .with_cast(Dxg::parse(OBS_DXG).unwrap(), bindings, CastMode::Direct)
        .with_sync(SyncConfig {
            name: "obs-relay".to_string(),
            source: StoreId::new("obsev/log"),
            dest: SyncDest::Log(StoreId::new("obsout/log")),
            query: QuerySpec {
                ops: vec![OpSpec::Rename {
                    from: "n".into(),
                    to: "m".into(),
                }],
            },
            mode: SyncMode::Stream,
        });
    let composer = Composer::new("obs-e2e", Arc::clone(&api));
    let report = composer.apply(composition).await.unwrap();
    assert_eq!(report.spawned, vec!["cast:B", "sync:obs-relay"]);

    // Traffic through both edges.
    for i in 0..RECORDS {
        api.log_append("obsev/log".into(), json!({"n": i}))
            .await
            .unwrap();
    }
    for i in 0..OBJECTS {
        api.create(
            "obsa/state".into(),
            format!("obs-{i}").as_str().into(),
            json!({"tag": format!("t{i}")}),
        )
        .await
        .unwrap();
    }

    // Mid-flight scrape: the wire endpoint answers while integrators are
    // actively processing, and already shows this test's stores.
    let mid = scrape(server.local_addr()).await;
    assert!(
        counter_value(&mid, "knactor_store_ops_total", &[("store", "obsa/state")]) > 0,
        "mid-flight scrape must already see store traffic"
    );

    // Barriers: every record and object delivered, then drain.
    knactor::testkit::await_log_records(&api, "obsout/log", RECORDS, Duration::from_secs(15))
        .await
        .unwrap();
    for i in 0..OBJECTS {
        knactor::testkit::await_object_state(
            &api,
            "obsb/state",
            format!("obs-{i}").as_str(),
            Duration::from_secs(15),
            |v| v["copied"] == json!(format!("t{i}")),
        )
        .await
        .unwrap();
    }
    composer.drain_all().await.unwrap();

    let snap = scrape(server.local_addr()).await;

    // Zero-loss cross-check: the sync activated exactly once per record
    // that reached the output log — counted independently by the
    // integrator's own instrumentation.
    let delivered = api.log_read("obsout/log".into(), 0).await.unwrap().len();
    assert_eq!(delivered, RECORDS);
    assert_eq!(
        counter_value(
            &snap,
            "knactor_activations_total",
            &[("integrator", "sync:obs-relay")]
        ),
        delivered as u64,
        "sync activations must equal records delivered"
    );
    let stage = histogram(
        &snap,
        "knactor_activation_stage_seconds",
        &[
            ("integrator", "sync:obs-relay"),
            ("stage", "process-record"),
        ],
    )
    .expect("per-stage histogram for the sync");
    assert_eq!(stage.count, delivered as u64);

    // The cast edge activated (watch coalescing may batch object events,
    // never skip them) and its stage histograms exist. The composer
    // names the edge's cast config `<composer>:<alias>`.
    assert!(
        counter_value(
            &snap,
            "knactor_activations_total",
            &[("integrator", "cast:obs-e2e:B")]
        ) >= 1,
        "cast edge must have recorded activations: {:?}",
        snap.counters
            .iter()
            .filter(|c| c.name == "knactor_activations_total")
            .collect::<Vec<_>>()
    );
    for stage in ["read-sources", "evaluate"] {
        assert!(
            snap.histograms.iter().any(|h| {
                h.name == "knactor_activation_stage_seconds"
                    && h.labels.iter().any(|(k, v)| k == "stage" && v == stage)
                    && h.count > 0
            }),
            "missing populated stage histogram {stage}"
        );
    }

    // Store-level counters carry the writes this test performed.
    assert!(
        counter_value(
            &snap,
            "knactor_store_ops_total",
            &[("store", "obsa/state"), ("op", "create")]
        ) >= OBJECTS as u64
    );
    assert!(
        counter_value(
            &snap,
            "knactor_log_appends_total",
            &[("store", "obsev/log")]
        ) >= RECORDS as u64
    );

    // The composer's own apply landed in its labelled histogram, and its
    // health view bundles the same snapshot for programmatic callers.
    let apply = histogram(
        &snap,
        "knactor_composer_apply_seconds",
        &[("composer", "obs-e2e")],
    )
    .expect("composer apply histogram");
    assert!(apply.count >= 1);
    let health = composer.health().await;
    assert!(health.all_running(), "edges: {:?}", health.edges);
    assert_eq!(health.edges.len(), 2);
    assert!(histogram(
        &health.metrics,
        "knactor_composer_apply_seconds",
        &[("composer", "obs-e2e")]
    )
    .is_some());

    // And the same snapshot renders as a scrape-ready exposition.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE knactor_activations_total counter"));
    assert!(prom.contains("# TYPE knactor_activation_stage_seconds histogram"));
    assert!(prom.contains("knactor_store_ops_total{op=\"create\",store=\"obsa/state\"}"));

    composer.shutdown_all().await;
    server.shutdown().await;
}

/// Direct vs Pushdown is chosen per composition, and changing it is an
/// ordinary apply. An edge deployed in Direct over a TCP exchange is
/// re-applied in Pushdown partway through a stream of creates: the switch
/// must reconfigure the edge in place (same task), lose nothing, duplicate
/// nothing, and the switched edge's `pushdown-execute` stage must show in
/// a wire scrape.
#[tokio::test]
async fn mode_switch_under_traffic_loses_and_duplicates_nothing() {
    const TUNE_DXG: &str = "\
Input:
  A: Tune/v1/A/a
  B: Tune/v1/B/b
DXG:
  B:
    copied: A.tag
";
    const WRITES: usize = 120;
    const SWITCH_AT: usize = 40;

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let client = TcpClient::connect(server.local_addr(), Subject::operator("tune"))
        .await
        .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    for s in ["tunea/state", "tuneb/state"] {
        api.create_store(s.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }

    let mut bindings = BTreeMap::new();
    bindings.insert("A".to_string(), CastBinding::correlated("tunea/state"));
    bindings.insert("B".to_string(), CastBinding::correlated("tuneb/state"));
    let composition =
        |mode| Composition::new().with_cast(Dxg::parse(TUNE_DXG).unwrap(), bindings.clone(), mode);
    let composer = Composer::new("tune-e2e", Arc::clone(&api));
    composer.apply(composition(CastMode::Direct)).await.unwrap();
    let instance_before = composer.edge_instance("cast:B").await;

    // Independent duplicate audit: watch the target store from the
    // beginning and count afterwards how often each key was written.
    let mut target_events = api
        .watch("tuneb/state".into(), Revision::ZERO)
        .await
        .unwrap();

    // A stream of creates; the switch is applied once the first
    // `SWITCH_AT` have been acknowledged, while the rest are still coming.
    let (reached, switch_point) = tokio::sync::oneshot::channel();
    let writer = {
        let api = Arc::clone(&api);
        tokio::spawn(async move {
            let mut reached = Some(reached);
            for i in 0..WRITES {
                let key = format!("tk-{i}");
                let value = json!({"tag": format!("t{i}")});
                api.create("tunea/state".into(), key.as_str().into(), value)
                    .await
                    .unwrap();
                if i + 1 == SWITCH_AT {
                    let _ = reached.take().unwrap().send(());
                }
            }
        })
    };
    switch_point.await.unwrap();
    let pushdown = CastMode::Pushdown {
        udf_name: "tune-e2e-udf".to_string(),
    };
    let report = composer.apply(composition(pushdown)).await.unwrap();
    writer.await.unwrap();

    // The switch was a reconfigure, not a respawn.
    assert_eq!(report.reconfigured, vec!["cast:B"]);
    assert_eq!(report.restarts(), 0);
    assert_eq!(composer.edge_instance("cast:B").await, instance_before);

    // Zero loss: every source key landed in the target with its value,
    // across the switch.
    for i in 0..WRITES {
        knactor::testkit::await_object_state(
            &api,
            "tuneb/state",
            format!("tk-{i}").as_str(),
            Duration::from_secs(15),
            |v| v["copied"] == json!(format!("t{i}")),
        )
        .await
        .unwrap_or_else(|e| panic!("key tk-{i} lost or wrong across the switch: {e}"));
    }
    composer.drain_all().await.unwrap();
    let (objects, head) = api.list("tuneb/state".into()).await.unwrap();
    assert_eq!(
        objects.len(),
        WRITES,
        "target must hold exactly the source keys"
    );

    // Zero duplicates: up to the head the listing was taken at, the watch
    // saw each key mutated exactly once.
    let mut per_key: BTreeMap<String, usize> = BTreeMap::new();
    let audit = async {
        while let Some(event) = target_events.recv().await {
            if !event.is_delete() {
                *per_key.entry(event.key.as_str().to_string()).or_default() += 1;
            }
            if event.revision >= head {
                return;
            }
        }
        panic!("target watch ended before revision {head:?}");
    };
    tokio::time::timeout(Duration::from_secs(15), audit)
        .await
        .expect("target watch never reached the listed head");
    assert_eq!(
        per_key.len(),
        WRITES,
        "every key must have produced an event"
    );
    for (key, n) in &per_key {
        assert_eq!(*n, 1, "key {key} written {n} times across the switch");
    }

    // The switched edge ran its activations as pushdown.
    let snap = scrape(server.local_addr()).await;
    let pd_stage = histogram(
        &snap,
        "knactor_activation_stage_seconds",
        &[
            ("integrator", "cast:tune-e2e:B"),
            ("stage", "pushdown-execute"),
        ],
    )
    .expect("switched edge must have recorded pushdown stages");
    assert!(pd_stage.count > 0);

    composer.shutdown_all().await;
    server.shutdown().await;
}

/// Injected wire faults are visible in the registry: every drop the
/// proxy performs shows up in `knactor_fault_injections_total`, and the
/// client's recovery shows up as retries — while scrapes themselves ride
/// the same flaky wire and still succeed.
#[tokio::test]
async fn fault_injections_and_retries_surface_in_metrics() {
    const WRITES: u64 = 30;
    let seed = 0x0B5E_EE01;

    // Delta baseline: fault/retry counters are process-global and other
    // tests in this binary may retry too, so assert on growth.
    let before = knactor::core::metrics::global().snapshot();
    let injected_before: u64 = before
        .counters
        .iter()
        .filter(|c| c.name == "knactor_fault_injections_total")
        .map(|c| c.value)
        .sum();
    let retries_before = counter_value(&before, "knactor_client_retries_total", &[]);

    let server = ExchangeServer::bind_ephemeral().await.unwrap();
    let proxy = FaultProxy::spawn(
        server.local_addr(),
        FaultPlan {
            drop_frame: 0.25,
            ..FaultPlan::none(seed)
        },
    )
    .await
    .unwrap();
    let client = ResilientClient::connect(
        proxy.local_addr(),
        Subject::integrator("obs-chaos"),
        RetryPolicy::fast(seed),
    )
    .await
    .unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(client);

    api.create_store("obschaos/state".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    for i in 0..WRITES {
        api.create(
            "obschaos/state".into(),
            format!("k-{i}").as_str().into(),
            json!({"n": i}),
        )
        .await
        .unwrap();
    }

    // Scrape through the same flaky proxy: observability must survive
    // the chaos it is reporting on.
    let snap = api.metrics().await.unwrap();
    let dropped = proxy
        .stats()
        .frames_dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(dropped > 0, "the plan must actually have dropped frames");
    let injected_after: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "knactor_fault_injections_total")
        .map(|c| c.value)
        .sum();
    assert!(
        injected_after >= injected_before + dropped,
        "registry saw {injected_after} injections (baseline {injected_before}), proxy dropped {dropped}"
    );
    assert!(
        counter_value(&snap, "knactor_fault_injections_total", &[("kind", "drop")]) >= dropped,
        "drops must be attributed to kind=\"drop\""
    );
    let retries_after = counter_value(&snap, "knactor_client_retries_total", &[]);
    assert!(
        retries_after > retries_before,
        "dropped requests must surface as client retries"
    );

    // The writes themselves still all landed, exactly once.
    let audit = TcpClient::connect(server.local_addr(), Subject::operator("audit"))
        .await
        .unwrap();
    let (objects, revision) = audit.list("obschaos/state".into()).await.unwrap();
    assert_eq!(objects.len() as u64, WRITES);
    assert_eq!(revision, Revision(WRITES));

    proxy.shutdown();
    server.shutdown().await;
}

/// The replication metrics surface in a scrape and agree with ground
/// truth: acks flow (`knactor_repl_acks_total`), the lag gauge exists
/// for the replicated store (`knactor_repl_lag_records`), and a
/// promotion bumps `knactor_failover_total`. Uses a test-unique store
/// label plus delta baselines — the registry is process-global.
#[tokio::test]
async fn replication_metrics_surface_in_scrape() {
    use knactor::net::{ReplicatedExchange, RetryPolicy};

    const WRITES: u64 = 25;
    let store = "obsrepl/state";

    let before = knactor::types::metrics::global().snapshot();
    let failovers_before = counter_value(&before, "knactor_failover_total", &[]);

    let cluster = ReplicatedExchange::launch(1).await.unwrap();
    let router = cluster.router(RetryPolicy::fast(7)).await.unwrap();
    let api: Arc<dyn ExchangeApi> = Arc::new(router);
    api.create_store(store.into(), ProfileSpec::Replicated { acks: 1 })
        .await
        .unwrap();
    for i in 0..WRITES {
        api.create(
            store.into(),
            ObjectKey::new(format!("m-{i}")),
            json!({"i": i}),
        )
        .await
        .unwrap();
    }

    // Scrape the leader over the wire.
    let snap = scrape(cluster.node(0).addr()).await;
    let acks = counter_value(&snap, "knactor_repl_acks_total", &[("store", store)]);
    assert!(
        acks >= WRITES,
        "every acked write needs at least one follower ack; scraped {acks} < {WRITES}"
    );
    let lag = snap
        .gauges
        .iter()
        .find(|g| {
            g.name == "knactor_repl_lag_records"
                && g.labels.iter().any(|(k, v)| k == "store" && v == store)
        })
        .expect("lag gauge must be registered for the replicated store");
    assert!(
        lag.value >= 0,
        "replication lag cannot be negative, scraped {}",
        lag.value
    );

    // A promotion is a failover: the counter must move.
    let follower = TcpClient::connect(cluster.node(1).addr(), Subject::operator("obs"))
        .await
        .unwrap();
    follower.repl_promote(1).await.unwrap();
    let after = scrape(cluster.node(1).addr()).await;
    let failovers_after = counter_value(&after, "knactor_failover_total", &[]);
    assert!(
        failovers_after > failovers_before,
        "promotion must bump knactor_failover_total ({failovers_before} -> {failovers_after})"
    );

    cluster.shutdown().await;
}
