//! Live reconfiguration through the Composer: minimal restarts, tail
//! positions surviving an apply, zero duplicate deliveries, and rollback
//! when an apply dies half-way (fault-injected at the preflight).

use knactor::net::fault::{FaultApi, FaultPlan};
use knactor::net::proto::{OpSpec, QuerySpec};
use knactor::prelude::*;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const V1_DXG: &str = "\
Input:
  A: Demo/v1/A/a
  B: Demo/v1/B/b
  C: Demo/v1/C/c
DXG:
  B:
    copied: A.tag
  C:
    note: A.tag
";

/// Same graph, but edge C's expression changed. Edge B and the sync are
/// untouched.
const V2_DXG: &str = "\
Input:
  A: Demo/v1/A/a
  B: Demo/v1/B/b
  C: Demo/v1/C/c
DXG:
  B:
    copied: A.tag
  C:
    note: upper(A.tag)
";

fn bindings() -> BTreeMap<String, CastBinding> {
    let mut b = BTreeMap::new();
    b.insert("A".to_string(), CastBinding::correlated("a/state"));
    b.insert("B".to_string(), CastBinding::correlated("b/state"));
    b.insert("C".to_string(), CastBinding::correlated("c/state"));
    b
}

fn relay_sync() -> SyncConfig {
    SyncConfig {
        name: "s1".to_string(),
        source: StoreId::new("ev/log"),
        dest: SyncDest::Log(StoreId::new("out/log")),
        query: QuerySpec {
            ops: vec![OpSpec::Rename {
                from: "n".into(),
                to: "m".into(),
            }],
        },
        mode: SyncMode::Stream,
    }
}

async fn setup_stores(api: &Arc<dyn ExchangeApi>) {
    for s in ["a/state", "b/state", "c/state"] {
        api.create_store(s.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }
    for l in ["ev/log", "out/log"] {
        api.log_create_store(l.into()).await.unwrap();
    }
}

/// Changing 1 of 3 edges reconfigures exactly that edge: the other
/// edges' task instances and the sync's tail position survive, and not
/// a single log record is re-delivered across the apply.
#[tokio::test]
async fn apply_changing_one_edge_leaves_the_others_running() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::operator("live"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    setup_stores(&api).await;

    let composer = Composer::new("live", Arc::clone(&api));
    let v1 = Composition::new()
        .with_cast(Dxg::parse(V1_DXG).unwrap(), bindings(), CastMode::Direct)
        .with_sync(relay_sync());
    let report = composer.apply(v1).await.unwrap();
    assert_eq!(report.spawned, vec!["cast:B", "cast:C", "sync:s1"]);
    assert!(report.reconfigured.is_empty() && report.stopped.is_empty());

    // Traffic through every edge: three log records and one object.
    for i in 0..3 {
        api.log_append("ev/log".into(), json!({"n": i}))
            .await
            .unwrap();
    }
    knactor::testkit::await_log_records(&api, "out/log", 3, Duration::from_secs(10))
        .await
        .unwrap();
    api.create("a/state".into(), "k1".into(), json!({"tag": "hi"}))
        .await
        .unwrap();
    knactor::testkit::await_object_state(&api, "b/state", "k1", Duration::from_secs(10), |v| {
        v["copied"] == json!("hi")
    })
    .await
    .unwrap();
    composer.drain_all().await.unwrap();

    let instances_before: Vec<(String, u64)> = {
        let mut out = Vec::new();
        for key in composer.edge_keys().await {
            out.push((key.clone(), composer.edge_instance(&key).await.unwrap()));
        }
        out
    };
    let tail_before = composer
        .edge_stats("sync:s1")
        .await
        .unwrap()
        .tail_position
        .unwrap();
    assert!(tail_before > 0, "sync must have consumed the three records");

    // The 1-edge change: only cast:C is touched, nothing restarts.
    let v2 = Composition::new()
        .with_cast(Dxg::parse(V2_DXG).unwrap(), bindings(), CastMode::Direct)
        .with_sync(relay_sync());
    let report = composer.apply(v2).await.unwrap();
    assert_eq!(report.reconfigured, vec!["cast:C"]);
    assert_eq!(report.untouched, vec!["cast:B", "sync:s1"]);
    assert_eq!(report.restarts(), 0, "{report:?}");

    // Untouched edges kept their task instances; the reconfigured edge
    // kept its own too (reconfigure swaps config, not the task).
    for (key, before) in &instances_before {
        assert_eq!(
            composer.edge_instance(key).await,
            Some(*before),
            "edge {key} was restarted by an apply that did not change it"
        );
    }
    // The sync's position in the source log survived the apply…
    let tail_after = composer
        .edge_stats("sync:s1")
        .await
        .unwrap()
        .tail_position
        .unwrap();
    assert_eq!(tail_after, tail_before);

    // …so the next record is delivered exactly once: 4 in, 4 out, no
    // replay of the first three.
    api.log_append("ev/log".into(), json!({"n": 3}))
        .await
        .unwrap();
    knactor::testkit::await_log_records(&api, "out/log", 4, Duration::from_secs(10))
        .await
        .unwrap();
    composer.drain_all().await.unwrap();
    let out = api.log_read("out/log".into(), 0).await.unwrap();
    let ms: Vec<_> = out.iter().map(|r| r.fields["m"].clone()).collect();
    assert_eq!(ms, vec![json!(0), json!(1), json!(2), json!(3)]);

    // And the reconfigured edge runs the new expression while the
    // untouched one still runs the old.
    api.create("a/state".into(), "k2".into(), json!({"tag": "new"}))
        .await
        .unwrap();
    knactor::testkit::await_object_state(&api, "c/state", "k2", Duration::from_secs(10), |v| {
        v["note"] == json!("NEW")
    })
    .await
    .unwrap();
    knactor::testkit::await_object_state(&api, "b/state", "k2", Duration::from_secs(10), |v| {
        v["copied"] == json!("new")
    })
    .await
    .unwrap();

    composer.shutdown_all().await;
}

/// Applies under live traffic: while a producer streams records through
/// the untouched sync, the cast edge C is flipped back and forth. Each
/// apply reconfigures C alone, and every record reaches `out/log` exactly
/// once — the sync's tail position carries across every swap.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn applies_under_traffic_lose_and_duplicate_no_record() {
    const RECORDS: usize = 500;
    const FLIPS: usize = 20;
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::operator("live"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    setup_stores(&api).await;
    let composition = |dxg| {
        Composition::new()
            .with_cast(Dxg::parse(dxg).unwrap(), bindings(), CastMode::Direct)
            .with_sync(relay_sync())
    };
    let composer = Composer::new("swap", Arc::clone(&api));
    composer.apply(composition(V1_DXG)).await.unwrap();

    // The producer runs free and reports each `RECORDS / FLIPS` appends;
    // flip k waits for the k-th report, so every apply lands mid-stream.
    let (progress, mut reports) = tokio::sync::mpsc::unbounded_channel();
    let producer_api = Arc::clone(&api);
    let producer = tokio::spawn(async move {
        for n in 0..RECORDS {
            producer_api
                .log_append("ev/log".into(), json!({"n": n}))
                .await
                .unwrap();
            if (n + 1) % (RECORDS / FLIPS) == 0 {
                let _ = progress.send(());
            }
        }
    });
    for flip in 0..FLIPS {
        reports.recv().await.expect("producer stopped early");
        let dxg = if flip % 2 == 0 { V2_DXG } else { V1_DXG };
        let report = composer.apply(composition(dxg)).await.unwrap();
        assert_eq!(report.reconfigured, vec!["cast:C"], "flip {flip}");
        assert_eq!(report.untouched, vec!["cast:B", "sync:s1"], "flip {flip}");
        assert_eq!(report.restarts(), 0, "flip {flip}: {report:?}");
    }
    producer.await.unwrap();
    // Every apply was timed into the composer's registry histogram.
    let applies = knactor::core::metrics::global()
        .snapshot()
        .histogram("knactor_composer_apply_seconds", &[("composer", "swap")])
        .map(|h| h.count);
    assert_eq!(applies, Some(FLIPS as u64 + 1));

    knactor::testkit::await_log_records(&api, "out/log", RECORDS, Duration::from_secs(30))
        .await
        .unwrap();
    composer.drain_all().await.unwrap();
    let out = api.log_read("out/log".into(), 0).await.unwrap();
    let mut delivered: Vec<u64> = out
        .iter()
        .map(|r| r.fields["m"].as_u64().unwrap())
        .collect();
    delivered.sort_unstable();
    let expected: Vec<u64> = (0..RECORDS as u64).collect();
    assert_eq!(
        delivered, expected,
        "records lost or duplicated across the swaps"
    );

    composer.shutdown_all().await;
}

/// An apply that dies half-way (the new edge's preflight hits a dead
/// exchange) rolls back: the already-reconfigured edge gets its old
/// config back, the half-spawned edge is gone, and every prior edge is
/// still healthy and running the pre-apply behaviour.
#[tokio::test]
async fn failed_apply_rolls_back_to_previous_composition() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::operator("live"));
    let fault = Arc::new(FaultApi::new(Arc::new(client), FaultPlan::none(7)));
    let api: Arc<dyn ExchangeApi> = Arc::clone(&fault) as Arc<dyn ExchangeApi>;
    for s in ["a/state", "b/state", "d/state"] {
        api.create_store(s.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }

    let before = knactor::core::metrics::global().snapshot();
    let composer = Composer::new("live-rollback", Arc::clone(&api));
    let v1_spec = "Input:\n  A: Demo/v1/A/a\n  B: Demo/v1/B/b\nDXG:\n  B:\n    copied: A.tag\n";
    let mut v1_bindings = BTreeMap::new();
    v1_bindings.insert("A".to_string(), CastBinding::correlated("a/state"));
    v1_bindings.insert("B".to_string(), CastBinding::correlated("b/state"));
    let v1 = Composition::new().with_cast(
        Dxg::parse(v1_spec).unwrap(),
        v1_bindings.clone(),
        CastMode::Direct,
    );
    composer.apply(v1.clone()).await.unwrap();
    let instance_before = composer.edge_instance("cast:B").await.unwrap();

    // The exchange dies. v2 both modifies edge B (an offline
    // reconfigure — it succeeds) and adds edge D (its preflight probes
    // the exchange — it fails). The apply must undo the reconfigure.
    fault.set_plan(FaultPlan {
        drop_frame: 1.0,
        ..FaultPlan::none(7)
    });
    let v2_spec = "Input:\n  A: Demo/v1/A/a\n  B: Demo/v1/B/b\n  D: Demo/v1/D/d\nDXG:\n  B:\n    copied: upper(A.tag)\n  D:\n    flag: A.tag\n";
    let mut v2_bindings = v1_bindings.clone();
    v2_bindings.insert("D".to_string(), CastBinding::correlated("d/state"));
    let v2 =
        Composition::new().with_cast(Dxg::parse(v2_spec).unwrap(), v2_bindings, CastMode::Direct);
    let err = composer.apply(v2).await.unwrap_err();
    assert!(!format!("{err}").is_empty());
    let events = knactor::core::metrics::global().snapshot().delta(&before);
    let count = |kind| {
        let labels = [("composer", "live-rollback"), ("kind", kind)];
        events.counter_value("knactor_composer_events_total", &labels)
    };
    assert_eq!(count("apply_rolled_back"), Some(1));
    assert_eq!(count("rollback_failed").unwrap_or(0), 0);

    // The world is exactly the pre-apply one: same single edge, same
    // task instance, still healthy.
    assert_eq!(composer.edge_keys().await, vec!["cast:B"]);
    assert_eq!(
        composer.edge_instance("cast:B").await,
        Some(instance_before)
    );
    assert_eq!(composer.edge_health("cast:B").await, Some(Health::Running));

    // Exchange recovers; the surviving edge runs the OLD expression —
    // the reconfigure really was undone, not just reported as such.
    fault.set_plan(FaultPlan::none(7));
    api.create("a/state".into(), "k".into(), json!({"tag": "ok"}))
        .await
        .unwrap();
    knactor::testkit::await_object_state(&api, "b/state", "k", Duration::from_secs(10), |v| {
        v["copied"] == json!("ok")
    })
    .await
    .unwrap();

    // Re-applying the original composition is a no-op, confirming the
    // composer's applied-spec view stayed on v1.
    let report = composer.apply(v1).await.unwrap();
    assert_eq!(report.untouched, vec!["cast:B"]);
    assert_eq!(report.restarts(), 0);

    composer.shutdown_all().await;
}
