//! The Table 1 tasks, executed behaviourally: each task is one
//! composition apply, executed against a *running* application.

use knactor::apps::retail::knactor_app::{self, retail_bindings, RetailOptions};
use knactor::apps::retail::sample_order;
use knactor::prelude::*;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

fn asset(name: &str) -> String {
    std::fs::read_to_string(knactor::apps::crate_file(&format!("assets/{name}"))).unwrap()
}

/// T1: start with a DXG that composes nothing, then swap in the Fig. 6
/// DXG at run time — the Payment/Shipping composition appears without
/// touching any service.
#[tokio::test]
async fn t1_compose_payment_and_shipping_at_runtime() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::integrator("retail"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    let app = knactor_app::deploy(Arc::clone(&api), RetailOptions::default())
        .await
        .unwrap();

    // Swap DOWN to the do-nothing baseline spec first. The diff against
    // the full Fig. 6 composition stops the P and S edges and
    // reconfigures C's in place.
    let report = app
        .apply_dxg(Dxg::parse(&asset("retail_dxg_t1_base.yaml")).unwrap())
        .await
        .unwrap();
    assert_eq!(report.reconfigured, vec!["cast:C"]);
    assert_eq!(report.stopped, vec!["cast:P", "cast:S"]);

    // An order placed now goes nowhere: no shipment materializes even
    // after the baseline edge has demonstrably processed the event (the
    // drain barrier replaces a racy sleep here).
    api.create("checkout/state".into(), "o1".into(), sample_order(900.0))
        .await
        .unwrap();
    knactor::testkit::await_object_state(
        &api,
        "checkout/state",
        "o1",
        Duration::from_secs(5),
        |v| !v["order"]["totalCost"].is_null(),
    )
    .await
    .unwrap();
    app.composer.drain_all().await.unwrap();
    assert!(
        api.get("shipping/state".into(), "o1".into()).await.is_err(),
        "baseline spec must not create shipments"
    );

    // T1: one apply composes Payment + Shipping with Checkout.
    let report = app
        .apply_dxg(Dxg::parse(&asset("retail_dxg.yaml")).unwrap())
        .await
        .unwrap();
    assert_eq!(report.spawned, vec!["cast:P", "cast:S"]);
    assert_eq!(report.reconfigured, vec!["cast:C"]);

    // The EXISTING order now flows (a fresh event is needed: nudge it).
    api.patch(
        "checkout/state".into(),
        "o1".into(),
        json!({"nudge": 1}),
        false,
    )
    .await
    .unwrap();
    knactor::testkit::await_object_state(
        &api,
        "checkout/state",
        "o1",
        Duration::from_secs(10),
        |v| !v["order"]["trackingID"].is_null(),
    )
    .await
    .expect("T1 composition");
    app.shutdown().await;
}

/// T3: Shipping evolves its schema; adapting the composition is one spec
/// swap. The new spec writes `destination`/`contact` instead of `addr`.
#[tokio::test]
async fn t3_adapt_to_shipping_schema_v2() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::integrator("retail"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    for s in ["checkout/state", "shipping/state", "payment/state"] {
        api.create_store(s.into(), ProfileSpec::Instant)
            .await
            .unwrap();
    }
    let dxg = Dxg::parse(&asset("retail_dxg_t3.yaml")).unwrap();
    let analysis = knactor::dxg::analyze::analyze(&dxg);
    assert!(!analysis.has_errors(), "{:?}", analysis.findings);

    api.create("checkout/state".into(), "o".into(), sample_order(500.0))
        .await
        .unwrap();
    let cast = Cast::new(Arc::clone(&api));
    let config = CastConfig {
        name: "retail-v2".into(),
        dxg,
        bindings: retail_bindings(),
        mode: CastMode::Direct,
    };
    cast.activate_once(&config, &"o".into()).await.unwrap();

    let shipment = api.get("shipping/state".into(), "o".into()).await.unwrap();
    assert_eq!(
        shipment.value["destination"],
        json!("2570 Soda Hall, Berkeley CA"),
        "v2 field name must be used"
    );
    assert!(
        shipment.value.get("addr").is_none(),
        "v1 field must be gone"
    );
    assert_eq!(shipment.value["method"], json!("ground"));
}

/// The schema files themselves document the evolution: v1 and v2 differ
/// exactly by the renamed/added fields.
#[test]
fn shipping_schema_versions_differ_as_documented() {
    let v1 = knactor::core::parse_schema(&asset("shipping_schema_v1.yaml")).unwrap();
    let v2 = knactor::core::parse_schema(&asset("shipping_schema_v2.yaml")).unwrap();
    assert_eq!(v1.name.version(), Some("v1"));
    assert_eq!(v2.name.version(), Some("v2"));
    assert!(v1.get("addr").is_some());
    assert!(v2.get("addr").is_none());
    assert!(v2.get("destination").is_some());
    assert!(v2.get("contact").is_some());
    // Both declare the integrator-filled surface.
    assert!(v1.get("addr").unwrap().is_external());
    assert!(v2.get("destination").unwrap().is_external());
}

/// The Fig. 5 checkout schema gates what enters the Checkout store.
#[tokio::test]
async fn checkout_schema_validates_ingest() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::operator("test"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    api.create_store("checkout/state".into(), ProfileSpec::Instant)
        .await
        .unwrap();
    let schema = knactor::core::parse_schema(&asset("checkout_schema.yaml")).unwrap();
    api.register_schema(schema.clone()).await.unwrap();
    api.bind_schema("checkout/state".into(), schema.name.clone())
        .await
        .unwrap();

    // A conforming order object (the schema describes the inner order).
    let order = sample_order(100.0)["order"].clone();
    api.create("checkout/state".into(), "ok".into(), order)
        .await
        .unwrap();

    // Undeclared fields are rejected.
    let err = api
        .create("checkout/state".into(), "bad".into(), json!({"bogus": 1}))
        .await
        .unwrap_err();
    assert!(matches!(err, Error::SchemaViolation(_)));
}
