//! Two independent integrators composing the same application: the
//! retail Cast (Fig. 6) and a notifications Cast added later by a
//! different team, with no coordination beyond the published schemas —
//! the paper's §5 "composition by non-developers" scenario.

use knactor::apps::retail::knactor_app::{self, RetailOptions};
use knactor::apps::retail::sample_order;
use knactor::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

#[tokio::test]
async fn notifications_integrator_composes_without_touching_services() {
    let (_object, _log, client) = knactor::net::loopback::in_process(Subject::integrator("retail"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    let app = knactor_app::deploy(Arc::clone(&api), RetailOptions::default())
        .await
        .unwrap();

    // A second integrator arrives later, owned by another team. It knows
    // only the Checkout and Email store schemas.
    let spec =
        std::fs::read_to_string(knactor::apps::crate_file("assets/retail_email_dxg.yaml")).unwrap();
    let mut bindings = BTreeMap::new();
    bindings.insert("C".to_string(), CastBinding::correlated("checkout/state"));
    bindings.insert("E".to_string(), CastBinding::correlated("email/state"));
    let notifications = Cast::new(Arc::clone(&api))
        .spawn(CastConfig {
            name: "notifications".into(),
            dxg: Dxg::parse(&spec).unwrap(),
            bindings,
            mode: CastMode::Direct,
        })
        .await
        .unwrap();

    // An order flows through the primary composition…
    app.place_order("notif-1", sample_order(200.0), Duration::from_secs(10))
        .await
        .unwrap();

    // …and the notifications integrator reacts to its completion: the
    // Email knactor receives a notify request, its reconciler sends the
    // mail and logs it.
    let sent = knactor::testkit::await_object_state(
        &api,
        "email/state",
        "notif-1",
        Duration::from_secs(10),
        |v| v.get("sentAt").map(|s| !s.is_null()).unwrap_or(false),
    )
    .await
    .expect("email notification never materialized");
    assert_eq!(
        sent["notify"],
        serde_json::json!("2570 Soda Hall, Berkeley CA")
    );
    let sent_log =
        knactor::testkit::await_log_records(&api, "email/sent", 1, Duration::from_secs(10))
            .await
            .unwrap();
    assert_eq!(sent_log.len(), 1);
    assert_eq!(sent_log[0].fields["order"], serde_json::json!("notif-1"));

    // The notifications DXG is statically clean and diffable.
    let dxg = Dxg::parse(&spec).unwrap();
    assert!(!knactor::dxg::analyze::analyze(&dxg).has_errors());

    notifications.shutdown().await;
    app.shutdown().await;
}
