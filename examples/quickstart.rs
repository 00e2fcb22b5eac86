//! Quickstart: two tiny services composed by a Cast integrator.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A `greeter` service externalizes a greeting; a `display` service
//! renders whatever lands in its own store. Neither knows the other
//! exists — a two-line data exchange graph composes them, and changing
//! the composition is a config change, not a code change.

use knactor::prelude::*;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main]
async fn main() -> Result<()> {
    // 1. An in-process data exchange (swap for a TcpClient to use a
    //    remote `ExchangeServer` — same ExchangeApi either way).
    let (_object, _log, client) =
        knactor::net::loopback::in_process(Subject::integrator("quickstart"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);

    // 2. Externalize: each service gets its own store.
    api.create_store("greeter/state".into(), ProfileSpec::Instant)
        .await?;
    api.create_store("display/state".into(), ProfileSpec::Instant)
        .await?;

    // 3. The display service: a reconciler that reacts to ITS OWN store.
    let runtime = Runtime::new();
    let display = Knactor::builder("display")
        .object_store("state")
        .reconciler(FnReconciler::new(|ctx: ReconcilerCtx, event| async move {
            if let Some(text) = event.value.get("text").and_then(Value::as_str) {
                println!("[display] showing: {text}");
                ctx.patch(&event.key, json!({"shown": true})).await?;
            }
            Ok(())
        }))
        .build();
    runtime
        .deploy_pre_externalized(display, Arc::clone(&api))
        .await?;

    // 4. Exchange: the composition, declared as data movement.
    let dxg = Dxg::parse(
        "Input:\n  G: demo/v1/Greeter/greeter\n  D: demo/v1/Display/display\n\
         DXG:\n  D:\n    text: concat(upper(G.greeting), \", \", G.audience, \"!\")\n",
    )?;
    let mut bindings = BTreeMap::new();
    bindings.insert("G".to_string(), CastBinding::correlated("greeter/state"));
    bindings.insert("D".to_string(), CastBinding::correlated("display/state"));
    let cast = Cast::new(Arc::clone(&api))
        .spawn(CastConfig {
            name: "quickstart".into(),
            dxg,
            bindings,
            mode: CastMode::Direct,
        })
        .await?;

    // 5. The greeter externalizes state; everything else follows.
    api.create(
        "greeter/state".into(),
        "msg-1".into(),
        json!({"greeting": "hello", "audience": "world"}),
    )
    .await?;

    // Wait for the display to acknowledge.
    let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(obj) = api.get("display/state".into(), "msg-1".into()).await {
            if obj.value.get("shown") == Some(&json!(true)) {
                println!("[quickstart] display state: {}", obj.value);
                break;
            }
        }
        assert!(
            tokio::time::Instant::now() < deadline,
            "composition never fired"
        );
        tokio::time::sleep(Duration::from_millis(10)).await;
    }

    cast.shutdown().await;
    runtime.shutdown().await;
    println!("[quickstart] done");
    Ok(())
}
