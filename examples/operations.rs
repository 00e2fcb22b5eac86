//! Operational features beyond the happy path: multi-store transactions,
//! state retention with garbage collection, and exchange-level tracing.
//!
//! ```text
//! cargo run --example operations
//! ```

use knactor::prelude::*;
use knactor::store::TxOp;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main]
async fn main() -> Result<()> {
    let (object, _log, client) = knactor::net::loopback::in_process(Subject::operator("ops"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    api.create_store("orders/state".into(), ProfileSpec::Instant)
        .await?;
    api.create_store("ledger/state".into(), ProfileSpec::Instant)
        .await?;

    // ---- transactions -----------------------------------------------------
    println!("== transactions ==");
    let rev = api
        .create("orders/state".into(), "o1".into(), json!({"total": 99.0}))
        .await?;
    // Atomically mark the order settled AND write the ledger entry.
    api.transact(vec![
        TxOp {
            store: "orders/state".into(),
            key: "o1".into(),
            patch: json!({"settled": true}),
            upsert: false,
            expected: Some(rev),
        },
        TxOp {
            store: "ledger/state".into(),
            key: "entry-o1".into(),
            patch: json!({"order": "o1", "amount": 99.0}),
            upsert: true,
            expected: None,
        },
    ])
    .await?;
    println!("  order + ledger committed atomically");

    // A stale precondition aborts both writes.
    let stale = api
        .transact(vec![
            TxOp {
                store: "orders/state".into(),
                key: "o1".into(),
                patch: json!({"settled": false}),
                upsert: false,
                expected: Some(rev), // stale: the tx above bumped it
            },
            TxOp {
                store: "ledger/state".into(),
                key: "entry-o1-dup".into(),
                patch: json!({}),
                upsert: true,
                expected: None,
            },
        ])
        .await;
    println!("  stale transaction refused: {}", stale.unwrap_err());
    assert!(api
        .get("ledger/state".into(), "entry-o1-dup".into())
        .await
        .is_err());

    // ---- retention ---------------------------------------------------------
    println!("\n== state retention ==");
    let store = object.store(&"orders/state".into())?;
    store.set_retention(RetentionPolicy::RefCounted);
    api.create("orders/state".into(), "o2".into(), json!({"total": 5.0}))
        .await?;
    api.register_consumer("orders/state".into(), "o2".into(), "archiver".into())
        .await?;
    api.register_consumer("orders/state".into(), "o2".into(), "billing".into())
        .await?;
    api.mark_processed("orders/state".into(), "o2".into(), "archiver".into())
        .await?;
    println!(
        "  after archiver: o2 still present ({} objects)",
        store.len()
    );
    let collected = api
        .mark_processed("orders/state".into(), "o2".into(), "billing".into())
        .await?;
    println!(
        "  after billing:  collected {:?} ({} objects left)",
        collected,
        store.len()
    );

    // ---- telemetry -----------------------------------------------------------
    println!("\n== exchange tracing ==");
    let traces = TraceCollector::new();
    let dxg = Dxg::parse(
        "Input:\n  O: g/v/Orders/orders\n  L: g/v/Ledger/ledger\nDXG:\n  L:\n    copyOfTotal: O.total\n",
    )?;
    let mut bindings = std::collections::BTreeMap::new();
    bindings.insert("O".to_string(), CastBinding::correlated("orders/state"));
    bindings.insert("L".to_string(), CastBinding::correlated("ledger/state"));
    let cast = Cast::new(Arc::clone(&api)).with_traces(traces.clone());
    cast.activate_once(
        &CastConfig {
            name: "ops".into(),
            dxg,
            bindings,
            mode: CastMode::Direct,
        },
        &"o1".into(),
    )
    .await?;
    for span in traces.trace("o1") {
        println!(
            "  [{}] {:<14} {:?}",
            span.component, span.stage, span.duration
        );
    }

    // ---- graceful shutdown under supervision ----------------------------------
    println!("\n== supervised runtime ==");
    let runtime = Runtime::new();
    runtime
        .deploy_pre_externalized(
            Knactor::builder("ledger")
                .object_store("state")
                .reconciler(FnReconciler::new(|_ctx: ReconcilerCtx, _e| async move {
                    Ok(())
                }))
                .build(),
            Arc::clone(&api),
        )
        .await?;
    println!("  deployed: {:?}", runtime.task_names());
    tokio::time::sleep(Duration::from_millis(20)).await;
    runtime.shutdown().await;
    println!("  shut down cleanly");
    Ok(())
}
