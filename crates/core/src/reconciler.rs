//! The reconciler programming model.
//!
//! A reconciler "responds to state updates from the data store and
//! initiates corresponding actions" (§3.2) — and touches **only its own
//! knactor's stores**. The [`ReconcilerCtx`] it receives is scoped
//! accordingly: it can read, write, and ingest through its own store ids,
//! and nothing else. There is no way to reach another service from inside
//! a reconciler; that is the point.

use knactor_net::api::BoxFuture;
use knactor_net::ExchangeApi;
use knactor_store::WatchEvent;
use knactor_types::{KnactorId, ObjectKey, Result, Revision, StoreId, Value};
use std::sync::Arc;

/// The world as one reconciler sees it: its own stores, nothing else.
#[derive(Clone)]
pub struct ReconcilerCtx {
    pub knactor: KnactorId,
    /// The store whose events this reconciler receives.
    pub store: StoreId,
    /// The knactor's log stores (telemetry it may emit).
    pub log_stores: Vec<StoreId>,
    pub(crate) api: Arc<dyn ExchangeApi>,
}

impl ReconcilerCtx {
    pub fn new(
        knactor: KnactorId,
        store: StoreId,
        log_stores: Vec<StoreId>,
        api: Arc<dyn ExchangeApi>,
    ) -> ReconcilerCtx {
        ReconcilerCtx {
            knactor,
            store,
            log_stores,
            api,
        }
    }

    /// Read an object from the knactor's own store.
    pub async fn get(&self, key: &ObjectKey) -> Result<knactor_store::StoredObject> {
        self.api.get(self.store.clone(), key.clone()).await
    }

    /// Patch the knactor's own store (the usual reconcile write-back,
    /// e.g. posting a `trackingID`).
    pub async fn patch(&self, key: &ObjectKey, patch: Value) -> Result<Revision> {
        self.api
            .patch(self.store.clone(), key.clone(), patch, false)
            .await
    }

    /// Create an object in the knactor's own store.
    pub async fn create(&self, key: impl Into<ObjectKey>, value: Value) -> Result<Revision> {
        self.api.create(self.store.clone(), key.into(), value).await
    }

    /// Mark the object processed for retention accounting.
    pub async fn mark_processed(&self, key: &ObjectKey) -> Result<Vec<ObjectKey>> {
        self.api
            .mark_processed(
                self.store.clone(),
                key.clone(),
                format!("reconciler:{}", self.knactor),
            )
            .await
    }

    /// Emit telemetry into one of the knactor's log stores.
    pub async fn emit(&self, log: &StoreId, fields: Value) -> Result<u64> {
        if !self.log_stores.contains(log) {
            return Err(knactor_types::Error::Forbidden(format!(
                "{} is not one of {}'s log stores",
                log, self.knactor
            )));
        }
        self.api.log_append(log.clone(), fields).await
    }
}

/// A reconciler: reacts to its store's events.
pub trait Reconciler: Send + Sync {
    /// Handle one committed change to the knactor's own store.
    fn reconcile<'a>(
        &'a self,
        ctx: &'a ReconcilerCtx,
        event: WatchEvent,
    ) -> BoxFuture<'a, Result<()>>;
}

/// Wrap an async closure as a reconciler.
///
/// ```ignore
/// let r = FnReconciler::new(|ctx, event| async move {
///     ctx.patch(&event.key, json!({"seen": true})).await?;
///     Ok(())
/// });
/// ```
pub struct FnReconciler<F> {
    f: F,
}

impl<F, Fut> FnReconciler<F>
where
    F: Fn(ReconcilerCtx, WatchEvent) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Result<()>> + Send + 'static,
{
    pub fn new(f: F) -> FnReconciler<F> {
        FnReconciler { f }
    }
}

impl<F, Fut> Reconciler for FnReconciler<F>
where
    F: Fn(ReconcilerCtx, WatchEvent) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Result<()>> + Send + 'static,
{
    fn reconcile<'a>(
        &'a self,
        ctx: &'a ReconcilerCtx,
        event: WatchEvent,
    ) -> BoxFuture<'a, Result<()>> {
        let fut = (self.f)(ctx.clone(), event);
        Box::pin(fut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::ProfileSpec;
    use knactor_rbac::Subject;
    use serde_json::json;

    #[tokio::test]
    async fn ctx_scopes_to_own_stores() {
        let (_, _, client) = in_process(Subject::reconciler("lamp"));
        client
            .create_store(StoreId::new("lamp/config"), ProfileSpec::Instant)
            .await
            .unwrap();
        client
            .log_create_store(StoreId::new("lamp/telemetry"))
            .await
            .unwrap();
        client
            .log_create_store(StoreId::new("other/telemetry"))
            .await
            .unwrap();

        let ctx = ReconcilerCtx::new(
            KnactorId::new("lamp"),
            StoreId::new("lamp/config"),
            vec![StoreId::new("lamp/telemetry")],
            Arc::new(client),
        );
        ctx.create("cfg", json!({"brightness": 2})).await.unwrap();
        ctx.patch(&ObjectKey::new("cfg"), json!({"brightness": 5}))
            .await
            .unwrap();
        assert_eq!(
            ctx.get(&ObjectKey::new("cfg")).await.unwrap().value,
            json!({"brightness": 5})
        );
        ctx.emit(&StoreId::new("lamp/telemetry"), json!({"kwh": 0.1}))
            .await
            .unwrap();
        // Emitting into someone else's log store is refused locally.
        assert!(ctx
            .emit(&StoreId::new("other/telemetry"), json!({}))
            .await
            .is_err());
    }

    #[tokio::test]
    async fn fn_reconciler_runs() {
        let (_, _, client) = in_process(Subject::reconciler("s"));
        client
            .create_store(StoreId::new("s/state"), ProfileSpec::Instant)
            .await
            .unwrap();
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let ctx = ReconcilerCtx::new(
            KnactorId::new("s"),
            StoreId::new("s/state"),
            vec![],
            Arc::clone(&api),
        );
        api.create(
            StoreId::new("s/state"),
            ObjectKey::new("o"),
            json!({"n": 1}),
        )
        .await
        .unwrap();

        let r = FnReconciler::new(|ctx: ReconcilerCtx, event: WatchEvent| async move {
            ctx.patch(&event.key, json!({"seen": true})).await?;
            Ok(())
        });
        let event = WatchEvent {
            revision: Revision(1),
            kind: knactor_store::EventKind::Created,
            key: ObjectKey::new("o"),
            value: Arc::new(json!({"n": 1})),
        };
        r.reconcile(&ctx, event).await.unwrap();
        let obj = ctx.get(&ObjectKey::new("o")).await.unwrap();
        assert_eq!(obj.value, json!({"n": 1, "seen": true}));
    }
}
