//! The Knactor runtime: deploys knactors, supervises reconcilers,
//! coordinates graceful shutdown.
//!
//! Each deployed knactor gets a reconcile loop: the shared integrator
//! run loop ([`crate::integrator`]) watching the primary store and
//! calling the reconciler per event. Supervision follows the "task per
//! unit of failure" pattern: every `reconcile` call runs in its own task,
//! so a panic is contained, logged, and the loop continues with the next
//! event. Shutdown is the Tokio watch-flag pattern for the tasks a
//! supervised composer registers — they observe one flag and drain — and
//! a closed command channel for the reconcile loops.

use crate::integrator::{self, wrong_kind, Controller, Edge, IntegratorConfig, Source};
use crate::knactor::Knactor;
use crate::reconciler::{Reconciler, ReconcilerCtx};
use knactor_net::api::watch_event;
use knactor_net::proto::Request;
use knactor_net::ExchangeApi;
use knactor_store::WatchEvent;
use knactor_types::{Error, Result, Revision};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tokio::sync::watch;
use tokio::task::JoinHandle;

/// How long shutdown waits for each task to observe it and finish — the
/// window a supervised composer uses to drain its edges.
const SHUTDOWN_GRACE: std::time::Duration = std::time::Duration::from_secs(10);

/// Supervises a set of knactor reconcile loops.
pub struct Runtime {
    shutdown_tx: watch::Sender<bool>,
    pub(crate) reconcilers: Mutex<Vec<(String, Controller)>>,
    tasks: Mutex<Vec<(String, JoinHandle<()>)>>,
    /// Reconcile invocations that ended in panic (visible to tests and
    /// operators; a growing count means a sick reconciler).
    panics: Arc<AtomicU64>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    pub fn new() -> Runtime {
        let (shutdown_tx, _) = watch::channel(false);
        Runtime {
            shutdown_tx,
            reconcilers: Mutex::new(Vec::new()),
            tasks: Mutex::new(Vec::new()),
            panics: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Deploy a knactor: externalize its stores/schema through `api`,
    /// then (if it has a reconciler) start its reconcile loop using the
    /// same client.
    ///
    /// `api` should be authenticated as the knactor's own reconciler
    /// subject so the exchange's RBAC sees the right identity.
    pub async fn deploy(&self, knactor: Knactor, api: Arc<dyn ExchangeApi>) -> Result<()> {
        knactor.externalize(&*api).await?;
        self.deploy_pre_externalized(knactor, api).await
    }

    /// Like [`Runtime::deploy`], but the caller already created the
    /// stores (e.g. with a non-default engine profile) and registered
    /// any schema — only the reconcile loop is started.
    pub async fn deploy_pre_externalized(
        &self,
        knactor: Knactor,
        api: Arc<dyn ExchangeApi>,
    ) -> Result<()> {
        let Some(reconciler) = knactor.reconciler.clone() else {
            return Ok(());
        };
        let store = knactor
            .primary_store()
            .cloned()
            .ok_or_else(|| Error::Internal(format!("knactor {} has no store", knactor.id)))?;
        let ctx = ReconcilerCtx::new(knactor.id.clone(), store, knactor.log_stores.clone(), api);
        let panics = Arc::clone(&self.panics);
        let controller = integrator::spawn(|progress| ReconcileEdge {
            ctx,
            reconciler,
            panics,
            resume: Revision::ZERO,
            progress,
        });
        self.reconcilers
            .lock()
            .push((knactor.id.to_string(), controller));
        Ok(())
    }

    /// Replace a named task: abort the old one (if any) and track the new
    /// one under the same name. This is how the composer swaps an edge's
    /// supervision entry without leaking the stale handle.
    pub fn replace(&self, name: impl Into<String>, task: JoinHandle<()>) {
        let name = name.into();
        let mut tasks = self.tasks.lock();
        tasks.retain(|(n, t)| {
            if *n == name {
                t.abort();
                false
            } else {
                true
            }
        });
        tasks.push((name, task));
    }

    /// A shutdown flag receiver for custom components.
    pub fn shutdown_signal(&self) -> watch::Receiver<bool> {
        self.shutdown_tx.subscribe()
    }

    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    pub fn task_names(&self) -> Vec<String> {
        let reconcilers = self.reconcilers.lock();
        let tasks = self.tasks.lock();
        let names = reconcilers
            .iter()
            .map(|(n, _)| n)
            .chain(tasks.iter().map(|(n, _)| n));
        names.cloned().collect()
    }

    /// Graceful shutdown: raise the flag, give every task
    /// [`SHUTDOWN_GRACE`] to observe it and finish, then abort stragglers
    /// so shutdown always terminates.
    pub async fn shutdown(self) {
        let _ = self.shutdown_tx.send(true);
        let stopping = self.reconcilers.into_inner().into_iter();
        let tasks = stopping
            .map(|(name, controller)| (name, controller.stop()))
            .chain(self.tasks.into_inner())
            .collect::<Vec<_>>();
        for (_name, mut task) in tasks {
            if tokio::time::timeout(SHUTDOWN_GRACE, &mut task)
                .await
                .is_err()
            {
                task.abort();
            }
        }
    }
}

/// A reconcile loop, as the shared run loop sees it.
struct ReconcileEdge {
    ctx: ReconcilerCtx,
    reconciler: Arc<dyn Reconciler>,
    panics: Arc<AtomicU64>,
    /// Highest revision reconciled: where a re-opened watch resumes.
    resume: Revision,
    progress: Arc<integrator::Progress>,
}

impl Edge for ReconcileEdge {
    const KIND: &'static str = "reconciler";
    const TAILS: bool = false;
    type Event = WatchEvent;

    /// A reconciler is code, not configuration: there is nothing to swap.
    async fn reconfigure(&mut self, config: IntegratorConfig) -> Result<()> {
        Err(wrong_kind(Self::KIND, &config))
    }

    async fn open(&mut self) -> Result<Source<Self::Event>> {
        let request = Request::Watch {
            store: self.ctx.store.clone(),
            from: self.resume,
        };
        integrator::sources(&*self.ctx.api, [request], watch_event).await
    }

    async fn process(&mut self, events: Vec<(usize, WatchEvent)>) {
        for (_, event) in events {
            self.resume = self.resume.max(event.revision);
            let ctx = self.ctx.clone();
            let reconciler = Arc::clone(&self.reconciler);
            // Contain panics: one bad event must not kill the loop.
            // Reconcile errors are per-event; the next event retries
            // naturally.
            let handle = tokio::spawn(async move { reconciler.reconcile(&ctx, event).await });
            if handle.await.is_err_and(|e| e.is_panic()) {
                self.panics.fetch_add(1, Ordering::Relaxed);
            }
            self.progress.processed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knactor::Knactor;
    use crate::reconciler::FnReconciler;
    use knactor_net::loopback::in_process;
    use knactor_rbac::Subject;
    use knactor_store::WatchEvent;
    use knactor_types::{ObjectKey, StoreId};
    use serde_json::json;
    use std::time::{Duration, Instant};

    #[tokio::test]
    async fn deploy_runs_reconciler_on_events() {
        let (_, _, client) = in_process(Subject::reconciler("shipping"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let runtime = Runtime::new();

        // A shipping reconciler: when a shipment object appears with an
        // address, post a tracking id.
        let shipping = Knactor::builder("shipping")
            .object_store("state")
            .reconciler(FnReconciler::new(
                |ctx: ReconcilerCtx, event: WatchEvent| async move {
                    if event
                        .value
                        .get("addr")
                        .map(|a| !a.is_null())
                        .unwrap_or(false)
                        && event.value.get("id").map(|v| v.is_null()).unwrap_or(true)
                    {
                        ctx.patch(&event.key, json!({"id": format!("track-{}", event.key)}))
                            .await?;
                    }
                    Ok(())
                },
            ))
            .build();
        runtime.deploy(shipping, Arc::clone(&api)).await.unwrap();

        api.create(
            StoreId::new("shipping/state"),
            ObjectKey::new("order-1"),
            json!({"addr": "Soda Hall"}),
        )
        .await
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let obj = api
                .get(StoreId::new("shipping/state"), ObjectKey::new("order-1"))
                .await
                .unwrap();
            if obj.value.get("id").map(|v| !v.is_null()).unwrap_or(false) {
                assert_eq!(obj.value["id"], json!("track-order-1"));
                break;
            }
            assert!(Instant::now() < deadline, "reconciler never wrote id");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        runtime.shutdown().await;
    }

    #[tokio::test]
    async fn panicking_reconciler_is_contained() {
        let (_, _, client) = in_process(Subject::reconciler("flaky"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let runtime = Runtime::new();

        let flaky = Knactor::builder("flaky")
            .reconciler(FnReconciler::new(
                |ctx: ReconcilerCtx, event: WatchEvent| async move {
                    if event.value.get("boom").is_some() {
                        panic!("injected failure");
                    }
                    ctx.patch(&event.key, json!({"ok": true})).await?;
                    Ok(())
                },
            ))
            .build();
        runtime.deploy(flaky, Arc::clone(&api)).await.unwrap();

        // First event panics; second must still be processed.
        api.create(
            StoreId::new("flaky/state"),
            ObjectKey::new("bad"),
            json!({"boom": 1}),
        )
        .await
        .unwrap();
        api.create(
            StoreId::new("flaky/state"),
            ObjectKey::new("good"),
            json!({"n": 1}),
        )
        .await
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let obj = api
                .get(StoreId::new("flaky/state"), ObjectKey::new("good"))
                .await
                .unwrap();
            if obj.value.get("ok").is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "loop died after panic");
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        assert!(runtime.panic_count() >= 1);
        runtime.shutdown().await;
    }

    #[tokio::test]
    async fn shutdown_stops_loops() {
        let (_, _, client) = in_process(Subject::reconciler("quiet"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let runtime = Runtime::new();
        let quiet = Knactor::builder("quiet")
            .reconciler(FnReconciler::new(
                |_ctx: ReconcilerCtx, _e: WatchEvent| async move { Ok(()) },
            ))
            .build();
        runtime.deploy(quiet, Arc::clone(&api)).await.unwrap();
        assert_eq!(runtime.task_names(), vec!["quiet"]);
        // Must return promptly.
        tokio::time::timeout(Duration::from_secs(5), runtime.shutdown())
            .await
            .expect("shutdown hung");
    }

    #[tokio::test]
    async fn deploy_without_reconciler_only_externalizes() {
        let (object, _, client) = in_process(Subject::operator("deploy"));
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let runtime = Runtime::new();
        runtime
            .deploy(Knactor::builder("passive").build(), Arc::clone(&api))
            .await
            .unwrap();
        assert!(object.store(&StoreId::new("passive/state")).is_ok());
        assert!(runtime.task_names().is_empty());
        runtime.shutdown().await;
    }
}
