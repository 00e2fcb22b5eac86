//! The async client surface over a store.
//!
//! A [`StoreHandle`] is what reconcilers and integrators actually hold: it
//! couples a store with *who is asking* (a [`Subject`]) and applies, per
//! operation,
//!
//! 1. the exchange's access control (object- and field-level),
//! 2. the engine profile's latency behaviour (read/write delays; WAL
//!    commits run on the blocking pool so the async runtime never stalls
//!    on an fsync), and
//! 3. the engine's watch-delivery mode — push streams read the store's
//!    retained window as events commit, poll streams only up to the
//!    revision their last tick saw (the Kubernetes list-watch cadence of
//!    the paper's K-apiserver setup); neither holds events of its own.

use crate::batch::{BatchOp, ItemResult};
use crate::event::WatchEvent;
use crate::object::StoredObject;
use crate::profile::WatchDelivery;
use crate::store::ObjectStore;
use knactor_rbac::{AccessContext, AccessController, Subject, Verb};
use knactor_types::{Error, ObjectKey, Result, Revision, Value};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::Instant;

/// Async, access-controlled, latency-faithful client to one store.
#[derive(Clone)]
pub struct StoreHandle {
    store: Arc<ObjectStore>,
    subject: Subject,
    access: Arc<RwLock<AccessController>>,
    ctx: Arc<RwLock<AccessContext>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("store", self.store.id())
            .field("subject", &self.subject)
            .finish()
    }
}

/// A watch subscription. Events arrive in revision order, exactly once,
/// redacted to what the handle's subject may read.
///
/// The consumer's own `recv` drives delivery — no pump task and no queue
/// in between, only the store's cursor. When the stream ends,
/// [`WatchStream::lag_resume_from`] tells "this watch fell off the store's
/// retained window" (re-list and watch again) from an ordinary close.
pub struct WatchStream {
    src: crate::store::StoreWatch,
    handle: StoreHandle,
    /// Poll delivery only: the list-watch poller's state.
    poll: Option<Poller>,
}

/// Poll delivery (list-watch cadence): committed events become visible
/// at the next tick of a fixed-interval poller, never in between.
struct Poller {
    interval: Duration,
    next_tick: Instant,
    /// The store revision the last tick saw: events up to it are visible.
    horizon: Revision,
}

impl WatchStream {
    /// Next event, or `None` when the subscription ended (this watch fell
    /// off the retained window — see [`WatchStream::lag_resume_from`]).
    pub async fn recv(&mut self) -> Option<WatchEvent> {
        loop {
            if let Some(event) = self.try_recv() {
                return Some(event);
            }
            match &self.poll {
                None => {
                    let event = self.src.recv().await?;
                    if let Some(event) = self.admit(event) {
                        return Some(event);
                    }
                }
                Some(_) if self.lag_resume_from().is_some() => return None,
                Some(poller) => tokio::time::sleep_until(poller.next_tick).await,
            }
        }
    }

    /// An event that is already visible, without waiting.
    pub fn try_recv(&mut self) -> Option<WatchEvent> {
        loop {
            if let Some(poller) = &mut self.poll {
                if self.src.position() >= poller.horizon.0 && Instant::now() >= poller.next_tick {
                    // Re-anchor on the actual tick so ticks never bunch
                    // up behind a consumer that was busy.
                    poller.next_tick = Instant::now() + poller.interval;
                    poller.horizon = self.handle.store.revision();
                }
                if self.src.position() >= poller.horizon.0 {
                    return None;
                }
            }
            let event = self.src.try_recv()?;
            if let Some(event) = self.admit(event) {
                return Some(event);
            }
        }
    }

    /// The one redaction site: project the event down to what the subject
    /// may read; a value it may not see at all is skipped.
    fn admit(&self, mut event: WatchEvent) -> Option<WatchEvent> {
        event.value = self.handle.redact(&event.value).ok()?;
        Some(event)
    }

    /// `Some(revision)` once this watch fell off the store's retained
    /// window: the last revision it handed out (see
    /// [`crate::store::StoreWatch`]).
    pub fn lag_resume_from(&self) -> Option<u64> {
        self.src.lag_resume_from()
    }
}

impl StoreHandle {
    pub(crate) fn new(
        store: Arc<ObjectStore>,
        subject: Subject,
        access: Arc<RwLock<AccessController>>,
        ctx: Arc<RwLock<AccessContext>>,
    ) -> StoreHandle {
        StoreHandle {
            store,
            subject,
            access,
            ctx,
        }
    }

    pub fn store_id(&self) -> knactor_types::StoreId {
        self.store.id().clone()
    }

    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The store's current revision (no delay; metadata read).
    pub fn revision(&self) -> Revision {
        self.store.revision()
    }

    fn check(&self, verb: Verb) -> Result<()> {
        let ctx = *self.ctx.read();
        let decision = self
            .access
            .read()
            .check(&self.subject, verb, self.store.id(), &ctx);
        if decision.allowed() {
            Ok(())
        } else {
            Err(Error::Forbidden(decision.reason().to_string()))
        }
    }

    async fn read_delay(&self) {
        crate::profile::precise_sleep(self.store.profile().read_delay).await;
    }

    async fn write_delay(&self) {
        crate::profile::precise_sleep(self.store.profile().write_delay).await;
    }

    /// Run a store mutation, using the blocking pool when the engine is
    /// durable (an fsync on the async runtime would stall every task).
    async fn run_write<T, F>(&self, f: F) -> Result<T>
    where
        T: Send + 'static,
        F: FnOnce(&ObjectStore) -> Result<T> + Send + 'static,
    {
        self.write_delay().await;
        if self.store.profile().is_durable() {
            let store = Arc::clone(&self.store);
            tokio::task::spawn_blocking(move || f(&store))
                .await
                .map_err(|e| Error::Internal(format!("blocking task: {e}")))?
        } else {
            f(&self.store)
        }
    }

    /// Create an object.
    pub async fn create(&self, key: impl Into<ObjectKey>, value: Value) -> Result<Revision> {
        self.check(Verb::Create)?;
        let key = key.into();
        self.run_write(move |s| s.create(key, value)).await
    }

    /// Read an object; the value is redacted to the fields this handle's
    /// subject may see.
    pub async fn get(&self, key: &ObjectKey) -> Result<StoredObject> {
        self.check(Verb::Get)?;
        self.read_delay().await;
        let mut obj = self.store.get(key)?;
        obj.value = self.redact(&obj.value)?;
        Ok(obj)
    }

    /// List objects (redacted) plus the revision of the snapshot.
    pub async fn list(&self) -> Result<(Vec<StoredObject>, Revision)> {
        self.check(Verb::List)?;
        self.read_delay().await;
        let (mut objs, rev) = self.store.list();
        for obj in &mut objs {
            obj.value = self.redact(&obj.value)?;
        }
        Ok((objs, rev))
    }

    /// Replace an object's value, optionally with optimistic concurrency.
    pub async fn update(
        &self,
        key: &ObjectKey,
        value: Value,
        expected: Option<Revision>,
    ) -> Result<Revision> {
        self.check(Verb::Update)?;
        let key = key.clone();
        self.run_write(move |s| s.update(&key, value, expected))
            .await
    }

    /// Deep-merge a patch (creating the object when `upsert` is set).
    pub async fn patch(&self, key: &ObjectKey, patch: Value, upsert: bool) -> Result<Revision> {
        self.check(Verb::Update)?;
        if upsert {
            self.check(Verb::Create)?;
        }
        let key = key.clone();
        self.run_write(move |s| s.patch(&key, &patch, upsert)).await
    }

    /// Delete an object.
    pub async fn delete(&self, key: &ObjectKey) -> Result<Revision> {
        self.check(Verb::Delete)?;
        let key = key.clone();
        self.run_write(move |s| s.delete(&key)).await
    }

    /// Read many objects in one call, one [`ItemResult`] per key. A
    /// missing key is a per-item `not_found`, never a call failure.
    pub async fn batch_get(&self, keys: &[ObjectKey]) -> Result<Vec<ItemResult>> {
        self.check(Verb::Get)?;
        self.read_delay().await;
        Ok(keys
            .iter()
            .map(|key| {
                ItemResult::from_object(self.store.get(key).and_then(|mut obj| {
                    obj.value = self.redact(&obj.value)?;
                    Ok(obj)
                }))
            })
            .collect())
    }

    /// Apply a batch of mutations with per-item outcomes and one shared
    /// durability barrier (see [`ObjectStore::apply_batch`]). Access is
    /// checked per item verb *before* anything commits, so a forbidden op
    /// rejects the whole batch rather than partially applying it.
    pub async fn batch_commit(&self, ops: Vec<BatchOp>) -> Result<Vec<ItemResult>> {
        for op in &ops {
            match op {
                BatchOp::Create { .. } => self.check(Verb::Create)?,
                BatchOp::Update { .. } => self.check(Verb::Update)?,
                BatchOp::Patch { upsert, .. } => {
                    self.check(Verb::Update)?;
                    if *upsert {
                        self.check(Verb::Create)?;
                    }
                }
                BatchOp::Delete { .. } => self.check(Verb::Delete)?,
            }
        }
        self.run_write(move |s| s.apply_batch(ops)).await
    }

    /// Register interest for state retention.
    pub async fn register_consumer(&self, key: &ObjectKey, consumer: &str) -> Result<()> {
        self.check(Verb::Get)?;
        self.store.register_consumer(key, consumer)
    }

    /// Mark the current value processed; returns GC'd keys.
    pub async fn mark_processed(&self, key: &ObjectKey, consumer: &str) -> Result<Vec<ObjectKey>> {
        self.check(Verb::Get)?;
        self.store.mark_processed(key, consumer)
    }

    /// Watch for events with revision greater than `from`.
    ///
    /// Events are redacted per the subject's field rules. Delivery timing
    /// follows the engine profile (push vs poll).
    pub fn watch_from(&self, from: Revision) -> Result<WatchStream> {
        self.check(Verb::Watch)?;
        let poll = match self.store.profile().watch {
            WatchDelivery::Push => None,
            // The first batch waits a full interval, like a real
            // list-watch poller.
            WatchDelivery::Poll { interval } => Some(Poller {
                interval,
                next_tick: Instant::now() + interval,
                horizon: from,
            }),
        };
        Ok(WatchStream {
            src: self.store.watch_from(from)?,
            handle: self.clone(),
            poll,
        })
    }

    /// Watch from the beginning of retained history.
    pub fn watch(&self) -> Result<WatchStream> {
        self.watch_from(Revision::ZERO)
    }

    /// Project a value down to what this subject may read.
    /// Redact a shared value for this handle's subject. Without an
    /// enforced policy — the hot path — the original `Arc` is handed
    /// back untouched, so reads and watch delivery never copy the tree.
    fn redact(&self, value: &Arc<Value>) -> Result<Arc<Value>> {
        let ctx = *self.ctx.read();
        let access = self.access.read();
        if !access.is_enforcing() {
            return Ok(Arc::clone(value));
        }
        access
            .redact(&self.subject, self.store.id(), value, &ctx)
            .map(Arc::new)
            .ok_or_else(|| {
                Error::Forbidden(format!("{} may not read {}", self.subject, self.store.id()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::DataExchange;
    use crate::profile::EngineProfile;
    use knactor_rbac::{FieldRule, Role, RoleBinding, Rule};
    use knactor_types::StoreId;
    use serde_json::json;
    use std::time::Duration;

    /// A handle on the one store of a fresh, open-access exchange.
    fn open_handle(profile: EngineProfile) -> StoreHandle {
        let exchange = DataExchange::new();
        exchange.create_store("t/s", profile).unwrap();
        let id = StoreId::new("t/s");
        exchange.handle(&id, Subject::operator("test")).unwrap()
    }

    fn key(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    #[tokio::test]
    async fn crud_through_handle() {
        let h = open_handle(EngineProfile::instant());
        let rev = h.create("a", json!({"x": 1})).await.unwrap();
        assert_eq!(rev, Revision(1));
        assert_eq!(h.get(&key("a")).await.unwrap().value, json!({"x": 1}));
        h.update(&key("a"), json!({"x": 2}), Some(rev))
            .await
            .unwrap();
        h.patch(&key("a"), json!({"y": 3}), false).await.unwrap();
        assert_eq!(
            h.get(&key("a")).await.unwrap().value,
            json!({"x": 2, "y": 3})
        );
        let (objs, _) = h.list().await.unwrap();
        assert_eq!(objs.len(), 1);
        h.delete(&key("a")).await.unwrap();
        assert!(h.get(&key("a")).await.is_err());
    }

    #[tokio::test]
    async fn push_watch_delivers_promptly() {
        let h = open_handle(EngineProfile::instant());
        let mut w = h.watch().unwrap();
        h.create("a", json!(1)).await.unwrap();
        let e = tokio::time::timeout(Duration::from_millis(100), w.recv())
            .await
            .unwrap()
            .unwrap();
        assert_eq!(e.key, key("a"));
    }

    #[tokio::test(start_paused = true)]
    async fn poll_watch_delivers_on_tick() {
        let profile = EngineProfile {
            watch: WatchDelivery::Poll {
                interval: Duration::from_millis(50),
            },
            ..EngineProfile::instant()
        };
        let h = open_handle(profile);
        let mut w = h.watch().unwrap();
        h.create("a", json!(1)).await.unwrap();
        // Immediately after commit, nothing is visible yet.
        tokio::time::sleep(Duration::from_millis(5)).await;
        assert!(w.try_recv().is_none(), "poll watch must not deliver early");
        // After the poll interval, the event arrives.
        tokio::time::sleep(Duration::from_millis(60)).await;
        assert!(w.try_recv().is_some());
    }

    #[tokio::test]
    async fn rbac_denies_and_field_redacts() {
        let store = Arc::new(ObjectStore::in_memory("checkout/state"));
        let access = Arc::new(RwLock::new(AccessController::new()));
        {
            let mut ac = access.write();
            ac.add_role(Role::full_access("owner", "checkout/state"));
            ac.bind(RoleBinding::new(Subject::reconciler("checkout"), "owner"));
            ac.add_role(
                Role::new("reader").rule(
                    Rule::on("checkout/state")
                        .verbs([Verb::Get, Verb::List, Verb::Watch])
                        .fields(FieldRule::default().deny_paths(["secret"])),
                ),
            );
            ac.bind(RoleBinding::new(Subject::integrator("cast"), "reader"));
        }
        let ctx = Arc::new(RwLock::new(AccessContext::default()));
        let owner = StoreHandle::new(
            Arc::clone(&store),
            Subject::reconciler("checkout"),
            Arc::clone(&access),
            Arc::clone(&ctx),
        );
        let reader = StoreHandle::new(store, Subject::integrator("cast"), access, ctx);

        owner
            .create("o", json!({"public": 1, "secret": 2}))
            .await
            .unwrap();
        // Reader sees the object without the denied field.
        let got = reader.get(&key("o")).await.unwrap();
        assert_eq!(got.value, json!({"public": 1}));
        // Reader cannot write.
        assert!(matches!(
            reader.update(&key("o"), json!({}), None).await,
            Err(Error::Forbidden(_))
        ));
        // Watch events are redacted too.
        let mut w = reader.watch().unwrap();
        let e = w.recv().await.unwrap();
        assert_eq!(e.value, json!({"public": 1}));
    }

    #[tokio::test]
    async fn retention_via_handle() {
        let h = open_handle(EngineProfile::instant());
        h.create("a", json!(1)).await.unwrap();
        h.register_consumer(&key("a"), "me").await.unwrap();
        let collected = h.mark_processed(&key("a"), "me").await.unwrap();
        assert!(collected.is_empty(), "default retention keeps everything");
    }
}
