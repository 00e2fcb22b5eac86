//! The synchronous, versioned object-store core.
//!
//! Everything observable about a store is ordered by its single revision
//! counter: each committed mutation bumps the revision by exactly one,
//! appends one event to the retained window, and (for durable engines)
//! appends one WAL record. A watch is a cursor over that window — the
//! only copy of recent events the store keeps: it starts at any revision
//! still retained and reads every later event exactly once, in order, for
//! as long as its next revision stays retained. The cursor is
//! `knactor_types::window`'s, the one Log-DE tails are too, so a watch
//! that falls off ends exactly as a tail does; the store supplies only
//! [`History`], the read of up to n events after a revision.
//!
//! # Concurrency
//!
//! The object map is hash-partitioned across [`SHARD_COUNT`] `RwLock`
//! shards, so concurrent readers never contend with each other and
//! writers to different shards only meet at the short commit section.
//! A write takes, in order:
//!
//! 1. its key's **shard** write lock (existence/OCC/schema checks, then
//!    the map mutation),
//! 2. the **commit** lock (revision allocation, WAL append), and
//! 3. the **window** write lock just long enough to append the event.
//!
//! Watchers take only the window's read lock, never the commit lock, and
//! are woken *outside* all three: one "latest revision" signal per single
//! op or batch, sent after the locks are gone. Object values are
//! `Arc<Value>` throughout, so reads, retention, and delivery to N
//! watchers are refcount bumps, never deep copies of the JSON tree.

use crate::batch::{BatchOp, ItemResult};
use crate::event::{EventKind, WatchEvent};
use crate::object::{RetentionPolicy, StoredObject};
use crate::profile::EngineProfile;
use crate::repl::{ReplState, REPL_ACK_TIMEOUT};
use crate::wal::Wal;
use knactor_types::metrics::{self, Counter, Histogram};
use knactor_types::window::{Cursor, Retained, Window};
use knactor_types::{value, Error, ObjectKey, Result, Revision, Schema, StoreId, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of hash-partitioned object shards. A power of two so the shard
/// index is a mask; sized for "more shards than cores that plausibly
/// write at once" without bloating empty stores.
const SHARD_COUNT: usize = 16;

/// Bounded internal retries for [`ObjectStore::patch`]'s read-merge-CAS
/// loop under write contention.
const PATCH_RETRIES: usize = 8;

type Shard = RwLock<BTreeMap<ObjectKey, StoredObject>>;

/// When a mutation's caller learns about durability.
///
/// `Acked` is the single-op contract: the call returns only after a WAL
/// group fsync covers the commit. `Staged` is the batch building block:
/// the commit is staged (and visible) but the ack is deferred until the
/// batch-wide [`Wal::durable_barrier`], so N items share one fsync.
/// `Replicated(n)` extends `Acked`: after the local fsync the ack is
/// further held until `n` followers have durably staged the commit's
/// revision (see [`crate::repl::ReplState`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Durability {
    Acked,
    Staged,
    Replicated(usize),
}

/// A single data store: versioned objects + watch machinery.
///
/// The core is synchronous and engine-agnostic; durability comes from an
/// optional [`Wal`], and latency/delivery behaviour is layered on by
/// [`crate::handle::StoreHandle`] according to the [`EngineProfile`].
pub struct ObjectStore {
    id: StoreId,
    profile: EngineProfile,
    schema: Mutex<Option<Schema>>,
    policy: Mutex<RetentionPolicy>,
    /// Revision of the last committed mutation. Written only inside the
    /// commit section; reads are lock-free.
    revision: AtomicU64,
    shards: Vec<Shard>,
    /// Serialization point for commits: revision allocation, the WAL stage
    /// and the window append happen under it.
    commit: Mutex<()>,
    wal: Option<Arc<Wal>>,
    /// The retained window and its one wake: the latest committed revision,
    /// announced once per single op or batch with no store lock held.
    window: Arc<Window<History>>,
    /// Leader-side replication ack table, attached by the node runtime
    /// when the store participates in a replica set.
    repl: Mutex<Option<Arc<ReplState>>>,
    metrics: StoreMetrics,
}

/// Pre-registered handles into the global metrics registry, one set per
/// store (labelled `store=<id>`). Registered once at open so the hot
/// paths only touch atomics.
struct StoreMetrics {
    op_create: Arc<Counter>,
    op_get: Arc<Counter>,
    op_list: Arc<Counter>,
    op_update: Arc<Counter>,
    op_patch: Arc<Counter>,
    op_delete: Arc<Counter>,
    commit_seconds: Arc<Histogram>,
}

impl StoreMetrics {
    fn for_store(id: &StoreId) -> StoreMetrics {
        let reg = metrics::global();
        let store = id.to_string();
        let op = |name: &str| {
            reg.counter(
                "knactor_store_ops_total",
                &[("store", &store), ("op", name)],
            )
        };
        StoreMetrics {
            op_create: op("create"),
            op_get: op("get"),
            op_list: op("list"),
            op_update: op("update"),
            op_patch: op("patch"),
            op_delete: op("delete"),
            commit_seconds: reg.histogram("knactor_store_commit_seconds", &[("store", &store)]),
        }
    }
}

/// The store's retained window: the last `history_cap` committed events,
/// dense in revision — the one copy of recent events the store keeps,
/// appended to by the committer and read by every [`StoreWatch`].
pub struct History(RwLock<Ring>);

struct Ring {
    events: VecDeque<WatchEvent>,
    cap: usize,
    /// Revision of the newest event ever appended (a reopened store's
    /// recovered revision; its ring starts empty).
    head: Revision,
}

impl History {
    fn push(&self, event: WatchEvent) {
        let mut ring = self.0.write();
        ring.head = event.revision;
        ring.events.push_back(event);
        while ring.events.len() > ring.cap {
            ring.events.pop_front();
        }
    }
}

impl Retained for History {
    type Item = WatchEvent;

    fn read_after(
        &self,
        after: u64,
        max: usize,
        out: &mut VecDeque<WatchEvent>,
    ) -> std::result::Result<(), u64> {
        let ring = self.0.read();
        // `head + 1` when nothing is retained.
        let oldest = ring.head.0 + 1 - ring.events.len() as u64;
        let Some(skip) = after.saturating_add(1).checked_sub(oldest) else {
            return Err(oldest);
        };
        let start = (skip as usize).min(ring.events.len());
        out.extend(ring.events.range(start..).take(max).cloned());
        Ok(())
    }
}

/// A live watch: the one [`Cursor`] over the store's retained window. It
/// holds no more than a chunk of events, so a watch that is never read
/// costs the store nothing, and a slow one is never ended while its next
/// revision is still retained.
///
/// When `recv` returns `None` the cursor fell off the window:
/// `lag_resume_from()` is the last revision it handed out, `watch_from` of
/// that is [`Error::WatchTooOld`], and the recovery is [`ObjectStore::list`]
/// plus a watch from the listing's revision.
pub type StoreWatch = Cursor<History>;

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("id", &self.id)
            .field("engine", &self.profile.name)
            .field("revision", &self.revision.load(Ordering::Acquire))
            .field("objects", &self.len())
            .finish()
    }
}

impl ObjectStore {
    /// Create a store with the given engine profile. Durable profiles
    /// replay their WAL, restoring all previously committed state.
    pub fn open(id: StoreId, profile: EngineProfile) -> Result<ObjectStore> {
        let mut shards: Vec<Shard> = (0..SHARD_COUNT)
            .map(|_| RwLock::new(BTreeMap::new()))
            .collect();
        let mut revision = Revision::ZERO;
        let mut wal = None;
        if let Some(path) = &profile.wal_path {
            // Recovery first: truncate any torn tail (crash mid-append)
            // and verify revision continuity, then rebuild shard state
            // from the surviving prefix. A torn final record is lost —
            // it was never acknowledged — but every acked commit is here.
            let (recovered_wal, events) = Wal::open_recovering(path, profile.fsync)?;
            let mut objects = BTreeMap::new();
            for event in events {
                apply_event(&mut objects, &event);
                revision = event.revision;
            }
            for (key, obj) in objects {
                shards[shard_of(&key)].get_mut().insert(key, obj);
            }
            wal = Some(Arc::new(recovered_wal));
        }
        let store_metrics = StoreMetrics::for_store(&id);
        let reg = metrics::global();
        let label = [("store", id.as_str())];
        let history = History(RwLock::new(Ring {
            events: VecDeque::new(),
            cap: profile.history_cap,
            head: revision,
        }));
        let window = Window::new(
            history,
            reg.gauge("knactor_store_fanout_depth", &label),
            reg.counter("knactor_store_watch_cutoffs_total", &label),
        );
        Ok(ObjectStore {
            id,
            revision: AtomicU64::new(revision.0),
            shards,
            commit: Mutex::new(()),
            wal,
            window,
            repl: Mutex::new(None),
            schema: Mutex::new(None),
            policy: Mutex::new(RetentionPolicy::Forever),
            metrics: store_metrics,
            profile,
        })
    }

    /// In-memory store with the `instant` profile (tests, examples).
    pub fn in_memory(id: impl Into<StoreId>) -> ObjectStore {
        ObjectStore::open(id.into(), EngineProfile::instant()).expect("in-memory open cannot fail")
    }

    pub fn id(&self) -> &StoreId {
        &self.id
    }

    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Attach the leader-side replication ack table. Subsequent acked
    /// writes additionally wait for the profile's `repl_acks` quorum
    /// (when the attached state is leading).
    pub fn attach_repl(&self, state: Arc<ReplState>) {
        *self.repl.lock() = Some(state);
    }

    pub fn repl(&self) -> Option<Arc<ReplState>> {
        self.repl.lock().clone()
    }

    /// Single-op durability mode: plain `Acked`, or `Replicated(n)` when
    /// the profile demands a replication quorum.
    fn ack_mode(&self) -> Durability {
        match self.profile.repl_acks {
            0 => Durability::Acked,
            n => Durability::Replicated(n),
        }
    }

    /// Attach a schema; subsequent writes are validated against it.
    pub fn set_schema(&self, schema: Schema) {
        *self.schema.lock() = Some(schema);
    }

    pub fn schema(&self) -> Option<Schema> {
        self.schema.lock().clone()
    }

    pub fn set_retention(&self, policy: RetentionPolicy) {
        *self.policy.lock() = policy;
    }

    pub fn retention(&self) -> RetentionPolicy {
        *self.policy.lock()
    }

    /// Current store revision (revision of the last committed mutation).
    pub fn revision(&self) -> Revision {
        Revision(self.revision.load(Ordering::Acquire))
    }

    /// Arm a WAL crash point for deterministic crash testing: the
    /// `after`-th commit from now dies at `point` and every later commit
    /// fails too (the "process" is dead until the store is reopened from
    /// its WAL). Returns `false` for purely in-memory profiles, which
    /// have no WAL to crash.
    pub fn arm_crash(&self, point: crate::wal::CrashPoint, after: u64) -> bool {
        let Some(wal) = &self.wal else { return false };
        wal.arm_crash(point, after);
        true
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &ObjectKey) -> &Shard {
        &self.shards[shard_of(key)]
    }

    /// Create a new object. Fails with `AlreadyExists` if the key is taken.
    pub fn create(&self, key: ObjectKey, value: impl Into<Arc<Value>>) -> Result<Revision> {
        self.create_impl(self.ack_mode(), key, value.into())
    }

    fn create_impl(&self, mode: Durability, key: ObjectKey, value: Arc<Value>) -> Result<Revision> {
        self.metrics.op_create.inc();
        if let Some(schema) = &*self.schema.lock() {
            schema.validate(&value)?;
        }
        let rev;
        let pending;
        {
            let mut shard = self.shard(&key).write();
            if shard.contains_key(&key) {
                return Err(Error::AlreadyExists(key.to_string()));
            }
            (rev, pending) = self.commit_locked(EventKind::Created, &key, &value)?;
            shard.insert(key.clone(), StoredObject::new(key, value, rev));
        }
        self.finish_commit(mode, rev, pending)?;
        Ok(rev)
    }

    /// Read an object (shared value handle and metadata).
    pub fn get(&self, key: &ObjectKey) -> Result<StoredObject> {
        self.metrics.op_get.inc();
        self.shard(key)
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| Error::NotFound(key.to_string()))
    }

    /// List all objects, in key order, plus the revision the listing is
    /// consistent at (use it to start a gapless watch).
    ///
    /// Holds every shard's read lock at once: writers keep their shard
    /// write-locked through the commit section, so no half-committed
    /// state (or its revision bump) can be observed.
    pub fn list(&self) -> (Vec<StoredObject>, Revision) {
        self.metrics.op_list.inc();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let rev = self.revision();
        let mut objects: Vec<StoredObject> =
            guards.iter().flat_map(|g| g.values().cloned()).collect();
        objects.sort_by(|a, b| a.key.cmp(&b.key));
        (objects, rev)
    }

    /// Replace an object's value. `expected` enables optimistic
    /// concurrency: the write commits only if the object's revision still
    /// matches.
    pub fn update(
        &self,
        key: &ObjectKey,
        new_value: impl Into<Arc<Value>>,
        expected: Option<Revision>,
    ) -> Result<Revision> {
        self.update_impl(self.ack_mode(), key, new_value.into(), expected)
    }

    fn update_impl(
        &self,
        mode: Durability,
        key: &ObjectKey,
        new_value: Arc<Value>,
        expected: Option<Revision>,
    ) -> Result<Revision> {
        self.metrics.op_update.inc();
        let schema = self.schema.lock().clone();
        let rev;
        let pending;
        {
            let mut shard = self.shard(key).write();
            let obj = shard
                .get(key)
                .ok_or_else(|| Error::NotFound(key.to_string()))?;
            if let Some(expected) = expected {
                if obj.revision != expected {
                    return Err(Error::Conflict {
                        expected: expected.0,
                        actual: obj.revision.0,
                    });
                }
            }
            if let Some(schema) = &schema {
                schema.validate_update(&obj.value, &new_value)?;
            }
            (rev, pending) = self.commit_locked(EventKind::Updated, key, &new_value)?;
            let obj = shard.get_mut(key).expect("checked above");
            obj.value = new_value;
            obj.revision = rev;
            // A new value invalidates prior consumption.
            for done in obj.consumers.values_mut() {
                *done = false;
            }
        }
        self.finish_commit(mode, rev, pending)?;
        Ok(rev)
    }

    /// Deep-merge `patch` into the current value (creating the object when
    /// `upsert` is set and the key is absent).
    ///
    /// A patch that leaves the value unchanged does **not** commit: no
    /// revision bump, no watch event. This no-op suppression is what lets
    /// integrators converge — a Cast activation that recomputes the same
    /// derived state produces no new events to re-trigger on.
    ///
    /// The read-merge-write runs as an internal OCC loop: a concurrent
    /// writer racing between the read and the conditional write surfaces
    /// as `Conflict`, and the merge is retried against fresh state a
    /// bounded number of times before the conflict propagates.
    pub fn patch(&self, key: &ObjectKey, patch: &Value, upsert: bool) -> Result<Revision> {
        self.patch_impl(self.ack_mode(), key, patch, upsert)
    }

    fn patch_impl(
        &self,
        mode: Durability,
        key: &ObjectKey,
        patch: &Value,
        upsert: bool,
    ) -> Result<Revision> {
        self.metrics.op_patch.inc();
        let mut last = None;
        for _ in 0..PATCH_RETRIES {
            let current = self
                .shard(key)
                .read()
                .get(key)
                .map(|o| (o.value.clone(), o.revision));
            let attempt = match current {
                Some((base, rev)) => {
                    let mut merged = (*base).clone();
                    value::merge(&mut merged, patch);
                    if merged == *base {
                        return Ok(rev);
                    }
                    self.update_impl(mode, key, merged.into(), Some(rev))
                }
                None if upsert => self.create_impl(mode, key.clone(), patch.clone().into()),
                None => return Err(Error::NotFound(key.to_string())),
            };
            match attempt {
                // Lost a race (concurrent update, or concurrent create for
                // the upsert path): merge again against the fresh value.
                Err(e @ (Error::Conflict { .. } | Error::AlreadyExists(_))) => last = Some(e),
                done => return done,
            }
        }
        Err(last.expect("loop ran"))
    }

    /// Delete an object.
    pub fn delete(&self, key: &ObjectKey) -> Result<Revision> {
        self.delete_impl(self.ack_mode(), key)
    }

    fn delete_impl(&self, mode: Durability, key: &ObjectKey) -> Result<Revision> {
        self.metrics.op_delete.inc();
        let rev;
        let pending;
        {
            let mut shard = self.shard(key).write();
            let value = shard
                .get(key)
                .map(|o| o.value.clone())
                .ok_or_else(|| Error::NotFound(key.to_string()))?;
            (rev, pending) = self.commit_locked(EventKind::Deleted, key, &value)?;
            shard.remove(key);
        }
        self.finish_commit(mode, rev, pending)?;
        Ok(rev)
    }

    /// Apply a batch of independent mutations with per-item outcomes.
    ///
    /// Items run in order; logical failures (`conflict`, `not_found`, a
    /// schema violation) become [`ItemResult::Error`] entries without
    /// touching their neighbours. Durability is batch-wide: every item is
    /// *staged* as it commits, and a single [`Wal::durable_barrier`] (one
    /// group fsync) covers the whole batch before the call returns — N
    /// records, one fsync. A durability failure fails the entire call,
    /// because none of the staged items can honestly be acknowledged.
    pub fn apply_batch(&self, ops: Vec<BatchOp>) -> Result<Vec<ItemResult>> {
        let before = self.revision();
        let mut results = Vec::with_capacity(ops.len());
        let (mut last, mut fatal) = (None, None);
        for op in ops {
            let attempt = match op {
                BatchOp::Create { key, value } => {
                    self.create_impl(Durability::Staged, key, value.into())
                }
                BatchOp::Update {
                    key,
                    value,
                    expected,
                } => self.update_impl(Durability::Staged, &key, value.into(), expected),
                BatchOp::Patch { key, patch, upsert } => {
                    self.patch_impl(Durability::Staged, &key, &patch, upsert)
                }
                BatchOp::Delete { key } => self.delete_impl(Durability::Staged, &key),
            };
            match attempt {
                Ok(revision) => {
                    last = last.max(Some(revision));
                    results.push(ItemResult::Revision { revision });
                }
                // A dead WAL (injected crash, I/O failure) is batch-fatal:
                // staged items can no longer be fsynced, so nothing here
                // can be acked item-by-item (what was staged is visible).
                Err(e @ Error::Internal(_)) => {
                    fatal = Some(e);
                    break;
                }
                Err(e) => results.push(ItemResult::from_error(&e)),
            }
        }
        // One wake per batch, none for a batch that committed nothing: an
        // integrator re-deriving unchanged state must not wake every watcher.
        if self.revision() > before {
            self.announce();
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        if let Some(wal) = &self.wal {
            wal.durable_barrier()?;
        }
        // Batch-wide replication quorum: one wait at the batch's last
        // committed revision covers every item (acks are cumulative),
        // mirroring the one-fsync-per-batch durability barrier. Skipped
        // when nothing committed, and a no-op on passive (follower)
        // stores — which is what lets the replication apply path itself
        // run through here without waiting on its own quorum.
        if let (Some(rev), acks @ 1.., Some(repl)) = (last, self.profile.repl_acks, self.repl()) {
            repl.wait_quorum(rev, acks, REPL_ACK_TIMEOUT)?;
        }
        Ok(results)
    }

    /// Commit one mutation for `key`: allocate the next revision, append
    /// to the WAL (the durability point — a WAL failure aborts the commit
    /// before anything became visible), and append the event to the
    /// retained window, where every watch reads it.
    ///
    /// The caller holds the key's shard write lock, which is what makes
    /// "validate, commit, mutate" atomic against readers and other
    /// writers of the same key.
    /// The WAL write here is a *stage*, not a full `append`: the fsync
    /// wait happens in [`ObjectStore::finish_commit`], after the shard
    /// lock is released, so concurrent committers (any shard) and batch
    /// items share group fsyncs instead of serializing them under the
    /// commit mutex. A stage failure still aborts before anything became
    /// visible; the returned WAL ticket (`None` without a WAL) is what
    /// turns visibility into an acknowledgement.
    fn commit_locked(
        &self,
        kind: EventKind,
        key: &ObjectKey,
        value: &Arc<Value>,
    ) -> Result<(Revision, Option<u64>)> {
        let commit_start = Instant::now();
        let _commit = self.commit.lock();
        let rev = Revision(self.revision.load(Ordering::Relaxed) + 1);
        let event = WatchEvent {
            revision: rev,
            kind,
            key: key.clone(),
            value: Arc::clone(value),
        };
        let pending = self.wal.as_ref().map(|wal| wal.stage(&event)).transpose()?;
        self.revision.store(rev.0, Ordering::Release);
        self.window.retained().push(event);
        self.metrics.commit_seconds.observe(commit_start.elapsed());
        Ok((rev, pending))
    }

    /// Complete a commit after its shard lock is gone: wake the watchers
    /// and, for `Acked` mode, block until the commit's WAL group fsync
    /// lands. `Staged` mode defers both to the batch caller.
    /// `Replicated(n)` additionally holds the ack until `n` followers
    /// have durably staged `rev` (quorum release).
    ///
    /// An fsync (or quorum) failure after the commit became visible means
    /// the record is applied-but-unacknowledged — exactly the contract a
    /// crash between write and ack already imposes on clients (OCC
    /// read-back disambiguation on retry).
    fn finish_commit(&self, mode: Durability, rev: Revision, pending: Option<u64>) -> Result<()> {
        if mode == Durability::Staged {
            return Ok(());
        }
        self.announce();
        if let (Some(wal), Some(ticket)) = (&self.wal, pending) {
            wal.wait_durable(ticket)?;
        }
        if let Durability::Replicated(n) = mode {
            if let Some(repl) = self.repl() {
                repl.wait_quorum(rev, n, REPL_ACK_TIMEOUT)?;
            }
        }
        Ok(())
    }

    /// Wake every blocked watcher and [`ObjectStore::revision_reached`]
    /// waiter. Called with no store lock held.
    fn announce(&self) {
        self.window.announce(self.revision().0);
    }

    /// Wait until the store has committed (on a follower: applied) at least
    /// `rev`; returns the revision that satisfied it.
    pub async fn revision_reached(&self, rev: Revision) -> Revision {
        let mut wake = self.window.subscribe();
        loop {
            let current = self.revision();
            if current >= rev {
                return current;
            }
            // The sender is `self`, so this cannot report it dropped.
            let _ = wake.changed().await;
        }
    }

    /// Watch committed events with revision **greater than** `from`, in
    /// revision order without gaps or duplicates: first what the window
    /// already retains, then each commit as it lands.
    ///
    /// Fails with [`Error::WatchTooOld`] if `from + 1` has already left
    /// the window (the caller must [`ObjectStore::list`] and watch from
    /// the listing's revision).
    pub fn watch_from(&self, from: Revision) -> Result<StoreWatch> {
        self.window.open(from.0)
    }

    /// Convenience: watch everything from the beginning of history.
    pub fn watch(&self) -> Result<StoreWatch> {
        self.watch_from(Revision::ZERO)
    }

    /// Register `consumer` as interested in `key` (state retention).
    pub fn register_consumer(&self, key: &ObjectKey, consumer: &str) -> Result<()> {
        let mut shard = self.shard(key).write();
        let obj = shard
            .get_mut(key)
            .ok_or_else(|| Error::NotFound(key.to_string()))?;
        obj.consumers.entry(consumer.to_string()).or_insert(false);
        Ok(())
    }

    /// Mark `consumer`'s processing of the current value complete, then
    /// run retention. Returns the keys garbage-collected (if any).
    pub fn mark_processed(&self, key: &ObjectKey, consumer: &str) -> Result<Vec<ObjectKey>> {
        {
            let mut shard = self.shard(key).write();
            let obj = shard
                .get_mut(key)
                .ok_or_else(|| Error::NotFound(key.to_string()))?;
            match obj.consumers.get_mut(consumer) {
                Some(done) => *done = true,
                None => {
                    return Err(Error::Internal(format!(
                        "consumer '{consumer}' not registered on {key}"
                    )))
                }
            }
        }
        self.gc()
    }

    /// Run the retention policy, deleting collectable objects. Emits
    /// normal `Deleted` events so watchers observe GC.
    pub fn gc(&self) -> Result<Vec<ObjectKey>> {
        // Every fully consumed object is collectable; `Archive` spares the
        // `keep` newest of them.
        let spared = match *self.policy.lock() {
            RetentionPolicy::Forever => return Ok(Vec::new()),
            RetentionPolicy::RefCounted => 0,
            RetentionPolicy::Archive { keep } => keep,
        };
        let mut consumed: Vec<(Revision, ObjectKey)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            let done = shard.values().filter(|o| o.fully_consumed());
            consumed.extend(done.map(|o| (o.created_revision, o.key.clone())));
        }
        consumed.sort();
        consumed.truncate(consumed.len().saturating_sub(spared));
        let victims: Vec<ObjectKey> = consumed.into_iter().map(|(_, key)| key).collect();
        for key in &victims {
            self.delete(key)?;
        }
        Ok(victims)
    }

    /// Number of live watches (diagnostics): every [`StoreWatch`] holds
    /// the window, the store holds it once.
    pub fn subscriber_count(&self) -> usize {
        Arc::strong_count(&self.window) - 1
    }
}

fn shard_of(key: &ObjectKey) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARD_COUNT - 1)
}

/// Apply a WAL event to the object map during replay.
fn apply_event(objects: &mut BTreeMap<ObjectKey, StoredObject>, event: &WatchEvent) {
    if event.kind == EventKind::Deleted {
        objects.remove(&event.key);
    } else if let (EventKind::Updated, Some(obj)) = (event.kind, objects.get_mut(&event.key)) {
        obj.value = event.value.clone();
        obj.revision = event.revision;
    } else {
        // A create — or an update without one, which can only mean the
        // WAL starts after it; treat as create.
        let fresh = StoredObject::new(event.key.clone(), event.value.clone(), event.revision);
        objects.insert(event.key.clone(), fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knactor_types::schema::{FieldSpec, FieldType};
    use serde_json::json;

    fn store() -> ObjectStore {
        ObjectStore::in_memory("test/store")
    }

    fn k(s: &str) -> ObjectKey {
        ObjectKey::new(s)
    }

    #[test]
    fn create_get_roundtrip() {
        let s = store();
        let rev = s.create(k("a"), json!({"x": 1})).unwrap();
        assert_eq!(rev, Revision(1));
        let obj = s.get(&k("a")).unwrap();
        assert_eq!(obj.value, json!({"x": 1}));
        assert_eq!(obj.revision, Revision(1));
        assert_eq!(obj.created_revision, Revision(1));
    }

    #[test]
    fn create_duplicate_fails() {
        let s = store();
        s.create(k("a"), json!(1)).unwrap();
        assert!(matches!(
            s.create(k("a"), json!(2)),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn revisions_bump_by_one_per_mutation() {
        let s = store();
        s.create(k("a"), json!(1)).unwrap();
        s.create(k("b"), json!(2)).unwrap();
        s.update(&k("a"), json!(3), None).unwrap();
        s.delete(&k("b")).unwrap();
        assert_eq!(s.revision(), Revision(4));
    }

    #[test]
    fn optimistic_concurrency() {
        let s = store();
        let rev = s.create(k("a"), json!({"v": 0})).unwrap();
        let r2 = s.update(&k("a"), json!({"v": 1}), Some(rev)).unwrap();
        // Re-using the stale revision must conflict.
        let err = s.update(&k("a"), json!({"v": 2}), Some(rev)).unwrap_err();
        assert_eq!(
            err,
            Error::Conflict {
                expected: rev.0,
                actual: r2.0
            }
        );
        // Unconditional update still works.
        s.update(&k("a"), json!({"v": 3}), None).unwrap();
        assert_eq!(s.get(&k("a")).unwrap().value, json!({"v": 3}));
    }

    #[test]
    fn patch_merges_and_upserts() {
        let s = store();
        s.create(k("a"), json!({"x": {"y": 1}, "keep": true}))
            .unwrap();
        s.patch(&k("a"), &json!({"x": {"z": 2}}), false).unwrap();
        assert_eq!(
            s.get(&k("a")).unwrap().value,
            json!({"x": {"y": 1, "z": 2}, "keep": true})
        );
        assert!(matches!(
            s.patch(&k("nope"), &json!({}), false),
            Err(Error::NotFound(_))
        ));
        s.patch(&k("nope"), &json!({"fresh": 1}), true).unwrap();
        assert_eq!(s.get(&k("nope")).unwrap().value, json!({"fresh": 1}));
    }

    #[test]
    fn schema_enforced_on_write() {
        let s = store();
        s.set_schema(
            Schema::new("T/v1/S/K")
                .field(FieldSpec::new("name", FieldType::String).required())
                .field(FieldSpec::new("qty", FieldType::Number)),
        );
        assert!(s.create(k("bad"), json!({"qty": 2})).is_err());
        s.create(k("ok"), json!({"name": "mug", "qty": 2})).unwrap();
        assert!(s.update(&k("ok"), json!({"name": 5}), None).is_err());
    }

    #[test]
    fn list_returns_consistent_snapshot() {
        let s = store();
        s.create(k("b"), json!(2)).unwrap();
        s.create(k("a"), json!(1)).unwrap();
        let (objs, rev) = s.list();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].key, k("a"), "key order");
        assert_eq!(rev, Revision(2));
    }

    #[tokio::test]
    async fn watch_sees_all_events_in_order() {
        let s = store();
        let mut rx = s.watch().unwrap();
        s.create(k("a"), json!(1)).unwrap();
        s.update(&k("a"), json!(2), None).unwrap();
        s.delete(&k("a")).unwrap();
        let e1 = rx.recv().await.unwrap();
        let e2 = rx.recv().await.unwrap();
        let e3 = rx.recv().await.unwrap();
        assert_eq!(
            (e1.kind, e2.kind, e3.kind),
            (EventKind::Created, EventKind::Updated, EventKind::Deleted)
        );
        assert!(e1.revision < e2.revision && e2.revision < e3.revision);
    }

    #[tokio::test]
    async fn watch_from_replays_history() {
        let s = store();
        s.create(k("a"), json!(1)).unwrap();
        let mid = s.revision();
        s.create(k("b"), json!(2)).unwrap();
        let mut rx = s.watch_from(mid).unwrap();
        let e = rx.recv().await.unwrap();
        assert_eq!(e.key, k("b"));
        // Nothing else pending.
        s.create(k("c"), json!(3)).unwrap();
        let e = rx.recv().await.unwrap();
        assert_eq!(e.key, k("c"));
    }

    #[test]
    fn watch_too_old_fails() {
        let profile = EngineProfile {
            history_cap: 2,
            ..EngineProfile::instant()
        };
        let s = ObjectStore::open(StoreId::new("test/store"), profile).unwrap();
        for i in 0..5 {
            s.create(k(&format!("k{i}")), json!(i)).unwrap();
        }
        let err = s.watch_from(Revision(1)).unwrap_err();
        assert_eq!(err, Error::WatchTooOld { from: 1, oldest: 4 });
        assert!(s.watch_from(Revision(3)).is_ok());
        assert!(s.watch_from(s.revision()).is_ok());
    }

    #[test]
    fn refcount_retention_collects_consumed() {
        let s = store();
        s.set_retention(RetentionPolicy::RefCounted);
        s.create(k("a"), json!(1)).unwrap();
        s.register_consumer(&k("a"), "cast").unwrap();
        s.register_consumer(&k("a"), "reconciler").unwrap();
        assert!(s.mark_processed(&k("a"), "cast").unwrap().is_empty());
        let collected = s.mark_processed(&k("a"), "reconciler").unwrap();
        assert_eq!(collected, vec![k("a")]);
        assert!(s.get(&k("a")).is_err());
    }

    #[test]
    fn update_resets_consumption() {
        let s = store();
        s.set_retention(RetentionPolicy::RefCounted);
        s.create(k("a"), json!(1)).unwrap();
        s.register_consumer(&k("a"), "cast").unwrap();
        s.mark_processed(&k("a"), "cast").unwrap();
        // Object was collected; recreate and test the reset path.
        s.create(k("a"), json!(1)).unwrap();
        s.register_consumer(&k("a"), "x").unwrap();
        s.register_consumer(&k("a"), "y").unwrap();
        s.mark_processed(&k("a"), "x").unwrap();
        s.update(&k("a"), json!(2), None).unwrap();
        // x's mark was invalidated by the update.
        let collected = s.mark_processed(&k("a"), "y").unwrap();
        assert!(collected.is_empty());
        assert!(s.get(&k("a")).is_ok());
    }

    #[test]
    fn archive_retention_keeps_last_n() {
        let s = store();
        s.set_retention(RetentionPolicy::Archive { keep: 2 });
        for i in 0..4 {
            let key = k(&format!("o{i}"));
            s.create(key.clone(), json!(i)).unwrap();
            s.register_consumer(&key, "c").unwrap();
        }
        for i in 0..4 {
            s.mark_processed(&k(&format!("o{i}")), "c").unwrap();
        }
        // Two oldest consumed objects were collected.
        assert!(s.get(&k("o0")).is_err());
        assert!(s.get(&k("o1")).is_err());
        assert!(s.get(&k("o2")).is_ok());
        assert!(s.get(&k("o3")).is_ok());
    }

    #[test]
    fn forever_retention_never_collects() {
        let s = store();
        s.create(k("a"), json!(1)).unwrap();
        s.register_consumer(&k("a"), "c").unwrap();
        assert!(s.mark_processed(&k("a"), "c").unwrap().is_empty());
        assert!(s.get(&k("a")).is_ok());
    }

    #[test]
    fn unregistered_consumer_cannot_mark() {
        let s = store();
        s.create(k("a"), json!(1)).unwrap();
        assert!(s.mark_processed(&k("a"), "ghost").is_err());
    }

    #[test]
    fn batch_isolates_item_failures() {
        let s = store();
        s.create(k("dup"), json!(0)).unwrap();
        let results = s
            .apply_batch(vec![
                BatchOp::Create {
                    key: k("a"),
                    value: json!({"x": 1}),
                },
                BatchOp::Create {
                    key: k("dup"),
                    value: json!(1),
                },
                BatchOp::Update {
                    key: k("missing"),
                    value: json!(2),
                    expected: None,
                },
                BatchOp::Patch {
                    key: k("a"),
                    patch: json!({"y": 2}),
                    upsert: false,
                },
                BatchOp::Delete { key: k("a") },
            ])
            .unwrap();
        assert_eq!(results.len(), 5);
        assert!(!results[0].is_err());
        assert!(matches!(
            results[1].as_error(),
            Some(Error::AlreadyExists(_))
        ));
        assert!(matches!(results[2].as_error(), Some(Error::NotFound(_))));
        assert!(!results[3].is_err());
        assert!(!results[4].is_err());
        assert!(s.get(&k("a")).is_err(), "created then deleted in-batch");
        // Failed items committed nothing: 1 seed + 3 batch commits.
        assert_eq!(s.revision(), Revision(4));
    }

    #[tokio::test]
    async fn batch_events_reach_watchers_in_order() {
        let s = store();
        let mut rx = s.watch().unwrap();
        s.apply_batch(vec![
            BatchOp::Create {
                key: k("a"),
                value: json!(1),
            },
            BatchOp::Create {
                key: k("b"),
                value: json!(2),
            },
            BatchOp::Delete { key: k("a") },
        ])
        .unwrap();
        let revs: Vec<u64> = [
            rx.recv().await.unwrap(),
            rx.recv().await.unwrap(),
            rx.recv().await.unwrap(),
        ]
        .iter()
        .map(|e| e.revision.0)
        .collect();
        assert_eq!(revs, vec![1, 2, 3]);
    }

    #[test]
    fn durable_batch_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("knactor-batch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = EngineProfile::apiserver(&dir, "batch/store");
        {
            let s = ObjectStore::open(StoreId::new("batch/store"), profile.clone()).unwrap();
            let results = s
                .apply_batch(
                    (0..8)
                        .map(|i| BatchOp::Create {
                            key: k(&format!("k{i}")),
                            value: json!(i),
                        })
                        .collect(),
                )
                .unwrap();
            assert!(results.iter().all(|r| !r.is_err()));
        }
        let s = ObjectStore::open(StoreId::new("batch/store"), profile).unwrap();
        assert_eq!(s.len(), 8);
        assert_eq!(s.revision(), Revision(8));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_recovers_from_wal() {
        let dir = std::env::temp_dir().join(format!("knactor-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = EngineProfile::apiserver(&dir, "recover/store");
        {
            let s = ObjectStore::open(StoreId::new("recover/store"), profile.clone()).unwrap();
            s.create(k("a"), json!({"v": 1})).unwrap();
            s.create(k("b"), json!({"v": 2})).unwrap();
            s.update(&k("a"), json!({"v": 10}), None).unwrap();
            s.delete(&k("b")).unwrap();
        }
        let s = ObjectStore::open(StoreId::new("recover/store"), profile).unwrap();
        assert_eq!(s.revision(), Revision(4));
        assert_eq!(s.get(&k("a")).unwrap().value, json!({"v": 10}));
        assert!(s.get(&k("b")).is_err());
        // The retained window starts empty at the recovered revision.
        assert!(matches!(
            s.watch_from(Revision(3)),
            Err(Error::WatchTooOld { from: 3, .. })
        ));
        let mut rx = s.watch_from(Revision(4)).unwrap();
        // New writes continue the revision sequence.
        assert_eq!(s.create(k("c"), json!(1)).unwrap(), Revision(5));
        assert_eq!(rx.try_recv().unwrap().revision, Revision(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The live-watch count is exact and side-effect free: it moves on
    /// `watch_from` and on drop, with no commit needed to notice.
    #[test]
    fn dropped_subscriber_is_pruned() {
        let s = store();
        let rx = s.watch().unwrap();
        let other = s.watch().unwrap();
        assert_eq!(s.subscriber_count(), 2);
        drop(rx);
        assert_eq!(s.subscriber_count(), 1);
        drop(other);
        assert_eq!(s.subscriber_count(), 0);
    }

    /// A watch opened mid-window reads what is retained after its start
    /// and then each new commit: every revision once, none twice.
    #[tokio::test]
    async fn late_subscriber_sees_no_duplicates() {
        let s = store();
        for i in 0..10 {
            s.create(k(&format!("k{i}")), json!(i)).unwrap();
        }
        let mut rx = s.watch_from(Revision(5)).unwrap();
        s.create(k("tail"), json!("t")).unwrap();
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(rx.recv().await.unwrap().revision.0);
        }
        assert_eq!(seen, vec![6, 7, 8, 9, 10, 11]);
        assert!(rx.try_recv().is_none());
    }

    fn windowed(id: &str, history_cap: usize) -> ObjectStore {
        let profile = EngineProfile {
            history_cap,
            ..EngineProfile::instant()
        };
        ObjectStore::open(StoreId::new(id), profile).unwrap()
    }

    /// An idle subscriber inside the retained window loses nothing: there
    /// is no bound on how far a watch may lag other than the window.
    #[tokio::test]
    async fn idle_subscriber_inside_the_window_loses_nothing() {
        let s = windowed("test/idle", 64);
        let mut idle = s.watch().unwrap();
        for i in 0..10u64 {
            s.create(k(&format!("k{i}")), json!(i)).unwrap();
        }
        for want in 1..=10u64 {
            assert_eq!(idle.recv().await.unwrap().revision, Revision(want));
        }
        assert!(idle.try_recv().is_none());
        assert_eq!(idle.lag_resume_from(), None, "still live");
    }

    /// A subscriber that stops reading falls off the window — and only
    /// then ends, saying how far it got. A healthy subscriber alongside
    /// it receives every event, and the recovery is list + watch.
    #[tokio::test]
    async fn slow_subscriber_is_cut_healthy_keeps_flowing() {
        let s = windowed("test/slow", 4);
        let mut slow = s.watch().unwrap();
        let mut healthy = s.watch().unwrap();
        for i in 0..20u64 {
            s.create(k(&format!("k{i}")), json!(i)).unwrap();
            let e = healthy.recv().await.unwrap();
            assert_eq!(e.revision, Revision(i + 1));
            // The slow subscriber reads two events, then never again. It is
            // not ended while its next revision (3) is retained (through
            // commit 6), nor before it looks.
            if i < 2 {
                assert_eq!(slow.recv().await.unwrap().revision, Revision(i + 1));
            }
            assert_eq!(slow.lag_resume_from(), None);
        }
        assert!(
            slow.recv().await.is_none(),
            "fell off the window: stream ends"
        );
        assert_eq!(
            slow.lag_resume_from(),
            Some(2),
            "first missed revision is 3"
        );
        assert!(slow.try_recv().is_none(), "and stays ended");
        // Its next revision is gone by definition: the resume is a re-list.
        assert_eq!(
            s.watch_from(Revision(2)).unwrap_err(),
            Error::WatchTooOld {
                from: 2,
                oldest: 17
            }
        );
        let (objects, at) = s.list();
        assert_eq!((objects.len(), at), (20, Revision(20)));
        let mut resumed = s.watch_from(at).unwrap();
        s.create(k("after"), json!("x")).unwrap();
        assert_eq!(resumed.recv().await.unwrap().revision, Revision(21));
        assert_eq!(healthy.recv().await.unwrap().revision, Revision(21));
    }

    /// A watch that is never read costs the store nothing beyond its
    /// cursor: no queue grows behind it, neighbours are served at once,
    /// and its cutoff is counted once, when its consumer observes it.
    #[tokio::test]
    async fn cutoff_is_observed_by_the_reader_and_stalls_no_one() {
        let s = windowed("test/cut", 2);
        let cutoffs = metrics::global().counter(
            "knactor_store_watch_cutoffs_total",
            &[("store", "test/cut")],
        );
        let mut unread = s.watch().unwrap();
        for i in 0..10u64 {
            s.create(k(&format!("k{i}")), json!(i)).unwrap();
        }
        assert_eq!((unread.lag_resume_from(), cutoffs.get()), (None, 0));
        let mut fresh = s.watch_from(s.revision()).unwrap();
        s.create(k("after"), json!("x")).unwrap();
        assert_eq!(fresh.recv().await.unwrap().key, k("after"));
        assert!(unread.try_recv().is_none());
        assert!(unread.recv().await.is_none());
        assert_eq!((unread.lag_resume_from(), cutoffs.get()), (Some(0), 1));
    }

    /// The wake is once per batch that committed something — a batch of
    /// no-op patches (an integrator re-deriving unchanged state) wakes none
    /// of the store's watchers.
    #[test]
    fn a_batch_that_commits_nothing_wakes_no_one() {
        use std::future::Future;
        use std::task::{Context, Waker};
        let s = store();
        s.create(k("a"), json!({"x": 1})).unwrap();
        let mut wake = s.window.subscribe();
        let mut woken = || {
            let mut cx = Context::from_waker(Waker::noop());
            std::pin::pin!(wake.changed()).poll(&mut cx).is_ready()
        };
        let unchanged = || BatchOp::Patch {
            key: k("a"),
            patch: json!({"x": 1}),
            upsert: false,
        };
        s.apply_batch(vec![unchanged()]).unwrap();
        assert!(!woken(), "no commit, no wake");
        let create = BatchOp::Create {
            key: k("b"),
            value: json!(2),
        };
        s.apply_batch(vec![unchanged(), create]).unwrap();
        assert!(woken());
        assert!(!woken(), "one wake per batch");
    }

    /// `revision_reached` waits on the commit wake, not on a timer: it
    /// returns for a revision already applied and for one applied later.
    #[tokio::test]
    async fn revision_reached_wakes_on_commit() {
        let s = Arc::new(store());
        s.create(k("a"), json!(1)).unwrap();
        assert_eq!(s.revision_reached(Revision(1)).await, Revision(1));
        let waiter = {
            let s = Arc::clone(&s);
            tokio::spawn(async move { s.revision_reached(Revision(3)).await })
        };
        s.create(k("b"), json!(2)).unwrap();
        s.create(k("c"), json!(3)).unwrap();
        assert_eq!(waiter.await.unwrap(), Revision(3));
    }
}
