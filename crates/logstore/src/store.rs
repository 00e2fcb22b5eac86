//! Append-only log stores and the exchange hosting them.
//!
//! Storage layout (see [`crate::segment`]): one mutable row-oriented
//! *active* segment plus a list of immutable *sealed* segments behind
//! `Arc`s. Appends only touch the active segment; readers snapshot the
//! sealed `Arc`s under the lock and materialize outside it; sealed
//! segments are re-encoded columnar off the lock and compacted in the
//! background ([`crate::compact`]).
//!
//! A [`TailRx`] is the one cursor of `knactor_types::window`, as an
//! Object-DE watch is: it reads bounded chunks after its position on demand
//! and waits on the store's one append wake, so a slow tailer holds at most
//! one chunk. The store supplies only [`Segments`], the read of up to n
//! records after a sequence number — the one walk over the sealed and the
//! active segments, which [`LogStore::read_from`] shares. A tail whose
//! unread records retention drops *ends* and says where it stopped; the
//! recovery (one typed [`TailEvent::Lagged`], then on from the horizon) is
//! the exchange's, in `knactor_net::stream::establish`.

use crate::compact::CompactionPolicy;
use crate::segment::SealedSegment;
use knactor_types::metrics::{self, Counter, Gauge};
use knactor_types::window::{Cursor, Retained, Window};
use knactor_types::{Error, Result, StoreId, Value};
use parking_lot::{Mutex, MutexGuard, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Weak};

/// One ingested record: a sequence number and a structured payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Per-store, strictly monotone, starting at 1.
    pub seq: u64,
    /// Arbitrary structured data (schema-on-read).
    pub fields: Value,
}

/// Tuning knobs for one store.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Records per segment before the active segment seals.
    pub segment_capacity: usize,
    /// Re-encode sealed segments into columnar form (off the lock).
    /// `false` keeps everything row-oriented — the seed layout, kept as a
    /// baseline for benchmarks and parity tests.
    pub columnar: bool,
    /// Merge runs of small sealed segments in the background.
    pub compaction: Option<CompactionPolicy>,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_capacity: 1024,
            columnar: true,
            compaction: None,
        }
    }
}

/// An append-only log store with tailing.
pub struct LogStore {
    id: StoreId,
    config: LogConfig,
    /// The retained segments and their one wake — the last assigned seq,
    /// announced after every append; tails park on it instead of owning
    /// per-tailer channels.
    window: Arc<Window<Segments>>,
    /// Self-handle so `&self` methods can hand background compaction tasks
    /// an owned reference.
    self_ref: Weak<LogStore>,
    /// Serializes background compaction (at most one task per store).
    compacting: AtomicBool,
    metrics: StoreMetrics,
}

/// Per-store instruments, registered once at construction so hot paths
/// only bump atomics.
struct StoreMetrics {
    /// `knactor_log_appends_total{store}`
    appends: Arc<Counter>,
    /// `knactor_log_compactions_total{store}`
    compactions: Arc<Counter>,
    /// `knactor_log_segments{store,kind}` for kind ∈ active|rows|columnar
    seg_active: Arc<Gauge>,
    seg_rows: Arc<Gauge>,
    seg_columnar: Arc<Gauge>,
    /// `knactor_log_retained_bytes{store}` (sealed payloads, approx)
    retained_bytes: Arc<Gauge>,
    /// `knactor_log_bytes_per_record{store}` (sealed payloads, approx)
    bytes_per_record: Arc<Gauge>,
}

/// The store's retained records — the sealed segments and the active one,
/// behind the store lock: what every tail reads.
pub struct Segments(Mutex<LogInner>);

#[derive(Default)]
struct LogInner {
    active: Vec<LogRecord>,
    sealed: Vec<Arc<SealedSegment>>,
    next_seq: u64,
    /// Maximum records retained (oldest sealed segments truncate first);
    /// `None` = unbounded.
    retain_max: Option<usize>,
    total: usize,
}

impl LogInner {
    /// First retained seq; `next_seq` when nothing is retained (i.e. the
    /// next record to arrive will be the oldest).
    fn oldest_seq(&self) -> u64 {
        if let Some(s) = self.sealed.first() {
            return s.first_seq();
        }
        self.active.first().map(|r| r.seq).unwrap_or(self.next_seq)
    }
}

impl Segments {
    /// Up to `max` retained records with `seq > after`, plus the oldest
    /// retained seq: the one walk over the sealed and the active segments.
    /// Sealed segments are snapshotted by `Arc` under the lock and
    /// materialized outside it, so big reads never stall appenders.
    fn walk(&self, after: u64, max: usize) -> (u64, Vec<LogRecord>) {
        let (oldest, sealed, active) = {
            let inner = self.0.lock();
            let mut need = max;
            let mut sealed = Vec::new();
            for s in inner.sealed.iter().filter(|s| s.last_seq() > after) {
                if need == 0 {
                    break;
                }
                let from = after.max(s.first_seq().saturating_sub(1));
                need = need.saturating_sub((s.last_seq() - from) as usize);
                sealed.push(Arc::clone(s));
            }
            // The active segment is dense too: skip straight to `after + 1`.
            let first = inner.active.first().map_or(u64::MAX, |r| r.seq);
            let skip = after.saturating_add(1).saturating_sub(first) as usize;
            let active = inner.active.iter().skip(skip).take(need).cloned();
            (inner.oldest_seq(), sealed, active.collect::<Vec<_>>())
        };
        let mut out = Vec::new();
        for s in &sealed {
            out.extend(s.records_from(after));
        }
        out.extend(active);
        out.truncate(max);
        (oldest, out)
    }
}

impl Retained for Segments {
    type Item = TailEvent;

    fn read_after(
        &self,
        after: u64,
        max: usize,
        out: &mut VecDeque<TailEvent>,
    ) -> std::result::Result<(), u64> {
        let (oldest, records) = self.walk(after, max);
        if after.saturating_add(1) < oldest {
            return Err(oldest);
        }
        out.extend(records.into_iter().map(TailEvent::Record));
        Ok(())
    }
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner();
        f.debug_struct("LogStore")
            .field("id", &self.id)
            .field("records", &inner.total)
            .field("sealed", &inner.sealed.len())
            .finish()
    }
}

impl LogStore {
    pub fn new(id: impl Into<StoreId>) -> Arc<LogStore> {
        LogStore::with_config(id, LogConfig::default())
    }

    pub fn with_config(id: impl Into<StoreId>, config: LogConfig) -> Arc<LogStore> {
        let id = id.into();
        let store = id.to_string();
        let labels: &[(&str, &str)] = &[("store", &store)];
        let reg = metrics::global();
        let metrics = StoreMetrics {
            appends: reg.counter("knactor_log_appends_total", labels),
            compactions: reg.counter("knactor_log_compactions_total", labels),
            seg_active: reg.gauge(
                "knactor_log_segments",
                &[("store", &store), ("kind", "active")],
            ),
            seg_rows: reg.gauge(
                "knactor_log_segments",
                &[("store", &store), ("kind", "rows")],
            ),
            seg_columnar: reg.gauge(
                "knactor_log_segments",
                &[("store", &store), ("kind", "columnar")],
            ),
            retained_bytes: reg.gauge("knactor_log_retained_bytes", labels),
            bytes_per_record: reg.gauge("knactor_log_bytes_per_record", labels),
        };
        let segments = Segments(Mutex::new(LogInner {
            next_seq: 1,
            ..Default::default()
        }));
        let window = Window::new(
            segments,
            reg.gauge("knactor_log_tail_depth", labels),
            reg.counter("knactor_log_tail_cutoffs_total", labels),
        );
        Arc::new_cyclic(|weak| LogStore {
            id,
            config,
            window,
            self_ref: weak.clone(),
            compacting: AtomicBool::new(false),
            metrics,
        })
    }

    pub fn id(&self) -> &StoreId {
        &self.id
    }

    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    fn inner(&self) -> MutexGuard<'_, LogInner> {
        self.window.retained().0.lock()
    }

    pub(crate) fn strong_opt(&self) -> Option<Arc<LogStore>> {
        self.self_ref.upgrade()
    }

    /// Bound retained records; excess oldest sealed segments are dropped
    /// on the next append. Tails that already read those records are
    /// unaffected; a tail that had not falls off (see [`LogStore::tail`]).
    pub fn set_retention(&self, max_records: Option<usize>) {
        self.inner().retain_max = max_records;
    }

    fn wrap(fields: Value) -> Value {
        // Non-object payloads are wrapped as `{"value": …}` so
        // schema-on-read field access always has an object to address.
        match fields {
            Value::Object(_) => fields,
            other => serde_json::json!({ "value": other }),
        }
    }

    /// Ingest one record.
    pub fn append(&self, fields: Value) -> u64 {
        let fields = Self::wrap(fields);
        let mut sealed_new = None;
        let seq;
        {
            let mut inner = self.inner();
            seq = inner.next_seq;
            inner.next_seq += 1;
            inner.active.push(LogRecord { seq, fields });
            inner.total += 1;
            if inner.active.len() >= self.config.segment_capacity {
                sealed_new = self.seal_active_locked(&mut inner);
            }
            self.apply_retention_locked(&mut inner);
        }
        self.metrics.appends.inc();
        if let Some(seg) = sealed_new {
            self.after_seal(seg);
        }
        self.window.announce(seq);
        seq
    }

    /// Ingest a batch under one lock acquisition (retention runs once,
    /// after the whole batch); returns the sequence of the last record.
    pub fn append_batch(&self, batch: impl IntoIterator<Item = Value>) -> u64 {
        let mut sealed_new = Vec::new();
        let mut appended: u64 = 0;
        let last;
        {
            let mut inner = self.inner();
            last = {
                let mut last = inner.next_seq.saturating_sub(1);
                for fields in batch {
                    let fields = Self::wrap(fields);
                    let seq = inner.next_seq;
                    inner.next_seq += 1;
                    inner.active.push(LogRecord { seq, fields });
                    inner.total += 1;
                    if inner.active.len() >= self.config.segment_capacity {
                        sealed_new.extend(self.seal_active_locked(&mut inner));
                    }
                    last = seq;
                    appended += 1;
                }
                last
            };
            self.apply_retention_locked(&mut inner);
        }
        self.metrics.appends.add(appended);
        for seg in sealed_new {
            self.after_seal(seg);
        }
        if appended > 0 {
            self.window.announce(last);
        }
        last
    }

    fn seal_active_locked(&self, inner: &mut LogInner) -> Option<Arc<SealedSegment>> {
        if inner.active.is_empty() {
            return None;
        }
        let records = std::mem::take(&mut inner.active);
        let seg = Arc::new(SealedSegment::from_rows(records));
        inner.sealed.push(Arc::clone(&seg));
        self.update_gauges_locked(inner);
        Some(seg)
    }

    fn apply_retention_locked(&self, inner: &mut LogInner) {
        let Some(max) = inner.retain_max else { return };
        let mut changed = false;
        while inner.total > max && !inner.sealed.is_empty() {
            let dropped = inner.sealed.remove(0);
            inner.total -= dropped.len();
            changed = true;
        }
        if changed {
            self.update_gauges_locked(inner);
        }
    }

    /// Post-seal work done *off* the lock: columnar re-encode (spliced
    /// back via pointer identity, so a concurrent retention drop simply
    /// wins) and a background compaction kick.
    fn after_seal(&self, seg: Arc<SealedSegment>) {
        if self.config.columnar {
            if let Some(encoded) = seg.to_columnar() {
                self.replace_segment(&seg, Arc::new(encoded));
            }
        }
        crate::compact::maybe_spawn(self);
    }

    /// Swap `old` for `new` if `old` is still retained (pointer
    /// identity). Returns whether the swap happened.
    pub(crate) fn replace_segment(
        &self,
        old: &Arc<SealedSegment>,
        new: Arc<SealedSegment>,
    ) -> bool {
        let mut inner = self.inner();
        match inner.sealed.iter().position(|s| Arc::ptr_eq(s, old)) {
            Some(pos) => {
                inner.sealed[pos] = new;
                self.update_gauges_locked(&inner);
                true
            }
            None => false,
        }
    }

    /// Replace the contiguous run `old` (still retained, still adjacent)
    /// with the single merged segment `new`. Returns whether the splice
    /// happened (a concurrent retention drop aborts it).
    pub(crate) fn replace_run(&self, old: &[Arc<SealedSegment>], new: Arc<SealedSegment>) -> bool {
        let mut inner = self.inner();
        let Some(first) = old.first() else {
            return false;
        };
        let Some(pos) = inner.sealed.iter().position(|s| Arc::ptr_eq(s, first)) else {
            return false;
        };
        if pos + old.len() > inner.sealed.len() {
            return false;
        }
        for (i, o) in old.iter().enumerate() {
            if !Arc::ptr_eq(&inner.sealed[pos + i], o) {
                return false;
            }
        }
        inner.sealed.splice(pos..pos + old.len(), [new]);
        self.metrics.compactions.inc();
        self.update_gauges_locked(&inner);
        true
    }

    pub(crate) fn compacting_flag(&self) -> &AtomicBool {
        &self.compacting
    }

    /// Snapshot the sealed run for compaction candidate selection.
    pub(crate) fn sealed_snapshot(&self) -> Vec<Arc<SealedSegment>> {
        self.inner().sealed.clone()
    }

    fn update_gauges_locked(&self, inner: &LogInner) {
        let (mut rows, mut columnar, mut bytes, mut records) = (0i64, 0i64, 0usize, 0usize);
        for s in &inner.sealed {
            if s.is_columnar() {
                columnar += 1;
            } else {
                rows += 1;
            }
            bytes += s.bytes();
            records += s.len();
        }
        self.metrics
            .seg_active
            .set(i64::from(!inner.active.is_empty()));
        self.metrics.seg_rows.set(rows);
        self.metrics.seg_columnar.set(columnar);
        self.metrics.retained_bytes.set(bytes as i64);
        self.metrics
            .bytes_per_record
            .set(bytes.checked_div(records).unwrap_or(0) as i64);
    }

    /// All retained records with `seq > from`, in order (from the oldest
    /// retained one when `from` is behind the retention horizon).
    pub fn read_from(&self, from: u64) -> Vec<LogRecord> {
        self.window.retained().walk(from, usize::MAX).1
    }

    /// Everything retained.
    pub fn read_all(&self) -> Vec<LogRecord> {
        self.read_from(0)
    }

    /// Snapshot for query execution: sealed segments by `Arc` plus a
    /// clone of the (small, capacity-bounded) active tail.
    pub fn snapshot(&self) -> (Vec<Arc<SealedSegment>>, Vec<LogRecord>) {
        let inner = self.inner();
        (inner.sealed.clone(), inner.active.clone())
    }

    /// The sequence number of the most recent record (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.inner().next_seq - 1
    }

    /// First retained sequence number (`last_seq + 1` when empty).
    pub fn oldest_seq(&self) -> u64 {
        self.inner().oldest_seq()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner().total
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments `(total, columnar)` — observability and
    /// test hook.
    pub fn segment_counts(&self) -> (usize, usize) {
        let inner = self.inner();
        let columnar = inner.sealed.iter().filter(|s| s.is_columnar()).count();
        (inner.sealed.len(), columnar)
    }

    /// Approximate retained payload bytes across sealed segments.
    pub fn retained_bytes(&self) -> usize {
        self.inner().sealed.iter().map(|s| s.bytes()).sum()
    }

    /// Follow records with `seq > from`: what is retained, then each
    /// append as it lands. Once retention drops a record the tail had not
    /// read — or if `from + 1` is behind the horizon already — it ends and
    /// `lag_resume_from()` says where it stopped, as an Object-DE watch that
    /// falls off its window does (`knactor_log_tail_cutoffs_total`).
    pub fn tail(&self, from: u64) -> TailRx {
        self.window.cursor(from)
    }

    /// [`LogStore::tail`], refusing a `from` behind the retention horizon
    /// with [`Error::WatchTooOld`] instead of a tail that is over at once.
    pub fn tail_from(&self, from: u64) -> Result<TailRx> {
        self.window.open(from)
    }
}

/// One event from a log tail.
#[derive(Debug, Clone, PartialEq)]
pub enum TailEvent {
    Record(LogRecord),
    /// The `missed` records before `resume_from` were dropped by retention
    /// before this tail read them; the stream continues at `resume_from`.
    /// Said by the exchange's recovery of a tail that fell off
    /// (`knactor_net::stream::establish`), never by a store's own tail.
    Lagged {
        missed: u64,
        resume_from: u64,
    },
}

/// A log tail: the one [`Cursor`] over the store's segments. It holds at
/// most one chunk of records, so a slow consumer costs O(chunk) memory,
/// never an unbounded queue.
pub type TailRx = Cursor<Segments>;

/// Hosts many log stores (the Log DE of Fig. 4). Access control follows
/// the same model as the Object exchange; verbs map as ingest→`create`,
/// read/query/tail→`get`.
pub struct LogExchange {
    stores: RwLock<BTreeMap<StoreId, Arc<LogStore>>>,
    access: Arc<RwLock<knactor_rbac_shim::AccessShim>>,
}

/// Minimal indirection so the logstore crate does not depend on the rbac
/// crate directly (it is below it in the dependency order used by the
/// net layer); enforcement semantics are injected by the embedder.
mod knactor_rbac_shim {
    use knactor_types::StoreId;

    /// Injected permission oracle: `(subject, verb, store) -> allowed`.
    pub type CheckFn = Box<dyn Fn(&str, &str, &StoreId) -> bool + Send + Sync>;

    #[derive(Default)]
    pub struct AccessShim {
        check: Option<CheckFn>,
    }

    impl AccessShim {
        pub fn allows(&self, subject: &str, verb: &str, store: &StoreId) -> bool {
            match &self.check {
                Some(f) => f(subject, verb, store),
                None => true,
            }
        }

        pub fn set(&mut self, f: CheckFn) {
            self.check = Some(f);
        }
    }
}

impl Default for LogExchange {
    fn default() -> Self {
        LogExchange::new()
    }
}

impl LogExchange {
    pub fn new() -> LogExchange {
        LogExchange {
            stores: RwLock::new(BTreeMap::new()),
            access: Arc::new(RwLock::new(Default::default())),
        }
    }

    /// Install a permission oracle (wired to `knactor-rbac` by the
    /// embedding exchange server).
    pub fn set_access_check(
        &self,
        f: impl Fn(&str, &str, &StoreId) -> bool + Send + Sync + 'static,
    ) {
        self.access.write().set(Box::new(f));
    }

    pub fn create_store(&self, id: impl Into<StoreId>) -> Result<Arc<LogStore>> {
        self.create_store_with(id, LogConfig::default())
    }

    pub fn create_store_with(
        &self,
        id: impl Into<StoreId>,
        config: LogConfig,
    ) -> Result<Arc<LogStore>> {
        let id = id.into();
        let mut stores = self.stores.write();
        if stores.contains_key(&id) {
            return Err(Error::AlreadyExists(format!("log store {id}")));
        }
        let store = LogStore::with_config(id.clone(), config);
        stores.insert(id, Arc::clone(&store));
        Ok(store)
    }

    pub fn store(&self, id: &StoreId) -> Result<Arc<LogStore>> {
        self.stores
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("log store {id}")))
    }

    pub fn store_ids(&self) -> Vec<StoreId> {
        self.stores.read().keys().cloned().collect()
    }

    /// Ingest with access check.
    pub fn ingest(&self, subject: &str, id: &StoreId, fields: Value) -> Result<u64> {
        if !self.access.read().allows(subject, "create", id) {
            return Err(Error::Forbidden(format!(
                "{subject} may not ingest into {id}"
            )));
        }
        Ok(self.store(id)?.append(fields))
    }

    /// Ingest a batch with one access check (the check is per subject and
    /// store, not per record) and one store-lock acquisition.
    pub fn ingest_batch(&self, subject: &str, id: &StoreId, batch: Vec<Value>) -> Result<u64> {
        if !self.access.read().allows(subject, "create", id) {
            return Err(Error::Forbidden(format!(
                "{subject} may not ingest into {id}"
            )));
        }
        Ok(self.store(id)?.append_batch(batch))
    }

    /// Query with access check. Runs on the store's segment snapshot —
    /// columnar fast paths and per-segment parallelism included (see
    /// [`crate::query::Query::run_store`]).
    pub fn query(
        &self,
        subject: &str,
        id: &StoreId,
        query: &crate::query::Query,
    ) -> Result<Vec<Value>> {
        if !self.access.read().allows(subject, "get", id) {
            return Err(Error::Forbidden(format!("{subject} may not query {id}")));
        }
        {
            let store = self.store(id)?;
            query.run_store(&store)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn append_assigns_monotone_seqs() {
        let log = LogStore::new("motion/telemetry");
        assert_eq!(log.append(json!({"triggered": true})), 1);
        assert_eq!(log.append(json!({"triggered": false})), 2);
        assert_eq!(log.last_seq(), 2);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn non_object_payload_is_wrapped() {
        let log = LogStore::new("t");
        log.append(json!(42));
        assert_eq!(log.read_all()[0].fields, json!({"value": 42}));
    }

    #[test]
    fn read_from_filters_by_seq() {
        let log = LogStore::new("t");
        for i in 0..5 {
            log.append(json!({"i": i}));
        }
        let recs = log.read_from(3);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 4);
    }

    #[test]
    fn segment_rotation_preserves_order_and_encodes() {
        let log = LogStore::new("t");
        let cap = log.config().segment_capacity;
        let n = cap * 2 + 10;
        for i in 0..n {
            log.append(json!({"i": i, "kind": "telemetry"}));
        }
        let recs = log.read_all();
        assert_eq!(recs.len(), n);
        for (idx, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, idx as u64 + 1);
            assert_eq!(r.fields["i"], json!(idx));
        }
        // Sealed segments re-encoded columnar (default config).
        assert_eq!(log.segment_counts(), (2, 2));
    }

    #[test]
    fn row_mode_stays_row_oriented() {
        let log = LogStore::with_config(
            "t",
            LogConfig {
                segment_capacity: 8,
                columnar: false,
                ..Default::default()
            },
        );
        for i in 0..20 {
            log.append(json!({"i": i}));
        }
        assert_eq!(log.segment_counts(), (2, 0));
        assert_eq!(log.read_all().len(), 20);
    }

    #[test]
    fn retention_drops_oldest_segments() {
        let log = LogStore::new("t");
        let cap = log.config().segment_capacity;
        log.set_retention(Some(cap));
        for i in 0..(cap * 3) {
            log.append(json!({"i": i}));
        }
        assert!(log.len() <= cap * 2, "retention must bound growth");
        // Sequence numbers keep counting despite truncation.
        assert_eq!(log.last_seq(), (cap * 3) as u64);
        let first_retained = log.read_all()[0].seq;
        assert!(first_retained > 1);
        assert_eq!(log.oldest_seq(), first_retained);
    }

    /// The next tailed record's seq.
    async fn next_seq(rx: &mut TailRx) -> u64 {
        match rx.recv().await {
            Some(TailEvent::Record(r)) => r.seq,
            other => panic!("expected a record, got {other:?}"),
        }
    }

    #[tokio::test]
    async fn tail_replays_then_follows() {
        let log = LogStore::new("t");
        log.append(json!({"i": 0}));
        log.append(json!({"i": 1}));
        let mut rx = log.tail(1);
        // Replay of seq 2.
        assert_eq!(next_seq(&mut rx).await, 2);
        // Live append.
        log.append(json!({"i": 2}));
        assert_eq!(next_seq(&mut rx).await, 3);
    }

    /// Sealed segments, the active one and more than one read chunk.
    #[tokio::test]
    async fn tail_crosses_sealed_segments_and_chunks() {
        let log = LogStore::with_config(
            "t",
            LogConfig {
                segment_capacity: 4,
                ..Default::default()
            },
        );
        let n = knactor_types::window::CHUNK as u64 + 10;
        log.append_batch((0..n).map(|i| json!({ "i": i })));
        let mut rx = log.tail(0);
        for want in 1..=n {
            assert_eq!(next_seq(&mut rx).await, want);
        }
        log.append(json!({"i": n}));
        assert_eq!(next_seq(&mut rx).await, n + 1);
    }

    /// Retention passing a tail's position is the one fall-off contract:
    /// the tail ends, says where it stopped and is counted, and re-opening
    /// from there is refused with the horizon.
    #[tokio::test]
    async fn a_tail_retention_passes_ends_and_says_where() {
        let log = LogStore::with_config(
            "t/cut",
            LogConfig {
                segment_capacity: 4,
                ..Default::default()
            },
        );
        let cutoffs = knactor_types::metrics::global()
            .counter("knactor_log_tail_cutoffs_total", &[("store", "t/cut")]);
        log.append(json!({"i": 0}));
        let mut rx = log.tail(0);
        assert_eq!(next_seq(&mut rx).await, 1);
        log.set_retention(Some(4));
        log.append_batch((1..20).map(|i| json!({ "i": i })));
        let oldest = log.oldest_seq();
        assert!(oldest > 2, "retention should have truncated");
        assert_eq!(rx.recv().await, None);
        assert_eq!(rx.lag_resume_from(), Some(1));
        assert_eq!(cutoffs.get(), 1);
        assert_eq!(
            log.tail_from(1).unwrap_err(),
            Error::WatchTooOld { from: 1, oldest }
        );
        let mut resumed = log.tail_from(oldest - 1).unwrap();
        assert_eq!(next_seq(&mut resumed).await, oldest);
    }

    #[tokio::test]
    async fn opening_behind_the_horizon_is_too_old() {
        let log = LogStore::with_config(
            "t",
            LogConfig {
                segment_capacity: 2,
                ..Default::default()
            },
        );
        log.set_retention(Some(2));
        for i in 0..10 {
            log.append(json!({"i": i}));
        }
        let oldest = log.oldest_seq();
        assert_eq!(
            log.tail_from(0).unwrap_err(),
            Error::WatchTooOld { from: 0, oldest }
        );
        // The infallible opener hands back a tail that is already over.
        let mut rx = log.tail(0);
        assert_eq!(rx.recv().await, None);
        assert_eq!(rx.lag_resume_from(), Some(0));
        // `read_from` is the same walk, unbounded and clamped to the horizon.
        assert_eq!(log.read_from(0)[0].seq, oldest);
    }

    #[test]
    fn exchange_create_and_lookup() {
        let de = LogExchange::new();
        de.create_store("motion/telemetry").unwrap();
        assert!(de.create_store("motion/telemetry").is_err());
        assert!(de.store(&StoreId::new("motion/telemetry")).is_ok());
        assert!(de.store(&StoreId::new("nope")).is_err());
        assert_eq!(de.store_ids().len(), 1);
    }

    #[test]
    fn exchange_access_check_enforced() {
        let de = LogExchange::new();
        de.create_store("lamp/telemetry").unwrap();
        let id = StoreId::new("lamp/telemetry");
        // Open by default.
        de.ingest("anyone", &id, json!({"kwh": 0.2})).unwrap();
        // Install an oracle that only lets the lamp reconciler ingest.
        de.set_access_check(|subject, verb, store| {
            !(verb == "create"
                && store.as_str() == "lamp/telemetry"
                && subject != "reconciler:lamp")
        });
        assert!(de
            .ingest("reconciler:lamp", &id, json!({"kwh": 0.3}))
            .is_ok());
        assert!(matches!(
            de.ingest("integrator:sync", &id, json!({"kwh": 0.4})),
            Err(Error::Forbidden(_))
        ));
    }
}
