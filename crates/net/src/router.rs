//! The sharded multi-node exchange: N independent shard nodes behind one
//! [`Exchange`].
//!
//! A [`ShardRouter`] owns a versioned [`ShardMap`] plus one child
//! [`Exchange`] per shard node, and is a routing table over [`Request`]s:
//!
//! * **Key-routed ops** (create/get/update/patch/delete, consumer
//!   registration) go to the shard that owns `(store, key)` under the
//!   map's consistent hash.
//! * **Batches** are split by owning shard, scatter-gathered
//!   concurrently, and merged back **in input order**. A shard that fails
//!   wholesale (down, timed out, shed) surfaces as typed per-item errors
//!   for *its* items only — never a whole-batch abort — so callers keep
//!   the per-item recovery semantics they already have.
//! * **Watches** merge the per-shard revision streams into one
//!   subscription carrying dense *virtual* revisions (see below); it ends
//!   as soon as any shard's stream ends.
//! * **Store-routed ops**: a Log-DE store lives whole on one shard (its
//!   dense append sequence cannot be split), so every `log_*` call routes
//!   by store id.
//! * **Broadcast ops**: store/schema/UDF registration goes to every
//!   shard, since keys of any store may land anywhere.
//! * **Single-shard-only ops**: `transact` and `execute_udf` are atomic
//!   *within* one shard; a request whose keys span shards is rejected
//!   with a typed error rather than executed non-atomically.
//!
//! ## Virtual revisions
//!
//! Each shard's store revision is dense (+1 per commit), but a merged
//! subscription needs one ordered counter. The router numbers merged
//! events 1, 2, 3, … in delivery order and reports `list()` revisions as
//! the **sum** of the shard revisions — the two agree because every
//! commit bumps exactly one shard by exactly one. Resume cursors are the
//! per-shard revision vector behind a virtual revision; the router
//! remembers the decompositions it has handed out (via `list` or
//! delivered events) and a `watch(from)` for a revision it no longer
//! remembers returns [`Error::WatchTooOld`], pushing the caller through
//! the standard list-then-watch fallback that `ResilientClient` and Cast
//! already implement.
//!
//! Because per-shard children are themselves `Exchange` values, the
//! router composes with the rest of the stack: over TCP each child is
//! typically a [`crate::ResilientClient`] (per-shard retry, lost-ack
//! recovery, and watch resume — so one flaky shard is retried without
//! re-sending the other shards' sub-batches) or a whole
//! [`crate::ReplicaRouter`] (a replica set per shard).

use crate::api::{misrouted, watch_event, BoxFuture, Exchange, ExchangeApi};
use crate::client::{ResilientClient, RetryPolicy, TcpClient};
use crate::proto::{EventBody, Request, Response};
use crate::server::ExchangeServer;
use crate::stream::{Merge, Stream, Subscription};
use knactor_logstore::LogExchange;
use knactor_rbac::Subject;
use knactor_store::{BatchOp, DataExchange, ItemResult, ShardMap, WatchEvent};
use knactor_types::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use knactor_types::{Error, ObjectKey, Result, Revision, StoreId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{ready, Context, Poll};

/// Virtual-revision decompositions remembered per store. Bounded so a
/// long-lived router doesn't grow without limit; a resume point older
/// than the window surfaces as `WatchTooOld` (the same contract a
/// single store's bounded watch history has).
const CURSOR_CACHE_CAP: usize = 8192;

type CursorCache = Mutex<HashMap<StoreId, BTreeMap<u64, Vec<u64>>>>;

fn remember_cursor(cache: &CursorCache, store: &StoreId, virtual_rev: u64, shard_revs: Vec<u64>) {
    let mut guard = cache.lock();
    let per_store = guard.entry(store.clone()).or_default();
    per_store.insert(virtual_rev, shard_revs);
    while per_store.len() > CURSOR_CACHE_CAP {
        per_store.pop_first();
    }
}

/// One logical exchange spread over N shard nodes.
pub struct ShardRouter {
    map: Arc<ShardMap>,
    shards: Vec<Arc<dyn Exchange>>,
    cursors: Arc<CursorCache>,
}

impl ShardRouter {
    /// Route through the given per-shard clients. The client at index
    /// `i` must reach the node named `map.nodes()[i]`. Panics on a
    /// count mismatch; [`ShardRouter::try_new`] returns it typed.
    pub fn new(map: ShardMap, shards: Vec<Arc<dyn Exchange>>) -> ShardRouter {
        ShardRouter::try_new(map, shards).expect("shard map / client count mismatch")
    }

    /// [`ShardRouter::new`] with the topology-mismatch failure surfaced
    /// as a typed error instead of a panic — the form control planes
    /// want when the map comes from configuration rather than code.
    ///
    /// Note the map is **pinned at construction**: a `rebalanced()`
    /// successor map is a new topology and needs a new router (plus a
    /// data migration this layer does not perform — see DESIGN.md §9).
    /// Mid-flight topology changes therefore surface as this typed
    /// error at the next construction, never as a silent misroute.
    pub fn try_new(map: ShardMap, shards: Vec<Arc<dyn Exchange>>) -> Result<ShardRouter> {
        if map.shard_count() != shards.len() {
            return Err(Error::Internal(format!(
                "shard map names {} nodes but {} clients were supplied",
                map.shard_count(),
                shards.len()
            )));
        }
        Ok(ShardRouter {
            map: Arc::new(map),
            shards,
            cursors: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// A fully in-process sharded exchange: N loopback shard nodes, each
    /// with its own `DataExchange`/`LogExchange` (and WAL directory).
    pub fn in_process(
        shards: usize,
        subject: Subject,
    ) -> (Vec<Arc<DataExchange>>, Vec<Arc<LogExchange>>, ShardRouter) {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let base = std::env::temp_dir().join(format!(
            "knactor-shards-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut objects = Vec::with_capacity(shards);
        let mut logs = Vec::with_capacity(shards);
        let mut clients: Vec<Arc<dyn Exchange>> = Vec::with_capacity(shards);
        for i in 0..shards {
            let object = Arc::new(DataExchange::new());
            let log = Arc::new(LogExchange::new());
            let client = crate::loopback::LoopbackClient::new(
                Arc::clone(&object),
                Arc::clone(&log),
                subject.clone(),
            )
            .with_data_dir(base.join(format!("shard-{i}")));
            objects.push(object);
            logs.push(log);
            clients.push(Arc::new(client));
        }
        (
            objects,
            logs,
            ShardRouter::new(ShardMap::uniform(shards), clients),
        )
    }

    /// Route over plain [`TcpClient`]s, one per shard address.
    pub async fn connect_tcp(
        map: ShardMap,
        addrs: &[SocketAddr],
        subject: Subject,
    ) -> Result<ShardRouter> {
        let mut shards: Vec<Arc<dyn Exchange>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Arc::new(TcpClient::connect(*addr, subject.clone()).await?));
        }
        Ok(ShardRouter::new(map, shards))
    }

    /// Route over per-shard [`ResilientClient`]s: each shard gets its own
    /// retry/backoff state and watch-resume machinery, so a fault on one
    /// shard retries only that shard's traffic.
    pub async fn connect_resilient(
        map: ShardMap,
        addrs: &[SocketAddr],
        subject: Subject,
        policy: RetryPolicy,
    ) -> Result<ShardRouter> {
        let mut shards: Vec<Arc<dyn Exchange>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Arc::new(
                ResilientClient::connect(*addr, subject.clone(), policy).await?,
            ));
        }
        Ok(ShardRouter::new(map, shards))
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard client owning `(store, key)` — exposed for tests that
    /// need to aim a fault at the right node.
    pub fn shard_of_key(&self, store: &StoreId, key: &ObjectKey) -> usize {
        self.map.owner_of_key(store.as_str(), key.as_str())
    }

    pub fn shard_of_store(&self, store: &StoreId) -> usize {
        self.map.owner_of_store(store.as_str())
    }

    /// The one shard every `(store, key)` of an atomic request lives on
    /// (shard 0 for an empty request), or the typed cross-shard refusal.
    fn single_shard<'a>(
        &self,
        what: &str,
        mut keys: impl Iterator<Item = (&'a StoreId, &'a ObjectKey)>,
    ) -> Result<usize> {
        let Some((first_store, first_key)) = keys.next() else {
            return Ok(0);
        };
        let shard = self.shard_of_key(first_store, first_key);
        for (store, key) in keys {
            let s = self.shard_of_key(store, key);
            if s != shard {
                return Err(Error::Internal(format!(
                    "cross-shard {what}: {first_store}/{first_key} lives on shard {shard} but \
                     {store}/{key} on shard {s}; it executes atomically only within one shard"
                )));
            }
        }
        Ok(shard)
    }

    /// Split a batch by owning shard and scatter it; `call` runs one
    /// shard's sub-batch.
    async fn scatter_by_key<P, F>(
        &self,
        store: &StoreId,
        payloads: Vec<P>,
        key_of: fn(&P) -> &ObjectKey,
        call: F,
    ) -> Response
    where
        P: Send + 'static,
        F: Fn(Arc<dyn Exchange>, Vec<P>) -> BoxFuture<'static, Result<Vec<ItemResult>>>,
    {
        let total = payloads.len();
        let mut chunks: Vec<Vec<(usize, P)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, payload) in payloads.into_iter().enumerate() {
            chunks[self.shard_of_key(store, key_of(&payload))].push((i, payload));
        }
        Response::Batch {
            items: self.scatter_items(total, chunks, call).await,
        }
    }

    /// Scatter a batch split across shards and merge per-item results
    /// back in input order. `chunks[i]` holds (input index, payload)
    /// pairs for shard `i`; `call` runs one shard's sub-batch.
    async fn scatter_items<P, F>(
        &self,
        total: usize,
        chunks: Vec<Vec<(usize, P)>>,
        call: F,
    ) -> Vec<ItemResult>
    where
        P: Send + 'static,
        F: Fn(Arc<dyn Exchange>, Vec<P>) -> BoxFuture<'static, Result<Vec<ItemResult>>>,
    {
        // Fast path: the whole batch lands on one shard (the common case
        // for partition-aligned producers and small key ranges). Call it
        // inline — no task spawn, no index remap, one wire round trip.
        if chunks.iter().filter(|c| !c.is_empty()).count() == 1 {
            let (shard, chunk) = chunks
                .into_iter()
                .enumerate()
                .find(|(_, c)| !c.is_empty())
                .expect("one non-empty chunk");
            let payloads: Vec<P> = chunk.into_iter().map(|(_, p)| p).collect();
            return match call(Arc::clone(&self.shards[shard]), payloads).await {
                Ok(items) if items.len() == total => items,
                Ok(_) => (0..total)
                    .map(|_| {
                        ItemResult::from_error(&Error::Internal(
                            "shard returned a short batch".into(),
                        ))
                    })
                    .collect(),
                Err(e) => (0..total).map(|_| ItemResult::from_error(&e)).collect(),
            };
        }

        let mut handles = Vec::new();
        for (shard, chunk) in chunks.into_iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            let (idxs, payloads): (Vec<usize>, Vec<P>) = chunk.into_iter().unzip();
            let fut = call(Arc::clone(&self.shards[shard]), payloads);
            handles.push((idxs, tokio::spawn(fut)));
        }
        let mut out: Vec<Option<ItemResult>> = (0..total).map(|_| None).collect();
        for (idxs, handle) in handles {
            let result = handle
                .await
                .unwrap_or_else(|_| Err(Error::Internal("shard sub-batch task died".into())));
            match result {
                Ok(items) => {
                    let mut items = items.into_iter();
                    for &i in &idxs {
                        out[i] = Some(items.next().unwrap_or_else(|| {
                            ItemResult::from_error(&Error::Internal(
                                "shard returned a short batch".into(),
                            ))
                        }));
                    }
                }
                // The whole sub-batch failed (shard down, timed out,
                // shed): typed per-item errors for this shard's items
                // only; the other shards' results stand.
                Err(e) => {
                    for &i in &idxs {
                        out[i] = Some(ItemResult::from_error(&e));
                    }
                }
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every input index assigned to exactly one shard"))
            .collect()
    }
}

impl ShardRouter {
    async fn scatter_commit(&self, store: StoreId, ops: Vec<BatchOp>) -> Response {
        let target = store.clone();
        let call = move |api: Arc<dyn Exchange>, ops| -> BoxFuture<'static, _> {
            let store = target.clone();
            Box::pin(async move { api.batch_commit(store, ops).await })
        };
        self.scatter_by_key(&store, ops, BatchOp::key, call).await
    }

    /// Scatter-gathered listing with the virtual (summed) revision.
    async fn gather_list(&self, store: StoreId) -> Result<Response> {
        let mut handles = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let api = Arc::clone(shard);
            let store = store.clone();
            handles.push(tokio::spawn(async move { api.list(store).await }));
        }
        let mut objects = Vec::new();
        let mut shard_revs = vec![0u64; self.shards.len()];
        for (i, handle) in handles.into_iter().enumerate() {
            let (objs, rev) = handle
                .await
                .unwrap_or_else(|_| Err(Error::Internal("shard list task died".into())))?;
            shard_revs[i] = rev.0;
            objects.extend(objs);
        }
        objects.sort_by(|a, b| a.key.cmp(&b.key));
        let virtual_rev: u64 = shard_revs.iter().sum();
        // A listing is a resume point: remember its decomposition so
        // the list-then-watch fallback can pick up from here.
        remember_cursor(&self.cursors, &store, virtual_rev, shard_revs);
        Ok(Response::Objects {
            objects,
            revision: Revision(virtual_rev),
        })
    }

    /// One subscription over every shard's stream, renumbered with dense
    /// virtual revisions (module docs).
    async fn merged_watch(&self, store: StoreId, from: Revision) -> Result<Subscription> {
        let shard_revs: Vec<u64> = if from.0 == 0 {
            vec![0; self.shards.len()]
        } else {
            let cursors = self.cursors.lock();
            let per_store = cursors.get(&store);
            match per_store.and_then(|per| per.get(&from.0)) {
                Some(revs) => revs.clone(),
                // We no longer remember how `from` decomposes into
                // per-shard cursors; send the caller through the standard
                // re-list fallback (its `list` will seed a fresh
                // decomposition).
                None => {
                    return Err(Error::WatchTooOld {
                        from: from.0,
                        oldest: per_store
                            .and_then(|per| per.keys().next().copied())
                            .unwrap_or(0),
                    })
                }
            }
        };
        // Every shard is subscribed before anything is delivered, so no
        // shard's events race the subscription of another.
        let mut members = Vec::with_capacity(shard_revs.len());
        for (shard, &cursor) in self.shards.iter().zip(&shard_revs) {
            let store = store.clone();
            let from = Revision(cursor);
            members.push(shard.open(Request::Watch { store, from }).await?);
        }
        Ok(Subscription::new(MergedWatch {
            shards: Merge::new(members, watch_event),
            store,
            cursors: Arc::clone(&self.cursors),
            shard_revs,
            virtual_rev: from.0,
        }))
    }
}

/// The shard watches of one store merged (ending when any shard's stream
/// ends, so the consumer re-opens from its cursor instead of going deaf on
/// that shard) and renumbered in delivery order.
struct MergedWatch {
    shards: Merge<WatchEvent>,
    store: StoreId,
    cursors: Arc<CursorCache>,
    shard_revs: Vec<u64>,
    virtual_rev: u64,
}

impl Stream for MergedWatch {
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
        let Some((shard, mut event)) = ready!(self.shards.poll_next(cx)) else {
            return Poll::Ready(None);
        };
        self.shard_revs[shard] = event.revision.0;
        self.virtual_rev += 1;
        event.revision = Revision(self.virtual_rev);
        let decomposition = self.shard_revs.clone();
        remember_cursor(&self.cursors, &self.store, self.virtual_rev, decomposition);
        Poll::Ready(Some(EventBody::Object { event }))
    }
}

/// The routing table: where each [`Request`] goes.
impl Exchange for ShardRouter {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(async move {
            // Batches: split by owning shard, scattered concurrently, merged
            // back in input order. (A put is a patch op: one path for both.)
            let request = match request {
                Request::BatchGet { store, keys } => {
                    let target = store.clone();
                    let call = move |api: Arc<dyn Exchange>, keys| -> BoxFuture<'static, _> {
                        let store = target.clone();
                        Box::pin(async move { api.batch_get(store, keys).await })
                    };
                    return Ok(self.scatter_by_key(&store, keys, |key| key, call).await);
                }
                Request::BatchPut { store, items } => {
                    let ops = items.into_iter().map(BatchOp::from).collect();
                    return Ok(self.scatter_commit(store, ops).await);
                }
                Request::BatchCommit { store, ops } => {
                    return Ok(self.scatter_commit(store, ops).await)
                }
                other => other,
            };
            match &request {
                // Key-routed: the shard owning `(store, key)`.
                Request::Create { store, key, .. }
                | Request::Get { store, key }
                | Request::Update { store, key, .. }
                | Request::Patch { store, key, .. }
                | Request::Delete { store, key }
                | Request::RegisterConsumer { store, key, .. }
                | Request::MarkProcessed { store, key, .. } => {
                    let shard = self.shard_of_key(store, key);
                    self.shards[shard].call(request).await
                }
                // Store-routed: a Log-DE store lives whole on one shard.
                Request::LogCreateStore { store }
                | Request::LogAppend { store, .. }
                | Request::LogAppendBatch { store, .. }
                | Request::LogRead { store, .. }
                | Request::LogQuery { store, .. } => {
                    let shard = self.shard_of_store(store);
                    self.shards[shard].call(request).await
                }
                // Broadcast: every shard may come to own this store's keys.
                Request::Ping
                | Request::CreateStore { .. }
                | Request::RegisterSchema { .. }
                | Request::BindSchema { .. }
                | Request::RegisterUdf { .. } => {
                    let mut last = Response::Ok;
                    for shard in &self.shards {
                        last = shard.call(request.clone()).await?;
                    }
                    Ok(last)
                }
                // Registration broadcast to all shards, so any shard can answer.
                Request::GetSchema { .. } => self.shards[0].call(request).await,
                // Scatter-gather, merged back in input order.
                Request::List { store } => self.gather_list(store.clone()).await,
                Request::Metrics => {
                    let mut parts = Vec::with_capacity(self.shards.len());
                    for shard in &self.shards {
                        parts.push(shard.metrics().await?);
                    }
                    Ok(Response::Metrics {
                        snapshot: merge_snapshots(parts),
                    })
                }
                // Single-shard-only: atomic within one shard, refused across.
                Request::Transact { ops } => {
                    let keys = ops.iter().map(|op| (&op.store, &op.key));
                    let shard = self.single_shard("transact", keys)?;
                    self.shards[shard].call(request).await
                }
                Request::ExecuteUdf { name, bindings } => {
                    let keys = bindings.iter().map(|b| (&b.store, &b.key));
                    let shard = self.single_shard(&format!("udf {name}"), keys)?;
                    self.shards[shard].call(request).await
                }
                // Replication control and subscription teardown address one
                // node, not a logical exchange.
                _ => Err(misrouted(&request, "ShardRouter::call")),
            }
        })
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        match request {
            Request::Watch { store, from } => Box::pin(self.merged_watch(store, from)),
            // A Log-DE store lives whole on one shard.
            Request::LogTail { ref store, .. } => {
                self.shards[self.shard_of_store(store)].open(request)
            }
            // Replication feeds address one node.
            other => Box::pin(async move { Err(misrouted(&other, "ShardRouter::open")) }),
        }
    }
}

/// Merge per-shard registry snapshots into one cluster view: counters and
/// gauges sum by (name, labels); histograms with identical bounds add
/// bucket-wise. (When shards are colocated in one test process they share
/// one registry, so the merge multiplies by the shard count — in the
/// deployment this models, each shard node is its own process.)
pub fn merge_snapshots(parts: Vec<MetricsSnapshot>) -> MetricsSnapshot {
    let mut counters: BTreeMap<(String, Vec<(String, String)>), u64> = BTreeMap::new();
    let mut gauges: BTreeMap<(String, Vec<(String, String)>), i64> = BTreeMap::new();
    let mut histograms: BTreeMap<(String, Vec<(String, String)>), HistogramSnapshot> =
        BTreeMap::new();
    for part in parts {
        for c in part.counters {
            *counters.entry((c.name, c.labels)).or_insert(0) += c.value;
        }
        for g in part.gauges {
            *gauges.entry((g.name, g.labels)).or_insert(0) += g.value;
        }
        for h in part.histograms {
            match histograms.entry((h.name.clone(), h.labels.clone())) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(h);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let acc = slot.get_mut();
                    if acc.bounds_ns == h.bounds_ns && acc.buckets.len() == h.buckets.len() {
                        for (a, b) in acc.buckets.iter_mut().zip(&h.buckets) {
                            *a += b;
                        }
                        acc.count += h.count;
                        acc.sum_ns += h.sum_ns;
                        acc.min_ns = acc.min_ns.min(h.min_ns);
                        acc.max_ns = acc.max_ns.max(h.max_ns);
                    }
                }
            }
        }
    }
    MetricsSnapshot {
        counters: counters
            .into_iter()
            .map(|((name, labels), value)| CounterSnapshot {
                name,
                labels,
                value,
            })
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|((name, labels), value)| GaugeSnapshot {
                name,
                labels,
                value,
            })
            .collect(),
        histograms: histograms.into_values().collect(),
    }
}

/// A multi-node exchange for tests, benches, and `knactorctl serve`: N
/// [`ExchangeServer`]s (each its own `DataExchange` + `LogExchange` +
/// WAL directory — a shard *node*) plus the [`ShardMap`] naming them.
pub struct ShardedExchange {
    servers: Vec<ExchangeServer>,
    map: ShardMap,
}

impl ShardedExchange {
    /// Launch `shards` nodes on ephemeral localhost ports.
    pub async fn launch(shards: usize) -> Result<ShardedExchange> {
        let mut servers = Vec::with_capacity(shards);
        for _ in 0..shards {
            servers.push(ExchangeServer::bind_ephemeral().await?);
        }
        Ok(ShardedExchange {
            servers,
            map: ShardMap::uniform(shards),
        })
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.local_addr()).collect()
    }

    pub fn servers(&self) -> &[ExchangeServer] {
        &self.servers
    }

    /// A plain-TCP router onto this exchange.
    pub async fn client(&self, subject: Subject) -> Result<ShardRouter> {
        ShardRouter::connect_tcp(self.map.clone(), &self.addrs(), subject).await
    }

    /// A router over per-shard resilient clients.
    pub async fn resilient_client(
        &self,
        subject: Subject,
        policy: RetryPolicy,
    ) -> Result<ShardRouter> {
        ShardRouter::connect_resilient(self.map.clone(), &self.addrs(), subject, policy).await
    }

    pub async fn shutdown(self) {
        for server in self.servers {
            server.shutdown().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProfileSpec;
    use knactor_store::TxOp;
    use serde_json::json;

    fn key(i: u64) -> ObjectKey {
        ObjectKey::new(format!("k-{i}"))
    }

    #[tokio::test]
    async fn key_ops_round_trip_through_the_router() {
        let (_, _, router) = ShardRouter::in_process(4, Subject::integrator("t"));
        let store = StoreId::new("r/state");
        router
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        for i in 0..32 {
            router
                .create(store.clone(), key(i), json!({"n": i}))
                .await
                .unwrap();
        }
        for i in 0..32 {
            let obj = router.get(store.clone(), key(i)).await.unwrap();
            assert_eq!(obj.value["n"], json!(i));
        }
        let (objects, revision) = router.list(store.clone()).await.unwrap();
        assert_eq!(objects.len(), 32);
        assert_eq!(
            revision,
            Revision(32),
            "virtual revision sums shard revisions"
        );
        // The listing is key-sorted like a single store's.
        let mut keys: Vec<_> = objects.iter().map(|o| o.key.clone()).collect();
        let sorted = {
            let mut k = keys.clone();
            k.sort();
            k
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), 32);
    }

    #[tokio::test]
    async fn writes_actually_spread_across_shards() {
        let (objects, _, router) = ShardRouter::in_process(4, Subject::integrator("t"));
        let store = StoreId::new("spread/state");
        router
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        for i in 0..64 {
            router
                .create(store.clone(), key(i), json!({"n": i}))
                .await
                .unwrap();
        }
        let populated = objects
            .iter()
            .filter(|o| o.store(&store).map(|s| s.len() > 0).unwrap_or(false))
            .count();
        assert!(
            populated >= 3,
            "64 keys landed on only {populated} of 4 shards"
        );
    }

    #[tokio::test]
    async fn watch_from_forgotten_revision_is_watch_too_old() {
        let (_, _, router) = ShardRouter::in_process(2, Subject::integrator("t"));
        let store = StoreId::new("old/state");
        router
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        // Revision 7 was never handed out by this router.
        let err = router.watch(store.clone(), Revision(7)).await.unwrap_err();
        assert!(matches!(err, Error::WatchTooOld { from: 7, .. }), "{err}");
        // After a list, the listing revision is a valid resume point.
        router
            .create(store.clone(), key(1), json!({"n": 1}))
            .await
            .unwrap();
        let (_, revision) = router.list(store.clone()).await.unwrap();
        router.watch(store.clone(), revision).await.unwrap();
    }

    #[tokio::test]
    async fn batches_split_and_merge_in_input_order() {
        let (_, _, router) = ShardRouter::in_process(4, Subject::integrator("t"));
        let store = StoreId::new("b/state");
        router
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        let ops: Vec<BatchOp> = (0..40)
            .map(|i| BatchOp::Create {
                key: key(i),
                value: json!({"n": i}),
            })
            .collect();
        let items = router.batch_commit(store.clone(), ops).await.unwrap();
        assert_eq!(items.len(), 40);
        assert!(items.iter().all(|i| !i.is_err()));
        // Mixed batch: an existing create fails per-item, the rest land.
        let ops = vec![
            BatchOp::Create {
                key: key(0),
                value: json!({"dup": true}),
            },
            BatchOp::Patch {
                key: key(1),
                patch: json!({"patched": true}),
                upsert: false,
            },
            BatchOp::Delete { key: key(2) },
        ];
        let items = router.batch_commit(store.clone(), ops).await.unwrap();
        assert_eq!(
            items[0].as_error().map(|e| e.code()),
            Some("already_exists"),
            "{items:?}"
        );
        assert!(!items[1].is_err());
        assert!(!items[2].is_err());
        // Reads come back in request order, misses as typed items.
        let results = router
            .batch_get(store.clone(), vec![key(1), key(2), key(3)])
            .await
            .unwrap();
        assert_eq!(
            results[0].clone().into_object().unwrap().value["patched"],
            json!(true)
        );
        assert_eq!(results[1].as_error().map(|e| e.code()), Some("not_found"));
        assert_eq!(
            results[2].clone().into_object().unwrap().value["n"],
            json!(3)
        );
    }

    /// Set `x` on every key of `writes` in one atomic op: a transaction,
    /// or a UDF that binds every key (what a pushdown Cast edge runs).
    async fn set_atomically(
        router: &ShardRouter,
        op: &str,
        store: &StoreId,
        writes: &[(&ObjectKey, u64)],
    ) -> Result<()> {
        match op {
            "transact" => {
                let ops = writes.iter().map(|(key, x)| TxOp {
                    store: store.clone(),
                    key: (*key).clone(),
                    patch: json!({"x": x}),
                    upsert: true,
                    expected: None,
                });
                router.transact(ops.collect()).await.map(drop)
            }
            "execute_udf" => {
                let alias = |i: usize| format!("K{i}");
                let assignments = writes.iter().enumerate().map(|(i, (_, x))| {
                    knactor_store::udf::UdfAssignment {
                        target_alias: alias(i),
                        target_path: "x".to_string(),
                        expr: x.to_string(),
                    }
                });
                let inputs = (0..writes.len()).map(alias).collect();
                let name = "set-x".to_string();
                let registered = router.register_udf(name.clone(), inputs, assignments.collect());
                registered.await?;
                let bindings = writes.iter().enumerate().map(|(i, (key, _))| {
                    knactor_store::UdfBinding::new(alias(i), store.clone(), (*key).clone())
                });
                router.execute_udf(name, bindings.collect()).await.map(drop)
            }
            other => unreachable!("no atomic op {other}"),
        }
    }

    #[tokio::test]
    async fn cross_shard_atomic_ops_are_rejected() {
        let (_, _, router) = ShardRouter::in_process(4, Subject::integrator("t"));
        let store = StoreId::new("tx/state");
        router
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        // Find two keys on different shards.
        let ka = key(0);
        let home = router.shard_of_key(&store, &ka);
        let kb = (1..64)
            .map(key)
            .find(|k| router.shard_of_key(&store, k) != home)
            .expect("64 keys over 4 shards cannot all share one");
        for (op, x) in [("transact", 3), ("execute_udf", 4)] {
            let cross = set_atomically(&router, op, &store, &[(&ka, x), (&kb, x)]).await;
            let err = cross.unwrap_err();
            assert!(
                format!("{err}").contains("cross-shard"),
                "{op}: wrong error: {err}"
            );
            // The single-shard case still works.
            set_atomically(&router, op, &store, &[(&ka, x)])
                .await
                .unwrap();
            let value = router.get(store.clone(), ka.clone()).await.unwrap().value;
            assert_eq!(value["x"].as_f64(), Some(x as f64), "{op}");
        }
        // A refused op writes nothing: the other shard's key never appeared.
        let untouched = router.get(store.clone(), kb).await.unwrap_err();
        assert!(matches!(untouched, Error::NotFound(_)), "{untouched}");
    }

    #[tokio::test]
    async fn log_stores_stay_dense_on_one_shard() {
        let (_, _, router) = ShardRouter::in_process(4, Subject::integrator("t"));
        let store = StoreId::new("t/telemetry");
        router.log_create_store(store.clone()).await.unwrap();
        for i in 0..10 {
            let seq = router
                .log_append(store.clone(), json!({"n": i}))
                .await
                .unwrap();
            assert_eq!(seq, i + 1, "append sequence must stay dense");
        }
        let records = router.log_read(store.clone(), 0).await.unwrap();
        assert_eq!(records.len(), 10);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_buckets() {
        let a = MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "ops".into(),
                labels: vec![("k".into(), "v".into())],
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "depth".into(),
                labels: vec![],
                value: 2,
            }],
            histograms: vec![HistogramSnapshot {
                name: "lat".into(),
                labels: vec![],
                bounds_ns: vec![10, 100],
                buckets: vec![1, 2, 0],
                count: 3,
                sum_ns: 60,
                min_ns: 5,
                max_ns: 90,
            }],
        };
        let mut b = a.clone();
        b.counters[0].value = 4;
        b.histograms[0].min_ns = 2;
        let merged = merge_snapshots(vec![a, b]);
        assert_eq!(merged.counters[0].value, 7);
        assert_eq!(merged.gauges[0].value, 4);
        assert_eq!(merged.histograms[0].count, 6);
        assert_eq!(merged.histograms[0].buckets, vec![2, 4, 0]);
        assert_eq!(merged.histograms[0].min_ns, 2);
    }
}
