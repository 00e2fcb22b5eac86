//! The transport-independent exchange API.
//!
//! [`Exchange`] is the narrow waist: one `call(Request) -> Response` for
//! requests and one `open(Request) -> Subscription` for streams. Every
//! transport and every layer (retry, fault injection, shard routing,
//! replica routing) implements exactly that, so layers stack in any order.
//! [`ExchangeApi`] is the typed surface integrators and reconcilers are
//! written against; it exists once, as provided methods over [`Exchange`],
//! and is the only place a typed call becomes a [`Request`], a
//! [`Response`] becomes a typed result, and a [`Subscription`] becomes a
//! typed event stream ([`WatchRx`], [`TailRx`]).

use crate::proto::{EventBody, ProfileSpec, QuerySpec, Request, Response};
use crate::stream::Subscription;
use knactor_logstore::{LogRecord, TailEvent};
use knactor_store::udf::UdfAssignment;
use knactor_store::{BatchOp, ItemResult, PutItem, StoredObject, TxOp, UdfBinding, WatchEvent};
use knactor_types::metrics::MetricsSnapshot;
use knactor_types::{Error, ObjectKey, Result, Revision, Schema, SchemaName, StoreId, Value};
use std::future::Future;
use std::pin::Pin;

/// Boxed future alias so the traits stay object-safe.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// The object events of a stream; anything else ends it.
pub fn watch_event(body: EventBody) -> Option<WatchEvent> {
    match body {
        EventBody::Object { event } => Some(event),
        _ => None,
    }
}

/// The log events of a stream — records, plus the one typed `Lagged` a
/// recovered tail starts with when retention passed its position
/// ([`crate::stream::establish`]); anything else ends it.
pub fn tail_event(body: EventBody) -> Option<TailEvent> {
    match body {
        EventBody::Record { record } => Some(TailEvent::Record(record)),
        EventBody::Lagged {
            missed,
            resume_from,
        } => Some(TailEvent::Lagged {
            missed,
            resume_from,
        }),
        _ => None,
    }
}

/// A [`Subscription`] read as typed events; a body `view` cannot type
/// ends the stream.
#[derive(Debug)]
pub struct Typed<T> {
    stream: Subscription,
    view: fn(EventBody) -> Option<T>,
}

/// Stream of object watch events.
pub type WatchRx = Typed<WatchEvent>;

/// Stream of tailed log events.
pub type TailRx = Typed<TailEvent>;

impl<T> Typed<T> {
    /// Next event; `None` once the stream has ended.
    pub async fn recv(&mut self) -> Option<T> {
        (self.view)(self.stream.recv().await?)
    }

    /// See [`Subscription::try_recv`].
    pub fn try_recv(&mut self) -> Option<T> {
        (self.view)(self.stream.try_recv()?)
    }
}

impl TailRx {
    /// Next record, skipping lag notices — for callers that only need
    /// the data stream.
    pub async fn recv_record(&mut self) -> Option<LogRecord> {
        loop {
            if let TailEvent::Record(record) = self.recv().await? {
                return Some(record);
            }
        }
    }
}

/// A data exchange (Object + Log) as seen through the wire vocabulary.
pub trait Exchange: Send + Sync {
    /// One request, one reply. Error replies surface as `Err`. The
    /// stream requests (`Watch`, `ReplSubscribe`, `LogTail`) are not
    /// calls: sent here they fail with a typed [`Error::Internal`].
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>>;

    /// Open the stream `request` names: object events for a `Watch` or a
    /// `ReplSubscribe`, log events for a `LogTail`.
    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>>;
}

/// Open a stream and read it through `view`.
fn typed<'a, T: 'a>(
    open: BoxFuture<'a, Result<Subscription>>,
    view: fn(EventBody) -> Option<T>,
) -> BoxFuture<'a, Result<Typed<T>>> {
    Box::pin(async move {
        let stream = open.await?;
        Ok(Typed { stream, view })
    })
}

/// The error for a request handed to the wrong [`Exchange`] entry point.
pub(crate) fn misrouted(request: &Request, entry: &str) -> Error {
    Error::Internal(format!("{request:?} is not served through `{entry}`"))
}

/// One node's answer to [`ExchangeApi::repl_status`].
#[derive(Debug, Clone)]
pub struct ReplStatusInfo {
    pub leader: bool,
    pub epoch: u64,
    /// Per-store applied revisions (replication progress).
    pub applied: Vec<(StoreId, Revision)>,
}

impl ReplStatusInfo {
    /// Total applied revisions across stores — the "how caught up is
    /// this node" scalar that failover elections compare.
    pub fn total_applied(&self) -> u64 {
        self.applied.iter().map(|(_, r)| r.0).sum()
    }

    pub fn applied_for(&self, store: &StoreId) -> Revision {
        self.applied
            .iter()
            .find(|(s, _)| s == store)
            .map(|(_, r)| *r)
            .unwrap_or(Revision::ZERO)
    }
}

/// Unpack a reply: `pick` extracts the expected variant or hands the
/// response back, which becomes a transport error.
fn reply<'a, T: 'a>(
    call: BoxFuture<'a, Result<Response>>,
    pick: fn(Response) -> std::result::Result<T, Response>,
) -> BoxFuture<'a, Result<T>> {
    Box::pin(async move {
        pick(call.await?).map_err(|r| Error::Transport(format!("unexpected response {r:?}")))
    })
}

type Picked<T> = std::result::Result<T, Response>;

fn ok(r: Response) -> Picked<()> {
    match r {
        Response::Ok => Ok(()),
        other => Err(other),
    }
}

fn revision(r: Response) -> Picked<Revision> {
    match r {
        Response::Revision { revision } => Ok(revision),
        other => Err(other),
    }
}

fn batch(r: Response) -> Picked<Vec<ItemResult>> {
    match r {
        Response::Batch { items } => Ok(items),
        other => Err(other),
    }
}

fn revisions(r: Response) -> Picked<Vec<(StoreId, Revision)>> {
    match r {
        Response::Revisions { revisions } => Ok(revisions),
        other => Err(other),
    }
}

fn seq(r: Response) -> Picked<u64> {
    match r {
        Response::Seq { seq } => Ok(seq),
        other => Err(other),
    }
}

/// Everything a client can do against a data exchange, typed. Blanket
/// implemented for every [`Exchange`]; nothing implements it by hand.
pub trait ExchangeApi: Exchange {
    /// Round-trip a ping (health check / latency probe).
    fn ping(&self) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::Ping), |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    // ---- object exchange ---------------------------------------------------
    fn create_store(&self, store: StoreId, profile: ProfileSpec) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::CreateStore { store, profile }), ok)
    }

    fn create(
        &self,
        store: StoreId,
        key: ObjectKey,
        value: Value,
    ) -> BoxFuture<'_, Result<Revision>> {
        reply(self.call(Request::Create { store, key, value }), revision)
    }

    fn get(&self, store: StoreId, key: ObjectKey) -> BoxFuture<'_, Result<StoredObject>> {
        reply(self.call(Request::Get { store, key }), |r| match r {
            Response::Object { object } => Ok(object),
            other => Err(other),
        })
    }

    fn list(&self, store: StoreId) -> BoxFuture<'_, Result<(Vec<StoredObject>, Revision)>> {
        reply(self.call(Request::List { store }), |r| match r {
            Response::Objects { objects, revision } => Ok((objects, revision)),
            other => Err(other),
        })
    }

    fn update(
        &self,
        store: StoreId,
        key: ObjectKey,
        value: Value,
        expected: Option<Revision>,
    ) -> BoxFuture<'_, Result<Revision>> {
        let request = Request::Update {
            store,
            key,
            value,
            expected,
        };
        reply(self.call(request), revision)
    }

    fn patch(
        &self,
        store: StoreId,
        key: ObjectKey,
        patch: Value,
        upsert: bool,
    ) -> BoxFuture<'_, Result<Revision>> {
        let request = Request::Patch {
            store,
            key,
            patch,
            upsert,
        };
        reply(self.call(request), revision)
    }

    fn delete(&self, store: StoreId, key: ObjectKey) -> BoxFuture<'_, Result<Revision>> {
        reply(self.call(Request::Delete { store, key }), revision)
    }

    // ---- batched object ops --------------------------------------------------
    // N items, one round-trip, one WAL group fsync; per-item outcomes.

    /// Read many keys; one [`ItemResult`] per key, in request order.
    fn batch_get(
        &self,
        store: StoreId,
        keys: Vec<ObjectKey>,
    ) -> BoxFuture<'_, Result<Vec<ItemResult>>> {
        reply(self.call(Request::BatchGet { store, keys }), batch)
    }

    /// Batched merge-writes (patch/upsert per item).
    fn batch_put(
        &self,
        store: StoreId,
        items: Vec<PutItem>,
    ) -> BoxFuture<'_, Result<Vec<ItemResult>>> {
        reply(self.call(Request::BatchPut { store, items }), batch)
    }

    /// Batched mutations with per-item OCC and per-item outcomes.
    fn batch_commit(
        &self,
        store: StoreId,
        ops: Vec<BatchOp>,
    ) -> BoxFuture<'_, Result<Vec<ItemResult>>> {
        reply(self.call(Request::BatchCommit { store, ops }), batch)
    }

    fn register_consumer(
        &self,
        store: StoreId,
        key: ObjectKey,
        consumer: String,
    ) -> BoxFuture<'_, Result<()>> {
        let request = Request::RegisterConsumer {
            store,
            key,
            consumer,
        };
        reply(self.call(request), ok)
    }

    fn mark_processed(
        &self,
        store: StoreId,
        key: ObjectKey,
        consumer: String,
    ) -> BoxFuture<'_, Result<Vec<ObjectKey>>> {
        let request = Request::MarkProcessed {
            store,
            key,
            consumer,
        };
        reply(self.call(request), |r| match r {
            Response::Collected { keys } => Ok(keys),
            other => Err(other),
        })
    }

    /// Watch events with revision greater than `from`.
    fn watch(&self, store: StoreId, from: Revision) -> BoxFuture<'_, Result<WatchRx>> {
        typed(self.open(Request::Watch { store, from }), watch_event)
    }

    fn register_schema(&self, schema: Schema) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::RegisterSchema { schema }), ok)
    }

    fn bind_schema(&self, store: StoreId, schema: SchemaName) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::BindSchema { store, schema }), ok)
    }

    fn get_schema(&self, schema: SchemaName) -> BoxFuture<'_, Result<Schema>> {
        reply(self.call(Request::GetSchema { schema }), |r| match r {
            Response::Schema { schema } => Ok(schema),
            other => Err(other),
        })
    }

    fn register_udf(
        &self,
        name: String,
        inputs: Vec<String>,
        assignments: Vec<UdfAssignment>,
    ) -> BoxFuture<'_, Result<()>> {
        let request = Request::RegisterUdf {
            name,
            inputs,
            assignments,
        };
        reply(self.call(request), ok)
    }

    fn execute_udf(
        &self,
        name: String,
        bindings: Vec<UdfBinding>,
    ) -> BoxFuture<'_, Result<Vec<(StoreId, Revision)>>> {
        reply(self.call(Request::ExecuteUdf { name, bindings }), revisions)
    }

    /// Apply a set of patches across stores atomically: either every
    /// precondition holds and every write commits, or nothing does.
    fn transact(&self, ops: Vec<TxOp>) -> BoxFuture<'_, Result<Vec<(StoreId, Revision)>>> {
        reply(self.call(Request::Transact { ops }), revisions)
    }

    // ---- log exchange --------------------------------------------------------
    fn log_create_store(&self, store: StoreId) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::LogCreateStore { store }), ok)
    }

    fn log_append(&self, store: StoreId, fields: Value) -> BoxFuture<'_, Result<u64>> {
        reply(self.call(Request::LogAppend { store, fields }), seq)
    }

    fn log_append_batch(&self, store: StoreId, batch: Vec<Value>) -> BoxFuture<'_, Result<u64>> {
        reply(self.call(Request::LogAppendBatch { store, batch }), seq)
    }

    fn log_read(&self, store: StoreId, from: u64) -> BoxFuture<'_, Result<Vec<LogRecord>>> {
        reply(self.call(Request::LogRead { store, from }), |r| match r {
            Response::Records { records } => Ok(records),
            other => Err(other),
        })
    }

    fn log_query(&self, store: StoreId, query: QuerySpec) -> BoxFuture<'_, Result<Vec<Value>>> {
        reply(self.call(Request::LogQuery { store, query }), |r| match r {
            Response::Rows { rows } => Ok(rows),
            other => Err(other),
        })
    }

    fn log_tail(&self, store: StoreId, from: u64) -> BoxFuture<'_, Result<TailRx>> {
        typed(self.open(Request::LogTail { store, from }), tail_event)
    }

    // ---- observability -------------------------------------------------------
    /// Scrape the exchange's metrics registry.
    fn metrics(&self) -> BoxFuture<'_, Result<MetricsSnapshot>> {
        reply(self.call(Request::Metrics), |r| match r {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(other),
        })
    }

    // ---- replication control plane -------------------------------------------
    // Node-to-node and router-to-node operations, not composition surface.

    /// Report a follower's durably-staged high-water mark to the leader.
    fn repl_ack(
        &self,
        store: StoreId,
        follower: String,
        revision: Revision,
    ) -> BoxFuture<'_, Result<()>> {
        let request = Request::ReplAck {
            store,
            follower,
            revision,
        };
        reply(self.call(request), ok)
    }

    /// Probe the node's replication role, epoch, and per-store progress.
    fn repl_status(&self) -> BoxFuture<'_, Result<ReplStatusInfo>> {
        reply(self.call(Request::ReplStatus), |r| match r {
            Response::ReplStatus {
                leader,
                epoch,
                applied,
            } => Ok(ReplStatusInfo {
                leader,
                epoch,
                applied,
            }),
            other => Err(other),
        })
    }

    /// Promote the node to leader at `epoch` (must exceed its current
    /// epoch — the stale-leader fence).
    fn repl_promote(&self, epoch: u64) -> BoxFuture<'_, Result<()>> {
        reply(self.call(Request::ReplPromote { epoch }), ok)
    }

    /// Block until the node's copy of `store` has applied at least
    /// `revision` (read-your-writes barrier before a replica read).
    fn repl_wait(&self, store: StoreId, revision: Revision) -> BoxFuture<'_, Result<Revision>> {
        reply(
            self.call(Request::ReplWait { store, revision }),
            self::revision,
        )
    }
}

impl<T: Exchange + ?Sized> ExchangeApi for T {}
