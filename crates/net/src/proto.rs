//! The wire protocol.
//!
//! Every frame carries one serde-JSON message. The client opens with a
//! [`Hello`] declaring its subject; after that, frames from the client are
//! [`RequestEnvelope`]s and frames from the server are [`ServerMsg`]s —
//! either a reply correlated by request id, or a pushed watch/tail event
//! correlated by subscription id.
//!
//! Authentication is out of scope (as in the paper's prototype); the
//! declared subject is trusted. The interesting control question —
//! *authorization* over states — is enforced by the exchange's RBAC.

use knactor_logstore::{AggFn, LogRecord, Query};
use knactor_store::udf::UdfAssignment;
use knactor_store::{
    BatchOp, EngineProfile, ItemResult, PutItem, StoredObject, TxOp, UdfBinding, WatchEvent,
};
use knactor_types::{Error, ObjectKey, Result, Revision, Schema, SchemaName, StoreId, Value};
use serde::{Deserialize, Serialize};

/// Connection opener: who is this client?
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Hello {
    /// Rendered subject, e.g. `integrator:cast` (see
    /// [`knactor_rbac::Subject`]'s `Display`).
    pub subject_kind: String,
    pub subject_name: String,
}

/// A client request with its correlation id.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RequestEnvelope {
    pub id: u64,
    pub body: Request,
}

/// A serializable engine profile (the subset a remote client may select).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "kind")]
pub enum ProfileSpec {
    Instant,
    Redis,
    /// Durable engine; the WAL lives under the server's data directory.
    Apiserver,
    /// Durable with zero modelled latency: fsync WAL under the server's
    /// data directory, push watches, no simulated op delays.
    Durable,
    /// `Durable` plus a replication ack quorum: a write acknowledges only
    /// after `acks` followers have durably staged it. On a follower node
    /// the quorum wait is passive until promotion, so one spec can be
    /// broadcast to every member of a replica set.
    Replicated {
        acks: usize,
    },
}

impl ProfileSpec {
    /// Materialize on the server, rooting WALs under `data_dir`.
    pub fn materialize(&self, data_dir: &std::path::Path, store: &StoreId) -> EngineProfile {
        match self {
            ProfileSpec::Instant => EngineProfile::instant(),
            ProfileSpec::Redis => EngineProfile::redis(),
            ProfileSpec::Apiserver => EngineProfile::apiserver(data_dir, store.as_str()),
            ProfileSpec::Durable => EngineProfile::durable(data_dir, store.as_str()),
            ProfileSpec::Replicated { acks } => EngineProfile::durable(data_dir, store.as_str())
                .named("replicated")
                .replicated(*acks),
        }
    }
}

/// A serializable dataflow operator (expressions as source text, compiled
/// server-side so the wire stays data-only).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "op")]
pub enum OpSpec {
    Filter {
        expr: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Project {
        fields: Vec<String>,
    },
    Derive {
        field: String,
        expr: String,
    },
    Sort {
        by: String,
        descending: bool,
    },
    Aggregate {
        group_by: Option<String>,
        agg: String,
        field: Option<String>,
        as_field: String,
    },
    Limit {
        n: usize,
    },
}

/// A serializable query pipeline.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
pub struct QuerySpec {
    pub ops: Vec<OpSpec>,
}

impl QuerySpec {
    /// Compile into an executable [`Query`].
    pub fn compile(&self) -> Result<Query> {
        let mut q = Query::new();
        for op in &self.ops {
            q = match op {
                OpSpec::Filter { expr } => q.filter(expr)?,
                OpSpec::Rename { from, to } => q.rename(from.clone(), to.clone()),
                OpSpec::Project { fields } => q.project(fields.clone()),
                OpSpec::Derive { field, expr } => q.derive(field.clone(), expr)?,
                OpSpec::Sort { by, descending } => q.sort(by, *descending)?,
                OpSpec::Aggregate {
                    group_by,
                    agg,
                    field,
                    as_field,
                } => q.aggregate(
                    group_by.as_deref(),
                    AggFn::parse(agg)?,
                    field.as_deref(),
                    as_field.clone(),
                )?,
                OpSpec::Limit { n } => q.limit(*n),
            };
        }
        Ok(q)
    }
}

/// Client → server operations.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "type")]
pub enum Request {
    Ping,
    // ---- object exchange --------------------------------------------------
    CreateStore {
        store: StoreId,
        profile: ProfileSpec,
    },
    Create {
        store: StoreId,
        key: ObjectKey,
        value: Value,
    },
    Get {
        store: StoreId,
        key: ObjectKey,
    },
    List {
        store: StoreId,
    },
    Update {
        store: StoreId,
        key: ObjectKey,
        value: Value,
        expected: Option<Revision>,
    },
    Patch {
        store: StoreId,
        key: ObjectKey,
        patch: Value,
        upsert: bool,
    },
    Delete {
        store: StoreId,
        key: ObjectKey,
    },
    /// Read many keys in one round-trip; replies `Response::Batch` with
    /// one item per key (missing keys are per-item errors).
    BatchGet {
        store: StoreId,
        keys: Vec<ObjectKey>,
    },
    /// Batched merge-writes (the integrator fast path): each item is a
    /// patch/upsert; the whole batch shares one WAL group fsync.
    BatchPut {
        store: StoreId,
        items: Vec<PutItem>,
    },
    /// General mutation batch with per-item OCC; replies
    /// `Response::Batch` with per-item revisions or errors.
    BatchCommit {
        store: StoreId,
        ops: Vec<BatchOp>,
    },
    RegisterConsumer {
        store: StoreId,
        key: ObjectKey,
        consumer: String,
    },
    MarkProcessed {
        store: StoreId,
        key: ObjectKey,
        consumer: String,
    },
    /// Start a watch; the reply is `Response::Watch { sub_id }` and events
    /// then arrive as `ServerMsg::Event`.
    Watch {
        store: StoreId,
        from: Revision,
    },
    /// Stop a watch subscription.
    Unwatch {
        sub_id: u64,
    },
    RegisterSchema {
        schema: Schema,
    },
    BindSchema {
        store: StoreId,
        schema: SchemaName,
    },
    GetSchema {
        schema: SchemaName,
    },
    RegisterUdf {
        name: String,
        inputs: Vec<String>,
        assignments: Vec<UdfAssignment>,
    },
    ExecuteUdf {
        name: String,
        bindings: Vec<UdfBinding>,
    },
    /// Atomic multi-store patch set (§5 run-time transactions).
    Transact {
        ops: Vec<TxOp>,
    },
    // ---- log exchange -------------------------------------------------------
    LogCreateStore {
        store: StoreId,
    },
    LogAppend {
        store: StoreId,
        fields: Value,
    },
    LogAppendBatch {
        store: StoreId,
        batch: Vec<Value>,
    },
    LogRead {
        store: StoreId,
        from: u64,
    },
    LogQuery {
        store: StoreId,
        query: QuerySpec,
    },
    /// Start a log tail; events arrive as `ServerMsg::Event` with
    /// `Response::Record` payloads wrapped in `EventBody::Record`.
    LogTail {
        store: StoreId,
        from: u64,
    },
    // ---- replication --------------------------------------------------------
    /// Follower → leader: stream the store's committed events from
    /// revision `from` (exclusive). Handled exactly like `Watch` — the
    /// reply is `Response::Watch { sub_id }` and events arrive as
    /// `EventBody::Object` — but named separately so roles can fence it
    /// differently from client watches and the protocol stays explicit
    /// about which streams are replication traffic.
    ReplSubscribe {
        store: StoreId,
        from: Revision,
    },
    /// Follower → leader: `follower` has durably staged everything up to
    /// `revision`. Releases leader-side `Replicated(n)` quorum waits.
    ReplAck {
        store: StoreId,
        follower: String,
        revision: Revision,
    },
    /// Role/epoch/progress probe; doubles as the failover heartbeat. The
    /// reply is `Response::ReplStatus`.
    ReplStatus,
    /// Promote this node to leader at `epoch`. Rejected with `conflict`
    /// unless `epoch` is strictly newer than the node's current epoch —
    /// the fence that keeps a stale leader from reclaiming the role.
    ReplPromote {
        epoch: u64,
    },
    /// Read barrier: block until the local store's revision is at least
    /// `revision` (bounded wait). A router issues this before serving a
    /// session's read from a replica, which is what turns follower reads
    /// into read-your-writes reads.
    ReplWait {
        store: StoreId,
        revision: Revision,
    },
    // ---- observability ------------------------------------------------------
    /// Scrape the server's metrics registry (counters, gauges, latency
    /// histograms); the reply is `Response::Metrics`.
    Metrics,
}

impl Request {
    /// Stream requests open a subscription rather than earn one reply;
    /// they travel through `Exchange::open`.
    pub fn is_stream(&self) -> bool {
        matches!(
            self,
            Request::Watch { .. } | Request::ReplSubscribe { .. } | Request::LogTail { .. }
        )
    }
}

/// Server → client replies.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "type")]
pub enum Response {
    Ok,
    Pong,
    Revision {
        revision: Revision,
    },
    Object {
        object: StoredObject,
    },
    Objects {
        objects: Vec<StoredObject>,
        revision: Revision,
    },
    Collected {
        keys: Vec<ObjectKey>,
    },
    Schema {
        schema: Schema,
    },
    Revisions {
        revisions: Vec<(StoreId, Revision)>,
    },
    Seq {
        seq: u64,
    },
    Records {
        records: Vec<LogRecord>,
    },
    Rows {
        rows: Vec<Value>,
    },
    Watch {
        sub_id: u64,
    },
    /// Per-item outcomes of a `BatchGet`/`BatchPut`/`BatchCommit`.
    Batch {
        items: Vec<ItemResult>,
    },
    Metrics {
        snapshot: knactor_types::metrics::MetricsSnapshot,
    },
    /// Reply to `Request::ReplStatus`: this node's role, fencing epoch,
    /// and per-store applied revisions (its replication progress).
    ReplStatus {
        leader: bool,
        epoch: u64,
        applied: Vec<(StoreId, Revision)>,
    },
    Error {
        code: String,
        message: String,
    },
}

impl Response {
    pub fn from_error(e: &Error) -> Response {
        Response::Error {
            code: e.code().to_string(),
            message: e.wire_message(),
        }
    }

    /// Convert an error response back into an `Err`, pass others through.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { code, message } => Err(Error::from_wire(&code, &message)),
            other => Ok(other),
        }
    }
}

/// A pushed event's payload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "type")]
pub enum EventBody {
    Object {
        event: WatchEvent,
    },
    Record {
        record: LogRecord,
    },
    /// The `missed` records before `resume_from` were dropped by retention
    /// before the tail read them; the stream continues at `resume_from`.
    /// Said once, by the recovery of a tail that fell off
    /// (`stream::establish`), never by a store.
    Lagged {
        missed: u64,
        resume_from: u64,
    },
    /// This stream's cursor — a watch, a replication feed or a log tail —
    /// fell off its store's retained window (the subscriber stopped
    /// reading while writes kept landing): `resume_from` is the last
    /// position it was sent, and the next one is no longer retained — a
    /// re-open from `resume_from` answers `watch_too_old`, and the recovery
    /// is a re-list (watch) or one `Lagged` (tail).
    WatchLagged {
        resume_from: u64,
    },
    /// The subscription ended server-side (store dropped, shutdown).
    Closed,
}

/// One frame from server to client.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case", tag = "type")]
pub enum ServerMsg {
    Reply {
        id: u64,
        response: Response,
    },
    Event {
        sub_id: u64,
        body: EventBody,
    },
    /// A drained run of events for one subscription in a single frame —
    /// watch fan-out's framing amortization. Bodies are in delivery
    /// order; receivers process them exactly as N `Event` frames.
    EventBatch {
        sub_id: u64,
        bodies: Vec<EventBody>,
    },
}

pub fn encode<T: Serialize>(msg: &T) -> Result<Vec<u8>> {
    Ok(serde_json::to_vec(msg)?)
}

/// Serialize `msg` appending to `scratch` (cleared first), reusing the
/// buffer's allocation across messages. Per-connection writer loops keep
/// one scratch `String` instead of allocating per frame.
pub fn encode_into<T: Serialize>(msg: &T, scratch: &mut String) -> Result<()> {
    scratch.clear();
    serde_json::to_string_into(msg, scratch)?;
    Ok(())
}

pub fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T> {
    Ok(serde_json::from_slice(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn request_roundtrip() {
        let req = RequestEnvelope {
            id: 7,
            body: Request::Update {
                store: StoreId::new("checkout/state"),
                key: ObjectKey::new("order-1"),
                value: json!({"x": 1}),
                expected: Some(Revision(3)),
            },
        };
        let bytes = encode(&req).unwrap();
        let back: RequestEnvelope = decode(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn error_response_roundtrips_to_err() {
        let e = Error::Conflict {
            expected: 1,
            actual: 2,
        };
        let resp = Response::from_error(&e);
        let bytes = encode(&resp).unwrap();
        let back: Response = decode(&bytes).unwrap();
        assert_eq!(back.into_result().unwrap_err(), e);
    }

    #[test]
    fn ok_response_passes_through() {
        assert_eq!(Response::Ok.into_result().unwrap(), Response::Ok);
    }

    #[test]
    fn query_spec_compiles() {
        let spec = QuerySpec {
            ops: vec![
                OpSpec::Filter {
                    expr: "this.triggered == true".into(),
                },
                OpSpec::Rename {
                    from: "triggered".into(),
                    to: "motion".into(),
                },
                OpSpec::Aggregate {
                    group_by: None,
                    agg: "count".into(),
                    field: None,
                    as_field: "n".into(),
                },
            ],
        };
        let q = spec.compile().unwrap();
        let out = q
            .run(vec![json!({"triggered": true}), json!({"triggered": false})].into_iter())
            .unwrap();
        assert_eq!(out, vec![json!({"n": 1})]);
    }

    #[test]
    fn query_spec_bad_expr_fails_compile() {
        let spec = QuerySpec {
            ops: vec![OpSpec::Filter { expr: "1 +".into() }],
        };
        assert!(spec.compile().is_err());
    }

    #[test]
    fn profile_spec_materializes() {
        let dir = std::env::temp_dir();
        let store = StoreId::new("a/b");
        assert_eq!(
            ProfileSpec::Instant.materialize(&dir, &store).name,
            "instant"
        );
        assert_eq!(ProfileSpec::Redis.materialize(&dir, &store).name, "redis");
        assert!(ProfileSpec::Apiserver
            .materialize(&dir, &store)
            .is_durable());
        let repl = ProfileSpec::Replicated { acks: 1 }.materialize(&dir, &store);
        assert!(repl.is_durable());
        assert_eq!(repl.name, "replicated");
        assert_eq!(repl.repl_acks, 1);
    }

    #[test]
    fn batch_request_and_reply_roundtrip() {
        let req = RequestEnvelope {
            id: 11,
            body: Request::BatchCommit {
                store: StoreId::new("checkout/state"),
                ops: vec![
                    BatchOp::Create {
                        key: ObjectKey::new("a"),
                        value: json!({"x": 1}),
                    },
                    BatchOp::Delete {
                        key: ObjectKey::new("b"),
                    },
                ],
            },
        };
        let back: RequestEnvelope = decode(&encode(&req).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = Response::Batch {
            items: vec![
                ItemResult::Revision {
                    revision: Revision(4),
                },
                ItemResult::Error {
                    code: "not_found".into(),
                    message: "b".into(),
                },
            ],
        };
        let back: Response = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn event_batch_roundtrip() {
        let msg = ServerMsg::EventBatch {
            sub_id: 5,
            bodies: vec![
                EventBody::Record {
                    record: LogRecord {
                        seq: 1,
                        fields: json!({"a": 1}),
                    },
                },
                EventBody::Closed,
            ],
        };
        let back: ServerMsg = decode(&encode(&msg).unwrap()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn encode_into_reuses_scratch_and_matches_encode() {
        let msg = Response::Revision {
            revision: Revision(9),
        };
        let mut scratch = String::new();
        encode_into(&msg, &mut scratch).unwrap();
        assert_eq!(scratch.as_bytes(), encode(&msg).unwrap().as_slice());
        // A second encode clears the previous content.
        encode_into(&Response::Ok, &mut scratch).unwrap();
        assert_eq!(
            scratch.as_bytes(),
            encode(&Response::Ok).unwrap().as_slice()
        );
    }

    #[test]
    fn watch_lagged_event_roundtrips() {
        let msg = ServerMsg::Event {
            sub_id: 4,
            body: EventBody::WatchLagged { resume_from: 17 },
        };
        let back: ServerMsg = decode(&encode(&msg).unwrap()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn server_msg_event_roundtrip() {
        let msg = ServerMsg::Event {
            sub_id: 3,
            body: EventBody::Record {
                record: LogRecord {
                    seq: 9,
                    fields: json!({"kwh": 0.2}),
                },
            },
        };
        let back: ServerMsg = decode(&encode(&msg).unwrap()).unwrap();
        assert_eq!(back, msg);
    }
}
