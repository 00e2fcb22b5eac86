//! The TCP exchange client.
//!
//! One connection, pipelined: requests carry correlation ids, a background
//! demultiplexer routes replies to per-request oneshot channels and pushed
//! events to per-subscription streams.
//!
//! Two client layers live here:
//!
//! * [`TcpClient`] — one connection, fail-fast. A dead socket or a
//!   timed-out request surfaces immediately as `Transport`/`Timeout`, and
//!   its streams end with the connection.
//! * [`ResilientClient`] — wraps reconnection, capped exponential backoff
//!   with jitter ([`RetryPolicy`]), idempotent retry recovery keyed by OCC
//!   revisions, and stream **resume**: a subscription survives the
//!   connection it was created on (see [`crate::stream`]).

use crate::api::{misrouted, BoxFuture, Exchange, ExchangeApi};
use crate::fault::FaultRng;
use crate::frame::{write_corked, FrameReader, FrameWriter};
use crate::proto::{
    decode, encode, EventBody, Hello, Request, RequestEnvelope, Response, ServerMsg,
};
use crate::stream::{self, Stream, Subscription};
use knactor_rbac::{Subject, SubjectKind};
use knactor_store::{BatchOp, ItemResult, StoredObject};
use knactor_types::{Error, ObjectKey, Result, Revision, StoreId, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::future::Future;
use std::net::SocketAddr;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
use tokio::net::TcpStream;
use tokio::sync::{mpsc, oneshot};

/// Routing state shared by the client, its demultiplexer task and its
/// subscriptions.
struct Router {
    /// The writer task's queue, for the `Unwatch` a subscription sends
    /// when its consumer goes. `None` once the connection is gone (the
    /// demultiplexer exited) or the client was dropped; every request from
    /// then on fails fast instead of waiting on a reply that cannot come.
    out: Option<mpsc::UnboundedSender<RequestEnvelope>>,
    /// The last request id handed out.
    next_id: u64,
    pending: HashMap<u64, oneshot::Sender<Response>>,
    /// Request id → event channel to install once the reply names a sub id.
    staged: HashMap<u64, mpsc::UnboundedSender<EventBody>>,
    subs: HashMap<u64, mpsc::UnboundedSender<EventBody>>,
}

impl Router {
    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Tell the server to stop pumping a stream nobody reads. Fire and
    /// forget: the reply matches no pending request and is dropped.
    fn send_unwatch(&mut self, sub_id: u64) {
        let id = self.next_id();
        let body = Request::Unwatch { sub_id };
        if let Some(out) = &self.out {
            let _ = out.send(RequestEnvelope { id, body });
        }
    }

    /// The consumer of `sub_id` is gone; a stream that had already ended
    /// by itself is no longer registered and needs no `Unwatch`.
    fn unwatch(&mut self, sub_id: u64) {
        if self.subs.remove(&sub_id).is_some() {
            self.send_unwatch(sub_id);
        }
    }

    /// Route one pushed event body to its subscription. Shared by
    /// single-event and batched frames so both deliver identically.
    fn deliver(&mut self, sub_id: u64, body: EventBody) {
        let Some(tx) = self.subs.get(&sub_id) else {
            return;
        };
        match body {
            // The stream's last words. `WatchLagged`: this stream's cursor
            // fell off the store's retained window; an unconsumed backlog
            // is exactly what left it behind, so there is nothing useful
            // to flush and the stream simply ends. A resumed stream
            // re-opens from its own position, which is never past
            // `resume_from`, and is recovered (`stream::establish`).
            EventBody::WatchLagged { .. } => {
                knactor_types::metrics::global()
                    .counter("knactor_client_watch_lagged_total", &[("role", "client")])
                    .inc();
                self.subs.remove(&sub_id);
            }
            EventBody::Closed => {
                self.subs.remove(&sub_id);
            }
            body => {
                if tx.send(body).is_err() {
                    self.unwatch(sub_id);
                }
            }
        }
    }
}

/// Async exchange client over TCP.
pub struct TcpClient {
    out_tx: mpsc::UnboundedSender<RequestEnvelope>,
    router: Arc<Mutex<Router>>,
    /// Per-request reply deadline; `None` waits forever (the default, so
    /// existing single-connection users keep fail-on-disconnect behaviour
    /// without spurious timeouts).
    timeout: Option<Duration>,
    subject: Subject,
}

/// Dropping the client closes its side of the connection — the writer
/// task ends with its queue — and with it every stream opened on it.
impl Drop for TcpClient {
    fn drop(&mut self) {
        self.router.lock().out = None;
    }
}

impl TcpClient {
    /// Connect and identify as `subject`.
    pub async fn connect(
        addr: impl tokio::net::ToSocketAddrs,
        subject: Subject,
    ) -> Result<TcpClient> {
        let socket = TcpStream::connect(addr).await?;
        socket
            .set_nodelay(true)
            .map_err(|e| Error::Transport(e.to_string()))?;
        let peer = socket
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "peer".to_string());
        let (read_half, write_half) = socket.into_split();
        let mut writer = FrameWriter::new(write_half);
        let hello = Hello {
            subject_kind: match subject.kind {
                SubjectKind::Reconciler => "reconciler".to_string(),
                SubjectKind::Integrator => "integrator".to_string(),
                SubjectKind::Operator => "operator".to_string(),
            },
            subject_name: subject.name.clone(),
        };
        writer.write_frame(&encode(&hello)?).await?;

        let (out_tx, out_rx) = mpsc::unbounded_channel::<RequestEnvelope>();
        tokio::spawn(write_corked(out_rx, writer, "client"));
        let router = Arc::new(Mutex::new(Router {
            out: Some(out_tx.clone()),
            next_id: 0,
            pending: HashMap::new(),
            staged: HashMap::new(),
            subs: HashMap::new(),
        }));

        // Demultiplexer task.
        let demux_router = Arc::clone(&router);
        tokio::spawn(async move {
            let mut reader = FrameReader::new(read_half);
            loop {
                let frame = match reader.read_frame().await {
                    Ok(Some(f)) => f,
                    _ => break,
                };
                let msg: ServerMsg = match decode(&frame) {
                    Ok(m) => m,
                    Err(_) => break,
                };
                let mut router = demux_router.lock();
                match msg {
                    ServerMsg::Reply { id, response } => {
                        // A stream reply installs its event channel
                        // *before* the reply is released, so no event can
                        // race past an unregistered subscription.
                        let staged = router.staged.remove(&id);
                        if let Response::Watch { sub_id } = &response {
                            match staged {
                                Some(tx) if !tx.is_closed() => {
                                    router.subs.insert(*sub_id, tx);
                                }
                                // The open was abandoned (timed out, or its
                                // future dropped): nobody will read this.
                                _ => router.send_unwatch(*sub_id),
                            }
                        }
                        if let Some(tx) = router.pending.remove(&id) {
                            let _ = tx.send(response);
                        }
                    }
                    ServerMsg::Event { sub_id, body } => router.deliver(sub_id, body),
                    // A batched frame is exactly N events in delivery
                    // order; unpack it through the same path.
                    ServerMsg::EventBatch { sub_id, bodies } => {
                        for body in bodies {
                            router.deliver(sub_id, body);
                        }
                    }
                }
            }
            // Connection gone: answer every pending request with an
            // explicit transport error (naming the peer and the fact that
            // the reply is outstanding — the caller may have executed),
            // end all subscriptions, and refuse future requests.
            let mut router = demux_router.lock();
            router.out = None;
            let lost = Error::Transport(format!(
                "connection to {peer} lost with the reply outstanding"
            ));
            for (_, tx) in router.pending.drain() {
                let _ = tx.send(Response::from_error(&lost));
            }
            router.staged.clear();
            router.subs.clear();
        });

        Ok(TcpClient {
            out_tx,
            router,
            timeout: None,
            subject,
        })
    }

    /// Bound how long a request waits for its reply. A lost request or
    /// reply frame then surfaces as [`Error::Timeout`] instead of hanging
    /// the caller forever.
    pub fn with_request_timeout(mut self, limit: Duration) -> TcpClient {
        self.timeout = Some(limit);
        self
    }

    /// True once the connection is gone (demultiplexer exited); every
    /// request from then on fails fast.
    pub fn is_closed(&self) -> bool {
        self.router.lock().out.is_none()
    }

    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// Send `body` and await its reply. `staged`, for a stream request, is
    /// the event channel the demultiplexer installs when the reply names
    /// the subscription.
    async fn request(
        &self,
        body: Request,
        staged: Option<mpsc::UnboundedSender<EventBody>>,
    ) -> Result<Response> {
        let (tx, rx) = oneshot::channel();
        let closed = || Error::Transport("connection closed".to_string());
        let id = {
            let mut router = self.router.lock();
            if router.out.is_none() {
                return Err(closed());
            }
            let id = router.next_id();
            router.pending.insert(id, tx);
            if let Some(staged) = staged {
                router.staged.insert(id, staged);
            }
            id
        };
        self.out_tx
            .send(RequestEnvelope { id, body })
            .map_err(|_| closed())?;
        let response = match self.timeout {
            None => rx
                .await
                .map_err(|_| Error::Transport("connection closed awaiting reply".to_string()))?,
            Some(limit) => match tokio::time::timeout(limit, rx).await {
                Ok(Ok(response)) => response,
                Ok(Err(_)) => {
                    return Err(Error::Transport(
                        "connection closed awaiting reply".to_string(),
                    ))
                }
                Err(_) => {
                    // Deregister so a reply arriving after the deadline is
                    // dropped instead of resolving a request nobody waits
                    // on (a late stream reply is answered with `Unwatch`).
                    let mut router = self.router.lock();
                    router.pending.remove(&id);
                    router.staged.remove(&id);
                    return Err(Error::Timeout(format!(
                        "no reply within {limit:?} (request {id})"
                    )));
                }
            },
        };
        response.into_result()
    }
}

/// The client side of one server-pushed stream. Dropping it tells the
/// server to stop pumping.
struct Remote {
    rx: mpsc::UnboundedReceiver<EventBody>,
    sub_id: u64,
    router: Arc<Mutex<Router>>,
}

impl Stream for Remote {
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
        pin!(self.rx.recv()).poll(cx)
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        self.router.lock().unwatch(self.sub_id);
    }
}

impl Exchange for TcpClient {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        // A stream request sent as a call would open a server-side
        // subscription nothing here is wired to receive.
        if request.is_stream() {
            return Box::pin(async move { Err(misrouted(&request, "call")) });
        }
        Box::pin(self.request(request, None))
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        Box::pin(async move {
            if !request.is_stream() {
                return Err(misrouted(&request, "open"));
            }
            let (tx, rx) = mpsc::unbounded_channel();
            match self.request(request, Some(tx)).await? {
                Response::Watch { sub_id } => Ok(Subscription::new(Remote {
                    rx,
                    sub_id,
                    router: Arc::clone(&self.router),
                })),
                other => Err(Error::Transport(format!("unexpected response {other:?}"))),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Resilient layer: reconnect, retry, resume.
// ---------------------------------------------------------------------------

/// Retry/backoff knobs for [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Per-attempt reply deadline (installed on every connection via
    /// [`TcpClient::with_request_timeout`]).
    pub request_timeout: Duration,
    /// Total attempts per logical operation (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub max_backoff: Duration,
    /// Seed for backoff jitter (deterministic given the call sequence).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            request_timeout: Duration::from_secs(2),
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0x6B6E_6163,
        }
    }
}

impl RetryPolicy {
    /// Tighter deadlines and backoffs for tests driving many failures.
    pub fn fast(seed: u64) -> RetryPolicy {
        RetryPolicy {
            request_timeout: Duration::from_millis(250),
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed,
        }
    }

    /// Backoff before retry number `attempt` (0-based): capped exponential
    /// with a jitter multiplier in `[0.5, 1.0)` so a herd of retriers
    /// decorrelates.
    pub fn backoff(&self, attempt: u32, rng: &mut FaultRng) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_backoff);
        capped.mul_f64(0.5 + rng.unit() / 2.0)
    }
}

/// The slot holding the current connection; replaced on reconnect.
struct ConnSlot {
    client: Option<Arc<TcpClient>>,
}

/// Everything [`ResilientClient`] shares with the streams it resumes.
struct Resilient {
    addr: SocketAddr,
    subject: Subject,
    policy: RetryPolicy,
    conn: Mutex<ConnSlot>,
    rng: Mutex<FaultRng>,
}

impl Resilient {
    /// Current live connection, (re)establishing one if needed. Losing a
    /// reconnect race is harmless: whoever installs a live client last
    /// wins, and in-flight operations keep their own `Arc` alive.
    async fn current(&self) -> Result<Arc<TcpClient>> {
        if let Some(client) = &self.conn.lock().client {
            if !client.is_closed() {
                return Ok(Arc::clone(client));
            }
        }
        let fresh = TcpClient::connect(self.addr, self.subject.clone())
            .await?
            .with_request_timeout(self.policy.request_timeout);
        let fresh = Arc::new(fresh);
        let mut slot = self.conn.lock();
        if let Some(existing) = &slot.client {
            if !existing.is_closed() && !Arc::ptr_eq(existing, &fresh) {
                return Ok(Arc::clone(existing));
            }
        }
        slot.client = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    fn next_backoff(&self, attempt: u32) -> Duration {
        self.policy.backoff(attempt, &mut self.rng.lock())
    }

    /// Run `op` with reconnect + capped-backoff retry on transport-level
    /// failures (`Transport`, `Timeout`) and on admission-control shedding
    /// (`Overloaded` — shed before dispatch, so a retry is always safe; the
    /// next backoff is floored at the server's `retry_after_ms` hint).
    /// Semantic errors (`Conflict`, `AlreadyExists`, `NotFound`, ...)
    /// propagate immediately; recovering the ones a lost ack explains is
    /// [`recover_lost_ack`]'s job. `op` receives the 0-based attempt number:
    /// `attempt > 0` means an earlier attempt may have executed without us
    /// seeing its reply.
    async fn retry<T, F, Fut>(&self, op: F) -> Result<T>
    where
        F: Fn(Arc<TcpClient>, u32) -> Fut + Send + Sync,
        Fut: Future<Output = Result<T>> + Send,
    {
        let mut last: Option<Error> = None;
        let mut floor = Duration::ZERO;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                let backoff = self
                    .next_backoff(attempt - 1)
                    .max(std::mem::take(&mut floor));
                let registry = knactor_types::metrics::global();
                registry.counter("knactor_client_retries_total", &[]).inc();
                registry
                    .histogram("knactor_client_backoff_seconds", &[])
                    .observe(backoff);
                tokio::time::sleep(backoff).await;
            }
            let client = match self.current().await {
                Ok(client) => client,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            match op(client, attempt).await {
                Ok(value) => return Ok(value),
                Err(e @ (Error::Transport(_) | Error::Timeout(_))) => last = Some(e),
                Err(Error::Overloaded { retry_after_ms }) => {
                    floor = Duration::from_millis(retry_after_ms);
                    knactor_types::metrics::global()
                        .counter("knactor_client_shed_total", &[("role", "client")])
                        .inc();
                    last = Some(Error::Overloaded { retry_after_ms });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::Transport("retries exhausted".to_string())))
    }
}

/// A self-healing exchange client: one logical connection that survives
/// resets, with per-operation retry and resumable subscriptions.
///
/// Streams it opens resume ([`crate::stream`]): events pass the
/// dense-sequence rule, and on a gap, a dead connection or a lag cut the
/// stream is re-opened — with this client's retry and reconnect — from the
/// position reached, re-listing when that has fallen out of the server's
/// history. Gap detection assumes the subscription sees *every* commit (no
/// server-side event filtering for this subject); that holds for all
/// current callers.
pub struct ResilientClient {
    inner: Arc<Resilient>,
}

impl ResilientClient {
    /// Connect eagerly (so configuration errors surface here, not on the
    /// first operation).
    pub async fn connect(
        addr: SocketAddr,
        subject: Subject,
        policy: RetryPolicy,
    ) -> Result<ResilientClient> {
        let inner = Arc::new(Resilient {
            addr,
            subject,
            policy,
            conn: Mutex::new(ConnSlot { client: None }),
            rng: Mutex::new(FaultRng::new(policy.seed)),
        });
        inner.current().await?;
        Ok(ResilientClient { inner })
    }

    pub fn subject(&self) -> &Subject {
        &self.inner.subject
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.inner.policy
    }

    /// Address this client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }
}

/// The lost-ack contract (DESIGN.md §4.2), applied to one attempt's
/// `outcome`. A write whose reply was lost — or whose request frame was
/// duplicated — collides with its own earlier execution; this turns that
/// collision back into the reply the caller never saw. `attempt` is the
/// caller's 0-based try count: `attempt > 0` means an earlier try may
/// have executed unseen. An `Err` in transit (`Transport`, `Timeout`,
/// `Overloaded`) — from the attempt or from a read-back — tells the
/// caller's retry loop to run the attempt again.
///
/// Everything not named here is re-sent as is: reads and barriers change
/// nothing; a re-applied patch (`Patch`, `BatchPut`, an unconditional
/// `Transact`) merges to an identical value the store suppresses as a
/// no-op commit; a preconditioned `Transact` replay fails its own OCC
/// guard; UDFs are assignment-style and converge; log appends are
/// at-least-once (consumers treat records as events, not commands).
pub(crate) async fn recover_lost_ack(
    exchange: &dyn Exchange,
    request: &Request,
    outcome: Result<Response>,
    attempt: u32,
) -> Result<Response> {
    match (request, outcome) {
        // Even a first attempt can collide with its own duplicated
        // execution, so no attempt guard: the store exists, which is all
        // the caller asked for.
        (Request::CreateStore { .. }, Err(Error::AlreadyExists(_))) => Ok(Response::Ok),
        (Request::LogCreateStore { .. }, Err(Error::AlreadyExists(_))) if attempt > 0 => {
            Ok(Response::Ok)
        }
        // The server applies each op independently, so a replayed batch
        // collides item by item.
        (Request::BatchCommit { store, ops }, Ok(Response::Batch { mut items })) => {
            for (op, item) in ops.iter().zip(items.iter_mut()) {
                let Some(error) = item.as_error() else {
                    continue;
                };
                if let Ok(revision) = recover_item(exchange, store, op, error, attempt).await? {
                    *item = ItemResult::Revision { revision };
                }
            }
            Ok(Response::Batch { items })
        }
        // A scalar write is the batch-of-one case of the same rules.
        (scalar, Err(error)) => match scalar_op(scalar) {
            Some((store, op)) => recover_item(exchange, store, &op, error, attempt)
                .await?
                .map(|revision| Response::Revision { revision }),
            None => Err(error),
        },
        (_, outcome) => outcome,
    }
}

fn scalar_op(request: &Request) -> Option<(&StoreId, BatchOp)> {
    let (store, op) = match request {
        Request::Create { store, key, value } => (
            store,
            BatchOp::Create {
                key: key.clone(),
                value: value.clone(),
            },
        ),
        Request::Update {
            store,
            key,
            value,
            expected,
        } => (
            store,
            BatchOp::Update {
                key: key.clone(),
                value: value.clone(),
                expected: *expected,
            },
        ),
        Request::Delete { store, key } => (store, BatchOp::Delete { key: key.clone() }),
        _ => return None,
    };
    Some((store, op))
}

/// Decide one failed item. The outer `Err` means the read-back itself
/// failed in transit, so the item stays ambiguous and the whole attempt
/// must re-run; the inner result is the item's final outcome.
///
/// * create → `AlreadyExists`: read back; the same value means the
///   create was ours, and the object's `created_revision` is the
///   revision the lost reply carried.
/// * preconditioned update → `Conflict`: read back; the same value means
///   the conflict is our own commit, at the object's `revision`.
/// * delete → `NotFound` on a retry: already gone. The commit revision
///   went with the lost reply, so answer the `ZERO` sentinel. There is
///   no value left to compare, so a first-attempt `NotFound` stays an
///   error.
async fn recover_item(
    exchange: &dyn Exchange,
    store: &StoreId,
    op: &BatchOp,
    error: Error,
    attempt: u32,
) -> Result<Result<Revision>> {
    type Pick = fn(&StoredObject) -> Revision;
    let (key, value, pick): (&ObjectKey, &Value, Pick) = match (op, &error) {
        (BatchOp::Create { key, value }, Error::AlreadyExists(_)) => {
            (key, value, |o| o.created_revision)
        }
        (
            BatchOp::Update {
                key,
                value,
                expected: Some(_),
            },
            Error::Conflict { .. },
        ) => (key, value, |o| o.revision),
        (BatchOp::Delete { .. }, Error::NotFound(_)) if attempt > 0 => {
            return Ok(Ok(Revision::ZERO))
        }
        _ => return Ok(Err(error)),
    };
    match exchange.get(store.clone(), key.clone()).await {
        Ok(object) if *object.value == *value => Ok(Ok(pick(&object))),
        Err(e @ (Error::Transport(_) | Error::Timeout(_) | Error::Overloaded { .. })) => Err(e),
        _ => Ok(Err(error)),
    }
}

/// "Retry on the current connection", as an exchange: what a call does,
/// and how a resumed stream is (re)opened from a position.
impl Exchange for Resilient {
    /// Retry with reconnect and backoff, recovering lost acks per
    /// `recover_lost_ack` (DESIGN.md §4.2).
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(async move {
            let request = &request;
            self.retry(|c, attempt| async move {
                let outcome = c.call(request.clone()).await;
                recover_lost_ack(&*c, request, outcome, attempt).await
            })
            .await
        })
    }

    /// A raw stream on the current connection; it ends with it.
    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        Box::pin(async move {
            let request = &request;
            self.retry(|c, _| async move { c.open(request.clone()).await })
                .await
        })
    }
}

impl Exchange for ResilientClient {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        self.inner.call(request)
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        Box::pin(stream::resume(Arc::clone(&self.inner) as _, request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// An exchange that answers every read-back `Get` with a canned reply.
    struct ReadBack(Result<StoredObject>);

    impl Exchange for ReadBack {
        fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
            assert!(matches!(request, Request::Get { .. }), "{request:?}");
            let reply = self.0.clone().map(|object| Response::Object { object });
            Box::pin(async move { reply })
        }
        fn open(&self, _: Request) -> BoxFuture<'_, Result<Subscription>> {
            unreachable!("recovery opens no streams")
        }
    }

    /// What recovery should make of the collision.
    #[derive(Debug, Clone, PartialEq)]
    enum Want {
        Recovered(Revision),
        /// The collision was somebody else's write: the error stands.
        Stands,
        /// The read-back was lost in transit: run the attempt again.
        Rerun,
    }

    /// {create, update, delete} × {scalar, batch item} × {attempt 0, > 0}
    /// × {value matches, differs, read-back lost}: the scalar rules are
    /// the batch-of-one case of the per-item rules, so both forms must
    /// reach the same verdict in every cell.
    #[tokio::test]
    async fn lost_ack_recovery_table() {
        let store = StoreId::new("t/state");
        let key = ObjectKey::new("k");
        let ours = json!({"v": 1});
        let held = |value: Value| {
            let mut object = StoredObject::new(key.clone(), value, Revision(7));
            object.created_revision = Revision(3);
            Ok(object)
        };
        let read_backs = [
            ("matches", held(ours.clone())),
            ("differs", held(json!({"v": 2}))),
            ("lost", Err(Error::Transport("read-back lost".into()))),
        ];
        let create = BatchOp::Create {
            key: key.clone(),
            value: ours.clone(),
        };
        let update = BatchOp::Update {
            key: key.clone(),
            value: ours.clone(),
            expected: Some(Revision(6)),
        };
        let delete = BatchOp::Delete { key: key.clone() };
        let conflict = Error::Conflict {
            expected: 6,
            actual: 7,
        };
        let cases = [
            (create, Error::AlreadyExists("k".into())),
            (update, conflict),
            (delete, Error::NotFound("k".into())),
        ];
        for (op, collision) in &cases {
            for attempt in [0u32, 2] {
                for (label, read_back) in &read_backs {
                    let want = match (op, *label, attempt) {
                        (BatchOp::Delete { .. }, _, 0) => Want::Stands,
                        (BatchOp::Delete { .. }, _, _) => Want::Recovered(Revision::ZERO),
                        (BatchOp::Create { .. }, "matches", _) => Want::Recovered(Revision(3)),
                        (BatchOp::Update { .. }, "matches", _) => Want::Recovered(Revision(7)),
                        (_, "differs", _) => Want::Stands,
                        _ => Want::Rerun,
                    };
                    let exchange = ReadBack(read_back.clone());
                    let cell = format!("{op:?} attempt {attempt}, read-back {label}");

                    let scalar = match op.clone() {
                        BatchOp::Create { key, value } => Request::Create {
                            store: store.clone(),
                            key,
                            value,
                        },
                        BatchOp::Update {
                            key,
                            value,
                            expected,
                        } => Request::Update {
                            store: store.clone(),
                            key,
                            value,
                            expected,
                        },
                        BatchOp::Delete { key } => Request::Delete {
                            store: store.clone(),
                            key,
                        },
                        BatchOp::Patch { .. } => unreachable!(),
                    };
                    let got =
                        recover_lost_ack(&exchange, &scalar, Err(collision.clone()), attempt).await;
                    let got = match got {
                        Ok(Response::Revision { revision }) => Want::Recovered(revision),
                        Err(e) if e == *collision => Want::Stands,
                        Err(Error::Transport(_)) => Want::Rerun,
                        other => panic!("scalar {cell}: {other:?}"),
                    };
                    assert_eq!(got, want, "scalar {cell}");

                    let batch = Request::BatchCommit {
                        store: store.clone(),
                        ops: vec![op.clone()],
                    };
                    let outcome = Ok(Response::Batch {
                        items: vec![ItemResult::from_error(collision)],
                    });
                    let got = match recover_lost_ack(&exchange, &batch, outcome, attempt).await {
                        Ok(Response::Batch { items }) => match &items[0] {
                            ItemResult::Revision { revision } => Want::Recovered(*revision),
                            ItemResult::Error { code, .. } if code == collision.code() => {
                                Want::Stands
                            }
                            other => panic!("batch {cell}: {other:?}"),
                        },
                        Err(Error::Transport(_)) => Want::Rerun,
                        other => panic!("batch {cell}: {other:?}"),
                    };
                    assert_eq!(got, want, "batch item {cell}");
                }
            }
        }
    }
}
