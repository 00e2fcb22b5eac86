//! The TCP exchange client.
//!
//! One connection, pipelined: requests carry correlation ids, a background
//! demultiplexer routes replies to per-request oneshot channels and pushed
//! events to per-subscription streams. Optional injected latency models a
//! cluster network RTT deterministically (loopback TCP alone measures in
//! microseconds; pod-to-pod traffic does not).
//!
//! Two client layers live here:
//!
//! * [`TcpClient`] — one connection, fail-fast. A dead socket or a
//!   timed-out request surfaces immediately as `Transport`/`Timeout`.
//! * [`ResilientClient`] — wraps reconnection, capped exponential backoff
//!   with jitter ([`RetryPolicy`]), idempotent retry recovery keyed by OCC
//!   revisions, and watch/tail **resume**: a subscription survives the
//!   connection it was created on, deduplicating replayed events and
//!   detecting revision gaps (see [`ResilientClient`]).

use crate::api::{misrouted, BoxFuture, Exchange, ExchangeApi, TailRx, WatchRx};
use crate::fault::FaultRng;
use crate::frame::{FrameReader, FrameWriter};
use crate::proto::{
    decode, encode, encode_into, EventBody, Hello, Request, RequestEnvelope, Response, ServerMsg,
};
use knactor_logstore::TailEvent;
use knactor_rbac::{Subject, SubjectKind};
use knactor_store::{BatchOp, EventKind, ItemResult, StoredObject, WatchEvent};
use knactor_types::{Error, ObjectKey, Result, Revision, StoreId, Value};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::future::Future;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::TcpStream;
use tokio::sync::{mpsc, oneshot};

/// Byte ceiling for one corked writer drain: once this much is staged
/// unflushed, the writer flushes before draining more of its queue.
const CORK_MAX_BYTES: usize = 256 * 1024;

/// Routing state shared with the demultiplexer task.
#[derive(Default)]
struct Router {
    /// Set once the demultiplexer exits (connection gone); all later
    /// requests fail fast instead of waiting on a reply that cannot come.
    closed: bool,
    pending: HashMap<u64, oneshot::Sender<Response>>,
    /// Request id → channel to install once the Watch reply names a sub id.
    staged_watches: HashMap<u64, StagedSub>,
    object_subs: HashMap<u64, mpsc::UnboundedSender<WatchEvent>>,
    record_subs: HashMap<u64, mpsc::UnboundedSender<TailEvent>>,
}

enum StagedSub {
    Object(mpsc::UnboundedSender<WatchEvent>),
    Record(mpsc::UnboundedSender<TailEvent>),
}

/// Async exchange client over TCP.
pub struct TcpClient {
    out_tx: mpsc::UnboundedSender<RequestEnvelope>,
    router: Arc<Mutex<Router>>,
    next_id: AtomicU64,
    latency: Option<Duration>,
    /// Per-request reply deadline; `None` waits forever (the default, so
    /// existing single-connection users keep fail-on-disconnect behaviour
    /// without spurious timeouts).
    timeout: Option<Duration>,
    subject: Subject,
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

        let router = Arc::new(Mutex::new(Router::default()));

        // Writer task: serializes request envelopes onto the socket.
        // Corked: after the first envelope, drain whatever else is already
        // queued (pipelined callers, batch fan-out) into the frame buffer
        // and flush once — N requests, one write.
        let (out_tx, mut out_rx) = mpsc::unbounded_channel::<RequestEnvelope>();
        tokio::spawn(async move {
            let frames_per_flush = knactor_types::metrics::global().histogram(
                "knactor_net_batch_size",
                &[("role", "client"), ("unit", "frames")],
            );
            let mut scratch = String::new();
            'conn: while let Some(mut envelope) = out_rx.recv().await {
                let mut frames = 0u64;
                loop {
                    if encode_into(&envelope, &mut scratch).is_err() {
                        break 'conn;
                    }
                    if writer.write_frame_buffered(scratch.as_bytes()).is_err() {
                        break 'conn;
                    }
                    frames += 1;
                    // Byte-bounded cork (mirrors the server writer): a
                    // caller pipelining as fast as this loop drains would
                    // otherwise keep the drain spinning forever, growing
                    // the staged buffer without bound and never letting
                    // the flush park on a congested socket.
                    if writer.buffered_len() >= CORK_MAX_BYTES {
                        break;
                    }
                    match out_rx.try_recv() {
                        Ok(next) => envelope = next,
                        Err(_) => break,
                    }
                }
                frames_per_flush.observe_ns(frames);
                if writer.flush().await.is_err() {
                    break;
                }
            }
        });

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
                        // A watch/tail reply installs its event channel
                        // *before* the reply is released, so no event can
                        // race past an unregistered subscription.
                        if let Response::Watch { sub_id } = &response {
                            if let Some(staged) = router.staged_watches.remove(&id) {
                                match staged {
                                    StagedSub::Object(tx) => {
                                        router.object_subs.insert(*sub_id, tx);
                                    }
                                    StagedSub::Record(tx) => {
                                        router.record_subs.insert(*sub_id, tx);
                                    }
                                }
                            }
                        } else {
                            router.staged_watches.remove(&id);
                        }
                        if let Some(tx) = router.pending.remove(&id) {
                            let _ = tx.send(response);
                        }
                    }
                    ServerMsg::Event { sub_id, body } => {
                        deliver_event(&mut router, sub_id, body);
                    }
                    ServerMsg::EventBatch { sub_id, bodies } => {
                        // A batched frame is exactly N events in delivery
                        // order; unpack it through the same path.
                        for body in bodies {
                            deliver_event(&mut router, sub_id, body);
                        }
                    }
                }
            }
            // Connection gone: answer every pending request with an
            // explicit transport error (naming the peer and the fact that
            // the reply is outstanding — the caller may have executed),
            // close all subscriptions, and refuse future requests.
            let mut router = demux_router.lock();
            router.closed = true;
            let lost = Error::Transport(format!(
                "connection to {peer} lost with the reply outstanding"
            ));
            for (_, tx) in router.pending.drain() {
                let _ = tx.send(Response::from_error(&lost));
            }
            router.object_subs.clear();
            router.record_subs.clear();
        });

        Ok(TcpClient {
            out_tx,
            router,
            next_id: AtomicU64::new(1),
            latency: None,
            timeout: None,
            subject,
        })
    }

    /// Inject a fixed round-trip latency applied to every request (models
    /// cluster RTT; benchmarks use it to make transport cost explicit).
    pub fn with_latency(mut self, rtt: Duration) -> TcpClient {
        self.latency = Some(rtt);
        self
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
        self.router.lock().closed
    }

    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    async fn request_staged(&self, body: Request, staged: Option<StagedSub>) -> Result<Response> {
        if let Some(rtt) = self.latency {
            knactor_store::profile::precise_sleep(rtt).await;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = oneshot::channel();
        {
            let mut router = self.router.lock();
            if router.closed {
                return Err(Error::Transport("connection closed".to_string()));
            }
            router.pending.insert(id, tx);
            if let Some(staged) = staged {
                router.staged_watches.insert(id, staged);
            }
        }
        self.out_tx
            .send(RequestEnvelope { id, body })
            .map_err(|_| Error::Transport("connection closed".to_string()))?;
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
                    // on (and so a late Watch reply can't leak a sub).
                    let mut router = self.router.lock();
                    router.pending.remove(&id);
                    router.staged_watches.remove(&id);
                    return Err(Error::Timeout(format!(
                        "no reply within {limit:?} (request {id})"
                    )));
                }
            },
        };
        response.into_result()
    }

    /// Open a subscription: `staged` is installed by the demultiplexer when
    /// the `Watch { sub_id }` reply arrives.
    async fn subscribe(&self, request: Request, staged: StagedSub) -> Result<()> {
        match self.request_staged(request, Some(staged)).await? {
            Response::Watch { .. } => Ok(()),
            other => Err(Error::Transport(format!("unexpected response {other:?}"))),
        }
    }
}

/// Route one pushed event body to its subscription channel, dropping the
/// subscription on a gone consumer. Shared by single-event and batched
/// frames so both deliver identically.
fn deliver_event(router: &mut Router, sub_id: u64, body: EventBody) {
    match body {
        EventBody::Object { event } => {
            if let Some(tx) = router.object_subs.get(&sub_id) {
                if tx.send(event).is_err() {
                    router.object_subs.remove(&sub_id);
                }
            }
        }
        EventBody::Record { record } => {
            if let Some(tx) = router.record_subs.get(&sub_id) {
                if tx.send(TailEvent::Record(record)).is_err() {
                    router.record_subs.remove(&sub_id);
                }
            }
        }
        EventBody::Lagged {
            missed,
            resume_from,
        } => {
            if let Some(tx) = router.record_subs.get(&sub_id) {
                if tx
                    .send(TailEvent::Lagged {
                        missed,
                        resume_from,
                    })
                    .is_err()
                {
                    router.record_subs.remove(&sub_id);
                }
            }
        }
        EventBody::WatchLagged { resume_from } => {
            // The store cut this watch for exceeding its lag cap. The raw
            // stream simply ends (an unconsumed backlog is exactly what got
            // the subscription cut, so there is nothing useful to flush);
            // `resume_from` names the gapless restart point. The resilient
            // driver resubscribes from its own `last_seen` cursor, which is
            // never past `resume_from` — every event it has not delivered
            // gets replayed from history.
            knactor_types::metrics::global()
                .counter("knactor_client_watch_lagged_total", &[("role", "client")])
                .inc();
            let _ = resume_from;
            router.object_subs.remove(&sub_id);
        }
        EventBody::Closed => {
            router.object_subs.remove(&sub_id);
            router.record_subs.remove(&sub_id);
        }
    }
}

impl Exchange for TcpClient {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        // A stream request sent as a call would open a server-side
        // subscription nothing here is wired to receive.
        if request.is_stream() {
            return Box::pin(async move { Err(misrouted(&request, "call")) });
        }
        Box::pin(self.request_staged(request, None))
    }

    fn open_watch(&self, request: Request) -> BoxFuture<'_, Result<WatchRx>> {
        Box::pin(async move {
            if !matches!(
                request,
                Request::Watch { .. } | Request::ReplSubscribe { .. }
            ) {
                return Err(misrouted(&request, "open_watch"));
            }
            let (tx, rx) = mpsc::unbounded_channel();
            self.subscribe(request, StagedSub::Object(tx)).await?;
            Ok(rx)
        })
    }

    fn open_tail(&self, request: Request) -> BoxFuture<'_, Result<TailRx>> {
        Box::pin(async move {
            if !matches!(request, Request::LogTail { .. }) {
                return Err(misrouted(&request, "open_tail"));
            }
            let (tx, rx) = mpsc::unbounded_channel();
            self.subscribe(request, StagedSub::Record(tx)).await?;
            Ok(TailRx::from_channel(rx))
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

/// Everything [`ResilientClient`] shares with its watch/tail driver tasks.
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

/// Client-side resume state for one watch subscription.
struct WatchState {
    /// Highest revision delivered downstream; resubscriptions ask the
    /// server for everything after it.
    last_seen: Revision,
    /// Keys currently believed alive, so a post-horizon re-list can
    /// synthesize `Deleted` events for objects that vanished while the
    /// watch was down.
    known: BTreeSet<ObjectKey>,
}

/// A self-healing exchange client: one logical connection that survives
/// resets, with per-operation retry and resumable subscriptions.
///
/// # Watch-resume protocol
///
/// The server guarantees consecutive revisions — every commit bumps the
/// store revision by exactly one — which makes client-side integrity
/// checking possible:
///
/// * **duplicate** (revision ≤ last seen): dropped. Covers both replay
///   after resubscription and duplicated frames in transit.
/// * **gap** (revision > last seen + 1): an event frame was lost on the
///   live connection. The gapped event is *not* delivered; the client
///   resubscribes from the last seen revision and the server replays the
///   missing range from history.
/// * **stream end**: connection died; resubscribe from the last seen
///   revision with backoff.
/// * **`WatchTooOld`**: the resume point fell out of the server's bounded
///   history. Fall back to a full re-list: changed objects are delivered
///   as synthetic `Updated` events (in revision order), vanished keys as
///   synthetic `Deleted` events at the listing revision, and the watch
///   restarts from the listing revision.
///
/// Gap detection assumes the subscription sees *every* commit (no
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

impl Resilient {
    /// Establish (or re-establish) a server-side subscription for `state`,
    /// falling back to re-list when the resume point is beyond the
    /// server's history horizon. Synthetic re-list events go straight to
    /// `tx`.
    async fn establish_watch(
        &self,
        store: &StoreId,
        state: &mut WatchState,
        tx: &mpsc::UnboundedSender<WatchEvent>,
    ) -> Result<WatchRx> {
        loop {
            let from = state.last_seen;
            match self
                .retry(|c, _| async move { c.watch(store.clone(), from).await })
                .await
            {
                Ok(sub) => return Ok(sub),
                Err(Error::WatchTooOld { .. }) => {
                    let (objects, revision) = self
                        .retry(|c, _| async move { c.list(store.clone()).await })
                        .await?;
                    emit_relist(state, objects, revision, tx)?;
                    // Loop: subscribe from the listing revision (which may
                    // itself be too old by now on a busy store — then we
                    // simply re-list again).
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pump events from server subscriptions into `tx` until the consumer
    /// goes away, resubscribing across connection loss, deduplicating
    /// replays, and closing the gap-detection loop described on
    /// [`ResilientClient`].
    async fn drive_watch(
        self: Arc<Self>,
        store: StoreId,
        mut state: WatchState,
        mut sub: WatchRx,
        tx: mpsc::UnboundedSender<WatchEvent>,
    ) {
        loop {
            while let Some(event) = sub.recv().await {
                if event.revision <= state.last_seen {
                    continue; // duplicate (replay or duplicated frame)
                }
                if event.revision.0 > state.last_seen.0 + 1 {
                    break; // gap: resubscribe, do not deliver out of order
                }
                state.last_seen = event.revision;
                match event.kind {
                    EventKind::Created | EventKind::Updated => {
                        state.known.insert(event.key.clone());
                    }
                    EventKind::Deleted => {
                        state.known.remove(&event.key);
                    }
                }
                if tx.send(event).is_err() {
                    return; // consumer dropped the stream
                }
            }
            if tx.is_closed() {
                return;
            }
            // Gap or dead connection either way: resume from last_seen.
            match self.establish_watch(&store, &mut state, &tx).await {
                Ok(fresh) => sub = fresh,
                Err(_) => return, // non-retryable (e.g. Forbidden): end the stream
            }
        }
    }

    async fn tail_from(&self, store: &StoreId, from: u64) -> Result<TailRx> {
        self.retry(|c, _| async move { c.log_tail(store.clone(), from).await })
            .await
    }

    /// Pump log records, resuming from the last delivered sequence number
    /// (`log_tail(from)` is exclusive). Log sequences are dense (start at
    /// 1, +1 per record), so mid-stream dedup/gap detection mirrors the
    /// watch driver — with one wrinkle: a log whose retention window has
    /// moved past the resume point silently replays from its oldest
    /// retained record, so a forward jump at the *start* of a (re)played
    /// subscription is the retention horizon, not a lost frame, and is
    /// accepted.
    async fn drive_tail(
        self: Arc<Self>,
        store: StoreId,
        mut last_seen: u64,
        mut sub: TailRx,
        tx: mpsc::UnboundedSender<TailEvent>,
    ) {
        // True until the current subscription has yielded a record.
        let mut fresh = true;
        loop {
            while let Some(event) = sub.recv().await {
                let record = match event {
                    TailEvent::Record(record) => record,
                    TailEvent::Lagged {
                        missed,
                        resume_from,
                    } => {
                        // The store truncated records this tail never
                        // pulled. Forward the typed resume point and jump
                        // the cursor so the post-lag records are not
                        // mistaken for a lost-frame gap.
                        if resume_from > last_seen + 1 {
                            if tx
                                .send(TailEvent::Lagged {
                                    missed,
                                    resume_from,
                                })
                                .is_err()
                            {
                                return;
                            }
                            last_seen = resume_from - 1;
                        }
                        fresh = false;
                        continue;
                    }
                };
                if record.seq <= last_seen {
                    fresh = false;
                    continue; // duplicate (replay or duplicated frame)
                }
                if record.seq > last_seen + 1 && !fresh {
                    break; // mid-stream gap: a record frame was lost
                }
                fresh = false;
                last_seen = record.seq;
                if tx.send(TailEvent::Record(record)).is_err() {
                    return;
                }
            }
            if tx.is_closed() {
                return;
            }
            match self.tail_from(&store, last_seen).await {
                Ok(renewed) => {
                    sub = renewed;
                    fresh = true;
                }
                Err(_) => return,
            }
        }
    }
}

/// Turn a fresh listing into the synthetic events a resumed-too-late
/// watcher needs: `Updated` for everything that changed past `last_seen`
/// (in revision order), then `Deleted` (at the listing revision) for keys
/// that vanished while the watch was down.
fn emit_relist(
    state: &mut WatchState,
    objects: Vec<StoredObject>,
    revision: Revision,
    tx: &mpsc::UnboundedSender<WatchEvent>,
) -> Result<()> {
    let listed: BTreeSet<ObjectKey> = objects.iter().map(|o| o.key.clone()).collect();
    let mut changed: Vec<&StoredObject> = objects
        .iter()
        .filter(|o| o.revision > state.last_seen)
        .collect();
    changed.sort_by_key(|o| o.revision);
    for obj in changed {
        let event = WatchEvent {
            revision: obj.revision,
            kind: EventKind::Updated,
            key: obj.key.clone(),
            value: Arc::clone(&obj.value),
        };
        tx.send(event)
            .map_err(|_| Error::Transport("watch consumer gone".to_string()))?;
    }
    for key in state.known.difference(&listed) {
        let event = WatchEvent {
            revision,
            kind: EventKind::Deleted,
            key: key.clone(),
            value: Arc::new(Value::Null),
        };
        tx.send(event)
            .map_err(|_| Error::Transport("watch consumer gone".to_string()))?;
    }
    state.known = listed;
    state.last_seen = state.last_seen.max(revision);
    Ok(())
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

impl Exchange for ResilientClient {
    /// Retry with reconnect and backoff, recovering lost acks per
    /// `recover_lost_ack` (DESIGN.md §4.2).
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(async move {
            // Never retried: a subscription id names a stream on one
            // connection and means nothing on its successor.
            if matches!(request, Request::Unwatch { .. }) {
                return self.inner.current().await?.call(request).await;
            }
            let request = &request;
            self.inner
                .retry(|c, attempt| async move {
                    let outcome = c.call(request.clone()).await;
                    recover_lost_ack(&*c, request, outcome, attempt).await
                })
                .await
        })
    }

    fn open_watch(&self, request: Request) -> BoxFuture<'_, Result<WatchRx>> {
        Box::pin(async move {
            // Replication feeds resume from the follower's own applied
            // revision, not from a client cursor: they ride raw connections.
            let Request::Watch { store, from } = request else {
                return Err(misrouted(&request, "ResilientClient::open_watch"));
            };
            let (tx, rx) = mpsc::unbounded_channel();
            let mut state = WatchState {
                last_seen: from,
                known: BTreeSet::new(),
            };
            // Establish inline so hard errors (Forbidden, unknown store)
            // surface to the caller instead of silently closing the
            // stream later.
            let sub = self.inner.establish_watch(&store, &mut state, &tx).await?;
            let driver = Arc::clone(&self.inner);
            tokio::spawn(driver.drive_watch(store, state, sub, tx));
            Ok(rx)
        })
    }

    fn open_tail(&self, request: Request) -> BoxFuture<'_, Result<TailRx>> {
        Box::pin(async move {
            let Request::LogTail { store, from } = request else {
                return Err(misrouted(&request, "open_tail"));
            };
            let (tx, rx) = mpsc::unbounded_channel();
            let first = self.inner.tail_from(&store, from).await?;
            let driver = Arc::clone(&self.inner);
            tokio::spawn(driver.drive_tail(store, from, first, tx));
            Ok(TailRx::from_channel(rx))
        })
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
        fn open_watch(&self, _: Request) -> BoxFuture<'_, Result<WatchRx>> {
            unreachable!("recovery opens no streams")
        }
        fn open_tail(&self, _: Request) -> BoxFuture<'_, Result<TailRx>> {
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
