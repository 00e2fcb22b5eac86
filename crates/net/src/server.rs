//! The exchange server: serves Object + Log exchanges over TCP.
//!
//! One task per connection; requests on a connection are handled in
//! arrival order (the apiserver-style serialization point), while watch
//! and tail subscriptions fan out through a per-connection outbound
//! channel so pushes never block request handling. Shutdown follows the
//! Tokio graceful-shutdown pattern: a broadcast flag observed by the
//! accept loop and every connection task.

use crate::frame::{write_corked, FrameReader, FrameWriter};
use crate::local::{LocalExchange, LocalStream};
use crate::loopback::LoopbackClient;
use crate::proto::{decode, EventBody, Hello, Request, RequestEnvelope, Response, ServerMsg};
use crate::replica::ReplRuntime;
use knactor_logstore::LogExchange;
use knactor_rbac::Subject;
use knactor_store::DataExchange;
use knactor_types::{metrics, Error, Result, StoreId, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, watch};
use tokio::task::JoinHandle;

/// Overload-protection knobs for one server.
///
/// The flow-control model is layered: the per-connection outbound queue
/// is *bounded*, so a client that stops reading eventually blocks the
/// server's reply enqueue — which stops the server reading that
/// connection's requests, pushing backpressure into TCP. Before that
/// hard stop, admission control sheds new requests with a typed
/// [`Error::Overloaded`] once the connection's outbound queue passes the
/// shed watermark or the server-wide inflight count passes its cap.
/// Shed requests are rejected *before* dispatch — no side effects — so
/// retrying them is always safe.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection outbound queue capacity (replies + pushed events).
    pub outbound_queue: usize,
    /// Outbound-queue depth at which new requests on that connection are
    /// shed with `Overloaded` instead of being executed.
    pub shed_watermark: usize,
    /// Server-wide cap on concurrently executing requests; admission
    /// sheds past it.
    pub max_inflight: usize,
    /// Backoff hint carried in `Overloaded { retry_after_ms }`.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            outbound_queue: 1024,
            shed_watermark: 896,
            max_inflight: 512,
            retry_after_ms: 40,
        }
    }
}

/// A running exchange server.
pub struct ExchangeServer {
    pub object: Arc<DataExchange>,
    pub log: Arc<LogExchange>,
    local_addr: std::net::SocketAddr,
    shutdown_tx: watch::Sender<bool>,
    accept_task: JoinHandle<()>,
    /// What every connection shares; its dispatcher is also what
    /// [`Self::loopback`] runs.
    ctx: Arc<ServerCtx>,
    /// Bound to port 0: the data dir is per-instance and disposable.
    ephemeral: bool,
    repl: Arc<ReplRuntime>,
}

impl ExchangeServer {
    /// Bind `addr` (use `127.0.0.1:0` for an ephemeral port) and start
    /// serving the given exchanges.
    pub async fn bind(
        addr: &str,
        object: Arc<DataExchange>,
        log: Arc<LogExchange>,
    ) -> Result<ExchangeServer> {
        ExchangeServer::bind_with_config(addr, object, log, ServerConfig::default()).await
    }

    /// [`ExchangeServer::bind`] with explicit overload-protection knobs.
    pub async fn bind_with_config(
        addr: &str,
        object: Arc<DataExchange>,
        log: Arc<LogExchange>,
        config: ServerConfig,
    ) -> Result<ExchangeServer> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::Transport(e.to_string()))?;
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        // A server bound to an explicit port keeps a port-stable data
        // dir, so restarting it recovers its WALs. A port-0 bind asked
        // for *any* port — and the OS recycles ephemeral ports, so a
        // port-stable dir would let a fresh server silently recover a
        // dead stranger's WAL. Those dirs get a per-instance uniquifier
        // instead (and are removed on graceful shutdown).
        let ephemeral = addr.trim_end().ends_with(":0");
        let dir_name = if ephemeral {
            static EPHEMERAL_SEQ: AtomicU64 = AtomicU64::new(0);
            format!(
                "knactor-server-{local_addr}-{}-{}",
                std::process::id(),
                EPHEMERAL_SEQ.fetch_add(1, Ordering::Relaxed)
            )
        } else {
            format!("knactor-server-{local_addr}")
        };
        let data_dir = std::env::temp_dir().join(dir_name.replace(':', "_"));
        let reg = metrics::global();
        // Every node starts as its own leader: a single-node deployment
        // never notices replication exists. Harnesses demote followers
        // via `server.repl().set_follower()` right after bind.
        let repl = ReplRuntime::leader();
        let local = Arc::new(LocalExchange {
            object: Arc::clone(&object),
            log: Arc::clone(&log),
            data_dir,
            repl: Some(Arc::clone(&repl)),
        });
        let ctx = Arc::new(ServerCtx {
            local,
            next_sub: AtomicU64::new(1),
            subscriptions: AtomicUsize::new(0),
            config,
            inflight: AtomicI64::new(0),
            shed_total: reg.counter("knactor_net_shed_total", &[("role", "server")]),
            inflight_gauge: reg.gauge("knactor_net_inflight", &[("role", "server")]),
        });
        let accept_task = tokio::spawn(accept_loop(listener, Arc::clone(&ctx), shutdown_rx));
        Ok(ExchangeServer {
            object,
            log,
            local_addr,
            shutdown_tx,
            accept_task,
            ctx,
            ephemeral,
            repl,
        })
    }

    /// Convenience: fresh exchanges on an ephemeral localhost port.
    pub async fn bind_ephemeral() -> Result<ExchangeServer> {
        ExchangeServer::bind(
            "127.0.0.1:0",
            Arc::new(DataExchange::new()),
            Arc::new(LogExchange::new()),
        )
        .await
    }

    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Directory under which remotely-requested durable stores place WALs.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.ctx.local.data_dir
    }

    /// An in-process client onto this node's own dispatcher: the same
    /// leader fence and replication wiring a TCP client meets, minus the
    /// wire and admission control.
    pub fn loopback(&self, subject: Subject) -> LoopbackClient {
        LoopbackClient::over(Arc::clone(&self.ctx.local), subject)
    }

    /// Push subscriptions this server holds open across its connections
    /// (diagnostics, like `ObjectStore::subscriber_count`).
    pub fn subscriptions(&self) -> usize {
        self.ctx.subscriptions.load(Ordering::Relaxed)
    }

    /// This node's replication role state (leader by default).
    pub fn repl(&self) -> Arc<ReplRuntime> {
        Arc::clone(&self.repl)
    }

    /// Signal shutdown and wait for the accept loop to finish. Existing
    /// connections observe the flag and drain.
    pub async fn shutdown(self) {
        let _ = self.shutdown_tx.send(true);
        let _ = self.accept_task.await;
        // An ephemeral server's WALs are unreachable after shutdown (no
        // one can re-bind "the same" port-0 server), so reclaim the dir.
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.ctx.local.data_dir);
        }
    }
}

struct ServerCtx {
    local: Arc<LocalExchange>,
    next_sub: AtomicU64,
    /// Entries in the connections' `subs` maps, summed.
    subscriptions: AtomicUsize,
    config: ServerConfig,
    /// Requests currently executing across all connections.
    inflight: AtomicI64,
    shed_total: Arc<metrics::Counter>,
    inflight_gauge: Arc<metrics::Gauge>,
}

impl ServerCtx {
    /// True when new work should be shed: this connection's outbound
    /// queue is past its watermark (the client is not consuming replies
    /// fast enough) or the server-wide inflight count is at its cap.
    fn should_shed(&self, out_tx: &mpsc::Sender<ServerMsg>) -> bool {
        let queued = self.config.outbound_queue.saturating_sub(out_tx.capacity());
        queued >= self.config.shed_watermark
            || self.inflight.load(Ordering::Relaxed) >= self.config.max_inflight as i64
    }
}

/// Requests subject to admission control. Ping (health), Metrics
/// (observability), and Unwatch (teardown that *relieves* load) are
/// always admitted. So is the replication control plane: a follower ack
/// is what releases a quorum-blocked writer (shedding it would deepen
/// the overload it is reacting to), and heartbeats/promotion must work
/// precisely when the cluster is struggling.
fn sheddable(request: &Request) -> bool {
    !matches!(
        request,
        Request::Ping
            | Request::Metrics
            | Request::Unwatch { .. }
            | Request::ReplAck { .. }
            | Request::ReplStatus
            | Request::ReplSubscribe { .. }
            | Request::ReplPromote { .. }
    )
}

async fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    mut shutdown: watch::Receiver<bool>,
) {
    loop {
        tokio::select! {
            accepted = listener.accept() => {
                match accepted {
                    Ok((socket, _peer)) => {
                        let ctx = Arc::clone(&ctx);
                        let shutdown = shutdown.clone();
                        tokio::spawn(async move {
                            // A failed connection is that client's problem;
                            // the server keeps serving.
                            let _ = serve_connection(socket, ctx, shutdown).await;
                        });
                    }
                    Err(_) => break,
                }
            }
            _ = shutdown.changed() => {
                if *shutdown.borrow() {
                    break;
                }
            }
        }
    }
}

async fn serve_connection(
    socket: TcpStream,
    ctx: Arc<ServerCtx>,
    mut shutdown: watch::Receiver<bool>,
) -> Result<()> {
    socket
        .set_nodelay(true)
        .map_err(|e| Error::Transport(e.to_string()))?;
    let (read_half, write_half) = socket.into_split();
    let mut reader = FrameReader::new(read_half);

    // Everything the server sends goes through the corked writer task.
    // Its queue is *bounded*: a client that stops reading fills it, which
    // parks the enqueuers — fan-out tasks first, and ultimately the
    // request loop itself, which stops reading requests and lets TCP push
    // the backpressure to the producer.
    let (out_tx, out_rx) = mpsc::channel::<ServerMsg>(ctx.config.outbound_queue);
    let writer = FrameWriter::new(write_half);
    let writer_task = tokio::spawn(write_corked(out_rx, writer, "server"));

    // Hello frame: who is this?
    let subject = match reader.read_frame().await? {
        Some(frame) => {
            let hello: Hello = decode(&frame)?;
            subject_from_hello(&hello)?
        }
        None => return Ok(()),
    };

    // Active push subscriptions on this connection.
    let mut subs: HashMap<u64, JoinHandle<()>> = HashMap::new();

    let result = loop {
        tokio::select! {
            frame = reader.read_frame() => {
                match frame {
                    Ok(Some(frame)) => {
                        let envelope: RequestEnvelope = match decode(&frame) {
                            Ok(e) => e,
                            Err(e) => break Err(e),
                        };
                        let id = envelope.id;
                        // Admission control: shed before dispatch (no side
                        // effects, so retry is always safe). Ping, Metrics,
                        // and Unwatch stay admitted — health checks and
                        // load-relieving teardown must work *especially*
                        // under overload.
                        if sheddable(&envelope.body) && ctx.should_shed(&out_tx) {
                            ctx.shed_total.inc();
                            let response = Response::from_error(&Error::Overloaded {
                                retry_after_ms: ctx.config.retry_after_ms,
                            });
                            if out_tx.send(ServerMsg::Reply { id, response }).await.is_err() {
                                break Ok(());
                            }
                            continue;
                        }
                        ctx.inflight.fetch_add(1, Ordering::Relaxed);
                        ctx.inflight_gauge.add(1);
                        let dispatched = dispatch(
                            id,
                            envelope.body,
                            &ctx,
                            &subject,
                            &out_tx,
                            &mut subs,
                        )
                        .await;
                        ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                        ctx.inflight_gauge.sub(1);
                        let response = match dispatched {
                            // Subscription arms reply through `out_tx`
                            // themselves (the reply must be queued before
                            // the fan-out task can push its first event).
                            Ok(None) => continue,
                            Ok(Some(response)) => response,
                            Err(e) => Response::from_error(&e),
                        };
                        if out_tx.send(ServerMsg::Reply { id, response }).await.is_err() {
                            break Ok(());
                        }
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            }
            _ = shutdown.changed() => {
                if *shutdown.borrow() {
                    break Ok(());
                }
            }
        }
    };

    ctx.subscriptions.fetch_sub(subs.len(), Ordering::Relaxed);
    for (_, task) in subs {
        task.abort();
    }
    drop(out_tx);
    let _ = writer_task.await;
    result
}

/// Most events a single pushed frame may carry.
const BATCH_MAX_EVENTS: usize = 128;
/// Rough payload-byte budget per pushed frame (estimated, not encoded
/// sizes — enough to keep a run of large values from building a frame
/// anywhere near `MAX_FRAME`).
const BATCH_MAX_BYTES: usize = 256 * 1024;

/// Wrap a drained run of bodies: a lone event keeps the compact `Event`
/// form, a run becomes one `EventBatch` frame.
fn batched_msg(sub_id: u64, mut bodies: Vec<EventBody>) -> ServerMsg {
    if bodies.len() == 1 {
        ServerMsg::Event {
            sub_id,
            body: bodies.pop().expect("len checked"),
        }
    } else {
        ServerMsg::EventBatch { sub_id, bodies }
    }
}

/// Cheap payload-size estimate (no serialization) used for the byte cap.
fn approx_body_bytes(body: &EventBody) -> usize {
    match body {
        EventBody::Object { event } => approx_value_bytes(&event.value),
        EventBody::Record { record } => approx_value_bytes(&record.fields),
        _ => 16,
    }
}

fn approx_value_bytes(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 8,
        Value::Number(_) => 16,
        Value::String(s) => s.len() + 8,
        Value::Array(items) => 8 + items.iter().map(approx_value_bytes).sum::<usize>(),
        Value::Object(map) => {
            8 + map
                .iter()
                .map(|(k, v)| k.len() + 8 + approx_value_bytes(v))
                .sum::<usize>()
        }
    }
}

fn subject_from_hello(hello: &Hello) -> Result<Subject> {
    let subject = match hello.subject_kind.as_str() {
        "reconciler" => Subject::reconciler(&hello.subject_name),
        "integrator" => Subject::integrator(&hello.subject_name),
        "operator" => Subject::operator(&hello.subject_name),
        other => return Err(Error::Transport(format!("unknown subject kind '{other}'"))),
    };
    Ok(subject)
}

/// Handle one request. Stream requests enqueue their own success reply
/// on `out_tx` *before* spawning the push pump and return `Ok(None)`: the
/// channel is FIFO, so the client is guaranteed to process the reply
/// (installing the subscription routing) before the first pushed event —
/// otherwise a fast replay could race ahead of the reply and be dropped
/// by the client demultiplexer. Every other request returns
/// `Ok(Some(response))` for the caller to reply with.
async fn dispatch(
    id: u64,
    request: Request,
    ctx: &Arc<ServerCtx>,
    subject: &Subject,
    out_tx: &mpsc::Sender<ServerMsg>,
    subs: &mut HashMap<u64, JoinHandle<()>>,
) -> Result<Option<Response>> {
    match request {
        request if request.is_stream() => {
            let stream = ctx.local.open(subject, request)?;
            let sub_id = ctx.next_sub.fetch_add(1, Ordering::Relaxed);
            let response = Response::Watch { sub_id };
            // A failed send means the connection is gone: nothing to pump to.
            if out_tx.send(ServerMsg::Reply { id, response }).await.is_ok() {
                subs.insert(sub_id, tokio::spawn(pump(stream, sub_id, out_tx.clone())));
                ctx.subscriptions.fetch_add(1, Ordering::Relaxed);
            }
            Ok(None)
        }
        // Subscription ids are per connection, so teardown is handled here.
        Request::Unwatch { sub_id } => match subs.remove(&sub_id) {
            Some(task) => {
                task.abort();
                ctx.subscriptions.fetch_sub(1, Ordering::Relaxed);
                Ok(Some(Response::Ok))
            }
            None => Err(Error::NotFound(format!("subscription {sub_id}"))),
        },
        other => ctx.local.call(subject, other).await.map(Some),
    }
}

/// Push one subscription's events to the connection until either ends.
///
/// Drain-available batching: after each blocking recv, scoop up whatever
/// else is already available (bounded by count and bytes) so fan-out
/// sends one frame for N events instead of N frames.
///
/// `out.send` parks when the connection's bounded queue is full — this
/// task stops *reading* the stream, which holds no events of its own: the
/// store's retained window moves on, and a pump parked long enough finds
/// its cursor off it and ends the subscription with `WatchLagged`. No
/// queue grows behind a slow connection and no other watcher waits on it.
async fn pump(mut stream: LocalStream, sub_id: u64, out: mpsc::Sender<ServerMsg>) {
    while let Some(body) = stream.recv().await {
        let mut bytes = approx_body_bytes(&body);
        let mut bodies = vec![body];
        while bodies.len() < BATCH_MAX_EVENTS && bytes < BATCH_MAX_BYTES {
            let Some(body) = stream.try_recv() else { break };
            bytes += approx_body_bytes(&body);
            bodies.push(body);
        }
        if out.send(batched_msg(sub_id, bodies)).await.is_err() {
            return;
        }
    }
    let body = stream.end();
    let _ = out.send(ServerMsg::Event { sub_id, body }).await;
}

/// Helper used by tests and benches: a running server plus its address,
/// with exchanges pre-created for the given store ids.
pub async fn test_server(object_stores: &[&str], log_stores: &[&str]) -> Result<ExchangeServer> {
    let server = ExchangeServer::bind_ephemeral().await?;
    for id in object_stores {
        server
            .object
            .create_store(StoreId::new(*id), knactor_store::EngineProfile::instant())?;
    }
    for id in log_stores {
        server.log.create_store(StoreId::new(*id))?;
    }
    Ok(server)
}
