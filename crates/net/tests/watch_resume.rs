//! The stream conformance table: one scripted scenario per stream concern,
//! driven through `ExchangeApi::{watch, log_tail}` over every stack that
//! can be built —
//!
//! | stack                      | wire | promises |
//! |----------------------------|------|----------|
//! | `Loopback`                 | no   | ends     |
//! | `Tcp`                      | yes  | ends     |
//! | `Resilient(Tcp)`           | yes  | resumes  |
//! | `Replica(Resilient(Tcp))`  | yes  | resumes  |
//! | `Shard(Loopback)`          | no   | ends     |
//! | `Shard(Resilient(Tcp))`    | yes  | resumes  |
//!
//! — with one assertion for all of them: what a stream delivers is dense,
//! in order and exactly once. A stack that promises resume keeps that up
//! across duplicated frames, lost frames, dead connections, a resume point
//! behind the server's retained window (re-list; vanished keys arrive as
//! `Deleted`) and log retention passing the cursor (one `Lagged`). A stack
//! that does not promise it *ends* the stream (or refuses the open with a
//! typed error) — it never stalls and never delivers a gap — and a
//! re-open from the consumer's cursor continues without one, or is
//! refused because that cursor has left the window: the one fall-off
//! contract every store cursor has, watch and tail alike.
//!
//! Faults are scripted, not drawn: a [`Wire`] is a frame relay in front of
//! a server that duplicates or drops exactly the next pushed event frame,
//! or kills its connections, when told to. Waits are on state (a counter
//! the wire bumps, an event arriving); the timeouts only bound a failure.

use knactor_logstore::{LogConfig, LogExchange, TailEvent};
use knactor_net::frame::{FrameReader, FrameWriter};
use knactor_net::loopback::in_process;
use knactor_net::proto::{decode, ServerMsg};
use knactor_net::{
    ExchangeApi, ExchangeServer, ReplicaRouter, ReplicatedExchange, ResilientClient, RetryPolicy,
    ShardRouter, ShardedExchange, TailRx, TcpClient, WatchRx,
};
use knactor_rbac::Subject;
use knactor_store::{DataExchange, EngineProfile, EventKind, ReplState, WatchEvent};
use knactor_types::{metrics, Error, ObjectKey, Revision, StoreId, Value};
use serde_json::json;
use std::collections::BTreeMap;
use std::future::Future;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;

fn subject() -> Subject {
    Subject::operator("conformance")
}

fn key(i: u64) -> ObjectKey {
    ObjectKey::new(format!("obj-{i}"))
}

fn val(i: u64) -> Value {
    json!({"n": i})
}

/// A failure bound, never a correctness condition.
const PATIENCE: Duration = Duration::from_secs(10);

async fn eventually(what: &str, mut holds: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !holds() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        tokio::time::sleep(Duration::from_millis(1)).await;
    }
}

async fn within<T>(what: &str, fut: impl Future<Output = T>) -> T {
    tokio::time::timeout(PATIENCE, fut)
        .await
        .unwrap_or_else(|_| panic!("{what}: nothing within {PATIENCE:?} (a stall)"))
}

// ---------------------------------------------------------------------------
// The scripted wire
// ---------------------------------------------------------------------------

/// What the wires of one rig are told to do, and what they did.
#[derive(Default)]
struct Script {
    dup_next: AtomicBool,
    drop_next: AtomicBool,
    duplicated: AtomicU64,
    dropped: AtomicU64,
}

/// A frame relay in front of one server. Requests and replies pass
/// untouched; pushed event frames obey the [`Script`].
struct Wire {
    addr: SocketAddr,
    kill: watch::Sender<u64>,
}

impl Wire {
    async fn spawn(upstream: SocketAddr, script: Arc<Script>) -> Wire {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let (kill, killed) = watch::channel(0u64);
        tokio::spawn(async move {
            while let Ok((inbound, _)) = listener.accept().await {
                let Ok(outbound) = TcpStream::connect(upstream).await else {
                    continue;
                };
                let _ = inbound.set_nodelay(true);
                let _ = outbound.set_nodelay(true);
                let (in_read, in_write) = inbound.into_split();
                let (out_read, out_write) = outbound.into_split();
                // A clone would inherit the accept loop's never-advanced
                // version and die of a kill that predates the connection.
                let mut up = killed.clone();
                let _ = up.borrow_and_update();
                let down = up.clone();
                tokio::spawn(relay(in_read, out_write, None, up));
                tokio::spawn(relay(out_read, in_write, Some(Arc::clone(&script)), down));
            }
        });
        Wire { addr, kill }
    }

    /// Close every live connection; new ones are accepted at once.
    fn kill_connections(&self) {
        let next = *self.kill.borrow() + 1;
        let _ = self.kill.send(next);
    }
}

async fn relay<R, W>(
    read: R,
    write: W,
    script: Option<Arc<Script>>,
    mut killed: watch::Receiver<u64>,
) where
    R: tokio::io::AsyncRead + Unpin,
    W: tokio::io::AsyncWrite + Unpin,
{
    let mut reader = FrameReader::new(read);
    let mut writer = FrameWriter::new(write);
    loop {
        let frame = tokio::select! {
            frame = reader.read_frame() => { frame }
            _ = killed.changed() => { break }
        };
        let Ok(Some(frame)) = frame else { break };
        let pushed = script.as_ref().filter(|_| {
            matches!(
                decode::<ServerMsg>(&frame),
                Ok(ServerMsg::Event { .. } | ServerMsg::EventBatch { .. })
            )
        });
        let mut copies = 1;
        if let Some(script) = pushed {
            if script.drop_next.swap(false, Ordering::SeqCst) {
                script.dropped.fetch_add(1, Ordering::SeqCst);
                copies = 0;
            } else if script.dup_next.swap(false, Ordering::SeqCst) {
                script.duplicated.fetch_add(1, Ordering::SeqCst);
                copies = 2;
            }
        }
        for _ in 0..copies {
            if writer.write_frame(&frame).await.is_err() {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The rows
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stack {
    Loopback,
    Tcp,
    ResilientTcp,
    ReplicaResilientTcp,
    ShardLoopback,
    ShardResilientTcp,
}

const STACKS: [Stack; 6] = [
    Stack::Loopback,
    Stack::Tcp,
    Stack::ResilientTcp,
    Stack::ReplicaResilientTcp,
    Stack::ShardLoopback,
    Stack::ShardResilientTcp,
];

/// What keeps a rig's nodes running.
enum Nodes {
    InProcess,
    Server(ExchangeServer),
    Replicas(ReplicatedExchange),
    Shards(ShardedExchange),
}

/// One stack under test and the means to script it.
struct Rig {
    stack: Stack,
    /// The stack under test, behind the wires.
    api: Arc<dyn ExchangeApi>,
    /// The same exchange reached without faults: writes, and the truth.
    admin: Arc<dyn ExchangeApi>,
    /// Every node's exchanges and replication leading flag, for creating
    /// stores with a profile the wire cannot ask for.
    objects: Vec<(Arc<DataExchange>, Arc<AtomicBool>)>,
    logs: Vec<Arc<LogExchange>>,
    wires: Vec<Wire>,
    script: Arc<Script>,
    /// The stack promises that a stream survives faults.
    resumes: bool,
    nodes: Nodes,
}

impl Rig {
    async fn build(stack: Stack) -> Rig {
        let script = Arc::new(Script::default());
        let policy = RetryPolicy::fast(7);
        let alone = || Arc::new(AtomicBool::new(true));
        let wire_all = |addrs: Vec<SocketAddr>| {
            let script = Arc::clone(&script);
            async move {
                let mut wires = Vec::new();
                for addr in addrs {
                    wires.push(Wire::spawn(addr, Arc::clone(&script)).await);
                }
                let addrs: Vec<SocketAddr> = wires.iter().map(|w| w.addr).collect();
                (wires, addrs)
            }
        };
        let api: Arc<dyn ExchangeApi>;
        let admin: Arc<dyn ExchangeApi>;
        let mut objects = Vec::new();
        let mut logs = Vec::new();
        let mut wires = Vec::new();
        let nodes;
        match stack {
            Stack::Loopback => {
                let (object, log, client) = in_process(subject());
                api = Arc::new(client.clone());
                admin = Arc::new(client);
                objects.push((object, alone()));
                logs.push(log);
                nodes = Nodes::InProcess;
            }
            Stack::Tcp | Stack::ResilientTcp => {
                let server = ExchangeServer::bind_ephemeral().await.unwrap();
                let wired;
                (wires, wired) = wire_all(vec![server.local_addr()]).await;
                api = if stack == Stack::Tcp {
                    Arc::new(TcpClient::connect(wired[0], subject()).await.unwrap())
                } else {
                    let client = ResilientClient::connect(wired[0], subject(), policy);
                    Arc::new(client.await.unwrap())
                };
                admin = Arc::new(server.loopback(subject()));
                objects.push((Arc::clone(&server.object), alone()));
                logs.push(Arc::clone(&server.log));
                nodes = Nodes::Server(server);
            }
            Stack::ReplicaResilientTcp => {
                let set = ReplicatedExchange::launch(1).await.unwrap();
                let wired;
                (wires, wired) = wire_all(set.addrs()).await;
                let router = ReplicaRouter::connect(&wired, subject(), policy);
                api = Arc::new(router.await.unwrap());
                admin = Arc::new(set.router(policy).await.unwrap());
                for idx in set.live_nodes() {
                    let server = set.node(idx).server().unwrap();
                    let leading = server.repl().leading_flag();
                    objects.push((Arc::clone(&server.object), leading));
                    logs.push(Arc::clone(&server.log));
                }
                nodes = Nodes::Replicas(set);
            }
            Stack::ShardLoopback => {
                let (shard_objects, shard_logs, router) = ShardRouter::in_process(2, subject());
                let router = Arc::new(router);
                api = Arc::clone(&router) as _;
                admin = router;
                objects = shard_objects.into_iter().map(|o| (o, alone())).collect();
                logs = shard_logs;
                nodes = Nodes::InProcess;
            }
            Stack::ShardResilientTcp => {
                let shards = ShardedExchange::launch(2).await.unwrap();
                let wired;
                (wires, wired) = wire_all(shards.addrs()).await;
                let map = shards.map().clone();
                let router = ShardRouter::connect_resilient(map, &wired, subject(), policy);
                api = Arc::new(router.await.unwrap());
                admin = Arc::new(shards.client(subject()).await.unwrap());
                for server in shards.servers() {
                    objects.push((Arc::clone(&server.object), alone()));
                    logs.push(Arc::clone(&server.log));
                }
                nodes = Nodes::Shards(shards);
            }
        }
        let resumes = matches!(
            stack,
            Stack::ResilientTcp | Stack::ReplicaResilientTcp | Stack::ShardResilientTcp
        );
        Rig {
            stack,
            api,
            admin,
            objects,
            logs,
            wires,
            script,
            resumes,
            nodes,
        }
    }

    fn wired(&self) -> bool {
        !self.wires.is_empty()
    }

    fn replicated(&self) -> bool {
        self.stack == Stack::ReplicaResilientTcp
    }

    fn kill_connections(&self) {
        for wire in &self.wires {
            wire.kill_connections();
        }
    }

    /// Create an object store on every node, retaining only `history_cap`
    /// events: how far back a watch may start and how far it may fall behind.
    fn object_store(&self, name: &str, history_cap: usize) -> StoreId {
        let id = StoreId::new(name);
        for (object, leading) in &self.objects {
            let profile = EngineProfile {
                history_cap,
                ..EngineProfile::instant()
            };
            let acks = usize::from(self.replicated());
            let store = object.create_store(id.clone(), profile.replicated(acks));
            if self.replicated() {
                let state = ReplState::new(&id, Arc::clone(leading));
                store.unwrap().attach_repl(state);
            }
        }
        id
    }

    /// Create `objects` objects `key(first)..`, one commit each.
    async fn create(&self, store: &StoreId, first: u64, objects: u64) {
        for i in first..first + objects {
            self.admin
                .create(store.clone(), key(i), val(i))
                .await
                .unwrap();
        }
    }

    async fn shutdown(self) {
        match self.nodes {
            Nodes::InProcess => {}
            Nodes::Server(server) => server.shutdown().await,
            Nodes::Replicas(set) => set.shutdown().await,
            Nodes::Shards(shards) => shards.shutdown().await,
        }
    }
}

// ---------------------------------------------------------------------------
// The one assertion
// ---------------------------------------------------------------------------

/// What a watch has delivered so far, checked as it arrives: revisions are
/// dense from the revision the watch was opened at, and — every write of
/// these scenarios creates a distinct key — no key is created twice.
struct Delivered {
    cell: String,
    /// Virtual revisions order a merged stream by delivery, not by commit:
    /// across shards only the set of keys is fixed.
    merged: bool,
    at: u64,
    created: BTreeMap<ObjectKey, u64>,
}

impl Delivered {
    fn new(rig: &Rig, cell: String, from: u64) -> Delivered {
        Delivered {
            cell,
            merged: matches!(rig.stack, Stack::ShardLoopback | Stack::ShardResilientTcp),
            at: from,
            created: BTreeMap::new(),
        }
    }

    fn take(&mut self, event: WatchEvent) {
        let cell = &self.cell;
        assert_eq!(
            event.revision.0,
            self.at + 1,
            "{cell}: not dense: {event:?}"
        );
        self.at += 1;
        assert_eq!(event.kind, EventKind::Created, "{cell}: {event:?}");
        let again = self.created.insert(event.key.clone(), event.revision.0);
        assert_eq!(again, None, "{cell}: {} delivered twice", event.key);
    }

    /// Take the next `n` events of `rx`.
    async fn expect(&mut self, rx: &mut WatchRx, n: u64) {
        for _ in 0..n {
            let event = within(&self.cell, rx.recv()).await;
            let cell = &self.cell;
            self.take(event.unwrap_or_else(|| panic!("{cell}: ended at {}", self.at)));
        }
    }

    fn assert_created(&self, keys: std::ops::Range<u64>) {
        let want: Vec<ObjectKey> = keys.map(key).collect();
        let mut got: Vec<(u64, ObjectKey)> =
            self.created.iter().map(|(k, r)| (*r, k.clone())).collect();
        got.sort();
        let got: Vec<ObjectKey> = got.into_iter().map(|(_, k)| k).collect();
        if self.merged {
            let (mut got, mut want) = (got, want);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{}", self.cell);
        } else {
            assert_eq!(got, want, "{}", self.cell);
        }
    }
}

async fn ended(cell: &str, rx: &mut WatchRx) {
    loop {
        // Whatever was in flight may still arrive; then the stream ends.
        if within(cell, rx.recv()).await.is_none() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// The scenarios
// ---------------------------------------------------------------------------

/// Replay from history, then live; then a second watch from a delivered
/// revision replays exactly the rest.
async fn replay_then_live(rig: &Rig) {
    let cell = format!("{:?} / replay then live", rig.stack);
    let store = rig.object_store("c1/state", 64);
    rig.create(&store, 0, 5).await;
    let mut rx = rig.api.watch(store.clone(), Revision::ZERO).await.unwrap();
    let mut seen = Delivered::new(rig, cell.clone(), 0);
    seen.expect(&mut rx, 5).await;
    rig.create(&store, 5, 3).await;
    seen.expect(&mut rx, 3).await;
    seen.assert_created(0..8);

    let mut rest = rig.api.watch(store.clone(), Revision(3)).await.unwrap();
    let mut again = Delivered::new(rig, format!("{cell} (from 3)"), 3);
    again.expect(&mut rest, 5).await;
    seen.created.retain(|_, revision| *revision > 3);
    if again.merged {
        let keys = |d: &Delivered| d.created.keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&again), keys(&seen), "{cell}: the replayed rest");
    } else {
        assert_eq!(again.created, seen.created, "{cell}: the replayed rest");
    }
}

/// One pushed frame arrives twice, one never arrives: a stack that resumes
/// delivers every event once, in order, all the same.
async fn duplicated_and_dropped_frames(rig: &Rig) {
    if !(rig.wired() && rig.resumes) {
        // A bare connection has no frame-loss mode short of dying (the
        // next scenario); in process there are no frames.
        return;
    }
    let cell = format!("{:?} / duplicated and dropped frames", rig.stack);
    let store = rig.object_store("c2/state", 64);
    let mut rx = rig.api.watch(store.clone(), Revision::ZERO).await.unwrap();
    let mut seen = Delivered::new(rig, cell, 0);
    rig.create(&store, 0, 1).await;
    seen.expect(&mut rx, 1).await;

    rig.script.dup_next.store(true, Ordering::SeqCst);
    rig.create(&store, 1, 1).await;
    let duplicated = || rig.script.duplicated.load(Ordering::SeqCst) == 1;
    eventually("the wire to duplicate a frame", duplicated).await;
    rig.create(&store, 2, 1).await;
    seen.expect(&mut rx, 2).await;

    rig.script.drop_next.store(true, Ordering::SeqCst);
    rig.create(&store, 3, 1).await;
    let dropped = || rig.script.dropped.load(Ordering::SeqCst) == 1;
    eventually("the wire to drop a frame", dropped).await;
    // The next event on the same connection exposes the gap, and the lost
    // one is replayed before it (eight more, so that every shard of a
    // sharded store sees one).
    rig.create(&store, 4, 8).await;
    seen.expect(&mut rx, 9).await;
    seen.assert_created(0..12);
}

/// The connection dies mid-stream, under a watch and under a tail.
async fn connection_drop(rig: &Rig) {
    if !rig.wired() {
        return;
    }
    let cell = format!("{:?} / connection drop", rig.stack);
    let store = rig.object_store("c3/state", 64);
    let log = StoreId::new("c3/log");
    rig.admin.log_create_store(log.clone()).await.unwrap();
    let mut rx = rig.api.watch(store.clone(), Revision::ZERO).await.unwrap();
    let mut tail = rig.api.log_tail(log.clone(), 0).await.unwrap();
    let mut seen = Delivered::new(rig, cell.clone(), 0);
    rig.create(&store, 0, 3).await;
    seen.expect(&mut rx, 3).await;
    let append = |n: u64| rig.admin.log_append(log.clone(), json!({"n": n}));
    for n in 1..=3 {
        assert_eq!(append(n).await.unwrap(), n);
        assert_eq!(within(&cell, tail.recv_record()).await.unwrap().seq, n);
    }

    rig.kill_connections();
    rig.create(&store, 3, 3).await;
    for n in 4..=6 {
        append(n).await.unwrap();
    }
    if rig.resumes {
        seen.expect(&mut rx, 3).await;
        seen.assert_created(0..6);
        for n in 4..=6 {
            assert_eq!(within(&cell, tail.recv_record()).await.unwrap().seq, n);
        }
    } else {
        ended(&cell, &mut rx).await;
        while within(&cell, tail.recv()).await.is_some() {}
    }
}

/// The watch's next revision has left the store's retained window —
/// because the watch was opened from too far back, because its connection
/// was down while the store moved on, or because its consumer stopped
/// reading. One failure mode: typed, never a gap, recovered by re-list.
async fn resume_point_behind_history(rig: &Rig) {
    let cell = format!("{:?} / resume point behind history", rig.stack);
    const PRELOADED: u64 = 10;
    let store = rig.object_store("c4/state", 4);
    rig.create(&store, 0, PRELOADED).await;

    if !rig.resumes {
        // No re-list is promised: the open is refused, typed.
        let err = rig.api.watch(store.clone(), Revision(1)).await.unwrap_err();
        let Error::WatchTooOld { from: 1, oldest } = err else {
            panic!("{cell}: expected a typed WatchTooOld, got {err:?}");
        };
        if rig.objects.len() == 1 {
            // Ten commits, four kept: revisions 7..=10.
            assert_eq!(oldest, 7, "{cell}");
            assert!(
                rig.api.watch(store.clone(), Revision(7)).await.is_ok(),
                "{cell}"
            );
        }

        // A live watch whose consumer stops reading while the store moves
        // past the window. In process nothing reads ahead on its behalf, so
        // it falls off and *ends*; over a wire the server's pump is the
        // reader and normally keeps up (`tests/overload_backpressure.rs`
        // blocks it). Either way: dense while it lasts, and once ended a
        // re-open from the consumer's cursor is the same typed refusal.
        const MORE: u64 = 24;
        let (_, at) = rig.api.list(store.clone()).await.unwrap();
        let mut rx = rig.api.watch(store.clone(), at).await.unwrap();
        rig.create(&store, 40, MORE).await;
        let mut seen = Delivered::new(rig, cell.clone(), at.0);
        while seen.at < at.0 + MORE {
            match within(&cell, rx.recv()).await {
                Some(event) => seen.take(event),
                None => break,
            }
        }
        let fell_off = seen.at < at.0 + MORE;
        assert!(
            fell_off || rig.wired(),
            "{cell}: an unread watch kept {MORE} events"
        );
        if fell_off {
            let err = rig.api.watch(store, Revision(seen.at)).await.unwrap_err();
            assert!(matches!(err, Error::WatchTooOld { .. }), "{cell}: {err:?}");
        }
        return;
    }

    // The re-list: every object once, as `Updated`, in revision order.
    let mut rx = rig.api.watch(store.clone(), Revision::ZERO).await.unwrap();
    let mut view: BTreeMap<ObjectKey, Value> = BTreeMap::new();
    let mut last = 0;
    for _ in 0..PRELOADED {
        let event = within(&cell, rx.recv())
            .await
            .expect("ended during the re-list");
        assert!(event.revision.0 > last, "{cell}: out of order: {event:?}");
        last = event.revision.0;
        assert_ne!(event.kind, EventKind::Deleted, "{cell}: {event:?}");
        view.insert(event.key, (*event.value).clone());
    }
    assert_eq!(view.len() as u64, PRELOADED, "{cell}");

    // While the watch is down the store moves past its history window:
    // the stream converges the view all the same, and the key that
    // vanished meanwhile arrives as `Deleted`.
    rig.kill_connections();
    rig.admin.delete(store.clone(), key(3)).await.unwrap();
    rig.create(&store, 20, 6).await;
    let (objects, _) = rig.admin.list(store.clone()).await.unwrap();
    let truth: BTreeMap<ObjectKey, Value> = objects
        .into_iter()
        .map(|o| (o.key, (*o.value).clone()))
        .collect();
    let mut deleted = Vec::new();
    while view != truth {
        let event = within(&cell, rx.recv())
            .await
            .expect("ended before converging");
        assert!(event.revision.0 >= last, "{cell}: out of order: {event:?}");
        last = event.revision.0;
        if event.kind == EventKind::Deleted {
            view.remove(&event.key);
            deleted.push(event.key);
        } else {
            view.insert(event.key, (*event.value).clone());
        }
    }
    assert_eq!(deleted, [key(3)], "{cell}");

    // And continues live, densely, from there.
    rig.create(&store, 30, 1).await;
    let live = within(&cell, rx.recv()).await.unwrap();
    assert_eq!(
        (live.kind, live.key),
        (EventKind::Created, key(30)),
        "{cell}"
    );
}

/// Log retention passes the tail's cursor — the one fall-off contract, as
/// `resume_point_behind_history` is for a watch. A stack that does not
/// resume ends the tail (with a typed `WatchLagged` on the wire), and a
/// re-open from the consumer's cursor is refused with `WatchTooOld`. A stack
/// that resumes recovers: one `Lagged { missed, resume_from }`, then dense
/// from the retention horizon.
async fn retention_passes_the_cursor(rig: &Rig) {
    let cell = format!("{:?} / retention passes the cursor", rig.stack);
    let id = StoreId::new("c5/log");
    let config = LogConfig {
        segment_capacity: 4,
        ..LogConfig::default()
    };
    let stores: Vec<_> = rig
        .logs
        .iter()
        .map(|log| log.create_store_with(id.clone(), config.clone()).unwrap())
        .collect();
    rig.admin
        .log_append(id.clone(), json!({"n": 0}))
        .await
        .unwrap();
    let mut tail: TailRx = rig.api.log_tail(id.clone(), 0).await.unwrap();
    assert_eq!(within(&cell, tail.recv_record()).await.unwrap().seq, 1);
    let typed_ends = || {
        metrics::global()
            .counter("knactor_client_watch_lagged_total", &[("role", "client")])
            .get()
    };
    let typed_ends_before = typed_ends();

    for store in &stores {
        store.set_retention(Some(4));
    }
    // One batch, one lock: the tail cannot read in between.
    let batch = (1..20).map(|n| json!({"n": n})).collect();
    let last = rig.admin.log_append_batch(id.clone(), batch).await.unwrap();
    assert_eq!(last, 20, "{cell}");
    let oldest = stores.iter().map(|s| s.oldest_seq()).max().unwrap();
    assert!(oldest > 2, "{cell}: retention should have truncated");

    if rig.resumes {
        let lagged = TailEvent::Lagged {
            missed: oldest - 2,
            resume_from: oldest,
        };
        assert_eq!(within(&cell, tail.recv()).await, Some(lagged), "{cell}");
        for seq in oldest..=last {
            assert_eq!(within(&cell, tail.recv_record()).await.unwrap().seq, seq);
        }
    } else {
        assert_eq!(within(&cell, tail.recv()).await, None, "{cell}: still open");
        let err = rig.api.log_tail(id.clone(), 1).await.unwrap_err();
        assert_eq!(err, Error::WatchTooOld { from: 1, oldest }, "{cell}");
        let mut reopened = rig.api.log_tail(id, oldest - 1).await.unwrap();
        let first = within(&cell, reopened.recv_record()).await.unwrap();
        assert_eq!(first.seq, oldest, "{cell}");
    }
    if rig.wired() {
        assert!(typed_ends() > typed_ends_before, "{cell}: no typed end");
    }
}

#[tokio::test]
async fn every_stack_keeps_the_stream_contract() {
    for stack in STACKS {
        let rig = Rig::build(stack).await;
        replay_then_live(&rig).await;
        duplicated_and_dropped_frames(&rig).await;
        connection_drop(&rig).await;
        if stack != Stack::Tcp {
            // A bare connection is gone after `connection_drop`.
            resume_point_behind_history(&rig).await;
            retention_passes_the_cursor(&rig).await;
        }
        rig.shutdown().await;
    }
    // The bare connection's remaining cells, on a fresh one.
    let rig = Rig::build(Stack::Tcp).await;
    resume_point_behind_history(&rig).await;
    retention_passes_the_cursor(&rig).await;
    rig.shutdown().await;
}
