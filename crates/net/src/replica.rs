//! Leader/follower replication: the node runtime, the follower
//! replicator, failover, and the client-side [`ReplicaRouter`].
//!
//! One node of a replica set is the **leader**; it serves every mutation
//! and streams its committed event sequence (the same dense revision
//! stream the WAL and watch history order) to **followers** over
//! `ReplSubscribe`. Followers read it as an ordinary resumed stream
//! ([`stream::resume`], the dense-sequence rule every stream uses), apply
//! it through their own `apply_batch` path — so their stores, revisions
//! and retained watch windows are indistinguishable from the leader's —
//! and `ReplAck` their durably-staged high-water mark back. A
//! `Replicated(n)` write acks to the client only once `n` followers have
//! staged it.
//!
//! **Fencing.** Roles are guarded twice: follower nodes reject client
//! mutations on replicated stores with [`Error::NotLeader`], and — the
//! backstop that needs no connectivity — a deposed leader can never
//! acknowledge a write, because its followers have stopped acking it and
//! `Replicated(n)` holds the ack until quorum. Promotion bumps a fencing
//! epoch; `ReplPromote` with a stale epoch is refused.
//!
//! **Failover.** Followers heartbeat the leader (`ReplStatus` doubles as
//! the probe). After a miss budget, survivors poll every peer's status
//! and elect deterministically: the most-caught-up reachable node wins,
//! ties broken toward the lowest node index, so independent electors
//! agree without a coordination round. The winner promotes itself at
//! `max_seen_epoch + 1`; losers re-point their replicators at it.
//!
//! **Reads.** [`ReplicaRouter`] sends writes to the leader and fans
//! reads out across the replica set with read-your-writes session
//! guarantees: it remembers the last revision each store acked to *this*
//! session and issues a `ReplWait` barrier before serving the session's
//! read from a replica that has not provably caught up to it.

use crate::api::{misrouted, watch_event, BoxFuture, Exchange, ExchangeApi, ReplStatusInfo};
use crate::client::{recover_lost_ack, ResilientClient, RetryPolicy, TcpClient};
use crate::fault::{FaultApi, FaultPlan};
use crate::loopback::LoopbackClient;
use crate::proto::{Request, Response};
use crate::server::ExchangeServer;
use crate::stream::{self, Subscription};
use knactor_rbac::Subject;
use knactor_store::{BatchOp, DataExchange, EventKind, ItemResult, ReplState, WatchEvent};
use knactor_types::{metrics, Error, Result, Revision, StoreId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::task::JoinHandle;

/// Follower → leader heartbeat cadence.
const HEARTBEAT: Duration = Duration::from_millis(20);
/// Consecutive heartbeat misses before the leader is declared dead.
const HEARTBEAT_MISSES: u32 = 5;
/// Per-probe timeout for heartbeats and election status polls.
const PROBE_TIMEOUT: Duration = Duration::from_millis(300);
/// How long an election keeps re-polling before giving up this round
/// (the follower loop immediately starts another).
const ELECTION_ROUND: Duration = Duration::from_secs(5);
/// Max events coalesced into one follower apply batch.
const APPLY_BATCH_MAX: usize = 128;
/// Bounded router retries across leader re-resolutions.
const LEAD_ATTEMPTS: u32 = 6;
/// How long `resolve_leader` keeps polling for *some* node to claim the
/// role before the write fails. Covers a full detection + election round.
const RESOLVE_DEADLINE: Duration = Duration::from_secs(10);

/// Per-node replication role state, shared between the serving stack
/// (which fences mutations) and every attached [`ReplState`] (which
/// gates quorum waits on the same flag).
pub struct ReplRuntime {
    leading: Arc<AtomicBool>,
    epoch: AtomicU64,
    failovers: Arc<metrics::Counter>,
}

impl ReplRuntime {
    fn with_role(leading: bool) -> Arc<ReplRuntime> {
        Arc::new(ReplRuntime {
            leading: Arc::new(AtomicBool::new(leading)),
            epoch: AtomicU64::new(0),
            failovers: metrics::global().counter("knactor_failover_total", &[]),
        })
    }

    /// A node that starts out leading (epoch 0).
    pub fn leader() -> Arc<ReplRuntime> {
        ReplRuntime::with_role(true)
    }

    /// A node that starts out following.
    pub fn follower() -> Arc<ReplRuntime> {
        ReplRuntime::with_role(false)
    }

    pub fn is_leader(&self) -> bool {
        self.leading.load(Ordering::Acquire)
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The flag [`ReplState`]s share so promotion/demotion flips quorum
    /// behaviour for every store on the node at once.
    pub fn leading_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.leading)
    }

    /// Demote to follower (initial wiring; a live demotion happens via
    /// [`ReplRuntime::observe_epoch`]).
    pub fn set_follower(&self) {
        self.leading.store(false, Ordering::Release);
    }

    /// Take leadership at `epoch`. Fails with `Conflict` unless `epoch`
    /// is strictly newer than the node's current epoch — the fence that
    /// keeps a deposed leader (or a lost election round) from reclaiming
    /// the role with stale authority.
    pub fn promote(&self, epoch: u64) -> Result<()> {
        loop {
            let current = self.epoch.load(Ordering::Acquire);
            if epoch <= current {
                return Err(Error::Conflict {
                    expected: epoch,
                    actual: current,
                });
            }
            if self
                .epoch
                .compare_exchange(current, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if !self.leading.swap(true, Ordering::AcqRel) {
                    self.failovers.inc();
                }
                return Ok(());
            }
        }
    }

    /// Learn of a peer's epoch. A strictly higher epoch than ours means
    /// someone else was promoted after us: record it and stand down.
    pub fn observe_epoch(&self, epoch: u64) {
        loop {
            let current = self.epoch.load(Ordering::Acquire);
            if epoch <= current {
                return;
            }
            if self
                .epoch
                .compare_exchange(current, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.leading.store(false, Ordering::Release);
                return;
            }
        }
    }
}

/// Static wiring of one follower node into its replica set.
#[derive(Clone)]
pub struct FollowerConfig {
    /// Follower identity used in `ReplAck`s (must be unique per node).
    pub name: String,
    /// This node's index in `peers`.
    pub node_index: usize,
    /// Every replica-set member's address, index-aligned across nodes.
    pub peers: Vec<SocketAddr>,
    /// Index of the node believed to lead at startup.
    pub initial_leader: usize,
}

/// Handle onto one follower node's replication machinery.
pub struct FollowerHandle {
    task: JoinHandle<()>,
    shutdown: Arc<AtomicBool>,
    leader_idx: Arc<AtomicUsize>,
}

impl FollowerHandle {
    /// Index of the peer this follower currently replicates from.
    pub fn leader_index(&self) -> usize {
        self.leader_idx.load(Ordering::Acquire)
    }

    pub async fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        self.task.abort();
        let _ = self.task.await;
    }
}

/// Start a follower node's replication + failover machinery.
///
/// `apply` is the path replicated events take into this node's own
/// exchange — normally a [`LoopbackClient`] onto `server`'s exchanges,
/// optionally decorated with a [`FaultApi`] to inject replication delay
/// or loss in tests. The apply path runs on the follower role, where
/// quorum waits are passive, so it can never deadlock on itself.
pub fn run_follower(
    server: &ExchangeServer,
    apply: Arc<dyn Exchange>,
    config: FollowerConfig,
) -> FollowerHandle {
    let object = Arc::clone(&server.object);
    let runtime = server.repl();
    let shutdown = Arc::new(AtomicBool::new(false));
    let leader_idx = Arc::new(AtomicUsize::new(config.initial_leader));
    let task = tokio::spawn(follower_loop(
        object,
        runtime,
        apply,
        config,
        Arc::clone(&leader_idx),
        Arc::clone(&shutdown),
    ));
    FollowerHandle {
        task,
        shutdown,
        leader_idx,
    }
}

async fn follower_loop(
    object: Arc<DataExchange>,
    runtime: Arc<ReplRuntime>,
    apply: Arc<dyn Exchange>,
    config: FollowerConfig,
    leader_idx: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::Acquire) && !runtime.is_leader() {
        let target = leader_idx.load(Ordering::Acquire);
        let addr = config.peers[target];
        let connected = TcpClient::connect(addr, Subject::integrator(&config.name)).await;
        match connected {
            Ok(client) => {
                let client = Arc::new(client.with_request_timeout(PROBE_TIMEOUT));
                replication_session(&object, &runtime, &apply, &config, &client, &shutdown).await;
            }
            Err(_) => {
                tokio::time::sleep(HEARTBEAT).await;
            }
        }
        if shutdown.load(Ordering::Acquire) || runtime.is_leader() {
            break;
        }
        // The session collapsed (or the leader never answered): elect.
        run_election(&object, &runtime, &config, &leader_idx, &shutdown).await;
    }
}

/// One replication session against one (believed) leader connection.
/// Returns when the connection dies, the peer stops leading, heartbeats
/// lapse, or this node is promoted.
async fn replication_session(
    object: &Arc<DataExchange>,
    runtime: &Arc<ReplRuntime>,
    apply: &Arc<dyn Exchange>,
    config: &FollowerConfig,
    client: &Arc<TcpClient>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut streams: HashMap<StoreId, JoinHandle<()>> = HashMap::new();
    let mut misses = 0u32;
    let mut ticker = tokio::time::interval(HEARTBEAT);
    ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
    loop {
        ticker.tick().await;
        if shutdown.load(Ordering::Acquire) || runtime.is_leader() || client.is_closed() {
            break;
        }
        // Track replicated stores as they appear (the router broadcasts
        // `CreateStore` to every member, so discovery is local).
        for id in object.store_ids() {
            let replicated = object
                .store(&id)
                .map(|s| s.repl().is_some() || s.profile().repl_acks > 0)
                .unwrap_or(false);
            let dead = streams.get(&id).map(|t| t.is_finished()).unwrap_or(true);
            if replicated && dead {
                streams.insert(
                    id.clone(),
                    tokio::spawn(replicate_store(
                        Arc::clone(object),
                        Arc::clone(runtime),
                        Arc::clone(apply),
                        config.name.clone(),
                        Arc::clone(client),
                        id,
                        Arc::clone(shutdown),
                    )),
                );
            }
        }
        // Heartbeat: the leader's status doubles as liveness, epoch
        // learning, and role verification.
        match tokio::time::timeout(PROBE_TIMEOUT, client.repl_status()).await {
            Ok(Ok(status)) => {
                misses = 0;
                runtime.observe_epoch(status.epoch);
                if !status.leader {
                    break; // it stood down; re-resolve
                }
            }
            _ => {
                misses += 1;
                if misses >= HEARTBEAT_MISSES {
                    break;
                }
            }
        }
    }
    for (_, task) in streams {
        task.abort();
    }
}

/// Convert one replicated event into the batch op that reproduces it.
fn op_of(event: &WatchEvent) -> BatchOp {
    match event.kind {
        EventKind::Created => BatchOp::Create {
            key: event.key.clone(),
            value: (*event.value).clone(),
        },
        EventKind::Updated => BatchOp::Update {
            key: event.key.clone(),
            value: (*event.value).clone(),
            expected: None,
        },
        EventKind::Deleted => BatchOp::Delete {
            key: event.key.clone(),
        },
    }
}

/// Stream one store's replication feed and apply it locally. Runs until
/// the feed, the apply path, or the node's follower role ends; the
/// session loop respawns it (resubscribing from the store's recovered
/// revision), which is also the catch-up path after a follower crash.
///
/// The feed is an ordinary resumed stream ([`stream::resume`]) from what
/// the store holds: the dense-sequence rule drops a redelivered event and
/// re-opens on a lost one, so every batch applied here continues the
/// store's revisions exactly.
async fn replicate_store(
    object: Arc<DataExchange>,
    runtime: Arc<ReplRuntime>,
    apply: Arc<dyn Exchange>,
    follower: String,
    client: Arc<TcpClient>,
    id: StoreId,
    shutdown: Arc<AtomicBool>,
) {
    let Ok(local) = object.store(&id) else { return };
    'subscribe: while !shutdown.load(Ordering::Acquire) && !runtime.is_leader() {
        let request = Request::ReplSubscribe {
            store: id.clone(),
            from: local.revision(),
        };
        let Ok(mut feed) = stream::resume(Arc::clone(&client) as _, request).await else {
            return; // connection-level problem; session handles it
        };
        while let Some(first) = feed.recv().await {
            // Coalesce whatever else already arrived into one apply
            // batch (one group fsync + one ack on the follower).
            let mut events: Vec<WatchEvent> = watch_event(first).into_iter().collect();
            while events.len() < APPLY_BATCH_MAX {
                match feed.try_recv().and_then(watch_event) {
                    Some(event) => events.push(event),
                    None => break,
                }
            }
            let ops = events.iter().map(op_of).collect();
            let applied = match apply.batch_commit(id.clone(), ops).await {
                Ok(items) => items,
                Err(_) => continue 'subscribe, // e.g. WAL crash injection; re-sync
            };
            // The follower must land the leader's exact revisions; any
            // divergence means its state drifted (or a crash point fired
            // mid-batch) and the only safe continuation is a fresh
            // subscription from what the store really holds.
            let clean = applied.len() == events.len()
                && applied.iter().zip(&events).all(|(item, event)| {
                    matches!(item, ItemResult::Revision { revision } if *revision == event.revision)
                });
            let high = match events.last() {
                Some(last) if clean => last.revision,
                _ => continue 'subscribe,
            };
            if client
                .repl_ack(id.clone(), follower.clone(), high)
                .await
                .is_err()
            {
                return;
            }
        }
        // Feed ended (fell off the leader's window, or connection close):
        // resubscribe — the session loop notices dead connections via its
        // heartbeat.
        if client.is_closed() {
            return;
        }
    }
}

/// Deterministic failover: poll every peer, adopt an existing newer
/// leader if one emerged, otherwise promote the most-caught-up reachable
/// node (ties to the lowest index). Every elector runs the same rule on
/// the same (quiesced — the old leader is gone, so progress has stopped)
/// data, so they agree without a coordination protocol.
async fn run_election(
    object: &Arc<DataExchange>,
    runtime: &Arc<ReplRuntime>,
    config: &FollowerConfig,
    leader_idx: &Arc<AtomicUsize>,
    shutdown: &Arc<AtomicBool>,
) {
    let deadline = Instant::now() + ELECTION_ROUND;
    while Instant::now() < deadline {
        if shutdown.load(Ordering::Acquire) || runtime.is_leader() {
            return;
        }
        let mut statuses: Vec<Option<ReplStatusInfo>> = Vec::with_capacity(config.peers.len());
        for (i, addr) in config.peers.iter().enumerate() {
            if i == config.node_index {
                statuses.push(Some(ReplStatusInfo {
                    leader: runtime.is_leader(),
                    epoch: runtime.epoch(),
                    applied: object
                        .store_ids()
                        .into_iter()
                        .filter_map(|id| object.store(&id).ok().map(|s| (id, s.revision())))
                        .collect(),
                }));
                continue;
            }
            statuses.push(probe_status(*addr, &config.name).await);
        }
        let max_epoch = statuses
            .iter()
            .flatten()
            .map(|s| s.epoch)
            .max()
            .unwrap_or(0);
        runtime.observe_epoch(max_epoch);
        // A leader already emerged (possibly a racing elector): follow it.
        if let Some((idx, _)) = statuses
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(i, s)| s.leader && *i != config.node_index)
            .max_by_key(|(_, s)| s.epoch)
        {
            leader_idx.store(idx, Ordering::Release);
            return;
        }
        // Most caught-up reachable node wins; lowest index breaks ties.
        let winner = statuses
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.total_applied())))
            .max_by(|(ai, at), (bi, bt)| at.cmp(bt).then(bi.cmp(ai)))
            .map(|(i, _)| i);
        match winner {
            Some(i) if i == config.node_index => {
                // promote() refuses stale epochs, so losing a race here
                // just sends us back around the loop to adopt the winner.
                if runtime.promote(max_epoch + 1).is_ok() {
                    return;
                }
            }
            Some(_) => {
                // The winner should promote itself shortly; re-poll.
                tokio::time::sleep(Duration::from_millis(50)).await;
            }
            None => {
                tokio::time::sleep(Duration::from_millis(50)).await;
            }
        }
    }
}

async fn probe_status(addr: SocketAddr, name: &str) -> Option<ReplStatusInfo> {
    let connect = tokio::time::timeout(
        PROBE_TIMEOUT,
        TcpClient::connect(addr, Subject::integrator(name)),
    );
    let client = connect.await.ok()?.ok()?;
    tokio::time::timeout(PROBE_TIMEOUT, client.repl_status())
        .await
        .ok()?
        .ok()
}

// ---------------------------------------------------------------------------
// ReplicaRouter
// ---------------------------------------------------------------------------

/// Client-side entry point to a replica set, as one more [`Exchange`]
/// layer: writes go to the leader (re-resolving through
/// `NotLeader`/transport failures and failovers), reads round-robin
/// across the whole set with read-your-writes session barriers, and
/// watches ride replicas so they only ever observe replicated — hence
/// ack-eligible — state. The members are any [`Exchange`]s, typically one
/// [`ResilientClient`] per node.
pub struct ReplicaRouter {
    nodes: Vec<Arc<dyn Exchange>>,
    leader: AtomicUsize,
    rr: AtomicUsize,
    reads: AtomicU64,
    /// Nodes recently seen dead; skipped by read rotation and revived
    /// periodically (and whenever a status poll answers).
    dead: Vec<AtomicBool>,
    /// Session write high-water marks: last *acked* revision per store.
    session: Mutex<HashMap<StoreId, u64>>,
    /// Per-(node, store) proof of catch-up, so the barrier round-trip is
    /// paid once per write burst, not once per read.
    caught_up: Mutex<HashMap<(usize, StoreId), u64>>,
}

/// Where a replica set sends a request.
enum Route<'a> {
    /// Every member materializes the store (followers need it before the
    /// replication stream can land).
    Broadcast,
    /// Any caught-up member may answer a read of this store.
    Replica(&'a StoreId),
    /// Mutations, registrations, and log traffic (log stores are not
    /// replicated; they ride the leader like any single-node deployment).
    Leader,
}

fn route(request: &Request) -> Route<'_> {
    match request {
        Request::CreateStore { .. } => Route::Broadcast,
        Request::Get { store, .. } | Request::List { store } | Request::BatchGet { store, .. } => {
            Route::Replica(store)
        }
        _ => Route::Leader,
    }
}

impl ReplicaRouter {
    /// Connect one resilient client per replica-set member and resolve
    /// the current leader.
    pub async fn connect(
        addrs: &[SocketAddr],
        subject: Subject,
        policy: RetryPolicy,
    ) -> Result<ReplicaRouter> {
        let mut nodes: Vec<Arc<dyn Exchange>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            nodes.push(Arc::new(
                ResilientClient::connect(*addr, subject.clone(), policy).await?,
            ));
        }
        Ok(ReplicaRouter::over(nodes).await)
    }

    /// Route over the given members (index-aligned with the replica
    /// set) and resolve the current leader.
    pub async fn over(nodes: Vec<Arc<dyn Exchange>>) -> ReplicaRouter {
        assert!(!nodes.is_empty(), "a replica set has at least one node");
        let router = ReplicaRouter {
            dead: nodes.iter().map(|_| AtomicBool::new(false)).collect(),
            nodes,
            leader: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            reads: AtomicU64::new(0),
            session: Mutex::new(HashMap::new()),
            caught_up: Mutex::new(HashMap::new()),
        };
        let _ = router.resolve_leader().await;
        router
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index of the node currently believed to lead.
    pub fn leader_index(&self) -> usize {
        self.leader.load(Ordering::Acquire)
    }

    fn leader_node(&self) -> &Arc<dyn Exchange> {
        &self.nodes[self.leader_index()]
    }

    /// Poll the set until some node claims leadership; highest epoch
    /// wins. Nodes that answer are revived for read rotation.
    pub async fn resolve_leader(&self) -> Result<usize> {
        let deadline = Instant::now() + RESOLVE_DEADLINE;
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, node) in self.nodes.iter().enumerate() {
                let status = tokio::time::timeout(PROBE_TIMEOUT, node.repl_status()).await;
                match status {
                    Ok(Ok(s)) => {
                        self.dead[i].store(false, Ordering::Release);
                        if s.leader && best.map(|(_, e)| s.epoch > e).unwrap_or(true) {
                            best = Some((i, s.epoch));
                        }
                    }
                    _ => self.dead[i].store(true, Ordering::Release),
                }
            }
            if let Some((idx, _)) = best {
                self.leader.store(idx, Ordering::Release);
                return Ok(idx);
            }
            if Instant::now() >= deadline {
                return Err(Error::Timeout(
                    "no replica-set node claims leadership".to_string(),
                ));
            }
            tokio::time::sleep(Duration::from_millis(50)).await;
        }
    }

    /// Run `request` against the leader, re-resolving leadership and
    /// retrying on `NotLeader` and transport-level failures (which is how
    /// a write in flight during failover finds the new leader). A try
    /// past the first may follow one that executed on a now-dead leader
    /// without us seeing its ack, so every outcome passes through the
    /// shared [`recover_lost_ack`] with the routing attempt number.
    async fn lead(&self, request: &Request) -> Result<Response> {
        let mut last: Option<Error> = None;
        for attempt in 0..LEAD_ATTEMPTS {
            let node = self.leader_node();
            let outcome = node.call(request.clone()).await;
            match recover_lost_ack(&**node, request, outcome, attempt).await {
                Err(e @ (Error::NotLeader { .. } | Error::Transport(_) | Error::Timeout(_))) => {
                    last = Some(e);
                    if let Err(resolve) = self.resolve_leader().await {
                        return Err(last.unwrap_or(resolve));
                    }
                }
                other => return other,
            }
        }
        Err(last.unwrap_or_else(|| Error::Transport("leader retries exhausted".to_string())))
    }

    /// Record the writes a leader reply acked: the session's floor for
    /// replica reads.
    fn note_writes(&self, request: &Request, response: &Response) {
        let note = |store: &StoreId, rev: Revision| {
            let mut session = self.session.lock();
            let entry = session.entry(store.clone()).or_insert(0);
            *entry = (*entry).max(rev.0);
        };
        match (request, response) {
            (
                Request::Create { store, .. }
                | Request::Update { store, .. }
                | Request::Patch { store, .. }
                | Request::Delete { store, .. },
                Response::Revision { revision },
            ) => note(store, *revision),
            (
                Request::BatchPut { store, .. } | Request::BatchCommit { store, .. },
                Response::Batch { items },
            ) => {
                if let Some(high) = items.iter().filter_map(item_revision).max() {
                    note(store, high);
                }
            }
            (_, Response::Revisions { revisions }) => {
                for (store, rev) in revisions {
                    note(store, *rev);
                }
            }
            _ => {}
        }
    }

    fn session_floor(&self, store: &StoreId) -> u64 {
        self.session.lock().get(store).copied().unwrap_or(0)
    }

    /// Pick the next read node (round-robin over live nodes). Every 64
    /// reads the dead set is revived so crashed-then-recovered replicas
    /// rejoin the rotation without a control-plane event.
    fn read_candidates(&self) -> Vec<usize> {
        if self.reads.fetch_add(1, Ordering::Relaxed) % 64 == 63 {
            for flag in &self.dead {
                flag.store(false, Ordering::Release);
            }
        }
        let n = self.nodes.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        order.retain(|i| !self.dead[*i].load(Ordering::Acquire));
        let leader = self.leader.load(Ordering::Acquire);
        if !order.contains(&leader) {
            // The leader always serves as the fallback of last resort.
            order.push(leader);
        }
        order
    }

    /// Read-your-writes barrier: make sure `node` has applied this
    /// session's last acked write to `store` before reading from it.
    async fn barrier(&self, idx: usize, store: &StoreId) -> Result<()> {
        let floor = self.session_floor(store);
        if floor == 0 || idx == self.leader.load(Ordering::Acquire) {
            return Ok(());
        }
        if self
            .caught_up
            .lock()
            .get(&(idx, store.clone()))
            .map(|have| *have >= floor)
            .unwrap_or(false)
        {
            return Ok(());
        }
        let seen = self.nodes[idx]
            .repl_wait(store.clone(), Revision(floor))
            .await?;
        let mut caught = self.caught_up.lock();
        let entry = caught.entry((idx, store.clone())).or_insert(0);
        if seen.0 > *entry {
            *entry = seen.0;
        }
        Ok(())
    }

    /// Run a read against the replica set: rotate across live nodes
    /// (barriered), falling back toward the leader on failure.
    async fn read(&self, store: &StoreId, request: &Request) -> Result<Response> {
        let mut last: Option<Error> = None;
        for idx in self.read_candidates() {
            if self.barrier(idx, store).await.is_err() {
                // Replica can't prove catch-up (e.g. partitioned from the
                // leader): skip it rather than risk a stale read.
                continue;
            }
            match self.nodes[idx].call(request.clone()).await {
                Err(e @ (Error::Transport(_) | Error::Timeout(_))) => {
                    self.dead[idx].store(true, Ordering::Release);
                    last = Some(e);
                }
                other => return other,
            }
        }
        Err(last.unwrap_or_else(|| Error::Transport("no readable replica".to_string())))
    }

    /// Leader first, then the rest; `AlreadyExists` from a member that
    /// restarted with surviving state is tolerated.
    async fn broadcast(&self, request: &Request) -> Result<Response> {
        let leader = self.leader_index();
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|i| *i != leader);
        for idx in order {
            let node = &self.nodes[idx];
            let outcome = node.call(request.clone()).await;
            recover_lost_ack(&**node, request, outcome, 0).await?;
        }
        Ok(Response::Ok)
    }
}

impl Exchange for ReplicaRouter {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(async move {
            match route(&request) {
                Route::Broadcast => self.broadcast(&request).await,
                Route::Replica(store) => self.read(store, &request).await,
                Route::Leader => {
                    let response = self.lead(&request).await?;
                    self.note_writes(&request, &response);
                    Ok(response)
                }
            }
        })
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        match request {
            // Watch through the replica set, surviving node loss: the
            // stream rides one member until that member's stream ends,
            // then resumes from its position on the next one.
            Request::Watch { .. } => {
                let rotation = Rotation {
                    nodes: self.nodes.clone(),
                    current: AtomicUsize::new(self.leader_index()),
                };
                Box::pin(stream::resume(Arc::new(rotation), request))
            }
            // Log stores are not replicated; they ride the leader.
            Request::LogTail { .. } => self.leader_node().open(request),
            // Replication feeds address one node.
            other => Box::pin(async move { Err(misrouted(&other, "ReplicaRouter::open")) }),
        }
    }
}

/// "The next node in rotation", as the exchange a replica set's watch is
/// (re)opened on: every node but the one the last stream rode (initially
/// the leader), then that one as the last resort. Watches so prefer
/// replicas: a replica only ever fans out *applied replicated* state, so a
/// promotion can never retract an event the stream delivered.
struct Rotation {
    nodes: Vec<Arc<dyn Exchange>>,
    current: AtomicUsize,
}

impl Exchange for Rotation {
    /// The re-list reads the node the watch last rode.
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        self.nodes[self.current.load(Ordering::Acquire)].call(request)
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        Box::pin(async move {
            let last = self.current.load(Ordering::Acquire);
            let mut failed = Error::Transport("no watchable replica".to_string());
            let others = (0..self.nodes.len()).filter(|idx| *idx != last);
            for idx in others.chain([last]) {
                match self.nodes[idx].open(request.clone()).await {
                    Ok(stream) => {
                        self.current.store(idx, Ordering::Release);
                        return Ok(stream);
                    }
                    Err(e) => failed = e,
                }
            }
            Err(failed)
        })
    }
}

fn item_revision(item: &ItemResult) -> Option<Revision> {
    match item {
        ItemResult::Revision { revision } => Some(*revision),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// ReplicatedExchange harness
// ---------------------------------------------------------------------------

/// One member of an in-process [`ReplicatedExchange`].
pub struct ReplicaNode {
    pub name: String,
    addr: SocketAddr,
    server: Option<ExchangeServer>,
    follower: Option<FollowerHandle>,
}

impl ReplicaNode {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's exchange server, if it is still alive.
    pub fn server(&self) -> Option<&ExchangeServer> {
        self.server.as_ref()
    }
}

/// A whole replica set in one process: a leader plus N followers with
/// their replicators and failover sentinels running — the deployment
/// harness tests, benches, and `knactorctl serve --replicas` share.
pub struct ReplicatedExchange {
    nodes: Vec<ReplicaNode>,
    subject: Subject,
}

impl ReplicatedExchange {
    /// Launch a leader (node 0) and `followers` follower nodes.
    pub async fn launch(followers: usize) -> Result<ReplicatedExchange> {
        ReplicatedExchange::launch_with(followers, None).await
    }

    /// [`ReplicatedExchange::launch`] with a [`FaultPlan`] decorating
    /// every follower's *apply path* — deterministic replication delay,
    /// loss, and duplication between leader commit and follower apply.
    pub async fn launch_with(
        followers: usize,
        apply_plan: Option<FaultPlan>,
    ) -> Result<ReplicatedExchange> {
        let total = followers + 1;
        let mut servers = Vec::with_capacity(total);
        for i in 0..total {
            let server = ExchangeServer::bind_ephemeral().await?;
            if i > 0 {
                server.repl().set_follower();
            }
            servers.push(server);
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
        let subject = Subject::integrator("repl-harness");
        let mut nodes = Vec::with_capacity(total);
        for (i, server) in servers.into_iter().enumerate() {
            let name = format!("node-{i}");
            let follower = if i > 0 {
                let loopback: Arc<dyn Exchange> = Arc::new(
                    LoopbackClient::new(
                        Arc::clone(&server.object),
                        Arc::clone(&server.log),
                        Subject::integrator(&name),
                    )
                    .with_data_dir(server.data_dir()),
                );
                let apply = match &apply_plan {
                    Some(plan) => {
                        let mut plan = *plan;
                        // One independent deterministic stream per node.
                        plan.seed = plan.seed.wrapping_add(i as u64);
                        Arc::new(FaultApi::new(loopback, plan)) as Arc<dyn Exchange>
                    }
                    None => loopback,
                };
                Some(run_follower(
                    &server,
                    apply,
                    FollowerConfig {
                        name: name.clone(),
                        node_index: i,
                        peers: addrs.clone(),
                        initial_leader: 0,
                    },
                ))
            } else {
                None
            };
            nodes.push(ReplicaNode {
                name,
                addr: addrs[i],
                server: Some(server),
                follower,
            });
        }
        Ok(ReplicatedExchange { nodes, subject })
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    pub fn node(&self, idx: usize) -> &ReplicaNode {
        &self.nodes[idx]
    }

    /// Index of the node currently leading (in-process view).
    pub fn leader_index(&self) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.server
                .as_ref()
                .map(|s| s.repl().is_leader())
                .unwrap_or(false)
        })
    }

    /// A [`ReplicaRouter`] over the whole set.
    pub async fn router(&self, policy: RetryPolicy) -> Result<ReplicaRouter> {
        ReplicaRouter::connect(&self.addrs(), self.subject.clone(), policy).await
    }

    /// Kill the current leader (server shutdown: every connection dies,
    /// the node never comes back). Returns the dead node's index.
    pub async fn kill_leader(&mut self) -> usize {
        let idx = self.leader_index().expect("a live leader to kill");
        if let Some(server) = self.nodes[idx].server.take() {
            server.shutdown().await;
        }
        if let Some(follower) = self.nodes[idx].follower.take() {
            follower.stop().await;
        }
        idx
    }

    /// Wait until some surviving node has promoted itself.
    pub async fn await_leader(&self, timeout: Duration) -> Result<usize> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(idx) = self.leader_index() {
                return Ok(idx);
            }
            if Instant::now() >= deadline {
                return Err(Error::Timeout("no node promoted itself".to_string()));
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
    }

    /// Block until every *live* node's copy of `store` has applied at
    /// least `revision` (test convergence helper).
    pub async fn await_converged(
        &self,
        store: &StoreId,
        revision: Revision,
        timeout: Duration,
    ) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let caught_up = self
                .nodes
                .iter()
                .filter_map(|n| n.server.as_ref())
                .all(|s| {
                    s.object
                        .store(store)
                        .map(|st| st.revision() >= revision)
                        .unwrap_or(false)
                });
            if caught_up {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let positions: Vec<String> = self
                    .nodes
                    .iter()
                    .map(|n| match &n.server {
                        Some(s) => format!(
                            "{}={}",
                            n.name,
                            s.object.store(store).map(|st| st.revision().0).unwrap_or(0)
                        ),
                        None => format!("{}=dead", n.name),
                    })
                    .collect();
                return Err(Error::Timeout(format!(
                    "replicas not converged to {}: {}",
                    revision.0,
                    positions.join(", ")
                )));
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
    }

    /// Simulate a follower crash at store granularity: drop the node's
    /// copy of `store` and re-open it from its WAL (the PR 2 recovery
    /// path truncates any torn tail). The node's replicator re-discovers
    /// the store and catches up from its recovered revision.
    pub fn crash_recover_store(&self, idx: usize, store: &StoreId) -> Result<Revision> {
        let server = self.nodes[idx]
            .server
            .as_ref()
            .ok_or_else(|| Error::Internal("node is dead".to_string()))?;
        let profile = server.object.store(store)?.profile().clone();
        server.object.drop_store(store)?;
        let reopened = server.object.create_store(store.clone(), profile)?;
        reopened.attach_repl(ReplState::new(store, server.repl().leading_flag()));
        Ok(reopened.revision())
    }

    /// Live (non-killed) node indexes.
    pub fn live_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.server.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    pub async fn shutdown(mut self) {
        for node in &mut self.nodes {
            if let Some(follower) = node.follower.take() {
                follower.stop().await;
            }
            if let Some(server) = node.server.take() {
                server.shutdown().await;
            }
        }
    }
}
