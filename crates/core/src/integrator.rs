//! One lifecycle, one run loop, for every integrator kind.
//!
//! The paper treats Cast (object exchange), Sync and continuous queries
//! (log exchange) and a knactor's reconciler as instances of one idea — a
//! task living in the data exchange that reads a source stream and writes
//! derived state. This module makes that literal. A kind supplies an
//! [`Edge`]: how to take a new config, how to open its source from its
//! resume point, and what to do with a batch of events. Everything else is
//! [`run`], the only integrator loop in the crate, driven through the only
//! handle, [`Controller`]:
//!
//! * **reconfigure** swaps the configuration in place. The running task
//!   is never restarted; resume state (a Sync's tail position) survives
//!   unless the new config changes the source. `Err` — an invalid config,
//!   or one of another kind — keeps the old config running.
//! * **drain** is a barrier: every event the source had already delivered
//!   is processed before it returns. It does not stop the integrator.
//!   Drain-then-shutdown is the lossless stop sequence.
//! * **shutdown** consumes the handle and waits for the task to end.
//! * **health**/**stats** are cheap, non-blocking observations.
//!
//! A source that cannot be opened is retried every [`REOPEN_DELAY`], and a
//! source stream that *ends* (a lag cut, a dropped connection) is
//! re-opened from the edge's resume point through [`sources`] — in both
//! states commands are still answered, and neither is ever silently fatal.

use crate::cast::{Cast, CastConfig};
use crate::continuous::{Continuous, ContinuousConfig};
use crate::sync::{Sync, SyncConfig};
use crate::telemetry::TraceCollector;
use knactor_expr::FnRegistry;
use knactor_net::proto::{EventBody, Request};
use knactor_net::stream::{establish, Merge, Position};
use knactor_net::ExchangeApi;
use knactor_store::PutItem;
use knactor_types::{Error, ObjectKey, Result, StoreId, Value};
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::{mpsc, oneshot};
use tokio::task::JoinHandle;

/// What an integrator needs from whoever hosts it: the exchange it talks
/// to, the functions its expressions may call, and where its spans go.
#[derive(Clone)]
pub(crate) struct Host {
    pub(crate) api: Arc<dyn ExchangeApi>,
    pub(crate) fns: FnRegistry,
    pub(crate) traces: TraceCollector,
}

impl Host {
    pub(crate) fn new(api: Arc<dyn ExchangeApi>) -> Host {
        Host {
            api,
            fns: FnRegistry::standard(),
            traces: TraceCollector::new(),
        }
    }

    /// Upsert one object through the batched wire op, so a lone write
    /// shares the exchange's group-commit path with Cast's writes.
    pub(crate) async fn upsert(
        &self,
        store: &StoreId,
        key: &ObjectKey,
        value: Value,
    ) -> Result<()> {
        let item = PutItem {
            key: key.clone(),
            value,
            upsert: true,
        };
        let replies = self.api.batch_put(store.clone(), vec![item]).await?;
        let reply = replies.into_iter().next();
        reply
            .ok_or_else(|| Error::Internal("empty batch reply".to_string()))?
            .into_revision()?;
        Ok(())
    }
}

/// Configuration for any integrator kind — what [`Controller::reconfigure`]
/// accepts and what the composer stores per edge. This `impl` is the one
/// place that knows what the kinds are.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegratorConfig {
    Cast(CastConfig),
    Sync(SyncConfig),
    Continuous(ContinuousConfig),
}

impl From<CastConfig> for IntegratorConfig {
    fn from(config: CastConfig) -> Self {
        IntegratorConfig::Cast(config)
    }
}

impl From<SyncConfig> for IntegratorConfig {
    fn from(config: SyncConfig) -> Self {
        IntegratorConfig::Sync(config)
    }
}

impl From<ContinuousConfig> for IntegratorConfig {
    fn from(config: ContinuousConfig) -> Self {
        IntegratorConfig::Continuous(config)
    }
}

impl IntegratorConfig {
    /// The integrator kind this config is for (`"cast"` / `"sync"` /
    /// `"cq"`).
    pub fn kind(&self) -> &'static str {
        match self {
            IntegratorConfig::Cast(_) => "cast",
            IntegratorConfig::Sync(_) => "sync",
            IntegratorConfig::Continuous(_) => "cq",
        }
    }

    /// The instance name inside the config.
    pub fn name(&self) -> &str {
        match self {
            IntegratorConfig::Cast(c) => &c.name,
            IntegratorConfig::Sync(c) => &c.name,
            IntegratorConfig::Continuous(c) => &c.name,
        }
    }

    /// Validate without spawning (plan builds, aliases bound, query
    /// compiles). The composer prevalidates every edge of a new
    /// composition before touching any running one.
    pub fn validate(&self) -> Result<()> {
        match self {
            IntegratorConfig::Cast(c) => c.validate().map(|_| ()),
            IntegratorConfig::Sync(c) => c.validate(),
            IntegratorConfig::Continuous(c) => c.validate(),
        }
    }

    /// Reachability check for an edge about to spawn — the fallible step
    /// a fault-injection test trips to exercise the composer's rollback.
    pub(crate) async fn preflight(&self, api: &dyn ExchangeApi) -> Result<()> {
        match self {
            IntegratorConfig::Cast(c) => {
                for binding in c.bindings.values() {
                    api.list(binding.store.clone()).await?;
                }
            }
            IntegratorConfig::Sync(SyncConfig { source, .. })
            | IntegratorConfig::Continuous(ContinuousConfig { source, .. }) => {
                // Read past the end: cheap, allocation-free liveness probe.
                api.log_read(source.clone(), u64::MAX).await?;
            }
        }
        Ok(())
    }

    /// Spawn the integrator this config describes.
    pub(crate) async fn spawn(&self, host: &Host) -> Result<Controller> {
        match self.clone() {
            IntegratorConfig::Cast(c) => Cast(host.clone()).spawn(c).await,
            IntegratorConfig::Sync(c) => Sync(host.clone()).spawn(c).await,
            IntegratorConfig::Continuous(c) => Continuous(host.clone()).spawn(c).await,
        }
    }
}

/// Liveness of a running integrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Task alive and accepting commands.
    Running,
    /// Task finished or command channel closed.
    Stopped,
}

/// Cheap observation of a running integrator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegratorStats {
    /// `"cast"`, `"sync"`, `"cq"` or `"reconciler"`.
    pub kind: &'static str,
    /// Activations (Cast), records processed (Sync), records windowed
    /// (Continuous), or events reconciled.
    pub processed: u64,
    /// Highest source sequence processed — log-sourced kinds only.
    /// Surviving a reconfigure (same source) is the no-re-delivery
    /// guarantee the composer's minimal-restart test asserts.
    pub tail_position: Option<u64>,
}

/// What a running edge reports: written by the edge, read through the
/// [`Controller`].
#[derive(Default)]
pub(crate) struct Progress {
    pub(crate) processed: AtomicU64,
    pub(crate) windows: AtomicU64,
    pub(crate) tail: AtomicU64,
}

/// The per-kind part of an integrator; [`run`] owns the rest.
pub(crate) trait Edge: Send + 'static {
    const KIND: &'static str;
    /// Whether the source is a log tail, i.e. `Progress::tail` means
    /// something.
    const TAILS: bool;
    /// What the source delivers, tagged with the index of the stream it
    /// came from: [`TailEvent`]s or [`WatchEvent`]s.
    type Event: Send;

    /// Validate and prepare `config`, then swap it in. `Err` (invalid, or
    /// of another kind) must leave the old config running.
    fn reconfigure(&mut self, config: IntegratorConfig) -> impl Future<Output = Result<()>> + Send;

    /// Open the source from the resume point.
    fn open(&mut self) -> impl Future<Output = Result<Source<Self::Event>>> + Send;

    /// Process events in arrival order and advance the resume point past
    /// them. Failures are per event, never fatal: the loop keeps running.
    fn process(&mut self, events: Vec<(usize, Self::Event)>) -> impl Future<Output = ()> + Send;
}

/// The error for a config handed to an integrator of another kind.
pub(crate) fn wrong_kind(kind: &str, config: &IntegratorConfig) -> Error {
    Error::Internal(format!(
        "{kind} integrator handed a {} config",
        config.kind()
    ))
}

/// Closing the command channel is the stop request.
enum Command {
    Reconfigure(IntegratorConfig, oneshot::Sender<Result<()>>),
    Drain(oneshot::Sender<()>),
}

/// Handle to a running integrator task (see module docs for the
/// contract).
pub struct Controller {
    kind: &'static str,
    tails: bool,
    cmd_tx: mpsc::UnboundedSender<Command>,
    task: JoinHandle<()>,
    progress: Arc<Progress>,
}

/// Start the run loop of the edge `build` makes around the progress it
/// is to report into.
pub(crate) fn spawn<E: Edge>(build: impl FnOnce(Arc<Progress>) -> E) -> Controller {
    let (cmd_tx, cmd_rx) = mpsc::unbounded_channel();
    let progress = Arc::new(Progress::default());
    Controller {
        kind: E::KIND,
        tails: E::TAILS,
        cmd_tx,
        task: tokio::spawn(run(build(Arc::clone(&progress)), cmd_rx)),
        progress,
    }
}

impl Controller {
    /// Swap in a new configuration; returns once it is live. This is the
    /// run-time reconfiguration of §3.3: tasks T1–T3 of Table 1 are
    /// exactly one such call on a Cast.
    pub async fn reconfigure(&self, config: impl Into<IntegratorConfig>) -> Result<()> {
        let config = config.into();
        self.ask(|ack| Command::Reconfigure(config, ack)).await?
    }

    /// Process every event the source has already delivered, then return.
    /// A barrier, not a stop: events arriving afterwards still flow.
    pub async fn drain(&self) -> Result<()> {
        self.ask(Command::Drain).await
    }

    /// Send a command and wait for the loop's answer.
    async fn ask<T>(&self, command: impl FnOnce(oneshot::Sender<T>) -> Command) -> Result<T> {
        let (ack, answer) = oneshot::channel();
        self.cmd_tx
            .send(command(ack))
            .map_err(|_| Error::ShuttingDown)?;
        answer.await.map_err(|_| Error::ShuttingDown)
    }

    /// Stop the integrator and wait for it to finish.
    pub async fn shutdown(self) {
        let _ = self.stop().await;
    }

    /// Ask the loop to stop (it finishes the batch in hand first) and
    /// hand back its task for the caller to await or abort.
    pub(crate) fn stop(self) -> JoinHandle<()> {
        self.task
    }

    /// Whether the run loop is still alive and accepting commands.
    pub fn is_running(&self) -> bool {
        !self.task.is_finished() && !self.cmd_tx.is_closed()
    }

    pub fn health(&self) -> Health {
        if self.is_running() {
            Health::Running
        } else {
            Health::Stopped
        }
    }

    pub fn stats(&self) -> IntegratorStats {
        IntegratorStats {
            kind: self.kind,
            processed: self.processed(),
            tail_position: self.tails.then(|| self.tail_position()),
        }
    }

    /// Events processed so far — see [`IntegratorStats::processed`].
    pub fn processed(&self) -> u64 {
        self.progress.processed.load(Ordering::Relaxed)
    }

    /// A Cast's name for [`Controller::processed`].
    pub fn activations(&self) -> u64 {
        self.processed()
    }

    /// Highest source sequence processed (log-sourced kinds). Survives
    /// reconfiguration: the tail resumes here, so nothing is re-delivered.
    pub fn tail_position(&self) -> u64 {
        self.progress.tail.load(Ordering::Relaxed)
    }

    /// Windows closed and written so far (Continuous).
    pub fn windows_closed(&self) -> u64 {
        self.progress.windows.load(Ordering::Relaxed)
    }
}

/// How long to wait before retrying a source that failed to open.
const REOPEN_DELAY: Duration = Duration::from_millis(200);

/// The integrator loop: open the source, then serve commands and events
/// until the command channel closes.
async fn run<E: Edge>(mut edge: E, mut cmd_rx: mpsc::UnboundedReceiver<Command>) {
    loop {
        // `None` while the source is unavailable (store missing, watch
        // denied by a time-window policy, connection down).
        let mut source = edge.open().await.ok();
        loop {
            tokio::select! {
                cmd = cmd_rx.recv() => {
                    match cmd {
                        Some(Command::Reconfigure(config, ack)) => {
                            let result = edge.reconfigure(config).await;
                            let swapped = result.is_ok();
                            let _ = ack.send(result);
                            if swapped {
                                break;
                            }
                        }
                        Some(Command::Drain(ack)) => {
                            if let Some(source) = &mut source {
                                // The backlog: every event the source already holds.
                                let backlog = std::iter::from_fn(|| source.try_recv());
                                edge.process(backlog.collect()).await;
                            }
                            let _ = ack.send(());
                        }
                        None => return,
                    }
                }
                event = next(&mut source) => {
                    // Stream ended or never opened: back to `open`.
                    let Some(event) = event else { break };
                    edge.process(vec![event]).await;
                }
            }
        }
    }
}

/// The next event of an open source; with none open, the retry delay and
/// then `None`, exactly as if a stream had ended.
async fn next<E>(source: &mut Option<Source<E>>) -> Option<(usize, E)> {
    match source {
        Some(source) => source.recv().await,
        None => {
            tokio::time::sleep(REOPEN_DELAY).await;
            None
        }
    }
}

/// An open source: the streams of one or several stores merged into one
/// (`knactor_net::stream::Merge`) and typed; an event carries the index of
/// its stream. The source ends as soon as any one stream ends, so its owner
/// re-opens all of them from their resume points.
pub(crate) type Source<T> = Merge<T>;

/// Open each `Watch` or `LogTail` in `requests` from its resume point
/// through [`establish`], so a point the store's retained window has left
/// gets its typed recovery, queued ahead of the merged streams: a watch is
/// re-listed (consumers are level-triggered — they read current state;
/// no-op patches are suppressed — so re-seeing current state is safe), a
/// tail starts with the one `Lagged` counting the records it lost.
pub(crate) async fn sources<T>(
    api: &dyn ExchangeApi,
    requests: impl IntoIterator<Item = Request>,
    view: fn(EventBody) -> Option<T>,
) -> Result<Source<T>> {
    let mut recovered = Vec::new();
    let mut streams = Vec::new();
    for request in requests {
        let mut position = Position::of(&request)?;
        let (synthetic, stream) = establish(api, &request, &mut position).await?;
        recovered.push(synthetic);
        streams.push(stream);
    }
    let mut source = Merge::new(streams, view);
    for (index, synthetic) in recovered.into_iter().enumerate() {
        source.queue(index, synthetic);
    }
    Ok(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::{CastBinding, CastMode};
    use crate::knactor::Knactor;
    use crate::reconciler::{FnReconciler, ReconcilerCtx};
    use crate::runtime::Runtime;
    use crate::sync::{SyncDest, SyncMode};
    use knactor_logstore::WindowSpec;
    use knactor_net::loopback::in_process;
    use knactor_net::proto::{EventBody, ProfileSpec, QuerySpec, Response};
    use knactor_net::stream::Stream;
    use knactor_net::{BoxFuture, Exchange, Subscription};
    use knactor_rbac::Subject;
    use knactor_store::{EventKind, WatchEvent};
    use knactor_types::ObjectKey;
    use parking_lot::Mutex;
    use serde_json::json;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::task::{ready, Context, Poll};
    use std::time::Instant;

    /// Test-only exchange over a loopback one. Calls pass through; every
    /// stream it opens goes through a [`Tap`] that records how far the
    /// stream has been delivered (so a test can wait for "handed over", a
    /// state, instead of sleeping) and that can end the first stream
    /// early. It can also refuse to open streams at all.
    struct Tapped {
        inner: Arc<dyn ExchangeApi>,
        /// Per store: highest revision / sequence handed to a consumer.
        delivered: Arc<Mutex<BTreeMap<StoreId, u64>>>,
        /// How many events the next opened stream carries before it ends.
        cut_next_after: AtomicU64,
        refuse: AtomicBool,
        refusals: AtomicU64,
    }

    /// A stream that ends after `left` more events and records the
    /// position of each one it hands over.
    struct Tap {
        inner: Subscription,
        left: u64,
        store: StoreId,
        delivered: Arc<Mutex<BTreeMap<StoreId, u64>>>,
    }

    impl Stream for Tap {
        fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
            if self.left == 0 {
                return Poll::Ready(None);
            }
            let next = ready!(self.inner.poll_next(cx));
            self.left -= 1;
            let position = match &next {
                Some(EventBody::Object { event }) => Some(event.revision.0),
                Some(EventBody::Record { record }) => Some(record.seq),
                _ => None,
            };
            if let Some(position) = position {
                self.delivered.lock().insert(self.store.clone(), position);
            }
            Poll::Ready(next)
        }
    }

    impl Tapped {
        fn delivered(&self, store: &str) -> u64 {
            let delivered = self.delivered.lock();
            delivered.get(&StoreId::new(store)).copied().unwrap_or(0)
        }
    }

    impl Exchange for Tapped {
        fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
            self.inner.call(request)
        }

        fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
            Box::pin(async move {
                if self.refuse.load(Ordering::SeqCst) {
                    self.refusals.fetch_add(1, Ordering::SeqCst);
                    return Err(Error::Transport("stream refused".to_string()));
                }
                let (Request::Watch { store, .. } | Request::LogTail { store, .. }) = &request
                else {
                    return self.inner.open(request).await;
                };
                let store = store.clone();
                Ok(Subscription::new(Tap {
                    inner: self.inner.open(request).await?,
                    left: self.cut_next_after.swap(u64::MAX, Ordering::SeqCst),
                    store,
                    delivered: Arc::clone(&self.delivered),
                }))
            })
        }
    }

    /// A loopback exchange with the stores every kind below uses, behind
    /// a [`Tapped`].
    async fn exchange() -> (Arc<Tapped>, Arc<dyn ExchangeApi>) {
        let (_, _, client) = in_process(Subject::operator("lifecycle"));
        let inner: Arc<dyn ExchangeApi> = Arc::new(client);
        for store in ["src/state", "dst/state"] {
            let created = inner.create_store(store.into(), ProfileSpec::Instant);
            created.await.unwrap();
        }
        for store in ["src/log", "dst/log"] {
            inner.log_create_store(store.into()).await.unwrap();
        }
        let tapped = Arc::new(Tapped {
            inner,
            delivered: Arc::default(),
            cut_next_after: AtomicU64::new(u64::MAX),
            refuse: AtomicBool::new(false),
            refusals: AtomicU64::new(0),
        });
        (Arc::clone(&tapped), tapped)
    }

    async fn eventually<Fut: Future<Output = bool>>(what: &str, mut holds: impl FnMut() -> Fut) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !holds().await {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
    }

    /// The rows of the conformance table: each kind copies source event
    /// `i` (an object `k{i}` in `src/state`, or a record `{n: i}` in
    /// `src/log`) to a destination where it can be counted.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Cast,
        Sync,
        Cq,
        Reconciler,
    }

    const KINDS: [Kind; 4] = [Kind::Cast, Kind::Sync, Kind::Cq, Kind::Reconciler];

    fn cast_config(spec: &str) -> CastConfig {
        CastConfig {
            name: "copy".to_string(),
            dxg: knactor_dxg::Dxg::parse(spec).unwrap(),
            bindings: [
                ("A".to_string(), CastBinding::correlated("src/state")),
                ("B".to_string(), CastBinding::correlated("dst/state")),
            ]
            .into(),
            mode: CastMode::Direct,
        }
    }

    impl Kind {
        fn name(self) -> &'static str {
            match self {
                Kind::Cast => "cast",
                Kind::Sync => "sync",
                Kind::Cq => "cq",
                Kind::Reconciler => "reconciler",
            }
        }

        /// The store whose stream feeds this kind.
        fn source(self) -> &'static str {
            match self {
                Kind::Cast | Kind::Reconciler => "src/state",
                Kind::Sync | Kind::Cq => "src/log",
            }
        }

        /// The config the kind runs; a reconciler has none.
        fn config(self) -> Option<IntegratorConfig> {
            Some(match self {
                Kind::Cast => {
                    cast_config("Input:\n  A: g/v/s/a\n  B: g/v/s/b\nDXG:\n  B:\n    copied: A.n\n")
                        .into()
                }
                Kind::Sync => SyncConfig {
                    name: "copy".to_string(),
                    source: "src/log".into(),
                    dest: SyncDest::Log("dst/log".into()),
                    query: QuerySpec::default(),
                    mode: SyncMode::Stream,
                }
                .into(),
                Kind::Cq => ContinuousConfig {
                    name: "copy".to_string(),
                    source: "src/log".into(),
                    query: QuerySpec::default(),
                    window: WindowSpec::tumbling(1),
                    dest_store: "dst/state".into(),
                    dest_key: "cq".into(),
                }
                .into(),
                Kind::Reconciler => return None,
            })
        }

        /// A config of the right kind that must be rejected: a cyclic
        /// DXG, a Sync onto its own source, a zero-length window.
        fn invalid(self) -> Option<IntegratorConfig> {
            Some(match self.config()? {
                IntegratorConfig::Cast(_) => cast_config(
                    "Input:\n  A: g/v/s/a\n  B: g/v/s/b\nDXG:\n  A:\n    x: B.y\n  B:\n    y: A.x\n",
                )
                .into(),
                IntegratorConfig::Sync(mut c) => {
                    c.dest = SyncDest::Log(c.source.clone());
                    c.into()
                }
                IntegratorConfig::Continuous(mut c) => {
                    c.window = WindowSpec::tumbling(0);
                    c.into()
                }
            })
        }

        /// A valid config of some other kind.
        fn foreign(self) -> IntegratorConfig {
            match self {
                Kind::Cast => Kind::Sync.config().unwrap(),
                _ => Kind::Cast.config().unwrap(),
            }
        }

        async fn spawn(self, api: &Arc<dyn ExchangeApi>) -> Controller {
            match self.config() {
                Some(config) => config.spawn(&Host::new(Arc::clone(api))).await.unwrap(),
                None => {
                    let mark_seen = |ctx: ReconcilerCtx, event: WatchEvent| async move {
                        if event.kind != EventKind::Deleted && event.value["seen"].is_null() {
                            ctx.patch(&event.key, json!({"seen": true})).await?;
                        }
                        Ok(())
                    };
                    let knactor = Knactor::builder("src")
                        .object_store("state")
                        .reconciler(FnReconciler::new(mark_seen))
                        .build();
                    let runtime = Runtime::new();
                    let deployed = runtime.deploy_pre_externalized(knactor, Arc::clone(api));
                    deployed.await.unwrap();
                    let (_, controller) = runtime.reconcilers.lock().pop().unwrap();
                    controller
                }
            }
        }

        /// Write source event `i`; returns its position in the source
        /// stream.
        async fn feed(self, api: &dyn ExchangeApi, i: u64) -> u64 {
            match self {
                Kind::Cast | Kind::Reconciler => {
                    let key = ObjectKey::new(format!("k{i}"));
                    let created = api.create(self.source().into(), key, json!({"n": i}));
                    created.await.unwrap().0
                }
                Kind::Sync | Kind::Cq => {
                    let appended = api.log_append(self.source().into(), json!({"n": i}));
                    appended.await.unwrap()
                }
            }
        }

        /// How many source events have reached the destination.
        async fn arrived(self, api: &dyn ExchangeApi) -> u64 {
            let marked = |store: &'static str, field: &'static str| async move {
                let (objects, _) = api.list(store.into()).await.unwrap();
                objects.iter().filter(|o| !o.value[field].is_null()).count() as u64
            };
            match self {
                Kind::Cast => marked("dst/state", "copied").await,
                Kind::Reconciler => marked("src/state", "seen").await,
                Kind::Sync => api.log_read("dst/log".into(), 0).await.unwrap().len() as u64,
                Kind::Cq => match api.get("dst/state".into(), "cq".into()).await {
                    Ok(rolling) => rolling.value["records_total"].as_u64().unwrap(),
                    Err(_) => 0,
                },
            }
        }

        async fn await_arrived(self, api: &dyn ExchangeApi, n: u64) {
            let what = format!("{}: {n} events at the destination", self.name());
            eventually(&what, || async { self.arrived(api).await == n }).await;
        }
    }

    async fn stopped_within_bound(kind: Kind, controller: Controller) {
        tokio::time::timeout(Duration::from_secs(5), controller.shutdown())
            .await
            .unwrap_or_else(|_| panic!("{}: shutdown did not end the task", kind.name()));
    }

    #[tokio::test]
    async fn every_kind_keeps_the_lifecycle_contract() {
        for kind in KINDS {
            let (tapped, api) = exchange().await;
            let controller = kind.spawn(&api).await;
            assert_eq!(controller.stats().kind, kind.name());
            assert_eq!(controller.health(), Health::Running);
            kind.feed(&*api, 0).await;
            kind.await_arrived(&*api, 1).await;

            // A rejected reconfigure — invalid, or of another kind — is an
            // error, and the old config keeps running.
            if let Some(invalid) = kind.invalid() {
                assert!(controller.reconfigure(invalid).await.is_err());
            }
            let wrong = controller.reconfigure(kind.foreign()).await.unwrap_err();
            let wanted = format!("{} integrator handed a", kind.name());
            assert!(
                matches!(&wrong, Error::Internal(why) if why.starts_with(&wanted)),
                "{wrong:?}"
            );
            kind.feed(&*api, 1).await;
            kind.await_arrived(&*api, 2).await;

            // Drain is a barrier: once the source has handed events over,
            // they are at the destination when `drain` returns…
            let mut last = 0;
            for i in 2..5 {
                last = kind.feed(&*api, i).await;
            }
            let what = format!("{}: the source to deliver {last}", kind.name());
            eventually(&what, || async { tapped.delivered(kind.source()) >= last }).await;
            controller.drain().await.unwrap();
            assert_eq!(kind.arrived(&*api).await, 5, "{}", kind.name());
            // …and not a stop.
            kind.feed(&*api, 5).await;
            kind.await_arrived(&*api, 6).await;
            assert!(controller.processed() >= 6, "{}", kind.name());

            stopped_within_bound(kind, controller).await;
        }
    }

    #[tokio::test]
    async fn an_unopenable_source_still_answers_commands_and_is_retried() {
        for kind in KINDS {
            let (tapped, api) = exchange().await;
            tapped.refuse.store(true, Ordering::SeqCst);
            let controller = kind.spawn(&api).await;
            kind.feed(&*api, 0).await;

            if let (Some(valid), Some(invalid)) = (kind.config(), kind.invalid()) {
                controller.reconfigure(valid).await.unwrap();
                assert!(controller.reconfigure(invalid).await.is_err());
            }
            assert!(controller.reconfigure(kind.foreign()).await.is_err());
            controller.drain().await.unwrap();
            assert_eq!(controller.health(), Health::Running);
            assert_eq!(kind.arrived(&*api).await, 0, "{}", kind.name());
            stopped_within_bound(kind, controller).await;

            // The source comes back after an open failed: the loop opens
            // it without being told.
            let refusals = tapped.refusals.load(Ordering::SeqCst);
            let controller = kind.spawn(&api).await;
            let refused = || async { tapped.refusals.load(Ordering::SeqCst) > refusals };
            eventually("an open to be refused", refused).await;
            tapped.refuse.store(false, Ordering::SeqCst);
            kind.await_arrived(&*api, 1).await;
            stopped_within_bound(kind, controller).await;
        }
    }

    /// Regression: a source stream that ended used to leave a Cast deaf on
    /// that alias (while reporting `Running`) and a Sync, a continuous
    /// query or a reconcile loop dead. It is re-opened from the resume
    /// point: what was written after the stream ended arrives, once.
    #[tokio::test]
    async fn an_ended_stream_is_reopened_from_the_resume_point() {
        for kind in KINDS {
            let (tapped, api) = exchange().await;
            tapped.cut_next_after.store(2, Ordering::SeqCst);
            let controller = kind.spawn(&api).await;
            for i in 0..5 {
                kind.feed(&*api, i).await;
            }
            kind.await_arrived(&*api, 5).await;
            controller.drain().await.unwrap();
            assert_eq!(controller.health(), Health::Running);
            assert_eq!(kind.arrived(&*api).await, 5, "{}", kind.name());
            match kind {
                Kind::Sync => {
                    let copies = api.log_read("dst/log".into(), 0).await.unwrap();
                    let copied: Vec<_> = copies.iter().map(|r| r.fields["n"].clone()).collect();
                    assert_eq!(copied, [0, 1, 2, 3, 4].map(|n| json!(n)));
                    assert_eq!(controller.stats().tail_position, Some(5));
                }
                // Five one-record windows, none counted twice.
                Kind::Cq => {
                    assert_eq!(controller.windows_closed(), 5);
                    assert_eq!(controller.stats().tail_position, Some(5));
                }
                Kind::Cast | Kind::Reconciler => {
                    assert_eq!(controller.stats().tail_position, None)
                }
            }
            stopped_within_bound(kind, controller).await;
        }
    }

    /// Nothing reads ahead on an in-process consumer's behalf: a reconciler
    /// that stalls while its store moves past the retained window falls off
    /// it like any watch, and its loop re-lists and converges — every
    /// object is reconciled, none is skipped.
    #[tokio::test]
    async fn a_loopback_integrator_that_falls_off_the_retained_window_relists_and_converges() {
        let (object, _, client) = in_process(Subject::operator("lagging"));
        let profile = knactor_store::EngineProfile {
            history_cap: 2,
            ..knactor_store::EngineProfile::instant()
        };
        let store = object.create_store("src/state", profile).unwrap();
        let api: Arc<dyn ExchangeApi> = Arc::new(client);
        let cutoffs = knactor_types::metrics::global().counter(
            "knactor_store_watch_cutoffs_total",
            &[("store", "src/state")],
        );
        let cutoffs_before = cutoffs.get();
        let (open, gate) = tokio::sync::watch::channel(false);
        let mark_seen = move |ctx: ReconcilerCtx, event: WatchEvent| {
            let mut gate = gate.clone();
            async move {
                while !*gate.borrow() {
                    gate.changed().await.expect("the test holds the gate");
                }
                if event.kind != EventKind::Deleted && event.value["seen"].is_null() {
                    ctx.patch(&event.key, json!({"seen": true})).await?;
                }
                Ok(())
            }
        };
        let knactor = Knactor::builder("src")
            .object_store("state")
            .reconciler(FnReconciler::new(mark_seen))
            .build();
        let runtime = Runtime::new();
        let deployed = runtime.deploy_pre_externalized(knactor, Arc::clone(&api));
        deployed.await.unwrap();

        // The reconciler sits on the first event while the store moves ten
        // commits on, eight past what it retains; when it next pulls, its
        // cursor is off the window.
        let watching = || async { store.subscriber_count() == 1 };
        eventually("the reconciler's watch", watching).await;
        for i in 0..10 {
            Kind::Reconciler.feed(&*api, i).await;
        }
        open.send(true).unwrap();
        Kind::Reconciler.await_arrived(&*api, 10).await;
        assert!(
            cutoffs.get() > cutoffs_before,
            "converged without falling off"
        );
        runtime.shutdown().await;
    }
}
