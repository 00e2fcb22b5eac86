//! The load driver: a window of in-flight requests polled from one task
//! per connection (the vendored runtime is thread-per-task, so a task per
//! op would measure thread creation), a closed loop for `sat`, an open loop
//! for `paced` that times every op from the moment it was *due*, and the
//! registry that joins each flow's start with the moment the benchmark's
//! own watcher saw its effect.

use crate::gen::{Digest, Op, OpGen};
use crate::stats;
use knactor_net::proto::{Request, Response};
use knactor_net::ExchangeApi;
use knactor_store::ItemResult;
use knactor_types::{Error, Result};
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::time::{Duration, Instant};
use tokio::sync::oneshot;

pub type Api = Arc<dyn ExchangeApi>;

/// Generator tasks (and connections) per run.
pub const CONNS: u64 = 2;
/// Open-loop ceiling on requests in flight per connection. Far above what
/// the frozen rates need; reaching it shows as latency, never as lost load.
const OPEN_LOOP_CAP: usize = 512;
/// A flow or an op the program never finishes is a failure, not a hang.
const GIVE_UP: Duration = Duration::from_secs(20);

fn first_item_error(items: Vec<ItemResult>) -> Result<Response> {
    match items.iter().find_map(ItemResult::as_error) {
        Some(e) => Err(e),
        None => Ok(Response::Batch { items }),
    }
}

/// Issue one generated request through the typed client API. A batch with
/// a failed item is a failed op.
pub async fn call(api: &dyn ExchangeApi, request: Request) -> Result<Response> {
    match request {
        Request::Get { store, key } => api
            .get(store, key)
            .await
            .map(|object| Response::Object { object }),
        Request::Patch {
            store,
            key,
            patch,
            upsert,
        } => api
            .patch(store, key, patch, upsert)
            .await
            .map(|revision| Response::Revision { revision }),
        Request::Create { store, key, value } => api
            .create(store, key, value)
            .await
            .map(|revision| Response::Revision { revision }),
        Request::BatchGet { store, keys } => first_item_error(api.batch_get(store, keys).await?),
        Request::BatchPut { store, items } => first_item_error(api.batch_put(store, items).await?),
        Request::LogAppend { store, fields } => api
            .log_append(store, fields)
            .await
            .map(|seq| Response::Seq { seq }),
        Request::LogAppendBatch { store, batch } => api
            .log_append_batch(store, batch)
            .await
            .map(|seq| Response::Seq { seq }),
        other => Err(Error::Internal(format!(
            "the generator does not issue {other:?}"
        ))),
    }
}

/// In-flight futures of one generator task, polled together.
pub struct Window<T> {
    slots: Vec<Pin<Box<dyn Future<Output = T> + Send>>>,
}

impl<T> Window<T> {
    pub fn new() -> Window<T> {
        Window { slots: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Add a future and poll it once, so requests reach the connection in
    /// push order (the oracle relies on per-connection write order).
    pub async fn push(&mut self, fut: impl Future<Output = T> + Send + 'static) -> Option<T> {
        let mut fut: Pin<Box<dyn Future<Output = T> + Send>> = Box::pin(fut);
        let first = std::future::poll_fn(|cx| Poll::Ready(fut.as_mut().poll(cx))).await;
        match first {
            Poll::Ready(done) => Some(done),
            Poll::Pending => {
                self.slots.push(fut);
                None
            }
        }
    }

    /// The next future to finish. Pends forever on an empty window.
    pub async fn next(&mut self) -> T {
        std::future::poll_fn(|cx| {
            for i in 0..self.slots.len() {
                if let Poll::Ready(done) = self.slots[i].as_mut().poll(cx) {
                    drop(self.slots.swap_remove(i));
                    return Poll::Ready(done);
                }
            }
            Poll::Pending
        })
        .await
    }
}

struct OpenFlow {
    due: Instant,
    notify: Option<oneshot::Sender<()>>,
}

/// Flows in progress: opened by a generator before the op leaves, closed
/// by the workload's watcher when it sees the flow's effect.
#[derive(Default)]
pub struct Flows {
    open: Mutex<HashMap<u64, OpenFlow>>,
    latencies_ms: Mutex<Vec<f64>>,
}

impl Flows {
    /// Start following flow `id`, due at `due`. With `hold` the caller gets
    /// a receiver that resolves when the flow completes.
    pub fn open(&self, id: u64, due: Instant, hold: bool) -> Option<oneshot::Receiver<()>> {
        let (notify, waiter) = if hold {
            let (tx, rx) = oneshot::channel();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut open = self.open.lock().expect("flows lock");
        open.insert(id, OpenFlow { due, notify });
        waiter
    }

    /// The watcher saw flow `id` take effect. Unknown ids (not a flow, or
    /// closed before) are ignored, so a flow completes at most once.
    pub fn complete(&self, id: u64, at: Instant) {
        let flow = self.open.lock().expect("flows lock").remove(&id);
        if let Some(flow) = flow {
            let ms = at.saturating_duration_since(flow.due).as_secs_f64() * 1e3;
            self.latencies_ms.lock().expect("flows lock").push(ms);
            if let Some(notify) = flow.notify {
                let _ = notify.send(());
            }
        }
    }

    fn abandon(&self, id: u64) {
        self.open.lock().expect("flows lock").remove(&id);
    }

    pub fn open_count(&self) -> usize {
        self.open.lock().expect("flows lock").len()
    }

    /// Give up on every open flow (they count as failed) and return how many.
    pub fn abandon_all(&self) -> usize {
        let mut open = self.open.lock().expect("flows lock");
        let n = open.len();
        open.clear();
        n
    }

    pub fn take_latencies_ms(&self) -> Vec<f64> {
        std::mem::take(&mut *self.latencies_ms.lock().expect("flows lock"))
    }
}

/// What one connection's acknowledged ops add up to; the oracle's input.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Highest seq this connection wrote per kv key rank. A stream's seqs
    /// grow in issue order and a connection applies writes in that order,
    /// so the highest is the last applied — whatever order the replies of
    /// pipelined writes were picked up in.
    pub last_write: HashMap<u32, u64>,
    pub item_writes: u64,
    pub orders: Vec<(u64, bool)>,
    pub centi_kwh: u64,
    pub lamp_records: u64,
    pub motions: Vec<u64>,
}

impl Ledger {
    pub fn ack(&mut self, digest: Digest) {
        match digest {
            Digest::None => {}
            Digest::Writes(writes) => {
                self.item_writes += writes.len() as u64;
                for (rank, seq) in writes {
                    let last = self.last_write.entry(rank).or_default();
                    *last = seq.max(*last);
                }
            }
            Digest::Order { id, eur } => self.orders.push((id, eur)),
            Digest::Energy { centi_kwh, records } => {
                self.centi_kwh += centi_kwh;
                self.lamp_records += records;
            }
            Digest::Motion(id) => self.motions.push(id),
        }
    }
}

/// One generator's connection, op stream and ledger; lives across phases.
pub struct Conn {
    pub api: Api,
    pub gen: OpGen,
    pub ledger: Ledger,
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: `window` requests in flight, the next sent on a reply.
    Closed { window: usize },
    /// Open loop: op `i` is due at `start + i / rate`, whatever happened to
    /// the ones before it.
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub pace: Pace,
    pub seconds: f64,
    /// Closed-loop slots stay taken until the op's flow completes.
    pub hold_flows: bool,
}

struct Done {
    due: Instant,
    sent: Instant,
    acked: Instant,
    finished: Instant,
    ok: bool,
    flow_lost: bool,
    digest: Digest,
}

#[derive(Debug, Default)]
pub struct PhaseReport {
    /// Ack latency of each op, from its due time, ms.
    pub op_ms: Vec<f64>,
    /// How late after its due time each op was sent, ms.
    pub late_ms: Vec<f64>,
    /// Units of work finished before the phase's deadline.
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU the generator tasks themselves used, ms.
    pub gen_cpu_ms: f64,
    pub elapsed_s: f64,
}

async fn run_op(api: Api, flows: Arc<Flows>, op: Op, due: Instant, hold: bool) -> Done {
    let waiter = op.flow.and_then(|id| flows.open(id, due, hold));
    let sent = Instant::now();
    let reply = tokio::time::timeout(GIVE_UP, call(&*api, op.request)).await;
    let acked = Instant::now();
    let ok = matches!(reply, Ok(Ok(_)));
    // A held slot waits for its flow; one that never completes is lost.
    let flow_lost = match waiter {
        Some(waiter) if ok => tokio::time::timeout(GIVE_UP, waiter).await.is_err(),
        _ => false,
    };
    if let (Some(id), true) = (op.flow, !ok || flow_lost) {
        flows.abandon(id);
    }
    Done {
        due,
        sent,
        acked,
        finished: Instant::now(),
        ok,
        flow_lost,
        digest: op.digest,
    }
}

/// The pacing loop of one generator task: decides when the next unit of
/// work is due (now, in a closed loop; on the schedule, in an open one),
/// hands `issue` that due time, keeps the returned futures in a window,
/// and hands each finished one to `finished`. Ends once the phase's time
/// is up and the window has emptied.
async fn pace<T, F>(
    phase: Phase,
    stream: u64,
    start: Instant,
    mut issue: impl FnMut(Instant) -> F,
    mut finished: impl FnMut(T),
) where
    F: Future<Output = T> + Send + 'static,
{
    let deadline = start + Duration::from_secs_f64(phase.seconds);
    let cap = match phase.pace {
        Pace::Closed { window } => window,
        Pace::Open { .. } => OPEN_LOOP_CAP,
    };
    let mut window: Window<T> = Window::new();
    let mut issued = 0u64;
    loop {
        let due = match phase.pace {
            Pace::Closed { .. } => Instant::now(),
            Pace::Open { rate } => {
                start + Duration::from_secs_f64((issued * CONNS + stream) as f64 / rate)
            }
        };
        let issuing = due < deadline;
        if !issuing && window.is_empty() {
            break;
        }
        let done = if issuing && window.len() < cap && Instant::now() >= due {
            issued += 1;
            window.push(issue(due)).await
        } else if window.is_empty() {
            tokio::time::sleep_until(due).await;
            None
        } else if !issuing || window.len() >= cap {
            Some(window.next().await)
        } else {
            tokio::select! {
                done = window.next() => { Some(done) }
                _ = tokio::time::sleep_until(due) => { None }
            }
        };
        if let Some(done) = done {
            finished(done);
        }
    }
}

async fn run_conn(
    mut conn: Conn,
    stream: u64,
    flows: Arc<Flows>,
    phase: Phase,
    start: Instant,
) -> (Conn, PhaseReport) {
    let cpu0 = stats::thread_cpu_ms();
    let deadline = start + Duration::from_secs_f64(phase.seconds);
    let mut report = PhaseReport::default();
    let Conn { api, gen, ledger } = &mut conn;
    pace(
        phase,
        stream,
        start,
        |due| {
            run_op(
                Arc::clone(api),
                Arc::clone(&flows),
                gen.next_op(),
                due,
                phase.hold_flows,
            )
        },
        |done: Done| {
            let ms = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64() * 1e3;
            report.attempted += 1;
            report.late_ms.push(ms(done.due, done.sent));
            if done.ok && !done.flow_lost {
                report.op_ms.push(ms(done.due, done.acked));
                report.completed += u64::from(done.finished <= deadline);
            } else {
                report.failed += 1;
            }
            if done.ok {
                ledger.ack(done.digest);
            }
        },
    )
    .await;
    report.gen_cpu_ms = stats::thread_cpu_ms() - cpu0;
    (conn, report)
}

/// Run one phase on every connection at once and merge what they saw.
pub async fn run_phase(conns: &mut Vec<Conn>, flows: &Arc<Flows>, phase: Phase) -> PhaseReport {
    let start = Instant::now() + Duration::from_millis(5);
    let tasks: Vec<_> = conns
        .drain(..)
        .enumerate()
        .map(|(stream, conn)| {
            tokio::spawn(run_conn(
                conn,
                stream as u64,
                Arc::clone(flows),
                phase,
                start,
            ))
        })
        .collect();
    let mut total = PhaseReport::default();
    for task in tasks {
        let (conn, report) = task.await.expect("generator task panicked");
        conns.push(conn);
        total.op_ms.extend(report.op_ms);
        total.late_ms.extend(report.late_ms);
        total.completed += report.completed;
        total.attempted += report.attempted;
        total.failed += report.failed;
        total.gen_cpu_ms += report.gen_cpu_ms;
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn window_returns_futures_as_they_finish() {
        let mut window = Window::new();
        for ms in [30u64, 10, 20] {
            let pending = window
                .push(async move {
                    tokio::time::sleep(Duration::from_millis(ms)).await;
                    ms
                })
                .await;
            assert!(pending.is_none());
        }
        assert_eq!(window.push(async { 0u64 }).await, Some(0));
        let mut order = Vec::new();
        while !window.is_empty() {
            order.push(window.next().await);
        }
        assert_eq!(order, vec![10, 20, 30]);
    }

    /// Open-loop latency counts from the due time: while the "program"
    /// stalls, the schedule keeps issuing, and every op that was due
    /// meanwhile reports the wait — the coordinated-omission check, on the
    /// real pacing loop.
    #[tokio::test]
    async fn open_loop_latency_counts_from_due_time_across_a_stall() {
        let start = Instant::now() + Duration::from_millis(5);
        // 100 ops/s for 0.3 s on stream 0 of 2: ops due every 20 ms. The
        // program answers at once, except between 50 and 150 ms.
        let stall = (
            start + Duration::from_millis(50),
            start + Duration::from_millis(150),
        );
        let phase = Phase {
            pace: Pace::Open { rate: 100.0 },
            seconds: 0.3,
            hold_flows: false,
        };
        let mut latencies_ms = Vec::new();
        pace(
            phase,
            0,
            start,
            |due| async move {
                if (stall.0..stall.1).contains(&Instant::now()) {
                    tokio::time::sleep_until(stall.1).await;
                }
                Instant::now().duration_since(due).as_secs_f64() * 1e3
            },
            |ms| latencies_ms.push(ms),
        )
        .await;
        assert_eq!(latencies_ms.len(), 15, "{latencies_ms:?}");
        // Due at 60, 80, … 140 ms: five ops wait 90, 70, … 10 ms. A loop
        // that sent the next op only after a reply would report one.
        let slow = latencies_ms.iter().filter(|&&ms| ms >= 9.0).count();
        assert_eq!(slow, 5, "{latencies_ms:?}");
        let worst = latencies_ms.iter().cloned().fold(0.0, f64::max);
        assert!((85.0..110.0).contains(&worst), "{worst}");
    }

    #[test]
    fn a_flow_completes_once_and_counts_from_its_due_time() {
        let flows = Flows::default();
        let due = Instant::now();
        assert!(flows.open(7, due, false).is_none());
        let waiter = flows.open(8, due, true).expect("held flow has a waiter");
        flows.complete(7, due + Duration::from_millis(4));
        flows.complete(7, due + Duration::from_millis(9));
        flows.complete(99, due);
        drop(waiter);
        assert_eq!(flows.open_count(), 1);
        assert_eq!(flows.abandon_all(), 1);
        let seen = flows.take_latencies_ms();
        assert_eq!(seen.len(), 1);
        assert!((seen[0] - 4.0).abs() < 1e-9);
    }
}
