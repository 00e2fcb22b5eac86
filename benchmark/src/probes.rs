//! The traced run (`--trace 1`): every per-layer metric, measured from
//! outside — by timing calls into each crate's public functions, by reading
//! the public metrics registry, and by recording spans around an
//! *unrolled* request path the benchmark drives by hand.
//!
//! Layer probes do not depend on the workload and run every time; the
//! replay, the idle reading and the short `paced`/`sat` bursts are the
//! workload's own. Spans go to `out/trace-<workload>.jsonl`.

use crate::driver::{call, Api};
use crate::gen::{kv_key, Op, OpGen, Workload, BATCH, KV_STORE};
use crate::run::{run_round, Metrics, Size};
use crate::stats::{self, median, percentile, sort};
use crate::trace::{self, totals_by_name, Tracer};
use crate::workloads::{bare_exchange, order_id, setup, Env};
use knactor_apps::retail::knactor_app::{retail_dxg, RetailOptions};
use knactor_apps::retail::rpc_app::{serve_providers, CheckoutRpc};
use knactor_apps::retail::sample_order;
use knactor_apps::smarthome::knactor_app::sleep_hours_policy;
use knactor_apps::{crate_file, retail, smarthome};
use knactor_dxg::{Dxg, Plan};
use knactor_expr::{Env as ExprEnv, FnRegistry};
use knactor_logstore::{AggFn, LogStore, Query, TailEvent};
use knactor_net::frame::{FrameReader, FrameWriter};
use knactor_net::proto::{self, Request, RequestEnvelope, Response, ServerMsg};
use knactor_net::{ExchangeApi, ExchangeServer, LoopbackClient, TcpClient};
use knactor_rbac::{AccessContext, AccessController, Subject, Verb};
use knactor_store::{BatchOp, EngineProfile, EventKind, ObjectStore, Wal, WatchEvent};
use knactor_types::metrics::{self, MetricsSnapshot};
use knactor_types::{ObjectKey, Result, Revision, StoreId};
use serde_json::{json, Value};
use std::future::Future;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

const US: f64 = 1e6;
const MS: f64 = 1e3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * MS
}

/// Seconds each of `n` sequential awaits of `op` took.
async fn timed<Fut: Future>(n: usize, mut op: impl FnMut(usize) -> Fut) -> Vec<f64> {
    let mut seconds = Vec::with_capacity(n);
    for i in 0..n {
        let start = Instant::now();
        black_box(op(i).await);
        seconds.push(start.elapsed().as_secs_f64());
    }
    seconds
}

/// Mean seconds of one call when `n` cheap synchronous calls are timed
/// together (a single call is below the clock's resolution).
fn mean_of(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        op(i);
    }
    start.elapsed().as_secs_f64() / n as f64
}

/// Seconds from the start of each `trigger(i)` to the instant a watching
/// task stamped its effect and sent the stamp through `seen`.
async fn deliveries<Fut: Future<Output = Result<()>>>(
    n: usize,
    seen: &mut mpsc::UnboundedReceiver<Instant>,
    mut trigger: impl FnMut(usize) -> Fut,
) -> Result<Vec<f64>> {
    let mut seconds = Vec::with_capacity(n);
    for i in 0..n {
        let start = Instant::now();
        trigger(i).await?;
        if let Some(at) = seen.recv().await {
            seconds.push(at.saturating_duration_since(start).as_secs_f64());
        }
    }
    Ok(seconds)
}

async fn read_exact(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]).await? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => filled += n,
        }
    }
    Ok(())
}

/// A connected loopback TCP pair from the vendored runtime.
async fn socket_pair() -> Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0").await?;
    let addr = listener.local_addr()?;
    let client = TcpStream::connect(addr).await?;
    let (server, _) = listener.accept().await?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// `n` scaled down for `--smoke`.
fn scaled(n: usize, smoke: bool) -> usize {
    if smoke {
        (n / 10).max(3)
    } else {
        n
    }
}

// ---- runtime ---------------------------------------------------------------

async fn runtime_probes(m: &mut Metrics, smoke: bool) -> Result<()> {
    // Raw 64-byte echo over the runtime's TcpStream: the floor under
    // `op_p50_ms` on kv-wire.
    let (mut client, mut server) = socket_pair().await?;
    let echo = tokio::spawn(async move {
        let mut buf = [0u8; 64];
        while read_exact(&mut server, &mut buf).await.is_ok() {
            if server.write_all(&buf).await.is_err() {
                break;
            }
        }
    });
    let mut buf = [7u8; 64];
    let mut rtts = Vec::new();
    for _ in 0..scaled(500, smoke) {
        let start = Instant::now();
        client.write_all(&buf).await?;
        read_exact(&mut client, &mut buf).await?;
        rtts.push(start.elapsed().as_secs_f64());
    }
    drop(client);
    let _ = echo.await;
    m.put_median("runtime.tcp_pingpong_us", US, &rtts);

    // Task → task hand-off over an mpsc channel: half a ping-pong.
    let (to_peer, mut peer_rx) = mpsc::unbounded_channel::<()>();
    let (to_me, mut my_rx) = mpsc::unbounded_channel::<()>();
    let peer = tokio::spawn(async move {
        while peer_rx.recv().await.is_some() {
            if to_me.send(()).is_err() {
                break;
            }
        }
    });
    let mut rtts = Vec::new();
    for _ in 0..scaled(1000, smoke) {
        let start = Instant::now();
        let _ = to_peer.send(());
        my_rx.recv().await;
        rtts.push(start.elapsed().as_secs_f64());
    }
    drop(to_peer);
    let _ = peer.await;
    m.put_median("runtime.wake_us", US / 2.0, &rtts);

    let spawns = timed(scaled(300, smoke), |_| tokio::spawn(async {})).await;
    m.put_median("runtime.spawn_us", US, &spawns);

    let nap = Duration::from_millis(1);
    let overshoots: Vec<f64> = timed(scaled(200, smoke), |_| tokio::time::sleep(nap))
        .await
        .iter()
        .map(|slept| (slept - nap.as_secs_f64()).max(0.0))
        .collect();
    m.put_median("runtime.timer_overshoot_us", US, &overshoots);
    Ok(())
}

// ---- rbac, store, logstore, expr, dxg ----------------------------------------

async fn store_probes(m: &mut Metrics, scratch: &Path, smoke: bool) -> Result<()> {
    // The smart home's policy: a few roles and bindings, one of them timed.
    let mut ac = AccessController::new();
    sleep_hours_policy(&mut ac);
    let (subject, store) = (Subject::integrator("home"), StoreId::new("lamp/config"));
    let ctx = AccessContext::at(12, 0);
    let n = scaled(20_000, smoke);
    let check = mean_of(n, |_| {
        black_box(ac.check(&subject, Verb::Update, &store, &ctx).allowed());
    });
    m.put("rbac.check_us", check * US, n);

    let (object, log) = bare_exchange(Workload::KvWire, scratch).await?;
    let kv = StoreId::new(KV_STORE);
    let handle = object.handle(&kv, Subject::operator("probe"))?;
    let n = scaled(2000, smoke);
    let pad = "x".repeat(64);
    let keys: Vec<ObjectKey> = (0..1024).map(kv_key).collect();
    let gets = timed(n, |i| handle.get(&keys[i % 1024])).await;
    m.put_median("store.get_us", US, &gets);
    let patches = timed(n, |i| {
        handle.patch(&keys[i % 1024], json!({"seq": i, "pad": pad}), true)
    })
    .await;
    m.put_median("store.patch_us", US, &patches);
    let batches = timed(n, |i| handle.batch_get(&keys[i % 1000..i % 1000 + BATCH])).await;
    m.put_median("store.batch_get16_us", US, &batches);

    let loopback = LoopbackClient::new(Arc::clone(&object), log, Subject::operator("probe"));
    let via_loopback = timed(n, |i| loopback.get(kv.clone(), kv_key(i % 1024))).await;
    m.put_median("net.loopback.op_us", US, &via_loopback);

    // Commit → event in a watcher task's hands, on the raw store.
    let raw = object.store(&kv)?;
    let mut watch = raw.watch_from(raw.revision())?;
    let (seen_tx, mut seen_rx) = mpsc::unbounded_channel();
    let watcher = tokio::spawn(async move {
        while watch.recv().await.is_some() {
            if seen_tx.send(Instant::now()).is_err() {
                break;
            }
        }
    });
    let fanout = deliveries(scaled(500, smoke), &mut seen_rx, |i| {
        // A patch that changes nothing commits nothing: keep values fresh.
        let patch = json!({"seq": 1_000_000 + i});
        std::future::ready(raw.patch(&keys[i % 1024], &patch, true).map(drop))
    })
    .await?;
    watcher.abort();
    let _ = watcher.await;
    m.put_median("store.watch.fanout_us", US, &fanout);

    // One WAL record appended and fsynced.
    let wal_dir = scratch.join("wal-probe");
    std::fs::create_dir_all(&wal_dir)?;
    let wal = Wal::open(wal_dir.join("probe.wal"), true)?;
    let value = Arc::new(json!({"seq": 1, "pad": "x".repeat(256)}));
    let mut appends = Vec::new();
    for i in 0..scaled(100, smoke) {
        let event = WatchEvent {
            revision: Revision(i as u64 + 1),
            kind: EventKind::Updated,
            key: kv_key(i % 1024),
            value: Arc::clone(&value),
        };
        let start = Instant::now();
        wal.append(&event)?;
        appends.push(start.elapsed().as_secs_f64());
    }
    m.put_median("store.wal.append_fsync_us", US, &appends);

    // The kv-durable mix, one op at a time, through a durable store:
    // fsyncs per item written and WAL bytes per byte of user data.
    let durable = ObjectStore::open(
        StoreId::new("probe/durable"),
        EngineProfile::durable(&wal_dir, "durable"),
    )?;
    let before = metrics::global().snapshot();
    let mut gen = OpGen::new(Workload::KvDurable, 1, 0);
    let (mut items, mut user_bytes) = (0usize, 0usize);
    for _ in 0..scaled(200, smoke) {
        let ops: Vec<BatchOp> = match gen.next_op().request {
            Request::Patch {
                key, patch, upsert, ..
            } => vec![BatchOp::Patch { key, patch, upsert }],
            Request::BatchPut { items, .. } => items.into_iter().map(Into::into).collect(),
            _ => Vec::new(),
        };
        items += ops.len();
        user_bytes += ops
            .iter()
            .map(|op| match op {
                BatchOp::Patch { patch, .. } => patch.to_string().len(),
                _ => 0,
            })
            .sum::<usize>();
        durable.apply_batch(ops)?;
    }
    let fsyncs = counter_delta(&before, "knactor_wal_fsyncs_total");
    let wal_bytes = std::fs::metadata(wal_dir.join("durable.wal"))?.len();
    m.put("store.wal.fsyncs_per_write", fsyncs / items as f64, items);
    m.put(
        "store.wal.bytes_per_user_byte",
        wal_bytes as f64 / user_bytes as f64,
        items,
    );
    Ok(())
}

/// Growth of a registry counter, summed over all its label sets.
fn counter_delta(before: &MetricsSnapshot, name: &str) -> f64 {
    counter_delta_where(before, name, |_| true)
}

fn counter_delta_where(
    before: &MetricsSnapshot,
    name: &str,
    keep: impl Fn(&[(String, String)]) -> bool,
) -> f64 {
    let sum = |s: &MetricsSnapshot| -> u64 {
        s.counters
            .iter()
            .filter(|c| c.name == name && keep(&c.labels))
            .map(|c| c.value)
            .sum()
    };
    (sum(&metrics::global().snapshot()) - sum(before)) as f64
}

async fn logstore_probes(m: &mut Metrics, smoke: bool) -> Result<()> {
    let record =
        |i: usize| json!({"kind": "load", "kwh": (i % 500) as f64 / 100.0, "pad": "x".repeat(32)});
    let log = LogStore::new("probe/append");
    let n = scaled(5000, smoke);
    let append = mean_of(n, |i| {
        black_box(log.append(record(i)));
    });
    m.put("logstore.append_us", append * US, n);
    let n = scaled(500, smoke);
    let batch = mean_of(n, |i| {
        black_box(log.append_batch((0..BATCH).map(|j| record(i + j))));
    });
    m.put("logstore.append_batch16_us", batch * US, n);

    // The Snapshot rollup's query over a 10k-record log.
    let rollup = LogStore::new("probe/rollup");
    for chunk in 0..10_000 / BATCH {
        rollup.append_batch((0..BATCH).map(|j| record(chunk * BATCH + j)));
    }
    let sum = Query::new().aggregate(None, AggFn::Sum, Some("kwh"), "total")?;
    sum.run_store(&rollup)?;
    let runs = timed(scaled(50, smoke), |_| {
        std::future::ready(sum.run_store(&rollup))
    })
    .await;
    m.put_median("logstore.query_sum_10k_us", US, &runs);

    // Append → record in a tailing task's hands.
    let tailed = LogStore::new("probe/tail");
    let mut tail = tailed.tail(0);
    let (seen_tx, mut seen_rx) = mpsc::unbounded_channel();
    let tailer = tokio::spawn(async move {
        while let Some(TailEvent::Record(_)) = tail.recv().await {
            if seen_tx.send(Instant::now()).is_err() {
                break;
            }
        }
    });
    let delivered = deliveries(scaled(500, smoke), &mut seen_rx, |i| {
        tailed.append(record(i));
        std::future::ready(Ok(()))
    })
    .await?;
    tailer.abort();
    let _ = tailer.await;
    m.put_median("logstore.tail_deliver_us", US, &delivered);
    Ok(())
}

fn expr_probes(m: &mut Metrics, smoke: bool) -> Result<()> {
    let text = std::fs::read_to_string(crate_file("assets/retail_dxg.yaml"))?;
    let n = scaled(200, smoke);
    let dxg = Dxg::parse(&text)?;
    Plan::build(&dxg)?;
    let parse = mean_of(n, |_| {
        let dxg = Dxg::parse(&text).expect("parsed above");
        black_box(Plan::build(&dxg).expect("planned above"));
    });
    m.put("dxg.parse_plan_us", parse * US, n);

    // Every Fig. 6 expression once, over a completed order's three states.
    let order = sample_order(1200.0);
    let mut env = ExprEnv::new();
    env.bind("C", order);
    env.bind(
        "S",
        json!({"quote": {"price": 9.0, "currency": "USD"}, "id": "track-order-1"}),
    );
    env.bind("P", json!({"id": "pay-order-1"}));
    let fns = FnRegistry::standard();
    for a in &dxg.assignments {
        knactor_expr::eval(&a.expr, &env, &fns)?;
    }
    let n = scaled(2000, smoke);
    let eval = mean_of(n, |_| {
        for a in &dxg.assignments {
            let _ = black_box(knactor_expr::eval(&a.expr, &env, &fns));
        }
    });
    m.put("expr.eval_flow_us", eval * US, n);
    Ok(())
}

// ---- apps, rpc, core (no wire) -------------------------------------------------

async fn app_probes(m: &mut Metrics, smoke: bool) -> Result<()> {
    let loopback = || -> Api {
        let (_, _, client) = knactor_net::loopback::in_process(Subject::integrator("probe"));
        Arc::new(client)
    };
    let n = scaled(3, smoke).min(3);
    let mut deploys = Vec::new();
    let mut applies = Vec::new();
    let t3 = Dxg::parse(&std::fs::read_to_string(crate_file(
        "assets/retail_dxg_t3.yaml",
    ))?)?;
    for _ in 0..n {
        let start = Instant::now();
        let app = retail::knactor_app::deploy(loopback(), RetailOptions::default()).await?;
        deploys.push(start.elapsed().as_secs_f64());
        // A live reconfiguration there and back: the T3 spec, then Fig. 6.
        for dxg in [t3.clone(), retail_dxg()?] {
            let start = Instant::now();
            app.apply_dxg(dxg).await?;
            applies.push(start.elapsed().as_secs_f64());
        }
        app.shutdown().await;
    }
    m.put_median("apps.retail.deploy_ms", MS, &deploys);
    m.put_median("core.composer.apply_ms", MS, &applies);

    let mut deploys = Vec::new();
    let mut records = Vec::new();
    for round in 0..n {
        let api = loopback();
        let start = Instant::now();
        let app = smarthome::knactor_app::deploy(Arc::clone(&api)).await?;
        deploys.push(start.elapsed().as_secs_f64());
        if round == 0 {
            // The home flow with no wire: motion record → house log.
            let mut tail = api.log_tail(StoreId::new("house/telemetry"), 0).await?;
            for i in 0..scaled(100, smoke) {
                let start = Instant::now();
                api.log_append(
                    StoreId::new("motion/telemetry"),
                    json!({"triggered": true, "probe": i}),
                )
                .await?;
                let arrived = tail.recv_record().await;
                records.push(start.elapsed().as_secs_f64());
                let arrived = arrived.map(|r| r.fields["probe"].as_u64());
                if arrived != Some(Some(i as u64)) {
                    return Err(knactor_types::Error::Internal(format!(
                        "house/telemetry got {arrived:?} for motion record {i}"
                    )));
                }
            }
        }
        app.shutdown().await;
    }
    m.put_median("apps.smarthome.deploy_ms", MS, &deploys);
    m.put_median("core.sync.loopback_record_ms", MS, &records);

    // The API-centric baseline: the same order through three RPC calls.
    let server = serve_providers(Duration::ZERO).await?;
    let checkout = CheckoutRpc::connect(server.local_addr().expect("rpc server is bound")).await?;
    let order = sample_order(1200.0);
    let mut placed = Vec::new();
    for _ in 0..scaled(200, smoke) {
        let start = Instant::now();
        checkout.place_order(&order).await?;
        placed.push(start.elapsed().as_secs_f64());
    }
    drop(checkout);
    server.shutdown().await;
    m.put_median("rpc.place_order_ms", MS, &placed);
    Ok(())
}

// ---- net: watch delivery over TCP ---------------------------------------------

async fn watch_deliver_probe(m: &mut Metrics, scratch: &Path, smoke: bool) -> Result<()> {
    let (object, log) = bare_exchange(Workload::KvWire, scratch).await?;
    let server = ExchangeServer::bind("127.0.0.1:0", Arc::clone(&object), log).await?;
    let kv = StoreId::new(KV_STORE);
    let watcher_client = TcpClient::connect(server.local_addr(), Subject::operator("w")).await?;
    let writer = TcpClient::connect(server.local_addr(), Subject::operator("p")).await?;
    let mut events = watcher_client
        .watch(kv.clone(), object.store(&kv)?.revision())
        .await?;
    let (seen_tx, mut seen_rx) = mpsc::unbounded_channel();
    let watcher = tokio::spawn(async move {
        while events.recv().await.is_some() {
            if seen_tx.send(Instant::now()).is_err() {
                break;
            }
        }
    });
    // Counted from the moment the write was issued: the event often beats
    // the write's own acknowledgement to the client.
    let delivered = deliveries(scaled(300, smoke), &mut seen_rx, |i| {
        let patch = writer.patch(kv.clone(), kv_key(i % 1024), json!({"seq": i + 1}), true);
        async { patch.await.map(drop) }
    })
    .await?;
    watcher.abort();
    let _ = watcher.await;
    drop((watcher_client, writer));
    server.shutdown().await;
    m.put_median("net.watch.deliver_us", US, &delivered);
    Ok(())
}

// ---- core: retail flow hops from raw store watches -------------------------------

/// One event seen on a raw watch of one of the three retail stores.
struct Hop {
    order: u64,
    store: usize,
    at: Instant,
    /// Checkout: paymentID set. Payment: amount set. Shipping: addr set.
    first: bool,
    /// Checkout: trackingID and shippingCost set. Payment, Shipping: id set.
    second: bool,
}

const HOP_STORES: [&str; 3] = ["checkout/state", "payment/state", "shipping/state"];

fn spawn_hop_watchers(
    env: &Env,
    hops: &Arc<Mutex<Vec<Hop>>>,
) -> Result<Vec<tokio::task::JoinHandle<()>>> {
    let mut tasks = Vec::new();
    for (store, name) in HOP_STORES.iter().enumerate() {
        let raw = env.object.store(&StoreId::new(*name))?;
        let mut watch = raw.watch_from(raw.revision())?;
        let hops = Arc::clone(hops);
        tasks.push(tokio::spawn(async move {
            while let Some(e) = watch.recv().await {
                let at = Instant::now();
                let Some(order) = order_id(e.key.as_str()) else {
                    continue;
                };
                let set = |v: &Value| !v.is_null();
                let (first, second) = match store {
                    0 => {
                        let o = &e.value["order"];
                        (
                            set(&o["paymentID"]),
                            set(&o["trackingID"]) && set(&o["shippingCost"]),
                        )
                    }
                    1 => (set(&e.value["amount"]), set(&e.value["id"])),
                    _ => (set(&e.value["addr"]), set(&e.value["id"])),
                };
                hops.lock().expect("hops lock").push(Hop {
                    order,
                    store,
                    at,
                    first,
                    second,
                });
            }
        }));
    }
    Ok(tasks)
}

async fn flow_probe(
    m: &mut Metrics,
    tracer: &mut Tracer,
    seed: u64,
    scratch: &Path,
    smoke: bool,
) -> Result<()> {
    let mut env = setup(Workload::RetailOrders, seed, scratch).await?;
    let hops = Arc::new(Mutex::new(Vec::new()));
    let watchers = spawn_hop_watchers(&env, &hops)?;
    let revisions = |env: &Env| -> u64 {
        HOP_STORES
            .iter()
            .filter_map(|s| env.object.store(&StoreId::new(*s)).ok())
            .map(|s| s.revision().0)
            .sum()
    };
    let before = metrics::global().snapshot();
    let writes_before = revisions(&env);

    // One flow at a time, spaced as in the `paced` phase whose flow_p50_ms
    // these hops explain: back to back, each order would run into the
    // activations its predecessor still trails.
    let flows = scaled(200, smoke);
    let gap = Duration::from_secs_f64(1.0 / Workload::RetailOrders.paced_rate());
    let mut issued = Vec::new();
    let conn = &mut env.conns[0];
    let first_due = Instant::now();
    for i in 0..flows {
        tokio::time::sleep_until(first_due + gap * i as u32).await;
        let op = conn.gen.next_op();
        let id = op.flow.expect("every retail op is a flow");
        let start = Instant::now();
        let done = env.flows.open(id, start, true).expect("held flow");
        call(&*conn.api, op.request).await?;
        tokio::time::timeout(Duration::from_secs(20), done)
            .await
            .map_err(|_| knactor_types::Error::Timeout(format!("order {id} never completed")))?
            .ok();
        issued.push((id, start, Instant::now()));
    }
    env.quiesce().await;
    let per_flow = |x: f64| x / flows as f64;
    m.put(
        "core.cast.activations_per_flow",
        per_flow(counter_delta_where(
            &before,
            "knactor_activations_total",
            |labels| {
                labels
                    .iter()
                    .any(|(k, v)| k == "integrator" && v.starts_with("cast:"))
            },
        )),
        flows,
    );
    m.put(
        "core.cast.writes_per_flow",
        per_flow((revisions(&env) - writes_before) as f64),
        flows,
    );
    m.put(
        "core.exchange_ops_per_flow",
        per_flow(counter_delta(&before, "knactor_store_ops_total")),
        flows,
    );
    for w in watchers {
        w.abort();
        let _ = w.await;
    }
    env.teardown().await;

    // Commit-to-commit hops per order; spans under one root per flow.
    let hops = hops.lock().expect("hops lock");
    let names = [
        "core.flow.c_to_p",
        "core.flow.p_reconcile",
        "core.flow.p_to_c",
        "core.flow.c_to_s",
        "core.flow.s_reconcile",
        "core.flow.s_to_c",
        "core.flow.unattributed",
    ];
    let mut samples: [Vec<f64>; 7] = Default::default();
    for &(id, start, observed) in &issued {
        let first_at = |store: usize, pick: fn(&Hop) -> bool| {
            hops.iter()
                .filter(|h| h.order == id && h.store == store && pick(h))
                .map(|h| h.at)
                .min()
        };
        let (Some(c0), Some(p1), Some(p2), Some(c_pay), Some(s1), Some(s2), Some(c_ship)) = (
            first_at(0, |_| true),
            first_at(1, |h| h.first),
            first_at(1, |h| h.second),
            first_at(0, |h| h.first),
            first_at(2, |h| h.first),
            first_at(2, |h| h.second),
            first_at(0, |h| h.second),
        ) else {
            continue;
        };
        let root = tracer.record_between(id, 0, "flow", start, observed);
        let spans = [
            (c0, p1),
            (p1, p2),
            (p2, c_pay),
            (c0, s1),
            (s1, s2),
            (s2, c_ship),
        ];
        for (i, (from, to)) in spans.into_iter().enumerate() {
            samples[i].push(ms(to.saturating_duration_since(from)));
            tracer.record_between(id, root, names[i], from, to);
        }
        let hops_done = c_pay.max(c_ship);
        samples[6]
            .push(ms(observed.duration_since(start)) - ms(hops_done.saturating_duration_since(c0)));
    }
    for (name, values) in names.iter().zip(&samples) {
        // Hop samples are already in ms.
        m.put_median(&format!("{name}_ms"), 1.0, values);
    }
    Ok(())
}

// ---- the workload's own replay ------------------------------------------------

fn verb_of(request: &Request) -> (Verb, StoreId) {
    match request {
        Request::Get { store, .. } | Request::BatchGet { store, .. } => (Verb::Get, store.clone()),
        Request::Create { store, .. }
        | Request::LogAppend { store, .. }
        | Request::LogAppendBatch { store, .. } => (Verb::Create, store.clone()),
        Request::Patch { store, .. } | Request::BatchPut { store, .. } => {
            (Verb::Update, store.clone())
        }
        other => unreachable!("the generator does not issue {other:?}"),
    }
}

/// The request path unrolled under one root `op` span, using only public
/// functions: encode → frame across a real loopback socket → decode → RBAC
/// → the exchange op → encode → frame → decode. All in one task, so what it
/// lacks against `net.tcp.op` is the runtime's hand-offs and socket polling.
async fn unrolled_replay(
    m: &mut Metrics,
    workload: Workload,
    ops: &[Op],
    tracer: &mut Tracer,
    scratch: &Path,
) -> Result<()> {
    let (object, log) = bare_exchange(workload, &scratch.join("unrolled")).await?;
    let subject = Subject::operator("bench-unrolled");
    let exchange = LoopbackClient::new(Arc::clone(&object), log, subject.clone());
    let (client, server) = socket_pair().await?;
    let (client_read, client_write) = client.into_split();
    let (server_read, server_write) = server.into_split();
    let (mut client_in, mut client_out) = (
        FrameReader::new(client_read),
        FrameWriter::new(client_write),
    );
    let (mut server_in, mut server_out) = (
        FrameReader::new(server_read),
        FrameWriter::new(server_write),
    );
    let closed = || knactor_types::Error::Transport("unrolled socket closed".to_string());
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);

    trace::set_counting(true);
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64 + 1;
        let envelope = RequestEnvelope {
            id,
            body: op.request.clone(),
        };
        let root = tracer.reserve();
        let op_mark = tracer.mark();

        let encode = tracer.time(id, root, "net.proto.encode", async {
            proto::encode(&envelope)
        });
        let bytes = encode.await?;
        request_bytes += bytes.len();
        let write = tracer.time(id, root, "net.frame.write", client_out.write_frame(&bytes));
        write.await?;
        let read = tracer.time(id, root, "net.frame.read", server_in.read_frame());
        let frame = read.await?.ok_or_else(closed)?;
        let decode = tracer.time(id, root, "net.proto.decode", async {
            proto::decode::<RequestEnvelope>(&frame)
        });
        let received = decode.await?;

        let (verb, store) = verb_of(&received.body);
        let check = tracer.time(id, root, "rbac.check", async {
            let ctx = object.access_context();
            object.configure_access(|ac| ac.check(&subject, verb, &store, &ctx).allowed())
        });
        assert!(check.await, "the bare exchange is open");
        let execute = tracer.time(id, root, "store.op", call(&exchange, received.body));
        let response = execute.await.unwrap_or_else(|e| Response::from_error(&e));

        let reply = ServerMsg::Reply { id, response };
        let encode = tracer.time(id, root, "net.proto.encode", async {
            proto::encode(&reply)
        });
        let bytes = encode.await?;
        response_bytes += bytes.len();
        let write = tracer.time(id, root, "net.frame.write", server_out.write_frame(&bytes));
        write.await?;
        let read = tracer.time(id, root, "net.frame.read", client_in.read_frame());
        let frame = read.await?.ok_or_else(closed)?;
        let decode = tracer.time(id, root, "net.proto.decode", async {
            proto::decode::<ServerMsg>(&frame)
        });
        black_box(decode.await?);

        tracer.close(root, id, 0, "op", op_mark);
    }
    trace::set_counting(false);
    m.put(
        "net.proto.req_bytes",
        request_bytes as f64 / ops.len() as f64,
        ops.len(),
    );
    m.put(
        "net.proto.resp_bytes",
        response_bytes as f64 / ops.len() as f64,
        ops.len(),
    );
    Ok(())
}

/// The same ops through `TcpClient`, one at a time against the workload's
/// real environment; every other one traced (root span `net.tcp.op`, with
/// whole-process allocation counts), the rest not — their difference is
/// the tracing overhead. Returns the median untraced op time, µs.
async fn tcp_replay(
    m: &mut Metrics,
    env: &mut Env,
    ops: Vec<Op>,
    tracer: &mut Tracer,
) -> Result<f64> {
    let api = Arc::clone(&env.conns[0].api);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let switches = stats::machine_ctx_switches();
    for (i, op) in ops.into_iter().enumerate() {
        let traced = i % 2 == 0;
        let id = (1 << 32) + i as u64;
        let start = Instant::now();
        if traced {
            let before = trace::allocations();
            trace::set_counting(true);
            let mark = tracer.mark();
            call(&*api, op.request).await?;
            tracer.record(id, 0, "net.tcp.op", mark);
            trace::set_counting(false);
            let after = trace::allocations();
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
            traced_s.push(start.elapsed().as_secs_f64());
        } else {
            call(&*api, op.request).await?;
            untraced_s.push(start.elapsed().as_secs_f64());
        }
        // The oracle must know about these writes too.
        env.conns[0].ledger.ack(op.digest);
    }
    let (traced_ops, ops) = (traced_s.len(), traced_s.len() + untraced_s.len());
    let (traced, untraced) = (median(&traced_s), median(&untraced_s));
    m.put("net.tcp.op_us", untraced * US, untraced_s.len());
    m.put("trace.overhead_share", traced / untraced - 1.0, traced_ops);
    m.put(
        "alloc.count_per_op",
        allocs as f64 / traced_ops as f64,
        traced_ops,
    );
    m.put(
        "alloc.bytes_per_op",
        bytes as f64 / traced_ops as f64,
        traced_ops,
    );
    m.put(
        "runtime.ctx_switches_per_op",
        (stats::machine_ctx_switches() - switches) / ops as f64,
        ops,
    );
    Ok(untraced * US)
}

pub async fn run_traced(
    workload: Workload,
    seed: u64,
    size: Size,
    scratch: &Path,
    out: &Path,
) -> Result<Value> {
    let smoke = size.is_smoke();
    let mut m = Metrics::default();
    let mut tracer = Tracer::new();

    // The workload's own environment first, while this process holds nothing
    // else: idle, it shows what the runtime costs at rest.
    eprintln!("trace: {} idle, replay and bursts", workload.name());
    let mut env = setup(workload, seed, scratch).await?;
    let cpu = stats::live_threads_cpu_ms();
    let idle_s = if smoke { 0.3 } else { 1.0 };
    tokio::time::sleep(Duration::from_secs_f64(idle_s)).await;
    let idle_cpu = (stats::live_threads_cpu_ms() - cpu) / idle_s;
    m.put("runtime.idle_cpu_ms_per_s", idle_cpu, 1);
    m.put("runtime.threads", stats::thread_count(), 1);

    // A fixed sample of the workload's ops — the first of connection 0's
    // stream for this seed — replayed one at a time: unrolled on a bare
    // exchange, then through TcpClient.
    let sample = scaled(if workload.unit_is_flow() { 200 } else { 2000 }, smoke);
    let ops: Vec<Op> = (0..sample).map(|_| env.conns[0].gen.next_op()).collect();
    unrolled_replay(&mut m, workload, &ops, &mut tracer, scratch).await?;
    let tcp_op_us = tcp_replay(&mut m, &mut env, ops, &mut tracer).await?;
    env.quiesce().await;
    env.flows.abandon_all();

    let totals = totals_by_name(&tracer.spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mut net_allocs = 0;
    for (metric, span) in [
        ("net.proto.encode_us", "net.proto.encode"),
        ("net.proto.decode_us", "net.proto.decode"),
        ("net.frame.write_us", "net.frame.write"),
        ("net.frame.read_us", "net.frame.read"),
    ] {
        let t = total(span);
        m.put(
            metric,
            t.total_ns as f64 / t.spans.max(1) as f64 / 1e3,
            t.spans as usize,
        );
        net_allocs += t.allocs;
    }
    // Per unrolled op: all of it, and the part its layer spans cover.
    let unrolled = total("op");
    let per_op_us = |ns: u64| ns as f64 / unrolled.spans.max(1) as f64 / 1e3;
    let unrolled_us = per_op_us(unrolled.total_ns);
    let layers_us = per_op_us(unrolled.total_ns - unrolled.self_ns);
    m.put(
        "net.allocs_per_op",
        net_allocs as f64 / sample as f64,
        sample,
    );
    m.put(
        "store.allocs_per_op",
        total("store.op").allocs as f64 / sample as f64,
        sample,
    );
    m.put("net.tcp.overhead_us", tcp_op_us - unrolled_us, sample / 2);
    m.put(
        "op.unattributed_share",
        1.0 - layers_us / tcp_op_us,
        sample / 2,
    );

    // Short bursts of both phases: generator health and what `sat` leaves
    // behind. (End-to-end numbers come from the untraced run only.)
    let phases = run_round(&mut env, if smoke { 1.0 } else { 5.0 }, 0.2).await;
    let late = sort(phases.paced.late_ms);
    m.put("gen.sched_late_p99_ms", percentile(&late, 0.99), late.len());
    // Too noisy on two cores to gate on; kept visible here.
    let op_ms = sort(phases.paced.op_ms);
    m.put("op_p99_ms", percentile(&op_ms, 0.99), op_ms.len());
    m.put("core.backlog_after_sat", phases.backlog_after_sat as f64, 1);
    m.put("core.drain_s", phases.drain_s, 1);
    let faults = env.check().await;
    let threads_left = stats::thread_count();
    // The high-water mark so far is this workload's: the layer probes,
    // which hold other environments, have not run yet.
    m.put("peak_rss_mb", stats::peak_rss_mb(), 1);

    // Layer probes: the same whatever the workload.
    m.put("machine.fsync_us", stats::fsync_probe_us(scratch), 20);
    eprintln!("trace: runtime probes");
    runtime_probes(&mut m, smoke).await?;
    eprintln!("trace: rbac, store and wal probes");
    store_probes(&mut m, scratch, smoke).await?;
    eprintln!("trace: logstore probes");
    logstore_probes(&mut m, smoke).await?;
    eprintln!("trace: expr and dxg probes");
    expr_probes(&mut m, smoke)?;
    eprintln!("trace: apps, composer and rpc probes");
    app_probes(&mut m, smoke).await?;
    eprintln!("trace: watch delivery over tcp");
    watch_deliver_probe(&mut m, &scratch.join("watch"), smoke).await?;
    eprintln!("trace: retail flow hops");
    flow_probe(&mut m, &mut tracer, seed, scratch, smoke).await?;

    let trace_file = out.join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&trace_file)?;
    Ok(json!({
        "correct": faults.is_empty(),
        "attempted": phases.attempted + sample as u64,
        "failed": phases.failed + faults.len() as u64,
        "faults": faults,
        "metrics": m.into_value(),
        "health": {
            "trace_file": trace_file.display().to_string(),
            "spans": tracer.spans.len(),
            "threads_after_teardown": threads_left,
        },
    }))
}
