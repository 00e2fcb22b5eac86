//! Backpressure and overload behaviour over the wire.
//!
//! Three properties the load work forces and this suite pins down:
//!
//! 1. **Typed shedding, zero acked loss** — past saturation the server
//!    answers with `Error::Overloaded { retry_after_ms }` *before*
//!    dispatch, so a shed request has no side effects, every acked
//!    write is durable, and `ResilientClient` can retry blindly.
//! 2. **No wedge** — an open-loop sweep far past capacity (through the
//!    fault proxy, the deployment path chaos CI exercises) completes,
//!    leaves no abandoned operations, and the server still answers.
//! 3. **Slow subscribers can't take the store down** — a watcher that
//!    stops reading costs the store nothing; once it falls off the
//!    retained window its stream ends with a typed
//!    `WatchLagged { resume_from }` frame, recovered by re-list, while
//!    healthy subscribers keep receiving every event.
//!
//! Seeded (`CHAOS_SEED`) like the rest of the chaos suite.

use knactor::prelude::*;
use knactor_net::client::{ResilientClient, RetryPolicy};
use knactor_net::frame::{FrameReader, FrameWriter};
use knactor_net::proto::{decode, encode, EventBody, Hello, Request, RequestEnvelope, ServerMsg};
use knactor_net::server::ServerConfig;
use knactor_net::{BoxFuture, FaultPlan, FaultProxy, FaultRng, WatchRx};
use knactor_store::profile::WatchDelivery;
use knactor_store::{EventKind, WatchEvent};
use serde_json::json;
use std::future::Future;
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBACC_0FF5)
}

/// Instant-engine profile with a deliberate per-write cost, so a small
/// inflight cap saturates at a load a test can comfortably offer.
fn slow_write_profile(write_delay: Duration) -> EngineProfile {
    EngineProfile {
        write_delay,
        ..EngineProfile::instant()
    }
}

/// Overload a tightly-provisioned server from many connections at once:
/// shedding must be typed, acked writes must all be durable, and
/// resilient writers must land everything despite the storm.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn overload_sheds_typed_and_loses_no_acked_write() {
    let seed = seed();
    eprintln!("CHAOS_SEED={seed}");
    let server = ExchangeServer::bind_with_config(
        "127.0.0.1:0",
        Arc::new(DataExchange::new()),
        Arc::new(LogExchange::new()),
        ServerConfig {
            outbound_queue: 64,
            shed_watermark: 48,
            max_inflight: 2,
            retry_after_ms: 5,
        },
    )
    .await
    .unwrap();
    server
        .object
        .create_store(
            StoreId::new("burst/state"),
            slow_write_profile(Duration::from_millis(2)),
        )
        .unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::none(seed))
        .await
        .unwrap();

    // The storm: 12 connections, each firing 24 pipelined creates with
    // no pacing — open-loop far past a 2-op inflight budget.
    let mut writers = Vec::new();
    for conn in 0..12u64 {
        let addr = proxy.local_addr();
        writers.push(tokio::spawn(async move {
            let client = TcpClient::connect(addr, Subject::operator(&format!("burst-{conn}")))
                .await
                .expect("connect burst writer");
            let mut acked = Vec::new();
            let mut shed = 0u64;
            let ops = (0..24u64).map(|i| {
                let client = &client;
                let key = format!("k-{conn}-{i}");
                async move {
                    let value = json!({"conn": conn, "i": i});
                    let result = client
                        .create(
                            StoreId::new("burst/state"),
                            ObjectKey::new(key.as_str()),
                            value.clone(),
                        )
                        .await;
                    (key, value, result)
                }
            });
            for (key, value, result) in futures_join_all(ops).await {
                match result {
                    Ok(_) => acked.push((key, value)),
                    Err(Error::Overloaded { retry_after_ms }) => {
                        assert!(retry_after_ms > 0, "shed must carry a backoff hint");
                        shed += 1;
                    }
                    Err(other) => panic!("burst write failed untyped: {other}"),
                }
            }
            (acked, shed)
        }));
    }

    // Resilient writers ride through the same storm: every logical
    // write must land, with Overloaded absorbed by retry + backoff.
    let resilient = ResilientClient::connect(
        proxy.local_addr(),
        Subject::operator("resilient-burst"),
        RetryPolicy {
            max_attempts: 60,
            ..RetryPolicy::fast(seed)
        },
    )
    .await
    .unwrap();
    let mut resilient_keys = Vec::new();
    for i in 0..10u64 {
        let key = format!("resilient-{i}");
        resilient
            .create(
                StoreId::new("burst/state"),
                ObjectKey::new(key.as_str()),
                json!({"resilient": i}),
            )
            .await
            .expect("resilient write through overload");
        resilient_keys.push(key);
    }

    let mut acked = Vec::new();
    let mut shed_total = 0u64;
    for writer in writers {
        let (conn_acked, conn_shed) = tokio::time::timeout(Duration::from_secs(60), writer)
            .await
            .expect("burst wedged: writer did not finish")
            .unwrap();
        acked.extend(conn_acked);
        shed_total += conn_shed;
    }
    assert!(
        shed_total > 0,
        "a 12-connection storm against max_inflight=2 must shed (seed {seed})"
    );

    // Zero acked loss: every acknowledged create is readable with the
    // exact acknowledged value, through a fresh connection.
    let verifier = TcpClient::connect(proxy.local_addr(), Subject::operator("verify"))
        .await
        .unwrap();
    assert!(!acked.is_empty(), "storm acked nothing at all");
    for (key, value) in &acked {
        let got = verifier
            .get(StoreId::new("burst/state"), ObjectKey::new(key.as_str()))
            .await
            .unwrap_or_else(|e| panic!("acked write {key} lost: {e} (seed {seed})"));
        assert_eq!(&*got.value, value, "acked write {key} corrupted");
    }
    for key in &resilient_keys {
        verifier
            .get(StoreId::new("burst/state"), ObjectKey::new(key.as_str()))
            .await
            .unwrap_or_else(|e| panic!("resilient write {key} lost: {e} (seed {seed})"));
    }

    // Once the storm subsides the server admits everything again.
    verifier.ping().await.expect("server dead after overload");
    let snapshot = verifier.metrics().await.unwrap();
    let shed_counter: u64 = snapshot
        .counters
        .iter()
        .filter(|c| c.name == "knactor_net_shed_total")
        .map(|c| c.value)
        .sum();
    assert!(
        shed_counter >= shed_total,
        "server shed counter {shed_counter} below client-observed {shed_total}"
    );

    proxy.shutdown();
    server.shutdown().await;
}

/// Tiny join_all (the workspace has no futures crate): polls all
/// futures to completion concurrently within one task.
async fn futures_join_all<F, T>(futs: impl IntoIterator<Item = F>) -> Vec<T>
where
    F: std::future::Future<Output = T>,
{
    let mut handles: Vec<std::pin::Pin<Box<F>>> = futs.into_iter().map(Box::pin).collect();
    let mut out: Vec<Option<T>> = handles.iter().map(|_| None).collect();
    std::future::poll_fn(|cx| {
        let mut all_done = true;
        for (slot, fut) in out.iter_mut().zip(handles.iter_mut()) {
            if slot.is_none() {
                match fut.as_mut().poll(cx) {
                    std::task::Poll::Ready(v) => *slot = Some(v),
                    std::task::Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            std::task::Poll::Ready(())
        } else {
            std::task::Poll::Pending
        }
    })
    .await;
    out.into_iter().map(|v| v.unwrap()).collect()
}

/// What one open-loop phase did with the ops it was offered.
#[derive(Debug, Default)]
struct Tally {
    /// Ops sent to the server.
    issued: u64,
    /// Answered with a result, `NotFound` included (a read of a key no
    /// patch has written yet).
    ok: u64,
    /// Typed `Overloaded`, shed by admission control before dispatch.
    shed: u64,
    /// Every other error.
    errors: u64,
    /// Due but never sent before the phase ended: offered load the server
    /// could not absorb, not a failure.
    unsent: u64,
    /// Sent, and still unanswered when the drain window closed: a wedge.
    abandoned: u64,
}

impl Tally {
    fn record(&mut self, result: Result<()>) {
        match result {
            Ok(()) | Err(Error::NotFound(_)) => self.ok += 1,
            Err(Error::Overloaded { .. }) => self.shed += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// One op of the seeded mix: 70% `get`, 20% upsert-`patch`, 10%
/// `batch_get` of 16, over 256 order keys.
fn seeded_op<'a>(api: &'a dyn ExchangeApi, rng: &mut FaultRng) -> BoxFuture<'a, Result<()>> {
    let store = StoreId::new("checkout/state");
    let draw = rng.unit();
    let mut key = || ObjectKey::new(format!("order-{:03}", rng.below(256)).as_str());
    if draw < 0.7 {
        let key = key();
        Box::pin(async move { api.get(store, key).await.map(drop) })
    } else if draw < 0.9 {
        let key = key();
        let value = json!({"order": {"amount": draw, "pad": "x".repeat(64)}});
        Box::pin(async move { api.patch(store, key, value, true).await.map(drop) })
    } else {
        let keys = (0..16).map(|_| key()).collect();
        Box::pin(async move { api.batch_get(store, keys).await.map(drop) })
    }
}

/// One phase of the sweep, open loop: the `n`-th op falls due `n / rate`
/// after the start whether or not earlier ops have answered, and goes out
/// as soon as one of `WINDOW` in-flight slots is free. This one task polls every op
/// in flight — the vendored runtime gives each task an OS thread, so a
/// task per op would measure thread spawning, not the server.
async fn open_loop(api: &dyn ExchangeApi, rng: &mut FaultRng, rate: f64, phase: Duration) -> Tally {
    const WINDOW: usize = 64;
    const DRAIN: Duration = Duration::from_secs(5);
    let start = std::time::Instant::now();
    let mut tally = Tally::default();
    let mut in_flight: Vec<BoxFuture<'_, Result<()>>> = Vec::new();
    let mut due = 0;
    loop {
        let elapsed = start.elapsed();
        if elapsed < phase {
            due = (rate * elapsed.as_secs_f64()) as u64;
            while tally.issued < due && in_flight.len() < WINDOW {
                in_flight.push(seeded_op(api, rng));
                tally.issued += 1;
            }
        } else if in_flight.is_empty() || elapsed >= phase + DRAIN {
            break;
        }
        // Until an op answers or the next 1 ms tick, whichever is first.
        let mut tick = std::pin::pin!(tokio::time::sleep(Duration::from_millis(1)));
        std::future::poll_fn(|cx| {
            let before = in_flight.len();
            in_flight.retain_mut(|op| match op.as_mut().poll(cx) {
                Poll::Ready(result) => {
                    tally.record(result);
                    false
                }
                Poll::Pending => true,
            });
            if in_flight.len() < before || tick.as_mut().poll(cx).is_ready() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
    }
    tally.unsent = due - tally.issued;
    tally.abandoned = in_flight.len() as u64;
    tally
}

/// An open-loop sweep far past capacity, through the fault proxy, must
/// degrade (latency, shedding, lower achieved rate) — never wedge.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn saturating_rate_sweep_degrades_but_never_wedges() {
    let seed = seed();
    eprintln!("CHAOS_SEED={seed}");
    let server = ExchangeServer::bind_with_config(
        "127.0.0.1:0",
        Arc::new(DataExchange::new()),
        Arc::new(LogExchange::new()),
        ServerConfig {
            outbound_queue: 256,
            shed_watermark: 192,
            max_inflight: 64,
            retry_after_ms: 5,
        },
    )
    .await
    .unwrap();
    server
        .object
        .create_store(
            StoreId::new("checkout/state"),
            slow_write_profile(Duration::from_micros(200)),
        )
        .unwrap();
    let proxy = FaultProxy::spawn(server.local_addr(), FaultPlan::none(seed))
        .await
        .unwrap();

    let client = TcpClient::connect(proxy.local_addr(), Subject::operator("sweep"))
        .await
        .unwrap();
    let mut rng = FaultRng::new(seed);

    // Well under, then far over what the store can serve through one
    // serialized connection.
    for (label, rate) in [("under", 400.0), ("over", 20_000.0)] {
        let tally = open_loop(&client, &mut rng, rate, Duration::from_millis(600)).await;
        eprintln!("{label}: {tally:?}");
        assert!(tally.ok > 0, "{label}: nothing completed (seed {seed})");
        assert_eq!(
            tally.errors, 0,
            "{label}: untyped errors under clean-network overload (seed {seed})"
        );
        assert_eq!(
            tally.abandoned, 0,
            "{label}: operations wedged past the drain window (seed {seed})"
        );
    }

    // The server survived the sweep and still answers promptly.
    let prober = TcpClient::connect(proxy.local_addr(), Subject::operator("prober"))
        .await
        .unwrap()
        .with_request_timeout(Duration::from_secs(5));
    prober
        .ping()
        .await
        .expect("server unresponsive after sweep");

    proxy.shutdown();
    server.shutdown().await;
}

/// A subscriber that stops reading falls off the store's retained window
/// and is told so with a typed `WatchLagged { resume_from }` when its pump
/// next pulls, while healthy subscribers keep flowing. Its next revision
/// is gone by definition, so a raw re-watch is `WatchTooOld` and a
/// resuming client converges by re-list.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn slow_subscriber_cut_healthy_subscriber_served() {
    let server = ExchangeServer::bind_with_config(
        "127.0.0.1:0",
        Arc::new(DataExchange::new()),
        Arc::new(LogExchange::new()),
        ServerConfig {
            // A small per-connection queue so the non-reading socket
            // blocks its pump quickly.
            outbound_queue: 8,
            shed_watermark: 8,
            max_inflight: 64,
            retry_after_ms: 5,
        },
    )
    .await
    .unwrap();
    let store = StoreId::new("feed/state");
    server
        .object
        .create_store(
            store.clone(),
            // The window is sized so only a subscriber that has stopped
            // reading can plausibly fall off it: 256 events of ~48KiB is
            // ~12MiB behind, far past any transient scheduling stall of a
            // reader that is actually consuming, while the non-reading
            // socket's pump is left behind the moment the kernel's
            // buffers stop absorbing.
            EngineProfile {
                watch: WatchDelivery::Push,
                history_cap: 256,
                ..EngineProfile::instant()
            },
        )
        .unwrap();

    // The slow subscriber: a raw socket that subscribes and then never
    // reads a byte.
    let slow = tokio::net::TcpStream::connect(server.local_addr())
        .await
        .unwrap();
    let (slow_read, slow_write) = slow.into_split();
    let mut slow_writer = FrameWriter::new(slow_write);
    let hello = Hello {
        subject_kind: "operator".to_string(),
        subject_name: "slow-sub".to_string(),
    };
    slow_writer
        .write_frame(&encode(&hello).unwrap())
        .await
        .unwrap();
    let watch = RequestEnvelope {
        id: 1,
        body: Request::Watch {
            store: store.clone(),
            from: Revision::ZERO,
        },
    };
    slow_writer
        .write_frame(&encode(&watch).unwrap())
        .await
        .unwrap();

    // Read exactly one frame — the Watch reply, sent after the
    // subscription registered server-side — then go silent forever.
    // This is the registration barrier: every commit below happens
    // after the slow subscription exists.
    let mut slow_reader = FrameReader::new(slow_read);
    let reply = tokio::time::timeout(Duration::from_secs(5), slow_reader.read_frame())
        .await
        .expect("no Watch reply for the slow subscriber")
        .unwrap()
        .expect("slow connection closed during handshake");
    assert!(matches!(
        decode::<ServerMsg>(&reply).unwrap(),
        ServerMsg::Reply { id: 1, .. }
    ));

    // The healthy subscriber, reading normally over a real client: a
    // concurrent task consumes events as they arrive (a subscriber that
    // sat on its channel for the whole write volume would deservedly
    // fall off too), asserting density and order, until told the final
    // revision to expect.
    let healthy = TcpClient::connect(server.local_addr(), Subject::operator("healthy"))
        .await
        .unwrap();
    let mut healthy_rx = healthy.watch(store.clone(), Revision::ZERO).await.unwrap();
    use std::sync::atomic::{AtomicU64, Ordering};
    let target = Arc::new(AtomicU64::new(0));
    let target_in_task = Arc::clone(&target);
    let healthy_task = tokio::spawn(async move {
        let mut next = 1u64;
        loop {
            let t = target_in_task.load(Ordering::Acquire);
            if t != 0 && next > t {
                break;
            }
            match tokio::time::timeout(Duration::from_secs(10), healthy_rx.recv()).await {
                Ok(Some(event)) => {
                    assert_eq!(event.revision, Revision(next), "healthy stream gapped");
                    next += 1;
                }
                Ok(None) => panic!("healthy watch closed early"),
                Err(_) => {
                    let t = target_in_task.load(Ordering::Acquire);
                    assert!(
                        t != 0 && next > t,
                        "healthy subscriber starved behind a slow peer (saw {})",
                        next - 1
                    );
                    break;
                }
            }
        }
        next - 1
    });

    // Values are deliberately fat: the slow subscriber's backlog has to
    // overflow the kernel's TCP buffers and the server's bounded outbound
    // queue before its pump stops pulling and the window moves past it.
    // How much the kernel absorbs depends on autotuned window sizes
    // (warmed loopback route metrics can push rcvbuf to tcp_rmem's max),
    // and the cut is only observed when the pump next pulls, so the write
    // count is a fixed byte ceiling comfortably above the largest buffer
    // budget autotuning can reach plus the window (32 MiB rmem + 4 MiB
    // wmem on stock kernels; the ceiling below is ~66 MiB of padded values).
    // The fat values cycle over a few keys, so the store itself (and the
    // re-list below) stays a few MiB.
    const COMMITS: u64 = 1400;
    const KEYS: u64 = 100;
    let pad = "x".repeat(48 * 1024);
    let writer = TcpClient::connect(server.local_addr(), Subject::operator("writer"))
        .await
        .unwrap();
    let cutoffs_at = |snapshot: &knactor::types::metrics::MetricsSnapshot| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == "knactor_store_watch_cutoffs_total")
            .map(|c| c.value)
            .sum()
    };
    let cutoffs_before = cutoffs_at(&writer.metrics().await.unwrap());
    for i in 0..COMMITS {
        let key = ObjectKey::new(format!("k{:02}", i % KEYS).as_str());
        let value = json!({"i": i, "pad": pad});
        let revision = writer.patch(store.clone(), key, value, true).await;
        assert_eq!(revision.unwrap(), Revision(i + 1));
    }

    // Healthy subscriber: every commit arrives, in order — nothing it
    // reads from was held up by the non-reading connection.
    target.store(COMMITS, Ordering::Release);
    let received = healthy_task
        .await
        .expect("healthy subscriber task panicked");
    assert_eq!(
        received, COMMITS,
        "healthy subscriber missed events behind a slow peer"
    );

    // Now drain the slow socket: buffered events, then — its pump pulls
    // again and finds its cursor off the window — the typed frame naming
    // how far it got.
    let resume_from = tokio::time::timeout(Duration::from_secs(10), async {
        loop {
            let frame = slow_reader
                .read_frame()
                .await
                .expect("slow socket read")
                .expect("slow socket closed before WatchLagged");
            if let Ok(ServerMsg::Event {
                body: EventBody::WatchLagged { resume_from },
                ..
            }) = decode::<ServerMsg>(&frame)
            {
                break resume_from;
            }
        }
    })
    .await
    .expect("no WatchLagged frame reached the lagging subscriber");
    assert!(resume_from < COMMITS, "resume point past the write horizon");
    assert!(
        cutoffs_at(&healthy.metrics().await.unwrap()) > cutoffs_before,
        "the lagging subscriber's cutoff was not counted"
    );

    // Its next revision has left the window: a raw re-watch is refused,
    // typed.
    let err = healthy
        .watch(store.clone(), Revision(resume_from))
        .await
        .unwrap_err();
    assert!(matches!(err, Error::WatchTooOld { .. }), "{err:?}");

    // A resuming client converges from the same point by re-list: every
    // object changed since (all of them, each last written in the final
    // `KEYS` commits), once, in revision order, then live.
    let resumer = ResilientClient::connect(
        server.local_addr(),
        Subject::operator("resumer"),
        RetryPolicy::default(),
    )
    .await
    .unwrap();
    let mut resumed = resumer
        .watch(store.clone(), Revision(resume_from))
        .await
        .unwrap();
    async fn next(what: &str, rx: &mut WatchRx) -> WatchEvent {
        let event = tokio::time::timeout(Duration::from_secs(10), rx.recv()).await;
        event.expect(what).expect("resumed stream closed early")
    }
    for expected in (COMMITS - KEYS + 1)..=COMMITS {
        let event = next("re-list stalled", &mut resumed).await;
        assert_eq!(
            (event.revision, event.kind),
            (Revision(expected), EventKind::Updated),
            "re-list gapped"
        );
    }
    writer
        .create(
            store.clone(),
            ObjectKey::new("after"),
            json!({"i": COMMITS}),
        )
        .await
        .unwrap();
    let live = next("live event after the re-list stalled", &mut resumed).await;
    assert_eq!(
        (live.revision, live.kind),
        (Revision(COMMITS + 1), EventKind::Created)
    );

    server.shutdown().await;
}
