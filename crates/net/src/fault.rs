//! Seeded fault injection for the exchange transport.
//!
//! Everything here is **deterministic**: every fault decision flows from a
//! [`FaultPlan`]'s seed through a [`FaultRng`] (splitmix64), so a chaos
//! failure reproduces exactly from its printed seed — the property that
//! makes deterministic-simulation testing (FoundationDB-style) workable.
//!
//! Two injection points cover both deployments of the exchange:
//!
//! * [`FaultProxy`] — a frame-level TCP proxy in front of a real
//!   [`crate::server::ExchangeServer`]. From the seeded RNG it drops,
//!   delays, and duplicates whole frames and force-closes connections,
//!   exercising the genuine reconnect path in
//!   [`crate::client::ResilientClient`].
//! * [`FaultApi`] — an [`Exchange`] layer for in-process
//!   ([`crate::loopback`]) deployments: request ops are lost before
//!   execution, lost after execution (executed-but-unacknowledged, the
//!   dual of [`knactor_store::CrashPoint::AfterAppend`]), duplicated, or
//!   delayed. Watch/tail *streams* pass through unfaulted — at this layer
//!   there is no reconnect machinery to resume them, so faulting them
//!   would only test the absence of a feature.

use crate::api::{BoxFuture, Exchange};
use crate::frame::{FrameReader, FrameWriter};
use crate::proto::{Request, Response};
use crate::stream::Subscription;
use knactor_types::{Error, Result};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;

/// Deterministic RNG (splitmix64). Small, fast, and good enough for fault
/// schedules; the workspace deliberately vendors no general RNG crate.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }

    /// Uniform in `[0, n)` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Derive an independent stream: same parent seed + same `stream`
    /// index always yields the same child, regardless of how much the
    /// parent has been consumed.
    pub fn fork(seed: u64, stream: u64) -> FaultRng {
        FaultRng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Probabilities and bounds for injected transport faults.
///
/// All probabilities are per-frame (proxy) or per-request (loopback).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed every fault decision derives from. Print it on failure.
    pub seed: u64,
    /// Probability a frame/request is silently dropped.
    pub drop_frame: f64,
    /// Probability a frame/request is delivered twice.
    pub dup_frame: f64,
    /// Probability a frame/request is delayed by up to `max_delay`.
    pub delay_frame: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
    /// Probability (checked per frame) that the connection is killed.
    pub close_conn: f64,
}

impl FaultPlan {
    /// No faults at all — a transparent proxy (baseline runs).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_frame: 0.0,
            dup_frame: 0.0,
            delay_frame: 0.0,
            max_delay: Duration::ZERO,
            close_conn: 0.0,
        }
    }

    /// A hostile-but-survivable network: a few percent of frames are
    /// dropped/duplicated/delayed and connections die now and then.
    pub fn flaky(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_frame: 0.03,
            dup_frame: 0.03,
            delay_frame: 0.10,
            max_delay: Duration::from_millis(5),
            close_conn: 0.01,
        }
    }
}

/// Counters for what the fault layer actually did (all monotonic).
#[derive(Debug, Default)]
pub struct FaultStats {
    pub frames_forwarded: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_duplicated: AtomicU64,
    pub frames_delayed: AtomicU64,
    pub conns_accepted: AtomicU64,
    pub conns_killed: AtomicU64,
}

impl FaultStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One-line summary for chaos-test logs.
    pub fn summary(&self) -> String {
        format!(
            "forwarded={} dropped={} duplicated={} delayed={} accepted={} killed={}",
            self.frames_forwarded.load(Ordering::Relaxed),
            self.frames_dropped.load(Ordering::Relaxed),
            self.frames_duplicated.load(Ordering::Relaxed),
            self.frames_delayed.load(Ordering::Relaxed),
            self.conns_accepted.load(Ordering::Relaxed),
            self.conns_killed.load(Ordering::Relaxed),
        )
    }
}

/// A frame-level TCP proxy that injects faults between an exchange client
/// and server according to a [`FaultPlan`].
///
/// Because it relays *frames* (not bytes), a dropped frame is a cleanly
/// lost message — the framing stays intact and the peer simply never sees
/// that request or reply, which is exactly the failure a retry layer must
/// survive. Byte-level tearing is covered separately by the proptest suite
/// (a mutated stream must make the decoder error, never panic).
pub struct FaultProxy {
    local: SocketAddr,
    stats: Arc<FaultStats>,
    /// Bumping the epoch force-closes every live relay.
    kill_tx: watch::Sender<u64>,
    kill_epoch: AtomicU64,
    shutdown_tx: watch::Sender<bool>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral local port, forwarding to `upstream`.
    pub async fn spawn(upstream: SocketAddr, plan: FaultPlan) -> Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0").await?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Transport(e.to_string()))?;
        let stats = Arc::new(FaultStats::default());
        let (kill_tx, kill_rx) = watch::channel(0u64);
        let (shutdown_tx, mut shutdown_rx) = watch::channel(false);

        let accept_stats = Arc::clone(&stats);
        tokio::spawn(async move {
            // Connection index seeds per-direction RNG streams, so fault
            // schedules do not depend on scheduler interleaving between
            // connections.
            let mut conn_idx: u64 = 0;
            loop {
                let accepted = tokio::select! {
                    res = listener.accept() => { res }
                    _ = shutdown_rx.changed() => { break }
                };
                let Ok((inbound, _)) = accepted else { break };
                let Ok(outbound) = TcpStream::connect(upstream).await else {
                    // Upstream gone: drop the inbound socket, client sees
                    // a reset and retries.
                    continue;
                };
                let _ = inbound.set_nodelay(true);
                let _ = outbound.set_nodelay(true);
                FaultStats::bump(&accept_stats.conns_accepted);

                let (in_read, in_write) = inbound.into_split();
                let (out_read, out_write) = outbound.into_split();
                // Each relay needs its own kill receiver with the
                // *current* epoch marked seen: a clone inherits the
                // accept loop's never-advanced version, so without this
                // a past kill_connections() would instantly kill every
                // connection accepted after it.
                let mut kill_a = kill_rx.clone();
                let _ = kill_a.borrow_and_update();
                let mut kill_b = kill_rx.clone();
                let _ = kill_b.borrow_and_update();
                // Client→server carries the Hello handshake as its first
                // frame; it identifies the connection rather than a
                // request, so it always passes through unfaulted.
                tokio::spawn(relay(
                    FrameReader::new(in_read),
                    FrameWriter::new(out_write),
                    FaultRng::fork(plan.seed, 2 * conn_idx),
                    plan,
                    Arc::clone(&accept_stats),
                    kill_a,
                    1,
                ));
                tokio::spawn(relay(
                    FrameReader::new(out_read),
                    FrameWriter::new(in_write),
                    FaultRng::fork(plan.seed, 2 * conn_idx + 1),
                    plan,
                    Arc::clone(&accept_stats),
                    kill_b,
                    0,
                ));
                conn_idx += 1;
            }
        });

        Ok(FaultProxy {
            local,
            stats,
            kill_tx,
            kill_epoch: AtomicU64::new(0),
            shutdown_tx,
        })
    }

    /// Address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Force-close every live proxied connection (a network partition in
    /// one call). New connections are accepted again immediately.
    pub fn kill_connections(&self) {
        let epoch = self.kill_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = self.kill_tx.send(epoch);
    }

    /// Stop accepting new connections (existing relays die as their
    /// sockets close).
    pub fn shutdown(&self) {
        let _ = self.shutdown_tx.send(true);
        self.kill_connections();
    }
}

/// Relay one direction of a proxied connection, frame by frame, applying
/// the plan's faults. The first `handshake_frames` frames pass through
/// untouched.
async fn relay<R, W>(
    mut reader: FrameReader<R>,
    mut writer: FrameWriter<W>,
    mut rng: FaultRng,
    plan: FaultPlan,
    stats: Arc<FaultStats>,
    mut kill: watch::Receiver<u64>,
    mut handshake_frames: u32,
) where
    R: tokio::io::AsyncRead + Unpin,
    W: tokio::io::AsyncWrite + Unpin,
{
    loop {
        let frame = tokio::select! {
            res = reader.read_frame() => {
                match res {
                    Ok(Some(frame)) => frame,
                    // Clean EOF or torn stream: either way this direction
                    // is done; dropping the halves cascades the close.
                    _ => break,
                }
            }
            _ = kill.changed() => {
                FaultStats::bump(&stats.conns_killed);
                break;
            }
        };
        if handshake_frames > 0 {
            handshake_frames -= 1;
            if writer.write_frame(&frame).await.is_err() {
                break;
            }
            FaultStats::bump(&stats.frames_forwarded);
            continue;
        }
        if rng.chance(plan.close_conn) {
            FaultStats::bump(&stats.conns_killed);
            count_injection("close");
            break;
        }
        if rng.chance(plan.drop_frame) {
            FaultStats::bump(&stats.frames_dropped);
            count_injection("drop");
            continue;
        }
        if rng.chance(plan.delay_frame) {
            let micros = rng.below(plan.max_delay.as_micros().min(u64::MAX as u128) as u64 + 1);
            FaultStats::bump(&stats.frames_delayed);
            count_injection("delay");
            tokio::time::sleep(Duration::from_micros(micros)).await;
        }
        if writer.write_frame(&frame).await.is_err() {
            break;
        }
        FaultStats::bump(&stats.frames_forwarded);
        if rng.chance(plan.dup_frame) {
            FaultStats::bump(&stats.frames_duplicated);
            count_injection("duplicate");
            if writer.write_frame(&frame).await.is_err() {
                break;
            }
        }
    }
}

/// Mirror one injected fault into the global registry
/// (`knactor_fault_injections_total{kind}`), alongside the local
/// [`FaultStats`] atomics tests assert against.
fn count_injection(kind: &str) {
    knactor_types::metrics::global()
        .counter("knactor_fault_injections_total", &[("kind", kind)])
        .inc();
}

/// What [`FaultApi`] decided to do with one request.
enum Decision {
    Pass,
    /// The request never reaches the exchange.
    LoseRequest,
    /// The request executes, but the caller sees a transport error —
    /// executed-but-unacknowledged, the case retries must disambiguate.
    LoseReply,
    /// The request executes twice (a duplicated frame); the first result
    /// is returned.
    Duplicate,
    Delay(Duration),
}

/// Fault-injecting [`Exchange`] layer for in-process deployments.
pub struct FaultApi {
    inner: Arc<dyn Exchange>,
    plan: Mutex<FaultPlan>,
    rng: Mutex<FaultRng>,
    stats: Arc<FaultStats>,
}

impl FaultApi {
    pub fn new(inner: Arc<dyn Exchange>, plan: FaultPlan) -> FaultApi {
        FaultApi {
            inner,
            rng: Mutex::new(FaultRng::new(plan.seed)),
            plan: Mutex::new(plan),
            stats: Arc::new(FaultStats::default()),
        }
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Swap the fault plan mid-run (healthy bring-up, then inject — the
    /// composer rollback test does exactly this). The RNG stream is kept,
    /// so the run stays reproducible from the original seed plus the
    /// sequence of plans.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    pub fn plan(&self) -> FaultPlan {
        *self.plan.lock()
    }

    fn decide(&self) -> Decision {
        let plan = *self.plan.lock();
        let mut rng = self.rng.lock();
        if rng.chance(plan.drop_frame) {
            FaultStats::bump(&self.stats.frames_dropped);
            count_injection("drop");
            return Decision::LoseRequest;
        }
        if rng.chance(plan.close_conn) {
            count_injection("close");
            return Decision::LoseReply;
        }
        if rng.chance(plan.dup_frame) {
            FaultStats::bump(&self.stats.frames_duplicated);
            count_injection("duplicate");
            return Decision::Duplicate;
        }
        if rng.chance(plan.delay_frame) {
            FaultStats::bump(&self.stats.frames_delayed);
            count_injection("delay");
            let micros = rng.below(plan.max_delay.as_micros().min(u64::MAX as u128) as u64 + 1);
            return Decision::Delay(Duration::from_micros(micros));
        }
        Decision::Pass
    }
}

/// Requests subject to injection. Observability must stay reliable under
/// chaos, so scrapes bypass it — as the watch/tail streams do.
fn faultable(request: &Request) -> bool {
    !matches!(request, Request::Metrics)
}

impl Exchange for FaultApi {
    /// One fault decision per request — and a batch is one request: a
    /// dropped batch loses all of it, a duplicated batch re-executes all
    /// of it, exactly what the proxy does to a batched frame.
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        if !faultable(&request) {
            return self.inner.call(request);
        }
        let decision = self.decide();
        Box::pin(async move {
            match decision {
                Decision::LoseRequest => {
                    return Err(Error::Transport("injected: request lost".to_string()))
                }
                Decision::LoseReply => {
                    let _ = self.inner.call(request).await;
                    return Err(Error::Transport("injected: reply lost".to_string()));
                }
                Decision::Delay(d) => tokio::time::sleep(d).await,
                Decision::Duplicate | Decision::Pass => {}
            }
            let out = if matches!(decision, Decision::Duplicate) {
                let first = self.inner.call(request.clone()).await;
                let _ = self.inner.call(request).await;
                first
            } else {
                self.inner.call(request).await
            };
            FaultStats::bump(&self.stats.frames_forwarded);
            out
        })
    }

    // Streams pass through unfaulted — see module docs.
    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        self.inner.open(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let mut c = FaultRng::new(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn forked_streams_are_independent_and_stable() {
        let mut f0 = FaultRng::fork(7, 0);
        let mut f1 = FaultRng::fork(7, 1);
        assert_ne!(f0.next_u64(), f1.next_u64());
        // Re-forking yields the same stream from the start.
        let mut f0_again = FaultRng::fork(7, 0);
        let mut f0_ref = FaultRng::fork(7, 0);
        assert_eq!(f0_again.next_u64(), f0_ref.next_u64());
    }

    #[test]
    fn unit_stays_in_range_and_chance_extremes_hold() {
        let mut rng = FaultRng::new(1);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn below_bounds() {
        let mut rng = FaultRng::new(9);
        assert_eq!(rng.below(0), 0);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
