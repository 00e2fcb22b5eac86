//! Engine profiles: the knobs that turn one store core into the paper's
//! different Object exchanges.
//!
//! The paper evaluates three configurations (Table 2):
//!
//! * **K-apiserver** — Kubernetes apiserver semantics: every write is
//!   persisted (WAL + fsync) before acknowledgement, and watchers learn
//!   about changes with list-watch polling cadence rather than
//!   immediately. Strong durability, tens of milliseconds of propagation.
//! * **K-redis** — in-memory store: no persistence, push-style watch
//!   notification, sub-millisecond operations.
//! * **K-redis-udf** — K-redis plus integrator pushdown; the pushdown
//!   itself lives in [`crate::udf`], not the profile.
//!
//! A profile also carries a per-operation processing delay, modelling the
//! request handling cost of the real system the engine stands in for
//! (the apiserver's admission/serialization pipeline is far heavier than
//! Redis's command loop). Delays are applied in the async
//! [`crate::handle::StoreHandle`], never inside the sync core, so unit
//! tests of store logic stay instant.

use std::path::PathBuf;
use std::time::Duration;

/// How watchers learn about committed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchDelivery {
    /// Events are pushed to watch streams as they commit.
    Push,
    /// Watch streams poll: events become visible at the next tick of a
    /// fixed-interval poller (Kubernetes list-watch cadence).
    Poll { interval: Duration },
}

/// Configuration of one store engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Human-readable engine name (shows up in benchmarks and traces).
    pub name: String,
    /// Write-ahead log path; `None` disables persistence.
    pub wal_path: Option<PathBuf>,
    /// fsync each commit (only meaningful with a WAL).
    pub fsync: bool,
    /// Extra processing delay applied to every read operation.
    pub read_delay: Duration,
    /// Extra processing delay applied to every write operation
    /// (on top of any real WAL/fsync cost).
    pub write_delay: Duration,
    /// Watch delivery behaviour.
    pub watch: WatchDelivery,
    /// How many committed events the store retains: the window every
    /// watch reads from, and so both the replay depth and the furthest a
    /// watcher may fall behind. A watch whose next revision has left it —
    /// at open or while reading — gets
    /// [`knactor_types::Error::WatchTooOld`] and must re-list.
    pub history_cap: usize,
    /// Replication ack quorum: how many followers must durably stage a
    /// commit before it is acknowledged (`Durability::Replicated(n)`).
    /// `0` disables the quorum wait (single-node operation). Only
    /// meaningful on a store with an attached
    /// [`crate::repl::ReplState`] whose node is leading.
    pub repl_acks: usize,
}

/// Default retained window, sized so short reconnect gaps and slow
/// readers replay cheaply while a hot store's memory stays bounded.
pub const DEFAULT_HISTORY_CAP: usize = 8192;

impl EngineProfile {
    /// The Kubernetes-apiserver-like engine: durable, deliberate.
    ///
    /// `dir` receives the WAL file. The 10 ms poll interval and
    /// millisecond-scale op delays reproduce the *relative* cost the
    /// paper measured for K-apiserver, on top of the very real fsync.
    pub fn apiserver(dir: impl Into<PathBuf>, store_name: &str) -> EngineProfile {
        EngineProfile {
            name: "apiserver".to_string(),
            read_delay: Duration::from_micros(1500),
            write_delay: Duration::from_micros(2500),
            watch: WatchDelivery::Poll {
                interval: Duration::from_millis(10),
            },
            ..EngineProfile::durable(dir, store_name)
        }
    }

    /// Durable with no modelled latency: fsync-on-commit WAL, push
    /// watches, zero simulated op delays. The profile for measuring the
    /// *real* durability pipeline (wire + framing + group fsync) — and
    /// the per-shard engine of a sharded exchange, where each node's WAL
    /// is its genuine serial resource.
    pub fn durable(dir: impl Into<PathBuf>, store_name: &str) -> EngineProfile {
        let mut wal = dir.into();
        wal.push(format!("{}.wal", store_name.replace('/', "_")));
        EngineProfile {
            name: "durable".to_string(),
            wal_path: Some(wal),
            fsync: true,
            ..EngineProfile::instant()
        }
    }

    /// The Redis-like engine: in-memory, immediate notification.
    ///
    /// The per-op delays model one in-cluster command round trip to a
    /// remote Redis (network RTT + command processing) — the paper's
    /// K-redis ran against a Redis pod, not an in-process map.
    pub fn redis() -> EngineProfile {
        EngineProfile {
            name: "redis".to_string(),
            read_delay: Duration::from_micros(250),
            write_delay: Duration::from_micros(300),
            ..EngineProfile::instant()
        }
    }

    /// A zero-latency engine for unit tests and logic-only benchmarks.
    pub fn instant() -> EngineProfile {
        EngineProfile {
            name: "instant".to_string(),
            wal_path: None,
            fsync: false,
            read_delay: Duration::ZERO,
            write_delay: Duration::ZERO,
            watch: WatchDelivery::Push,
            history_cap: DEFAULT_HISTORY_CAP,
            repl_acks: 0,
        }
    }

    /// Rename the profile (useful when benchmarks run several variants).
    pub fn named(mut self, name: impl Into<String>) -> EngineProfile {
        self.name = name.into();
        self
    }

    /// Require `acks` follower acknowledgements before a write acks
    /// (see [`crate::repl`]).
    pub fn replicated(mut self, acks: usize) -> EngineProfile {
        self.repl_acks = acks;
        self
    }

    pub fn is_durable(&self) -> bool {
        self.wal_path.is_some()
    }
}

impl Default for EngineProfile {
    fn default() -> Self {
        EngineProfile::instant()
    }
}

/// Sleep for `d` with sub-millisecond fidelity.
///
/// Tokio's timer has ~1 ms granularity; engine-profile delays are often
/// tens to hundreds of microseconds, and rounding them all up to a
/// millisecond would distort every latency experiment. Short delays
/// spin (yielding to the scheduler between checks); long ones use the
/// timer.
pub async fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= Duration::from_millis(2) {
        tokio::time::sleep(d).await;
        return;
    }
    let deadline = std::time::Instant::now() + d;
    while std::time::Instant::now() < deadline {
        tokio::task::yield_now().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let tmp = std::env::temp_dir();
        let api = EngineProfile::apiserver(&tmp, "checkout/state");
        assert!(api.is_durable());
        assert!(api.fsync);
        assert!(matches!(api.watch, WatchDelivery::Poll { .. }));
        assert!(api
            .wal_path
            .unwrap()
            .to_string_lossy()
            .contains("checkout_state"));

        let redis = EngineProfile::redis();
        assert!(!redis.is_durable());
        assert_eq!(redis.watch, WatchDelivery::Push);
        assert!(redis.write_delay < api.write_delay);

        let instant = EngineProfile::instant();
        assert_eq!(instant.read_delay, Duration::ZERO);
    }

    #[test]
    fn named_overrides_name_only() {
        let p = EngineProfile::redis().named("redis-variant");
        assert_eq!(p.name, "redis-variant");
        assert_eq!(p.watch, WatchDelivery::Push);
    }
}
