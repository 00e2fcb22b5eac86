//! Leader/follower replication primitives for the Object-DE.
//!
//! Replication ships the leader's committed event stream — the same
//! dense, per-commit `WatchEvent` sequence the WAL and the retained
//! watch window already order — to followers, which apply it through
//! their own `apply_batch` path so revisions and the window stay
//! byte-identical to the leader's. The leader-side feed is an ordinary
//! [`crate::store::StoreWatch`], and the follower reads it as an ordinary
//! resumed stream (`knactor_net::stream::resume`): the dense-sequence rule
//! that drops a redelivered event and re-opens on a lost one is the one
//! every stream uses. A follower that falls off the window is told so, it
//! is never queued for.
//!
//! What is replication's own lives here: [`ReplState`], the leader-side
//! ack table. Followers ack the highest revision they have staged
//! durably; a write with `Durability::Replicated(n)` is acknowledged to
//! the client only once `n` followers have acked its revision (quorum
//! release).
//!
//! Roles are a property of the *node*, not the store: every replicated
//! store on a node shares the node's `leading` flag. On a follower the
//! flag is false and [`ReplState::wait_quorum`] is a no-op, so the
//! replication apply path never blocks on itself; promotion flips one
//! atomic and every store on the node starts demanding quorum.

use knactor_types::metrics::{self, Counter, Gauge};
use knactor_types::{Error, Result, Revision, StoreId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
// The vendored `parking_lot` wraps std primitives (its `MutexGuard` *is*
// `std::sync::MutexGuard`), so std's Condvar pairs with its Mutex.
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// How long a `Replicated(n)` commit waits for its ack quorum before the
/// write is reported [`Error::Timeout`]. The commit itself stays applied
/// and durable on the leader — identical to the crash-between-write-and-
/// ack contract, which clients already disambiguate by OCC read-back.
pub const REPL_ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Leader-side replication state for one store: which follower has
/// durably staged up to which revision, and the condvar quorum waiters
/// block on.
///
/// Lives behind the node's shared `leading` flag: on a follower the
/// state is passive (acks are still recorded — a promoted node already
/// knows its peers' positions — but nothing waits).
pub struct ReplState {
    inner: Mutex<AckTable>,
    cv: Condvar,
    leading: Arc<AtomicBool>,
    acks_total: Arc<Counter>,
    lag_records: Arc<Gauge>,
}

#[derive(Default)]
struct AckTable {
    /// follower name → highest revision staged there. Monotone.
    acked: BTreeMap<String, u64>,
}

impl ReplState {
    pub fn new(store: &StoreId, leading: Arc<AtomicBool>) -> Arc<ReplState> {
        let reg = metrics::global();
        let id = store.to_string();
        Arc::new(ReplState {
            inner: Mutex::new(AckTable::default()),
            cv: Condvar::new(),
            leading,
            acks_total: reg.counter("knactor_repl_acks_total", &[("store", &id)]),
            lag_records: reg.gauge("knactor_repl_lag_records", &[("store", &id)]),
        })
    }

    /// Does this node currently demand quorum for its writes?
    pub fn leading(&self) -> bool {
        self.leading.load(Ordering::Acquire)
    }

    /// Record that `follower` has durably staged everything up to
    /// `revision`. `leader_revision` (the store's current revision) feeds
    /// the lag gauge: committed-but-unreplicated records at the slowest
    /// follower.
    pub fn ack(&self, follower: &str, revision: Revision, leader_revision: Revision) {
        let mut inner = self.inner.lock();
        let entry = inner.acked.entry(follower.to_string()).or_insert(0);
        if revision.0 > *entry {
            *entry = revision.0;
        }
        let min = inner.acked.values().copied().min().unwrap_or(0);
        self.lag_records
            .set(leader_revision.0.saturating_sub(min) as i64);
        drop(inner);
        self.acks_total.inc();
        self.cv.notify_all();
    }

    /// Highest revision acked by at least `n` followers (0 when fewer
    /// than `n` followers have ever acked).
    pub fn quorum(&self, n: usize) -> Revision {
        if n == 0 {
            return Revision(u64::MAX);
        }
        let inner = self.inner.lock();
        let mut acks: Vec<u64> = inner.acked.values().copied().collect();
        if acks.len() < n {
            return Revision::ZERO;
        }
        acks.sort_unstable_by(|a, b| b.cmp(a));
        Revision(acks[n - 1])
    }

    /// Per-follower ack positions (for status/failover decisions).
    pub fn followers(&self) -> Vec<(String, Revision)> {
        self.inner
            .lock()
            .acked
            .iter()
            .map(|(name, rev)| (name.clone(), Revision(*rev)))
            .collect()
    }

    /// Block until `n` followers have acked `revision`, or `timeout`.
    ///
    /// Passive (non-leading) state returns immediately: follower-side
    /// applies must never wait on a quorum only a leader can assemble.
    /// On timeout the caller's commit stays applied-but-unacknowledged
    /// and surfaces [`Error::Timeout`] — never a false ack, which is the
    /// zero-acked-write-loss invariant.
    pub fn wait_quorum(&self, revision: Revision, n: usize, timeout: Duration) -> Result<()> {
        if n == 0 || !self.leading() {
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            let mut acks: Vec<u64> = inner.acked.values().copied().collect();
            acks.sort_unstable_by(|a, b| b.cmp(a));
            if acks.len() >= n && acks[n - 1] >= revision.0 {
                return Ok(());
            }
            if !self.leading.load(Ordering::Acquire) {
                // Demoted mid-wait: stop demanding a quorum this node can
                // no longer assemble.
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout(format!(
                    "replication quorum {n} not reached for revision {} within {timeout:?}",
                    revision.0
                )));
            }
            // On timeout the loop re-checks the predicate once more (an
            // ack may have landed exactly at the deadline) before the
            // `now >= deadline` branch above reports the failure.
            let (guard, _waited) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            inner = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_nth_highest_ack() {
        let leading = Arc::new(AtomicBool::new(true));
        let state = ReplState::new(&StoreId::new("repl/t"), leading);
        assert_eq!(state.quorum(1), Revision::ZERO);
        state.ack("f1", Revision(5), Revision(9));
        state.ack("f2", Revision(3), Revision(9));
        assert_eq!(state.quorum(1), Revision(5));
        assert_eq!(state.quorum(2), Revision(3));
        assert_eq!(state.quorum(3), Revision::ZERO);
        // Acks are monotone: a stale (lower) ack never regresses.
        state.ack("f1", Revision(2), Revision(9));
        assert_eq!(state.quorum(1), Revision(5));
    }

    #[test]
    fn wait_quorum_times_out_without_acks() {
        let leading = Arc::new(AtomicBool::new(true));
        let state = ReplState::new(&StoreId::new("repl/t2"), leading);
        let err = state
            .wait_quorum(Revision(1), 1, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout(_)));
    }

    #[test]
    fn wait_quorum_is_passive_on_followers() {
        let leading = Arc::new(AtomicBool::new(false));
        let state = ReplState::new(&StoreId::new("repl/t3"), leading);
        state
            .wait_quorum(Revision(100), 2, Duration::from_millis(1))
            .unwrap();
    }
}
