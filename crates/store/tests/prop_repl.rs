//! Property test for the leader-side replication ack table.
//!
//! [`ReplState`] acks only move forward per follower, and `quorum(n)` is
//! exactly the nth-highest follower position under any ack shuffle. (What
//! a follower applies — an exact dense prefix of the leader's sequence
//! under duplicated, reordered and truncated delivery — is the stream
//! resume rule's property: `crates/net/tests/prop_resume.rs`.)

use knactor_store::ReplState;
use knactor_types::{Revision, StoreId};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

proptest! {
    /// Acks only move forward, and the quorum revision is exactly the
    /// nth-highest follower position no matter how acks are shuffled.
    #[test]
    fn quorum_is_nth_highest_under_ack_shuffle(
        positions in proptest::collection::vec(0u64..100, 1..6),
        shuffled_acks in proptest::collection::vec((0usize..6, 0u64..100), 0..40),
        n in 1usize..4,
    ) {
        let leading = Arc::new(AtomicBool::new(true));
        let state = ReplState::new(&StoreId::new("prop/repl"), leading);
        // Final positions: each follower acks its target through an
        // arbitrary shuffle of partial (possibly regressing) acks.
        for (follower, rev) in &shuffled_acks {
            let follower = follower % positions.len();
            let target = positions[follower];
            state.ack(&format!("f{follower}"), Revision(*rev % (target + 1)), Revision(100));
        }
        for (follower, target) in positions.iter().enumerate() {
            state.ack(&format!("f{follower}"), Revision(*target), Revision(100));
            // Regressing acks (stale duplicates) must not move anything
            // backwards.
            state.ack(&format!("f{follower}"), Revision(target / 2), Revision(100));
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let expected = if n <= sorted.len() { sorted[n - 1] } else { 0 };
        prop_assert_eq!(
            state.quorum(n),
            Revision(expected),
            "quorum(n) must be the nth-highest acked position"
        );
    }
}
