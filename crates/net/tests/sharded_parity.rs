//! Transport parity for the sharded exchange: the same batch workload
//! must produce identical per-item outcomes on a 4-shard **loopback**
//! router and a 4-shard **routed-TCP** router with the same topology —
//! and the same outcome *shape* (typed error codes in the same slots) as
//! the single-node parity suite pins down, including through the full
//! `Shard(Replica(Resilient(Tcp)))` layer stack.

use knactor_net::proto::ProfileSpec;
use knactor_net::{
    Exchange, ExchangeApi, ReplicatedExchange, RetryPolicy, ShardRouter, ShardedExchange,
};
use knactor_rbac::Subject;
use knactor_store::{ItemResult, ShardMap};
use knactor_types::{Revision, StoreId};
use serde_json::json;
use std::sync::Arc;

#[path = "util/batch_workload.rs"]
mod batch_workload;
use batch_workload::{batch_script, outcome_tags};

/// Loopback ≡ routed-TCP, item by item, at 4 shards. Both routers share
/// one `ShardMap::uniform(4)`, so per-item (shard-local) revisions must
/// match exactly, not just error codes.
#[tokio::test]
async fn batch_ops_parity_sharded_loopback_vs_routed_tcp() {
    let (_objects, _logs, local_router) = ShardRouter::in_process(4, Subject::operator("parity"));
    let local = batch_script(&local_router).await;

    let exchange = ShardedExchange::launch(4).await.unwrap();
    let remote_router = exchange.client(Subject::operator("parity")).await.unwrap();
    let remote = batch_script(&remote_router).await;

    assert_eq!(
        local, remote,
        "sharded loopback and routed TCP must produce identical batch outcomes"
    );

    // The outcome shape is the one the single-node suite pins: same typed
    // errors in the same slots, commits and reads where commits and reads
    // belong. (Revision numbers are shard-local, hence compared via the
    // full equality above, not against the single-node 1..6 sequence.)
    assert_eq!(
        outcome_tags(&local[0]),
        [
            "rev",
            "rev",
            "err:already_exists",
            "err:not_found",
            "err:conflict",
            "rev"
        ]
    );
    assert_eq!(outcome_tags(&local[1]), ["rev", "rev", "err:not_found"]);
    assert_eq!(outcome_tags(&local[2]), ["obj:a", "err:not_found", "obj:c"]);
    assert_eq!(outcome_tags(&local[3]), ["rev", "err:not_found"]);
    // The merge-patch really merged, through the router.
    let ItemResult::Object { object } = &local[2][0] else {
        panic!("expected object for a");
    };
    assert_eq!(*object.value, json!({"v": 1, "extra": true}));

    // Virtual revision accounting: the script commits 6 mutations
    // (a, b, patch-b, merge-a, upsert-c, delete-b), so the routed list
    // revision — the sum of shard revisions — must be exactly 6.
    let (_, revision) = remote_router
        .list(StoreId::new("parity/batch"))
        .await
        .unwrap();
    assert_eq!(revision, Revision(6));

    exchange.shutdown().await;
}

/// The same workload at 1 shard must be bit-identical to the single-node
/// loopback — a 1-shard router is just a pass-through.
#[tokio::test]
async fn one_shard_router_is_a_passthrough() {
    let (_object, _log, plain) = knactor_net::loopback::in_process(Subject::operator("parity"));
    let baseline = batch_script(&plain).await;

    let (_objects, _logs, router) = ShardRouter::in_process(1, Subject::operator("parity"));
    let routed = batch_script(&router).await;

    assert_eq!(baseline, routed);
}

/// The layers compose: `Shard(Replica(Resilient(Tcp)))` — 2 shards, each
/// a leader + 1 follower replica set holding the store at
/// `Replicated { acks: 1 }` — gives the workload the same per-item
/// outcomes as the single-node loopback. (Revision numbers are
/// shard-local, so the comparison is on outcome shape + typed codes.)
#[tokio::test]
async fn sharded_replicated_stack_matches_single_node_loopback() {
    let (_object, _log, plain) = knactor_net::loopback::in_process(Subject::operator("parity"));
    let baseline = batch_script(&plain).await;

    let mut sets = Vec::new();
    let mut shards: Vec<Arc<dyn Exchange>> = Vec::new();
    for _ in 0..2 {
        let set = ReplicatedExchange::launch(1).await.unwrap();
        shards.push(Arc::new(set.router(RetryPolicy::fast(7)).await.unwrap()));
        sets.push(set);
    }
    let stack = ShardRouter::new(ShardMap::uniform(2), shards);
    // The script creates its store with an un-replicated profile; creating
    // it replicated first turns the script's own create into the idempotent
    // no-op every retrying layer already makes of `AlreadyExists`.
    let store = StoreId::new("parity/batch");
    stack
        .create_store(store.clone(), ProfileSpec::Replicated { acks: 1 })
        .await
        .unwrap();
    let stacked = batch_script(&stack).await;

    assert_eq!(baseline.len(), stacked.len());
    for (single, routed) in baseline.iter().zip(&stacked) {
        assert_eq!(outcome_tags(single), outcome_tags(routed));
    }
    // Every write was quorum-acked, so each follower holds its shard's share
    // of the 6 commits.
    let (_, revision) = stack.list(store.clone()).await.unwrap();
    assert_eq!(revision, Revision(6));
    let mut replicated = 0;
    for set in &sets {
        let follower = set.node(1).server().expect("follower is alive");
        let copy = follower.object.store(&store).unwrap();
        assert!(copy.repl().is_some(), "follower copy has no quorum state");
        replicated += copy.revision().0;
    }
    assert_eq!(replicated, 6);

    for set in sets {
        set.shutdown().await;
    }
}

/// A watch established through the routed-TCP 4-shard exchange delivers
/// dense virtual revisions 1..=N for N commits.
#[tokio::test]
async fn routed_tcp_watch_is_dense() {
    let exchange = ShardedExchange::launch(4).await.unwrap();
    let router = exchange.client(Subject::operator("watcher")).await.unwrap();
    let store = StoreId::new("w/state");
    router
        .create_store(store.clone(), ProfileSpec::Instant)
        .await
        .unwrap();
    let mut sub = router.watch(store.clone(), Revision::ZERO).await.unwrap();
    const WRITES: u64 = 24;
    for i in 0..WRITES {
        router
            .create(
                store.clone(),
                knactor_types::ObjectKey::new(format!("k-{i}")),
                json!({"n": i}),
            )
            .await
            .unwrap();
    }
    let mut revisions = Vec::new();
    for _ in 0..WRITES {
        revisions.push(sub.recv().await.unwrap().revision.0);
    }
    assert_eq!(revisions, (1..=WRITES).collect::<Vec<_>>());
    exchange.shutdown().await;
}
