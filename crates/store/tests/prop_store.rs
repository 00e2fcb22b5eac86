//! Property tests for the Object data exchange core invariants.

use knactor_store::{EngineProfile, EventKind, ObjectStore};
use knactor_types::{ObjectKey, Revision, StoreId};
use proptest::prelude::*;
use serde_json::json;

/// A random CRUD operation.
#[derive(Debug, Clone)]
enum Op {
    Create(u8, i64),
    Update(u8, i64),
    UpdateOcc(u8, i64),
    Patch(u8, i64),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Create(k % 8, v)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k % 8, v)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::UpdateOcc(k % 8, v)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Patch(k % 8, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 8)),
    ]
}

fn key(k: u8) -> ObjectKey {
    ObjectKey::new(format!("k{k}"))
}

/// Apply an op; return whether it committed.
fn apply(store: &ObjectStore, op: &Op) -> bool {
    match op {
        Op::Create(k, v) => store.create(key(*k), json!({"v": v})).is_ok(),
        Op::Update(k, v) => store.update(&key(*k), json!({"v": v}), None).is_ok(),
        Op::UpdateOcc(k, v) => match store.get(&key(*k)) {
            Ok(obj) => store
                .update(&key(*k), json!({"v": v}), Some(obj.revision))
                .is_ok(),
            Err(_) => false,
        },
        Op::Patch(k, v) => store.patch(&key(*k), &json!({"p": v}), true).is_ok(),
        Op::Delete(k) => store.delete(&key(*k)).is_ok(),
    }
}

proptest! {
    /// The store revision advances by exactly one per committed mutation.
    #[test]
    fn revision_counts_commits(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let store = ObjectStore::in_memory("prop/s");
        let mut commits = 0u64;
        for op in &ops {
            if apply(&store, op) {
                commits += 1;
            }
        }
        prop_assert_eq!(store.revision(), Revision(commits));
    }

    /// A watch started before the ops sees exactly the committed events,
    /// in strictly increasing revision order, and replaying them
    /// reconstructs the final object map.
    #[test]
    fn watch_is_complete_ordered_and_faithful(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        let rt = tokio::runtime::Builder::new_current_thread().enable_all().build().unwrap();
        rt.block_on(async {
            let store = ObjectStore::in_memory("prop/w");
            let mut rx = store.watch().unwrap();
            let mut commits = 0usize;
            for op in &ops {
                if apply(&store, op) {
                    commits += 1;
                }
            }
            let mut events = Vec::new();
            for _ in 0..commits {
                events.push(rx.recv().await.expect("missing event"));
            }
            // No extra events.
            assert!(rx.try_recv().is_none(), "spurious extra event");
            // Strictly increasing, gapless revisions.
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.revision, Revision(i as u64 + 1));
            }
            // Replay reconstructs the live state.
            let mut replayed: std::collections::BTreeMap<ObjectKey, std::sync::Arc<serde_json::Value>> =
                Default::default();
            for e in &events {
                match e.kind {
                    EventKind::Created | EventKind::Updated => {
                        replayed.insert(e.key.clone(), e.value.clone());
                    }
                    EventKind::Deleted => {
                        replayed.remove(&e.key);
                    }
                }
            }
            let (live, _) = store.list();
            assert_eq!(live.len(), replayed.len());
            for obj in live {
                assert_eq!(replayed.get(&obj.key), Some(&obj.value), "key {}", obj.key);
            }
        });
    }

    /// A stale-revision OCC write never commits; a fresh one always does.
    #[test]
    fn occ_stale_never_commits(v1 in any::<i64>(), v2 in any::<i64>(), v3 in any::<i64>()) {
        let store = ObjectStore::in_memory("prop/occ");
        let k = ObjectKey::new("k");
        let r1 = store.create(k.clone(), json!({"v": v1})).unwrap();
        let r2 = store.update(&k, json!({"v": v2}), Some(r1)).unwrap();
        // Stale write must fail and must not change the value.
        let stale = store.update(&k, json!({"v": v3}), Some(r1));
        prop_assert!(stale.is_err());
        prop_assert_eq!(store.get(&k).unwrap().value, json!({"v": v2}));
        prop_assert_eq!(store.get(&k).unwrap().revision, r2);
    }

    /// WAL replay reconstructs exactly the committed state, whatever the
    /// op sequence.
    #[test]
    fn wal_replay_faithful(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let dir = std::env::temp_dir().join(format!(
            "knactor-prop-wal-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut profile = EngineProfile::apiserver(&dir, "prop/d");
        profile.fsync = false; // keep the property fast; fsync is covered in unit tests
        let (before, final_rev) = {
            let store = ObjectStore::open(StoreId::new("prop/d"), profile.clone()).unwrap();
            for op in &ops {
                apply(&store, op);
            }
            (store.list().0, store.revision())
        };
        let store = ObjectStore::open(StoreId::new("prop/d"), profile).unwrap();
        let (after, rev) = store.list();
        prop_assert_eq!(rev, final_rev);
        prop_assert_eq!(after.len(), before.len());
        for (a, b) in after.iter().zip(before.iter()) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(&a.value, &b.value);
            prop_assert_eq!(a.revision, b.revision);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cheap unique-ish suffix without pulling in a clock (proptest reruns in
/// the same process reuse the dir otherwise).
fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
