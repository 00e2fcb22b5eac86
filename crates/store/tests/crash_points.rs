//! Deterministic crash-point tests for the durable store engine.
//!
//! Every scenario arms a [`CrashPoint`] in the WAL, lets the "process"
//! die mid-commit, reopens the store from disk, and asserts the recovery
//! contract: **no acknowledged commit is ever lost, revisions stay
//! gapless, and shard state rebuilds exactly** — at every registered
//! crash point, at every commit offset.

use knactor_store::{CrashPoint, EngineProfile, ObjectStore, Wal};
use knactor_types::{ObjectKey, Revision, StoreId, Value};
use serde_json::json;
use std::path::{Path, PathBuf};

const ALL_POINTS: [CrashPoint; 3] = [
    CrashPoint::BeforeAppend,
    CrashPoint::AfterAppend,
    CrashPoint::TornWrite,
];

fn tmp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("knactor-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Durable profile without the apiserver's artificial latencies: crash
/// tests measure correctness, not timing.
fn durable_profile(dir: &Path, name: &str) -> EngineProfile {
    let mut profile = EngineProfile::apiserver(dir, name);
    profile.read_delay = std::time::Duration::ZERO;
    profile.write_delay = std::time::Duration::ZERO;
    profile
}

fn key(i: u64) -> ObjectKey {
    ObjectKey::new(format!("obj-{i}"))
}

fn val(i: u64) -> Value {
    json!({"n": i, "payload": format!("data-{i}")})
}

fn open(dir: &Path, name: &str) -> ObjectStore {
    ObjectStore::open(
        StoreId::new(format!("crash/{name}")),
        durable_profile(dir, name),
    )
    .unwrap()
}

/// The core invariant, checked after every simulated crash/restart:
/// every commit acknowledged before the crash is present, the store
/// revision equals the number of surviving commits, and the WAL replays
/// with no revision gaps (recovery itself verifies continuity — it
/// would have errored otherwise).
fn assert_recovered(store: &ObjectStore, acked: &[(ObjectKey, Value)], min_revision: u64) {
    for (k, v) in acked {
        let obj = store
            .get(k)
            .unwrap_or_else(|e| panic!("acked key {k} lost after crash: {e}"));
        assert_eq!(*obj.value, *v, "acked value for {k} corrupted by recovery");
    }
    assert!(
        store.revision().0 >= min_revision,
        "store revision {} went below the {} acked commits",
        store.revision(),
        min_revision
    );
}

#[test]
fn no_acked_commit_lost_at_any_crash_point() {
    for (pi, point) in ALL_POINTS.into_iter().enumerate() {
        let dir = tmp_dir(&format!("point-{pi}"));
        let name = "store";
        let mut acked: Vec<(ObjectKey, Value)> = Vec::new();
        {
            let store = open(&dir, name);
            for i in 0..10u64 {
                store.create(key(i), val(i)).unwrap();
                acked.push((key(i), val(i)));
            }
            // The very next commit dies at `point`.
            assert!(store.arm_crash(point, 0));
            let crashed = store.create(key(99), val(99));
            assert!(crashed.is_err(), "{point:?} must fail the commit");
            // The process is dead: every later commit fails too, so no
            // write can slip in after the crash and corrupt the log.
            assert!(store.create(key(100), val(100)).is_err());
        }
        let store = open(&dir, name);
        assert_recovered(&store, &acked, 10);
        match point {
            // Durable-but-unacked: the crashed write may legitimately
            // survive (at-least-once), but only as a *complete* commit.
            CrashPoint::AfterAppend => {
                assert_eq!(store.revision(), Revision(11));
                assert_eq!(*store.get(&key(99)).unwrap().value, val(99));
            }
            // Lost or torn: the crashed write must be fully absent.
            CrashPoint::BeforeAppend | CrashPoint::TornWrite => {
                assert_eq!(store.revision(), Revision(10));
                assert!(store.get(&key(99)).is_err());
            }
        }
        // The recovered store accepts new commits on a clean log tail.
        store.create(key(200), val(200)).unwrap();
        drop(store);
        let reopened = open(&dir, name);
        assert_eq!(*reopened.get(&key(200)).unwrap().value, val(200));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Crash at *every* commit offset of a fixed workload, for every crash
/// point: a sweep over the whole commit schedule, not one lucky spot.
#[test]
fn crash_sweep_over_every_commit_offset() {
    const WRITES: u64 = 8;
    for (pi, point) in ALL_POINTS.into_iter().enumerate() {
        for offset in 0..WRITES {
            let dir = tmp_dir(&format!("sweep-{pi}-{offset}"));
            let name = "store";
            let mut acked: Vec<(ObjectKey, Value)> = Vec::new();
            {
                let store = open(&dir, name);
                assert!(store.arm_crash(point, offset));
                for i in 0..WRITES {
                    match store.create(key(i), val(i)) {
                        Ok(_) => acked.push((key(i), val(i))),
                        Err(_) => break,
                    }
                }
                assert_eq!(acked.len() as u64, offset, "crash fired at wrong offset");
            }
            let store = open(&dir, name);
            assert_recovered(&store, &acked, offset);
            // Gapless: revision is exactly acked count, +1 only for the
            // durable-but-unacked AfterAppend commit.
            let rev = store.revision().0;
            match point {
                CrashPoint::AfterAppend => assert_eq!(rev, offset + 1),
                _ => assert_eq!(rev, offset),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Updates and deletes crash just like creates; recovery replays the
/// *effects*, not just object existence.
#[test]
fn recovery_replays_updates_and_deletes() {
    let dir = tmp_dir("mixed");
    let name = "store";
    {
        let store = open(&dir, name);
        store.create(key(1), val(1)).unwrap();
        store.create(key(2), val(2)).unwrap();
        store
            .update(&key(1), json!({"n": 1, "updated": true}), None)
            .unwrap();
        store.delete(&key(2)).unwrap();
        store.arm_crash(CrashPoint::TornWrite, 0);
        assert!(store.update(&key(1), json!({"lost": true}), None).is_err());
    }
    let store = open(&dir, name);
    assert_eq!(
        *store.get(&key(1)).unwrap().value,
        json!({"n": 1, "updated": true})
    );
    assert!(store.get(&key(2)).is_err(), "delete must replay");
    assert_eq!(store.revision(), Revision(4));
    assert_eq!(store.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shard state rebuilds exactly: keys hash across all 16 shards, and
/// every one must land back in the right shard for `get` to find it.
#[test]
fn recovery_rebuilds_all_shards() {
    let dir = tmp_dir("shards");
    let name = "store";
    const KEYS: u64 = 64;
    {
        let store = open(&dir, name);
        for i in 0..KEYS {
            store.create(key(i), val(i)).unwrap();
        }
        store.arm_crash(CrashPoint::BeforeAppend, 0);
        assert!(store.create(key(KEYS), val(KEYS)).is_err());
    }
    let store = open(&dir, name);
    assert_eq!(store.len() as u64, KEYS);
    assert_eq!(store.revision(), Revision(KEYS));
    for i in 0..KEYS {
        assert_eq!(*store.get(&key(i)).unwrap().value, val(i));
    }
    let (listed, rev) = store.list();
    assert_eq!(listed.len() as u64, KEYS);
    assert_eq!(rev, Revision(KEYS));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A recovered store starts with empty watch history, so a watcher that
/// resumes from a pre-crash revision gets the typed `WatchTooOld` error
/// (never silent gaps) and must re-list — exactly the fallback the
/// resilient client and Cast implement.
#[test]
fn post_recovery_watch_resume_is_too_old_not_gapped() {
    let dir = tmp_dir("watch");
    let name = "store";
    {
        let store = open(&dir, name);
        for i in 0..5u64 {
            store.create(key(i), val(i)).unwrap();
        }
        store.arm_crash(CrashPoint::TornWrite, 0);
        assert!(store.create(key(9), val(9)).is_err());
    }
    let store = open(&dir, name);
    let err = store.watch_from(Revision(2)).unwrap_err();
    match err {
        knactor_types::Error::WatchTooOld { from, oldest } => {
            assert_eq!(from, 2);
            assert_eq!(
                oldest, 6,
                "nothing up to the recovered revision is retained"
            );
        }
        other => panic!("expected WatchTooOld, got {other:?}"),
    }
    // The documented fallback works: list (consistent at the recovered
    // revision), then watch from there — gapless going forward.
    let (_, rev) = store.list();
    let mut rx = store.watch_from(rev).unwrap();
    store.create(key(10), val(10)).unwrap();
    // The event is in the retained window by the time `create` returns.
    let event = rx.try_recv().unwrap();
    assert_eq!(event.revision, Revision(6));
    assert_eq!(event.key, key(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The WAL's torn tail really is truncated on disk (not merely skipped
/// in memory): after recovery the file ends at the last complete record,
/// so post-recovery appends can never glue onto garbage.
#[test]
fn torn_tail_is_physically_truncated() {
    let dir = tmp_dir("truncate");
    let name = "store";
    let wal_path = {
        let store = open(&dir, name);
        store.create(key(1), val(1)).unwrap();
        store.arm_crash(CrashPoint::TornWrite, 0);
        assert!(store.create(key(2), val(2)).is_err());
        durable_profile(&dir, name).wal_path.unwrap()
    };
    let torn_len = std::fs::metadata(&wal_path).unwrap().len();
    let recovery = Wal::recover(&wal_path).unwrap();
    assert!(recovery.torn_bytes > 0, "the torn write must leave a tail");
    {
        let _store = open(&dir, name);
    }
    let clean_len = std::fs::metadata(&wal_path).unwrap().len();
    assert_eq!(clean_len, torn_len - recovery.torn_bytes);
    assert_eq!(Wal::recover(&wal_path).unwrap().torn_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
