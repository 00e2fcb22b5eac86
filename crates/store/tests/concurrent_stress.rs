//! Multi-threaded stress for the sharded store engine: under real
//! parallelism (writer pools, reader pools, live watchers) the engine
//! must keep the same observable semantics as a single-mutex store —
//! strictly monotonic gapless revisions, exactly-once in-order watch
//! delivery, and OCC rejection of stale writes. The lost-wake-up case is
//! the test of the one retained-sequence cursor (`knactor_types::window`)
//! and drives Log-DE tails beside Object-DE watches.

use knactor_logstore::{LogStore, TailEvent};
use knactor_store::{BatchOp, ObjectStore};
use knactor_types::window::{Cursor, Retained};
use knactor_types::{Error, ObjectKey, Revision};
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tokio::sync::mpsc::UnboundedSender;

#[test]
fn concurrent_writers_readers_and_watchers_preserve_invariants() {
    const WRITERS: usize = 8;
    const ITERS: u64 = 200;
    const KEYS_PER_WRITER: u64 = 8;

    let store = Arc::new(ObjectStore::in_memory("stress/store"));
    store
        .create(ObjectKey::new("shared"), json!({"n": 0}))
        .unwrap();
    let mut rx = store.watch().unwrap();

    let commits = Arc::new(AtomicU64::new(1)); // the create above
    let occ_rejections = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = store.get(&ObjectKey::new("shared"));
                    let _ = store.get(&ObjectKey::new(format!("w{r}-0")));
                    let _ = store.list();
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let commits = Arc::clone(&commits);
            let occ = Arc::clone(&occ_rejections);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Disjoint keys: every write must succeed.
                    let key = ObjectKey::new(format!("w{w}-{}", i % KEYS_PER_WRITER));
                    if i < KEYS_PER_WRITER {
                        store.create(key, json!({"w": w, "i": i})).unwrap();
                    } else {
                        store.update(&key, json!({"w": w, "i": i}), None).unwrap();
                    }
                    commits.fetch_add(1, Ordering::Relaxed);
                    // Shared key: read-then-conditional-write races with
                    // every other writer; stale revisions must conflict,
                    // fresh ones must commit.
                    let cur = store.get(&ObjectKey::new("shared")).unwrap();
                    match store.update(
                        &ObjectKey::new("shared"),
                        json!({"n": i, "w": w}),
                        Some(cur.revision),
                    ) {
                        Ok(_) => {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Error::Conflict { expected, actual }) => {
                            assert!(actual > expected, "conflict must cite a newer revision");
                            occ.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Exactly one revision per successful commit, none lost or double
    // counted.
    let total = commits.load(Ordering::Relaxed);
    assert_eq!(store.revision(), Revision(total));

    // The watch stream saw every commit exactly once, in revision order,
    // with no gaps.
    let mut expect = 1u64;
    while let Some(e) = rx.try_recv() {
        assert_eq!(e.revision, Revision(expect), "gapless in-order delivery");
        expect += 1;
    }
    assert_eq!(expect - 1, total, "every commit delivered exactly once");
}

/// Concurrent patches to one key (the integrator write pattern) lose no
/// fields: the store's internal read-merge-CAS retry absorbs races, and
/// the rare patch that still surfaces a conflict can simply be retried.
#[test]
fn concurrent_patches_merge_without_losing_fields() {
    const THREADS: usize = 4;
    const PATCHES: usize = 50;

    let store = Arc::new(ObjectStore::in_memory("stress/patch"));
    store.create(ObjectKey::new("obj"), json!({})).unwrap();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..PATCHES {
                    let patch = json!({ (format!("f{t}_{i}")): i });
                    loop {
                        match store.patch(&ObjectKey::new("obj"), &patch, false) {
                            Ok(_) => break,
                            Err(Error::Conflict { .. }) => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let obj = store.get(&ObjectKey::new("obj")).unwrap();
    for t in 0..THREADS {
        for i in 0..PATCHES {
            let field = format!("f{t}_{i}");
            assert_eq!(
                obj.value[field.as_str()],
                json!(i),
                "field {field} lost by a concurrent merge"
            );
        }
    }
}

/// The retained window under a subscribe/unsubscribe storm: churner
/// threads open watches and drop them immediately while writers keep
/// committing, so cursors come and go (and read) while the ring is being
/// appended to. Through all of it a watcher that stays subscribed must
/// see every commit exactly once, in revision order, and the live-watch
/// count must come back to exactly the watches still held.
#[test]
fn watchers_survive_subscriber_churn() {
    const WRITERS: usize = 4;
    const ITERS: u64 = 300;
    const CHURNERS: usize = 4;

    let store = Arc::new(ObjectStore::in_memory("stress/churn"));
    // Anchor watcher: subscribed before the first commit, must see all.
    let mut anchor = store.watch().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let churners: Vec<_> = (0..CHURNERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut spins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Subscribe at the live edge, maybe peek, then drop,
                    // all while events are in flight.
                    if let Ok(mut rx) = store.watch_from(store.revision()) {
                        if spins.is_multiple_of(3) {
                            let _ = rx.try_recv();
                        }
                    }
                    spins += 1;
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let key = ObjectKey::new(format!("w{w}-{i}"));
                    store.create(key, json!({"w": w, "i": i})).unwrap();
                }
            })
        })
        .collect();

    // A mid-stream subscriber joining while the storm is in full swing:
    // its stream must be consecutive from wherever it joined.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let joined_at = store.revision();
    let mut mid = store
        .watch_from(joined_at)
        .expect("join point is current, never beyond the window");

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for c in churners {
        c.join().unwrap();
    }

    let total = WRITERS as u64 * ITERS;
    assert_eq!(store.revision(), Revision(total));

    assert_eq!(
        store.subscriber_count(),
        2,
        "anchor and mid, no churner left"
    );

    // Anchor: every commit exactly once, in order.
    let mut expect = 1u64;
    while let Some(e) = anchor.try_recv() {
        assert_eq!(e.revision, Revision(expect), "gapless in-order delivery");
        expect += 1;
    }
    assert_eq!(expect - 1, total, "anchor watcher missed commits");

    // Mid-stream: consecutive from its join revision through the end.
    let mut expect = joined_at.0 + 1;
    while let Some(e) = mid.try_recv() {
        assert_eq!(
            e.revision,
            Revision(expect),
            "mid-join stream must be consecutive"
        );
        expect += 1;
    }
    assert_eq!(expect - 1, total, "mid-join watcher missed the tail");
}

/// The hazard a cursor design introduces: a reader blocked in
/// `recv().await` must be woken by the write that lands between its
/// "nothing after my position" read and its waker registration. A missed
/// wake is repaired by the next write, so it only shows when nothing
/// follows: each round, four writer threads each commit once to an object
/// store and append once to a log store at the same moment, then go quiet
/// until every reader has reported the round's last position. The readers
/// are the one cursor over both kinds of retained sequence — Object-DE
/// watches and Log-DE tails — and see every position, dense and in order.
/// The wait is on state — the deadline only detects the hang.
#[tokio::test]
async fn blocked_watchers_never_miss_a_wake() {
    const WRITERS: u64 = 4;
    const ROUNDS: u64 = 8000;
    const WATCHERS: usize = 6;
    const TAILERS: usize = 2;

    /// Follow `cursor` through every position the writers make, reporting
    /// the last one of each round.
    fn follow<S: Retained>(
        mut cursor: Cursor<S>,
        position: fn(&S::Item) -> u64,
        done: UnboundedSender<u64>,
    ) {
        tokio::spawn(async move {
            for want in 1..=WRITERS * ROUNDS {
                let item = cursor
                    .recv()
                    .await
                    .expect("a live cursor inside the window");
                assert_eq!(position(&item), want, "dense, in order");
                if want % WRITERS == 0 {
                    done.send(want).unwrap();
                }
            }
        });
    }

    let store = Arc::new(ObjectStore::in_memory("stress/blocked"));
    let log = LogStore::new("stress/blocked");
    let (done_tx, mut done_rx) = tokio::sync::mpsc::unbounded_channel();
    for _ in 0..WATCHERS {
        follow(store.watch().unwrap(), |e| e.revision.0, done_tx.clone());
    }
    for _ in 0..TAILERS {
        let seq = |event: &TailEvent| match event {
            TailEvent::Record(record) => record.seq,
            lag => panic!("a store tail yields records, got {lag:?}"),
        };
        follow(log.tail(0), seq, done_tx.clone());
    }

    for round in 0..ROUNDS {
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (store, log) = (&store, &log);
                scope.spawn(move || {
                    // Odd rounds go through the batch paths (one wake per
                    // batch).
                    let key = ObjectKey::new(format!("w{w}-{round}"));
                    if round % 2 == 0 {
                        store.create(key, json!(round)).unwrap();
                        log.append(json!({ "round": round }));
                    } else {
                        let value = json!(round);
                        store
                            .apply_batch(vec![BatchOp::Create { key, value }])
                            .unwrap();
                        log.append_batch([json!({ "round": round })]);
                    }
                });
            }
        });
        for _ in 0..WATCHERS + TAILERS {
            let reached = tokio::time::timeout(std::time::Duration::from_secs(30), done_rx.recv())
                .await
                .expect("a blocked reader missed its wake-up");
            assert_eq!(reached, Some((round + 1) * WRITERS));
        }
    }
}
