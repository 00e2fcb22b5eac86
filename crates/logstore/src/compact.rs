//! Background compaction: merge runs of small sealed segments.
//!
//! Rotation seals segments at a fixed record count, so a long-lived
//! store accumulates many small segments — each with its own dictionary,
//! its own per-segment overheads, and its own entry in every scan.
//! Compaction merges adjacent *small* sealed segments into one larger
//! (columnar, when enabled) segment: dictionaries are shared across more
//! rows, scans touch fewer segments, and the parallel query path gets
//! chunkier work items.
//!
//! Merges are computed entirely off the store lock: candidates are
//! snapshotted as `Arc`s, merged, and spliced back only if the exact run
//! is still retained (pointer identity) — a concurrent retention drop
//! simply wins and the merged segment is discarded. Readers racing a
//! compaction hold their own `Arc` snapshots, so they observe either the
//! old run or the merged segment, never a mix: record-level results are
//! identical either way.

use crate::segment::SealedSegment;
use crate::store::LogStore;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// When and how aggressively to merge sealed segments.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Merge only when a run of at least this many undersized adjacent
    /// segments exists.
    pub min_segments: usize,
    /// A segment with at least this many records is "big enough" and is
    /// never merged further (bounds write amplification).
    pub target_records: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_segments: 4,
            target_records: 8192,
        }
    }
}

/// Find the first run of adjacent undersized segments worth merging.
fn candidate_run(
    sealed: &[Arc<SealedSegment>],
    policy: &CompactionPolicy,
) -> Option<Vec<Arc<SealedSegment>>> {
    let mut run: Vec<Arc<SealedSegment>> = Vec::new();
    let mut run_records = 0usize;
    for seg in sealed {
        let small = seg.len() < policy.target_records;
        if small && run_records + seg.len() <= policy.target_records * 2 {
            run_records += seg.len();
            run.push(Arc::clone(seg));
            continue;
        }
        if run.len() >= policy.min_segments.max(2) {
            return Some(run);
        }
        run.clear();
        run_records = 0;
        // A small segment that overflowed the budget starts the next run.
        if small {
            run_records = seg.len();
            run.push(Arc::clone(seg));
        }
    }
    if run.len() >= policy.min_segments.max(2) {
        return Some(run);
    }
    None
}

/// One merge attempt. Returns whether a merge was spliced in; `false`
/// means no candidate run remains. A splice lost to a concurrent
/// retention drop or rival merge re-snapshots and retries, so a lost
/// race never masquerades as quiescence.
fn compact_once(store: &LogStore, policy: &CompactionPolicy) -> bool {
    loop {
        let sealed = store.sealed_snapshot();
        let Some(run) = candidate_run(&sealed, policy) else {
            return false;
        };
        // Merge off the lock; splice only if the run survived untouched.
        let merged = Arc::new(SealedSegment::merge(&run, store.config().columnar));
        if store.replace_run(&run, merged) {
            return true;
        }
    }
}

impl LogStore {
    /// Run compaction to quiescence on the calling thread (deterministic
    /// variant for tests and benchmarks — the background path calls the
    /// same code). Returns the number of merges performed. Uses the
    /// configured policy, or the default when compaction is not enabled
    /// on this store.
    pub fn compact_now(&self) -> usize {
        let policy = self.config().compaction.clone().unwrap_or_default();
        let mut merges = 0;
        while compact_once(self, &policy) {
            merges += 1;
        }
        merges
    }
}

/// Kick a background compaction task if the policy asks for one and no
/// task is already running. Called after every seal; the flag keeps it
/// to at most one compactor thread per store.
pub(crate) fn maybe_spawn(store: &LogStore) {
    let Some(policy) = store.config().compaction.clone() else {
        return;
    };
    {
        let sealed = store.sealed_snapshot();
        if candidate_run(&sealed, &policy).is_none() {
            return;
        }
    }
    if store
        .compacting_flag()
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    let Some(store) = store.strong_opt() else {
        store.compacting_flag().store(false, Ordering::Release);
        return;
    };
    tokio::task::spawn(async move {
        while compact_once(&store, &policy) {}
        store.compacting_flag().store(false, Ordering::Release);
    });
}

#[cfg(test)]
mod tests {
    use crate::store::{LogConfig, LogStore};
    use serde_json::json;

    fn small_store(compaction: Option<super::CompactionPolicy>) -> std::sync::Arc<LogStore> {
        LogStore::with_config(
            "t",
            LogConfig {
                segment_capacity: 8,
                columnar: true,
                compaction,
            },
        )
    }

    #[test]
    fn compact_now_merges_small_runs() {
        // No auto-compaction: the append path would otherwise kick a
        // background merge and race the counts below. `compact_now`
        // falls back to the default policy.
        let log = small_store(None);
        for i in 0..64 {
            log.append(json!({"i": i, "kind": "telemetry"}));
        }
        let (before, _) = log.segment_counts();
        assert_eq!(before, 8);
        let all_before = log.read_all();
        assert!(log.compact_now() > 0);
        let (after, columnar) = log.segment_counts();
        assert!(after < before, "merging must reduce segment count");
        assert_eq!(columnar, after, "merged segments are columnar");
        // Record-level contents are untouched.
        assert_eq!(log.read_all(), all_before);
    }

    #[test]
    fn compaction_respects_target_size() {
        let log = small_store(Some(super::CompactionPolicy {
            min_segments: 2,
            target_records: 16,
        }));
        for i in 0..128 {
            log.append(json!({"i": i}));
        }
        log.compact_now();
        let (sealed, _) = log.segment_counts();
        // 128 records, ≤32 per merged segment → at least 4 segments left.
        assert!(sealed >= 4);
        assert!(log.compact_now() == 0, "compaction must reach quiescence");
    }

    #[test]
    fn compaction_shares_dictionaries() {
        let log = small_store(Some(super::CompactionPolicy {
            min_segments: 2,
            target_records: 1024,
        }));
        // The same records in row segments: the layout columnar replaces.
        let rows = LogStore::with_config(
            "rows",
            LogConfig {
                segment_capacity: 8,
                columnar: false,
                compaction: None,
            },
        );
        for i in 0..256 {
            let record = json!({"kind": "energy", "room": ["kitchen", "hall"][i % 2]});
            rows.append(record.clone());
            log.append(record);
        }
        let before = log.retained_bytes();
        log.compact_now();
        let after = log.retained_bytes();
        assert!(after <= before, "merging repetitive data must not grow");
        let row_bytes = rows.retained_bytes();
        assert!(
            2 * after <= row_bytes,
            "compacted columnar retains {after} B, more than half of the rows' {row_bytes} B"
        );
    }

    #[test]
    fn background_compaction_converges() {
        let log = small_store(Some(super::CompactionPolicy {
            min_segments: 2,
            target_records: 64,
        }));
        for i in 0..512 {
            log.append(json!({"i": i, "kind": "telemetry"}));
        }
        // The seal path spawned compactor tasks; wait for quiescence.
        for _ in 0..200 {
            let (sealed, _) = log.segment_counts();
            if sealed <= 512 / 64 + 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        log.compact_now();
        let recs = log.read_all();
        assert_eq!(recs.len(), 512);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }
}
