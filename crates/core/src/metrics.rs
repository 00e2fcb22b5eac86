//! Exchange-level metrics: the registry, snapshots, and naming scheme.
//!
//! This is a re-export of [`knactor_types::metrics`] — the registry core
//! lives in the bottom-most crate so `store`, `logstore`, and `net` can
//! instrument their hot paths without depending on `knactor-core`. This
//! module is the front door applications and tests should use.
//!
//! # Naming convention
//!
//! Every metric is `knactor_<subsystem>_<what>[_total|_seconds]`, with
//! labels drawn from a small fixed vocabulary (`store`, `integrator`,
//! `edge`, `stage`, `op`, `kind`, `method`, `composer`):
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `knactor_store_ops_total` | counter | `store`, `op` |
//! | `knactor_store_commit_seconds` | histogram | `store` |
//! | `knactor_store_fanout_depth` | gauge | `store` |
//! | `knactor_store_watch_cutoffs_total` | counter | `store` |
//! | `knactor_wal_appends_total` | counter | — |
//! | `knactor_wal_recoveries_total` | counter | — |
//! | `knactor_log_appends_total` | counter | `store` |
//! | `knactor_log_tail_depth` | gauge | `store` |
//! | `knactor_log_tail_cutoffs_total` | counter | `store` |
//! | `knactor_activations_total` | counter | `integrator` |
//! | `knactor_activation_stage_seconds` | histogram | `integrator`, `stage` |
//! | `knactor_client_retries_total` | counter | — |
//! | `knactor_client_backoff_seconds` | histogram | — |
//! | `knactor_fault_injections_total` | counter | `kind` |
//! | `knactor_composer_apply_seconds` | histogram | `composer` |
//! | `knactor_composer_events_total` | counter | `composer`, `kind`, `edge` (per-edge kinds) |
//! | `knactor_rpc_calls_total` | counter | `method` |
//! | `knactor_rpc_call_seconds` | histogram | `method` |
//! | `knactor_cast_coalesced_events_total` | counter | `integrator` |
//!
//! # Spans vs. histograms
//!
//! [`crate::telemetry::TraceCollector`] records *per-activation spans*
//! (one row per trace, ordered, with stage names); the histograms here
//! aggregate the **same stage names** (`read-sources`, `evaluate`,
//! `write:{alias}`, `pushdown-execute`, `process-record`, `apply`) into
//! latency distributions. A span answers "what happened to order #17";
//! the matching `knactor_activation_stage_seconds{stage=...}` histogram
//! answers "what does that stage cost at p99". Agreement between the two
//! is by construction: both are recorded from the same `Instant` at the
//! same call sites.

pub use knactor_types::metrics::{
    global, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, BUCKET_BOUNDS_NS,
};

use std::time::Duration;

/// Record one activation-stage duration into
/// `knactor_activation_stage_seconds{integrator,stage}`. Call it from the
/// same site (and with the same stage name) as the matching
/// `TraceCollector::record`, so spans and histograms agree by
/// construction.
pub fn observe_stage(integrator: &str, stage: &str, elapsed: Duration) {
    global()
        .histogram(
            "knactor_activation_stage_seconds",
            &[("integrator", integrator), ("stage", stage)],
        )
        .observe(elapsed);
}

/// Count one completed activation for `knactor_activations_total{integrator}`.
pub fn inc_activation(integrator: &str) {
    global()
        .counter("knactor_activations_total", &[("integrator", integrator)])
        .inc();
}
