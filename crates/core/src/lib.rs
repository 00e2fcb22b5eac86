//! # knactor-core
//!
//! The Knactor framework (§3.2): the `knactor` service abstraction, the
//! reconciler programming model, the runtime that hosts them, and the two
//! built-in integrators.
//!
//! ## The Knactor pattern, concretely
//!
//! * A [`knactor::Knactor`] is a service that talks **only to its own
//!   data stores** — one or more Object stores (configuration-like state)
//!   and Log stores (telemetry-like state), hosted on data exchanges.
//! * Its [`reconciler::Reconciler`] watches the knactor's own store and
//!   reacts to state changes (e.g. a new `Shipment` object appears → call
//!   the carrier, write back `trackingID`).
//! * Composition lives **outside** every service, in integrators:
//!   [`cast::Cast`] executes a data-exchange graph over Object stores;
//!   [`sync::Sync`] runs dataflow pipelines between Log stores;
//!   [`continuous::Continuous`] keeps windowed queries over a log fresh.
//! * The [`runtime::Runtime`] supervises the reconcilers: spawn, contain
//!   panics, graceful shutdown (the Tokio shutdown pattern).
//!
//! All four are the same thing at run time — a task that reads a source
//! stream and writes derived state — so they share one run loop and one
//! handle: [`integrator`] owns the loop (open the source from the resume
//! point, retry while it is unavailable, re-open it when the stream ends,
//! answer commands throughout) and the [`integrator::Controller`]
//! (reconfigure / drain / shutdown / health / stats); each kind supplies
//! only how it takes a config, opens its source, and processes events.
//!
//! ## Run-time reconfiguration (§3.3)
//!
//! Every integrator accepts configuration updates while running —
//! [`integrator::Controller::reconfigure`] swaps in a new DXG without
//! touching, rebuilding, or redeploying any knactor. That operation *is*
//! the paper's headline claim, and Table 1's harness measures it.
//!
//! The [`composer`] module lifts reconfiguration from one integrator to
//! the whole composition: applications declare a [`composer::Composition`]
//! and [`composer::Composer::apply`] diffs it against what is running,
//! disturbing only the edges that actually changed.
//!
//! ## Observability
//!
//! [`telemetry`] threads exchange-level traces (per-activation spans,
//! kept in a bounded ring) through the integrators so cross-service data
//! flows stay visible. [`metrics`] is the quantitative side: a
//! process-wide registry of counters, gauges, and latency histograms
//! (aggregating the same stage names the traces use, and counting the
//! composer's lifecycle events), scrapeable in Prometheus text format
//! over the wire.

pub mod cast;
pub mod composer;
pub mod continuous;
pub mod integrator;
pub mod knactor;
pub mod metrics;
pub mod reconciler;
pub mod runtime;
pub mod schema_file;
pub mod sync;
pub mod telemetry;

pub use cast::{Cast, CastBinding, CastConfig, CastMode, KeyBinding};
pub use composer::{
    cast_edge_actions, ApplyReport, CastSection, Composer, ComposerHealth, Composition, EdgeAction,
};
pub use continuous::{Continuous, ContinuousConfig};
pub use integrator::{Controller, Health, IntegratorConfig, IntegratorStats};
pub use knactor::{Knactor, KnactorBuilder};
pub use reconciler::{FnReconciler, Reconciler, ReconcilerCtx};
pub use runtime::Runtime;
pub use schema_file::{parse_schema, schema_to_yaml};
pub use sync::{Sync, SyncConfig, SyncDest, SyncMode};
pub use telemetry::{Span, TraceCollector};
