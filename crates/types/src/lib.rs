//! # knactor-types
//!
//! Foundational types shared by every crate in the Knactor workspace:
//!
//! * [`value`] — the dynamic state model (JSON-compatible values) plus
//!   path-based access helpers used by data stores and the DXG evaluator.
//! * [`path`] — [`FieldPath`], a parsed dotted path (`order.items[0].name`)
//!   into a state value.
//! * [`schema`] — data-store schemas with `+kr:` field annotations
//!   (Fig. 5 of the paper) and a [`schema::SchemaRegistry`].
//! * [`id`] — strongly-typed identifiers: knactors, stores, object keys,
//!   and monotonically increasing store [`id::Revision`]s.
//! * [`metrics`] — the process-wide metrics registry (counters, gauges,
//!   latency histograms) every layer instruments into; re-exported by
//!   `knactor-core` as `core::metrics`.
//! * [`window`] — the one [`window::Cursor`] over a dense, bounded,
//!   retained sequence: what Object-DE watches, Log-DE tails and the
//!   replication feed all read through.
//! * [`error`] — the shared [`error::Error`] type.
//!
//! The paper externalizes each service's state into a data store hosted on
//! a data exchange; these types define what a "state" *is* (a structured
//! value conforming to a registered schema) independent of which exchange
//! hosts it.

pub mod error;
pub mod id;
pub mod metrics;
pub mod path;
pub mod schema;
pub mod value;
pub mod window;

pub use error::{Error, Result};
pub use id::{KnactorId, ObjectKey, Revision, StoreId};
pub use path::FieldPath;
pub use schema::{Annotation, FieldSpec, FieldType, Schema, SchemaName, SchemaRegistry};
pub use value::Value;
