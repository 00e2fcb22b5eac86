//! # knactor-store
//!
//! The **Object data exchange** (DE): a logically centralized service that
//! hosts per-knactor data stores keeping state as attribute–value objects,
//! with CRUD, watch, retention, access control, and server-side UDF
//! execution (§3.2–3.3 of the paper).
//!
//! ## Layering
//!
//! * [`store::ObjectStore`] — the synchronous, versioned k-v core: CRUD
//!   with optimistic concurrency, a strictly monotonic store revision, an
//!   ordered and resumable watch history, schema validation, and
//!   reference-counted state retention.
//! * [`wal::Wal`] — a write-ahead log giving the "apiserver-like" engine
//!   its durability (and its latency: each commit is an `fsync`).
//! * [`profile::EngineProfile`] — the knob set that turns the same core
//!   into the paper's different exchanges: `apiserver()` (durable,
//!   poll-based watch delivery) vs `redis()` (in-memory, push delivery).
//! * [`handle::StoreHandle`] — the async client surface used by
//!   reconcilers and integrators; applies the engine profile's latency
//!   behaviour and the exchange's access control.
//! * [`exchange::DataExchange`] — hosts many stores, the schema registry,
//!   the access controller, and the UDF runtime ([`udf`]) that lets
//!   integrators push composition logic down into the exchange.
//!
//! ## Invariants (property-tested in `tests/`)
//!
//! * the store revision increases by exactly one per committed mutation
//! * a watch from revision *r* delivers every later committed event
//!   exactly once, in revision order
//! * an update carrying a stale expected revision never commits
//! * a WAL replay reconstructs exactly the committed state

pub mod batch;
pub mod event;
pub mod exchange;
pub mod handle;
pub mod object;
pub mod profile;
pub mod repl;
pub mod shard;
pub mod store;
pub mod udf;
pub mod wal;

pub use batch::{BatchOp, ItemResult, PutItem};
pub use event::{EventKind, WatchEvent};
pub use exchange::{DataExchange, TxOp};
pub use handle::StoreHandle;
pub use object::{RetentionPolicy, StoredObject};
pub use profile::EngineProfile;
pub use repl::ReplState;
pub use shard::ShardMap;
pub use store::ObjectStore;
pub use udf::{Udf, UdfBinding};
pub use wal::{CrashPoint, Recovery, Wal};
