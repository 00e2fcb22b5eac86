//! # Knactor
//!
//! A data-centric service composition framework — a from-scratch Rust
//! reproduction of *"Toward Data-Centric Service Composition"*
//! (HotNets '24).
//!
//! Microservices are modular; API-centric composition (RPC, Pub/Sub) is
//! not: it couples services at the code level, scatters composition logic
//! across every codebase, and hides cross-service data flows inside
//! pairwise calls. Knactor replaces API calls with **explicit data
//! exchanges**: every service (a *knactor*) externalizes its state to its
//! own data store on a data exchange, and separate **integrator** modules
//! compose services by processing and syncing state between stores —
//! declaratively, via data exchange graphs, reconfigurable at run time.
//!
//! ## Crate map
//!
//! | module | crate | what it is |
//! |--------|-------|------------|
//! | [`types`] | `knactor-types` | values, schemas, `+kr:` annotations, ids |
//! | [`yamlish`] | `knactor-yamlish` | the spec-file YAML subset |
//! | [`expr`] | `knactor-expr` | the DXG expression language |
//! | [`rbac`] | `knactor-rbac` | state access control |
//! | [`store`] | `knactor-store` | the Object data exchange |
//! | [`logstore`] | `knactor-logstore` | the Log data exchange |
//! | [`net`] | `knactor-net` | wire protocol, TCP + loopback transports |
//! | [`dxg`] | `knactor-dxg` | data exchange graphs + static analysis |
//! | [`core`] | `knactor-core` | knactors, reconcilers, runtime, Cast, Sync |
//! | [`rpc`] | `knactor-rpc` | the API-centric baseline (mini-RPC, Pub/Sub) |
//! | [`apps`] | `knactor-apps` | the retail + smart-home case studies |
//!
//! ## Quickstart
//!
//! ```
//! use knactor::prelude::*;
//! use serde_json::json;
//!
//! # #[tokio::main(flavor = "current_thread")]
//! # async fn main() -> knactor::types::Result<()> {
//! // An in-process data exchange and a client for it.
//! let (_object, _log, client) = knactor::net::loopback::in_process(
//!     Subject::integrator("quickstart"),
//! );
//! let api: std::sync::Arc<dyn ExchangeApi> = std::sync::Arc::new(client);
//!
//! // Two services externalize their state...
//! api.create_store("a/state".into(), ProfileSpec::Instant).await?;
//! api.create_store("b/state".into(), ProfileSpec::Instant).await?;
//! api.create("a/state".into(), "obj".into(), json!({"greeting": "hello"})).await?;
//!
//! // ...and an integrator composes them with a two-line DXG.
//! let dxg = Dxg::parse(
//!     "Input:\n  A: demo/v1/A/a\n  B: demo/v1/B/b\nDXG:\n  B:\n    shout: upper(A.greeting)\n",
//! )?;
//! let mut bindings = std::collections::BTreeMap::new();
//! bindings.insert("A".to_string(), CastBinding::correlated("a/state"));
//! bindings.insert("B".to_string(), CastBinding::correlated("b/state"));
//! let cast = Cast::new(std::sync::Arc::clone(&api));
//! let config = CastConfig { name: "demo".into(), dxg, bindings, mode: CastMode::Direct };
//! cast.activate_once(&config, &"obj".into()).await?;
//!
//! let b = api.get("b/state".into(), "obj".into()).await?;
//! assert_eq!(b.value["shout"], json!("HELLO"));
//! # Ok(())
//! # }
//! ```

pub mod testkit;

pub use knactor_apps as apps;
pub use knactor_core as core;
pub use knactor_dxg as dxg;
pub use knactor_expr as expr;
pub use knactor_logstore as logstore;
pub use knactor_net as net;
pub use knactor_rbac as rbac;
pub use knactor_rpc as rpc;
pub use knactor_store as store;
pub use knactor_types as types;
pub use knactor_yamlish as yamlish;

/// The names most programs need.
pub mod prelude {
    pub use knactor_core::{
        ApplyReport, Cast, CastBinding, CastConfig, CastMode, Composer, Composition, Controller,
        FnReconciler, Health, IntegratorConfig, IntegratorStats, Knactor, KnactorBuilder,
        Reconciler, ReconcilerCtx, Runtime, Sync, SyncConfig, SyncDest, SyncMode, TraceCollector,
    };
    pub use knactor_dxg::{Dxg, Plan};
    pub use knactor_expr::{Env, FnRegistry};
    pub use knactor_logstore::{AggFn, LogExchange, LogStore, Query};
    pub use knactor_net::proto::{OpSpec, ProfileSpec, QuerySpec};
    pub use knactor_net::{
        Exchange, ExchangeApi, ExchangeServer, LoopbackClient, ReplicaRouter, ReplicatedExchange,
        ShardRouter, ShardedExchange, TcpClient,
    };
    pub use knactor_rbac::{
        AccessContext, AccessController, Condition, Role, RoleBinding, Rule, Subject, Verb,
    };
    pub use knactor_store::{
        BatchOp, DataExchange, EngineProfile, ItemResult, ObjectStore, PutItem, RetentionPolicy,
        ShardMap, StoreHandle,
    };
    pub use knactor_types::{
        Error, FieldPath, KnactorId, ObjectKey, Result, Revision, Schema, SchemaName, StoreId,
        Value,
    };
}
