//! # knactor-net
//!
//! The network substrate for Knactor data exchanges. One vocabulary —
//! [`proto::Request`] / [`proto::Response`] — is the waist on the wire
//! *and* in process:
//!
//! * [`api`] — [`api::Exchange`]: `call(Request) -> Response` plus
//!   `open(Request) -> Subscription`, the one trait every transport and
//!   layer implements; and [`api::ExchangeApi`], the typed surface
//!   integrators and reconcilers are written against, provided once over
//!   any `Exchange` (nothing implements the typed methods by hand).
//! * [`stream`] — [`stream::Subscription`], the one stream type every
//!   layer returns and wraps, polled by its consumer; plus each stream
//!   concern written once: the resume adaptor (dense-sequence rule,
//!   re-open on gap or end, re-list on `WatchTooOld`) and the n-way merge.
//! * [`frame`] — a length-prefixed frame codec over any async byte stream
//!   (the Tokio framing pattern; 4-byte big-endian length + payload).
//! * [`proto`] — the wire protocol: serde-encoded requests, responses, and
//!   server-pushed watch/tail events, multiplexed over one connection with
//!   request-id correlation.
//!
//! A stack ends in a dispatcher, reached directly or over TCP:
//!
//! * [`local`] — [`local::LocalExchange`]: the one interpretation of a
//!   `Request` against a [`knactor_store::DataExchange`] plus a
//!   [`knactor_logstore::LogExchange`] (RBAC handles, the leader fence,
//!   replication wiring).
//! * [`loopback`] — [`loopback::LoopbackClient`]: that dispatcher called
//!   directly, with **no serialization at all** — the zero-copy
//!   data-exchange optimization of §3.3.
//! * [`server`] / [`client`] — [`server::ExchangeServer`] runs the same
//!   dispatcher behind TCP (admission control, push pumps, graceful
//!   shutdown); [`client::TcpClient`] is the pipelined, demultiplexing
//!   client.
//!
//! Everything else is a layer — an `Exchange` over `Exchange`s — so
//! deployments are stacks, e.g. `Shard(Replica(Resilient(Tcp)))`:
//!
//! * [`client::ResilientClient`] — reconnect, backoff, lost-ack recovery
//!   ([`client`] holds the one recovery function), stream resume.
//! * [`router`] — [`router::ShardRouter`]: one logical exchange over N
//!   shard nodes. A routing table from `Request` to key owner / store
//!   owner / broadcast / scatter-gather / single-shard-only under a
//!   consistent-hash [`knactor_store::ShardMap`]; merges per-shard watch
//!   streams into one dense subscription.
//! * [`replica`] — leader/follower replication: the leader streams its
//!   commit sequence to followers (`Replicated(n)` writes ack only after
//!   `n` followers stage them), followers detect leader loss and elect
//!   the most caught-up survivor, and [`replica::ReplicaRouter`] gives
//!   clients leader-routed writes plus read-your-writes replica reads.
//! * [`fault`] — seeded, deterministic fault injection: a frame-level
//!   [`fault::FaultProxy`] for TCP and a [`fault::FaultApi`] layer for
//!   in-process stacks, both driven by a [`fault::FaultPlan`].
//!
//! Integrators cannot tell one stack from another.

pub mod api;
pub mod client;
pub mod fault;
pub mod frame;
pub mod local;
pub mod loopback;
pub mod proto;
pub mod replica;
pub mod router;
pub mod server;
pub mod stream;

pub use api::{BoxFuture, Exchange, ExchangeApi, ReplStatusInfo, TailRx, WatchRx};
pub use client::{ResilientClient, RetryPolicy, TcpClient};
pub use fault::{FaultApi, FaultPlan, FaultProxy, FaultRng, FaultStats};
pub use loopback::LoopbackClient;
pub use replica::{
    run_follower, FollowerConfig, FollowerHandle, ReplRuntime, ReplicaRouter, ReplicatedExchange,
};
pub use router::{ShardRouter, ShardedExchange};
pub use server::ExchangeServer;
pub use stream::Subscription;

/// Re-export: sub-millisecond-accurate sleep used for latency injection.
pub use knactor_store::profile::precise_sleep;
