//! `knactorctl serve` — run exchange shard or replica nodes.
//!
//! ```text
//! knactorctl serve                     one node on 127.0.0.1:7070
//! knactorctl serve --shards 4          a 4-shard exchange on ports 7070..7073
//! knactorctl serve --shards 4 --port 9000
//! knactorctl serve --replicas 2        a leader + 2 followers on ports 7070..7072
//! ```
//!
//! Each node is a full [`ExchangeServer`] — its own object store, log
//! store, and WAL directory. In shard mode the printed topology JSON is
//! the versioned [`ShardMap`] paired with each node's address; hand it
//! to `ShardRouter::connect_tcp` (or `connect_resilient`) and every
//! `ExchangeApi` integration routes across the nodes unchanged. In
//! replica mode the first node leads, the rest follow and replicate
//! every `Replicated` store; hand the printed address list to
//! `ReplicaRouter::connect`.
//!
//! Nodes serve until the process is killed (Ctrl-C).

use knactor_logstore::LogExchange;
use knactor_net::server::ExchangeServer;
use knactor_net::{run_follower, ExchangeApi, FollowerConfig, LoopbackClient};
use knactor_rbac::Subject;
use knactor_store::{DataExchange, ShardMap};
use serde_json::json;
use std::process::ExitCode;
use std::sync::Arc;

/// `knactorctl serve [--shards N]`: `shards` nodes on consecutive ports
/// from `port` (the caller has checked that the last one fits).
pub fn run(shards: usize, port: u16) -> ExitCode {
    if shards == 0 {
        eprintln!("--shards must be at least 1");
        return ExitCode::FAILURE;
    }
    let rt = match tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
    {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("cannot start runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    rt.block_on(async move {
        let map = ShardMap::uniform(shards);
        let mut servers = Vec::with_capacity(shards);
        let mut nodes = Vec::with_capacity(shards);
        for (i, node) in map.nodes().iter().enumerate() {
            let bind = format!("127.0.0.1:{}", port + i as u16);
            let server = match ExchangeServer::bind(
                bind.as_str(),
                Arc::new(DataExchange::new()),
                Arc::new(LogExchange::new()),
            )
            .await
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind shard {node} on {bind}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.local_addr();
            eprintln!(
                "shard {node} serving on {addr} (WALs under {})",
                server.data_dir().display()
            );
            nodes.push(json!({"node": node, "addr": addr.to_string()}));
            servers.push(server);
        }
        // The client-side topology object: feed to ShardRouter.
        println!(
            "{}",
            json!({
                "version": map.version(),
                "vnodes": map.vnodes(),
                "nodes": nodes,
            })
        );
        eprintln!("{shards}-shard exchange up; Ctrl-C to stop");
        std::future::pending::<ExitCode>().await
    })
}

/// `knactorctl serve --replicas N`: a leader plus `followers` follower
/// nodes on consecutive ports (the caller has checked that the last one
/// fits). Followers replicate every `Replicated` store from the leader
/// and hold elections if it dies.
pub fn run_replicated(followers: usize, port: u16) -> ExitCode {
    let rt = match tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
    {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("cannot start runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    rt.block_on(async move {
        let total = followers + 1;
        let mut servers = Vec::with_capacity(total);
        for i in 0..total {
            let bind = format!("127.0.0.1:{}", port + i as u16);
            let server = match ExchangeServer::bind(
                bind.as_str(),
                Arc::new(DataExchange::new()),
                Arc::new(LogExchange::new()),
            )
            .await
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind replica node {i} on {bind}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if i > 0 {
                server.repl().set_follower();
            }
            servers.push(server);
        }
        let peers: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
        // Keep every follower driver alive for the life of the process.
        let mut drivers = Vec::with_capacity(followers);
        for (i, server) in servers.iter().enumerate() {
            let role = if i == 0 { "leader" } else { "follower" };
            eprintln!(
                "replica node-{i} ({role}) serving on {} (WALs under {})",
                peers[i],
                server.data_dir().display()
            );
            if i > 0 {
                let name = format!("node-{i}");
                let apply: Arc<dyn ExchangeApi> = Arc::new(
                    LoopbackClient::new(
                        Arc::clone(&server.object),
                        Arc::clone(&server.log),
                        Subject::integrator(&name),
                    )
                    .with_data_dir(server.data_dir()),
                );
                drivers.push(run_follower(
                    server,
                    apply,
                    FollowerConfig {
                        name,
                        node_index: i,
                        peers: peers.clone(),
                        initial_leader: 0,
                    },
                ));
            }
        }
        // The client bootstrap: feed to ReplicaRouter::connect.
        println!(
            "{}",
            json!({
                "leader": peers[0].to_string(),
                "nodes": peers.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
            })
        );
        eprintln!("replica set up (1 leader + {followers} followers); Ctrl-C to stop");
        std::future::pending::<ExitCode>().await
    })
}
