//! Integration tests: full client ↔ server over real TCP sockets.

use knactor_net::proto::{OpSpec, ProfileSpec, QuerySpec};
use knactor_net::server::test_server;
use knactor_net::{ExchangeApi, TcpClient};
use knactor_rbac::{Role, RoleBinding, Subject};
use knactor_store::udf::UdfAssignment;
use knactor_store::{ItemResult, UdfBinding};
use knactor_types::schema::{FieldSpec, FieldType};
use knactor_types::{Error, ObjectKey, Revision, Schema, SchemaName, StoreId};
use serde_json::json;
use std::time::Duration;

#[path = "util/batch_workload.rs"]
mod batch_workload;
use batch_workload::batch_script;

async fn client_for(server: &knactor_net::ExchangeServer, subject: Subject) -> TcpClient {
    TcpClient::connect(server.local_addr(), subject)
        .await
        .unwrap()
}

#[tokio::test]
async fn crud_over_tcp() {
    let server = test_server(&["checkout/state"], &[]).await.unwrap();
    let client = client_for(&server, Subject::operator("test")).await;
    client.ping().await.unwrap();

    let store = StoreId::new("checkout/state");
    let rev = client
        .create(store.clone(), ObjectKey::new("o1"), json!({"cost": 30}))
        .await
        .unwrap();
    assert_eq!(rev, Revision(1));

    let obj = client
        .get(store.clone(), ObjectKey::new("o1"))
        .await
        .unwrap();
    assert_eq!(obj.value, json!({"cost": 30}));

    client
        .update(
            store.clone(),
            ObjectKey::new("o1"),
            json!({"cost": 40}),
            Some(rev),
        )
        .await
        .unwrap();
    // Stale OCC write must surface the typed Conflict error across the wire.
    let err = client
        .update(
            store.clone(),
            ObjectKey::new("o1"),
            json!({"cost": 50}),
            Some(rev),
        )
        .await
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Conflict {
            expected: 1,
            actual: 2
        }
    ));

    client
        .patch(
            store.clone(),
            ObjectKey::new("o1"),
            json!({"note": "hi"}),
            false,
        )
        .await
        .unwrap();
    let (objects, _) = client.list(store.clone()).await.unwrap();
    assert_eq!(objects.len(), 1);
    assert_eq!(objects[0].value, json!({"cost": 40, "note": "hi"}));

    client
        .delete(store.clone(), ObjectKey::new("o1"))
        .await
        .unwrap();
    assert!(matches!(
        client.get(store, ObjectKey::new("o1")).await,
        Err(Error::NotFound(_))
    ));
    server.shutdown().await;
}

#[tokio::test]
async fn schema_and_udf_over_tcp() {
    let server = test_server(&["checkout/state", "shipping/state"], &[])
        .await
        .unwrap();
    let client = client_for(&server, Subject::integrator("cast")).await;

    let schema = Schema::new("OnlineRetail/v1/Shipping/Shipment")
        .field(FieldSpec::new("addr", FieldType::String))
        .field(FieldSpec::new("items", FieldType::Array))
        .field(FieldSpec::new("method", FieldType::String));
    client.register_schema(schema.clone()).await.unwrap();
    let got = client
        .get_schema(SchemaName::new("OnlineRetail/v1/Shipping/Shipment"))
        .await
        .unwrap();
    assert_eq!(got, schema);

    client
        .create(
            StoreId::new("checkout/state"),
            ObjectKey::new("order-1"),
            json!({"order": {"address": "Soda", "cost": 99, "items": [{"name": "pen"}]}}),
        )
        .await
        .unwrap();
    client
        .register_udf(
            "ship".to_string(),
            vec!["C".to_string(), "S".to_string()],
            vec![
                UdfAssignment {
                    target_alias: "S".into(),
                    target_path: "addr".into(),
                    expr: "C.order.address".into(),
                },
                UdfAssignment {
                    target_alias: "S".into(),
                    target_path: "method".into(),
                    expr: r#""air" if C.order.cost > 1000 else "ground""#.into(),
                },
            ],
        )
        .await
        .unwrap();
    let revs = client
        .execute_udf(
            "ship".to_string(),
            vec![
                UdfBinding::new("C", "checkout/state", "order-1"),
                UdfBinding::new("S", "shipping/state", "ship-1"),
            ],
        )
        .await
        .unwrap();
    assert_eq!(revs.len(), 1);
    let shipped = client
        .get(StoreId::new("shipping/state"), ObjectKey::new("ship-1"))
        .await
        .unwrap();
    assert_eq!(shipped.value, json!({"addr": "Soda", "method": "ground"}));
    server.shutdown().await;
}

#[tokio::test]
async fn log_ops_over_tcp() {
    let server = test_server(&[], &["motion/telemetry"]).await.unwrap();
    let client = client_for(&server, Subject::reconciler("motion")).await;
    let store = StoreId::new("motion/telemetry");

    client
        .log_append(store.clone(), json!({"triggered": true}))
        .await
        .unwrap();
    let seq = client
        .log_append_batch(
            store.clone(),
            vec![json!({"triggered": false}), json!({"triggered": true})],
        )
        .await
        .unwrap();
    assert_eq!(seq, 3);

    let records = client.log_read(store.clone(), 1).await.unwrap();
    assert_eq!(records.len(), 2);

    let rows = client
        .log_query(
            store.clone(),
            QuerySpec {
                ops: vec![
                    OpSpec::Filter {
                        expr: "this.triggered == true".into(),
                    },
                    OpSpec::Rename {
                        from: "triggered".into(),
                        to: "motion".into(),
                    },
                ],
            },
        )
        .await
        .unwrap();
    assert_eq!(rows, vec![json!({"motion": true}), json!({"motion": true})]);

    // Tail: replay + live.
    let mut tail = client.log_tail(store.clone(), 2).await.unwrap();
    assert_eq!(tail.recv_record().await.unwrap().seq, 3);
    client
        .log_append(store.clone(), json!({"triggered": false}))
        .await
        .unwrap();
    assert_eq!(tail.recv_record().await.unwrap().seq, 4);
    server.shutdown().await;
}

#[tokio::test]
async fn rbac_enforced_over_tcp() {
    let server = test_server(&["lamp/config"], &[]).await.unwrap();
    server.object.configure_access(|ac| {
        ac.always_enforce = true;
        ac.add_role(Role::full_access("owner", "lamp/config"));
        ac.bind(RoleBinding::new(Subject::reconciler("lamp"), "owner"));
    });

    let owner = client_for(&server, Subject::reconciler("lamp")).await;
    owner
        .create(
            StoreId::new("lamp/config"),
            ObjectKey::new("cfg"),
            json!({"brightness": 3}),
        )
        .await
        .unwrap();

    let stranger = client_for(&server, Subject::integrator("stranger")).await;
    let err = stranger
        .get(StoreId::new("lamp/config"), ObjectKey::new("cfg"))
        .await
        .unwrap_err();
    assert!(matches!(err, Error::Forbidden(_)));
    server.shutdown().await;
}

#[tokio::test]
async fn remote_store_creation_with_profiles() {
    let server = knactor_net::ExchangeServer::bind_ephemeral().await.unwrap();
    let client = client_for(&server, Subject::operator("admin")).await;
    client
        .create_store(StoreId::new("a/instant"), ProfileSpec::Instant)
        .await
        .unwrap();
    client
        .create_store(StoreId::new("a/redis"), ProfileSpec::Redis)
        .await
        .unwrap();
    // Duplicate creation errors cross the wire.
    assert!(matches!(
        client
            .create_store(StoreId::new("a/redis"), ProfileSpec::Redis)
            .await,
        Err(Error::AlreadyExists(_))
    ));
    client
        .create(StoreId::new("a/redis"), ObjectKey::new("k"), json!(1))
        .await
        .unwrap();
    server.shutdown().await;
}

/// Regression: a client-side stream that was dropped used to leak its
/// server-side subscription for the life of the connection — the client
/// forgot it locally and never told the server, whose pump task, store
/// watch and store-side subscriber kept running, every later event still
/// cloned, encoded, framed, sent and decoded, then discarded. The one
/// client-side subscription now sends `Unwatch` when its consumer goes.
#[tokio::test]
async fn a_dropped_stream_releases_its_server_side_subscription() {
    let server = test_server(&["s/x"], &["l/x"]).await.unwrap();
    let client = client_for(&server, Subject::operator("c")).await;
    let store = server.object.store(&StoreId::new("s/x")).unwrap();
    // A wait on state; the deadline only bounds a failure. (The server
    // counts a subscription once its reply is on the way, so even the
    // count after an open is awaited.)
    async fn held(what: &str, want: usize, count: impl Fn() -> usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while count() != want {
            assert!(std::time::Instant::now() < deadline, "{what}: not {want}");
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    let watch = client.watch("s/x".into(), Revision::ZERO).await.unwrap();
    assert_eq!(store.subscriber_count(), 1);
    drop(watch);
    client
        .create("s/x".into(), ObjectKey::new("k"), json!(1))
        .await
        .unwrap();
    held("the store-side subscriber", 0, || store.subscriber_count()).await;

    let tail = client.log_tail("l/x".into(), 0).await.unwrap();
    held("the connection's subscription", 1, || {
        server.subscriptions()
    })
    .await;
    drop(tail);
    client
        .log_append("l/x".into(), json!({"n": 1}))
        .await
        .unwrap();
    held("the connection's subscription", 0, || {
        server.subscriptions()
    })
    .await;
    server.shutdown().await;
}

#[tokio::test]
async fn concurrent_clients_pipeline() {
    let server = test_server(&["s/x"], &[]).await.unwrap();
    let client = std::sync::Arc::new(client_for(&server, Subject::operator("c")).await);
    let store = StoreId::new("s/x");
    let mut tasks = Vec::new();
    for i in 0..32 {
        let client = std::sync::Arc::clone(&client);
        let store = store.clone();
        tasks.push(tokio::spawn(async move {
            client
                .create(store, ObjectKey::new(format!("k{i}")), json!({"i": i}))
                .await
                .unwrap()
        }));
    }
    for t in tasks {
        t.await.unwrap();
    }
    let (objects, rev) = client.list(store).await.unwrap();
    assert_eq!(objects.len(), 32);
    assert_eq!(rev, Revision(32));
    server.shutdown().await;
}

/// Batched ops must behave identically on the in-process loopback and
/// over real TCP: same per-item revisions, same objects, same typed
/// errors in the same slots.
#[tokio::test]
async fn batch_ops_parity_loopback_vs_tcp() {
    let (_object, _log, loopback) = knactor_net::loopback::in_process(Subject::operator("parity"));
    let local = batch_script(&loopback).await;

    let server = knactor_net::ExchangeServer::bind_ephemeral().await.unwrap();
    let client = client_for(&server, Subject::operator("parity")).await;
    let remote = batch_script(&client).await;
    server.shutdown().await;

    assert_eq!(
        local, remote,
        "loopback and TCP must produce identical batch outcomes"
    );

    // Pin the semantics on one transport (the other is equal by the
    // assert above). Revisions advance only for committed items.
    let codes = |items: &[ItemResult]| -> Vec<String> {
        items
            .iter()
            .map(|i| match i {
                ItemResult::Revision { revision } => format!("rev:{revision}"),
                ItemResult::Object { object } => format!("obj:{}", object.key),
                ItemResult::Error { code, .. } => format!("err:{code}"),
            })
            .collect()
    };
    assert_eq!(
        codes(&local[0]),
        [
            "rev:1",
            "rev:2",
            "err:already_exists",
            "err:not_found",
            "err:conflict",
            "rev:3"
        ]
    );
    assert_eq!(codes(&local[1]), ["rev:4", "rev:5", "err:not_found"]);
    assert_eq!(codes(&local[2]), ["obj:a", "err:not_found", "obj:c"]);
    assert_eq!(codes(&local[3]), ["rev:6", "err:not_found"]);
    // The merge-patch really merged.
    let ItemResult::Object { object } = &local[2][0] else {
        panic!("expected object for a");
    };
    assert_eq!(*object.value, json!({"v": 1, "extra": true}));
}

/// Losing the connection mid-request must fail the pending caller with a
/// descriptive transport error — not strand it on a reply that can never
/// arrive, and not hand it an opaque channel-closed message.
#[tokio::test]
async fn connection_loss_fails_pending_requests_descriptively() {
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    tokio::spawn(async move {
        // Accept, never reply, hang up with the request outstanding.
        let (socket, _) = listener.accept().await.unwrap();
        tokio::time::sleep(Duration::from_millis(100)).await;
        drop(socket);
    });

    let client = TcpClient::connect(addr, Subject::operator("doomed"))
        .await
        .unwrap();
    let err = client.ping().await.unwrap_err();
    match err {
        Error::Transport(msg) => assert!(
            msg.contains("lost") && msg.contains("outstanding"),
            "transport error should describe the connection loss, got: {msg}"
        ),
        other => panic!("expected Error::Transport, got {other:?}"),
    }
    // The client is marked closed: later requests fail fast instead of
    // queueing onto a dead socket.
    assert!(matches!(client.ping().await, Err(Error::Transport(_))));
}

#[tokio::test]
async fn transact_over_tcp_is_atomic() {
    let server = test_server(&["a/state", "b/state"], &[]).await.unwrap();
    let client = client_for(&server, Subject::operator("tx")).await;
    let rev = client
        .create(
            StoreId::new("a/state"),
            ObjectKey::new("k"),
            json!({"v": 1}),
        )
        .await
        .unwrap();

    // Atomic success across two stores.
    let revs = client
        .transact(vec![
            knactor_store::TxOp {
                store: StoreId::new("a/state"),
                key: ObjectKey::new("k"),
                patch: json!({"v": 2}),
                upsert: false,
                expected: Some(rev),
            },
            knactor_store::TxOp {
                store: StoreId::new("b/state"),
                key: ObjectKey::new("mirror"),
                patch: json!({"of": "a/k"}),
                upsert: true,
                expected: None,
            },
        ])
        .await
        .unwrap();
    assert_eq!(revs.len(), 2);

    // Stale precondition aborts everything, typed error crosses the wire.
    let err = client
        .transact(vec![
            knactor_store::TxOp {
                store: StoreId::new("a/state"),
                key: ObjectKey::new("k"),
                patch: json!({"v": 99}),
                upsert: false,
                expected: Some(rev), // stale
            },
            knactor_store::TxOp {
                store: StoreId::new("b/state"),
                key: ObjectKey::new("mirror2"),
                patch: json!({}),
                upsert: true,
                expected: None,
            },
        ])
        .await
        .unwrap_err();
    assert!(matches!(err, Error::Conflict { .. }));
    assert!(matches!(
        client
            .get(StoreId::new("b/state"), ObjectKey::new("mirror2"))
            .await,
        Err(Error::NotFound(_))
    ));
    server.shutdown().await;
}
