//! In-process transport: the zero-copy deployment.
//!
//! A [`LoopbackClient`] is an [`Exchange`] bound directly to a
//! [`LocalExchange`] — the same dispatcher the TCP server runs behind its
//! sockets. Values move as `serde_json::Value` clones with **no
//! serialization, framing, or syscalls** — this is the §3.3 "zero-copy
//! data exchange between DE and integrator" configuration, and the
//! baseline the TCP transport is benchmarked against.

use crate::api::{BoxFuture, Exchange};
use crate::local::LocalExchange;
use crate::proto::{Request, Response};
use crate::stream::Subscription;
use knactor_logstore::LogExchange;
use knactor_rbac::Subject;
use knactor_store::DataExchange;
use knactor_types::Result;
use std::path::PathBuf;
use std::sync::Arc;

/// Client bound directly to in-process exchanges.
#[derive(Clone)]
pub struct LoopbackClient {
    local: Arc<LocalExchange>,
    subject: Subject,
}

impl LoopbackClient {
    /// A client onto bare exchanges: no replication runtime, WALs rooted
    /// under a shared temp directory unless [`Self::with_data_dir`] says
    /// otherwise.
    pub fn new(object: Arc<DataExchange>, log: Arc<LogExchange>, subject: Subject) -> Self {
        let local = LocalExchange {
            object,
            log,
            data_dir: std::env::temp_dir().join("knactor-loopback"),
            repl: None,
        };
        LoopbackClient::over(Arc::new(local), subject)
    }

    /// A client onto an existing dispatcher (a running server's, say).
    pub(crate) fn over(local: Arc<LocalExchange>, subject: Subject) -> Self {
        LoopbackClient { local, subject }
    }

    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        Arc::make_mut(&mut self.local).data_dir = dir.into();
        self
    }

    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The same exchanges viewed as a different subject.
    pub fn as_subject(&self, subject: Subject) -> LoopbackClient {
        LoopbackClient {
            subject,
            ..self.clone()
        }
    }
}

impl Exchange for LoopbackClient {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(self.local.call(&self.subject, request))
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        let opened = self.local.open(&self.subject, request);
        Box::pin(async move { opened.map(Subscription::new) })
    }
}

/// Bundle of fresh in-process exchanges plus a client, for tests and
/// single-process apps.
pub fn in_process(subject: Subject) -> (Arc<DataExchange>, Arc<LogExchange>, LoopbackClient) {
    let object = Arc::new(DataExchange::new());
    let log = Arc::new(LogExchange::new());
    let client = LoopbackClient::new(Arc::clone(&object), Arc::clone(&log), subject);
    (object, log, client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ExchangeApi;
    use crate::proto::{ProfileSpec, QuerySpec};
    use crate::{ExchangeServer, TcpClient};
    use knactor_types::{Error, ObjectKey, Revision, StoreId};
    use serde_json::json;

    #[tokio::test]
    async fn loopback_object_roundtrip() {
        let (_, _, client) = in_process(Subject::operator("test"));
        let store = StoreId::new("t/s");
        client
            .create_store(store.clone(), ProfileSpec::Instant)
            .await
            .unwrap();
        client
            .create(store.clone(), ObjectKey::new("a"), json!({"x": 1}))
            .await
            .unwrap();
        let obj = client
            .get(store.clone(), ObjectKey::new("a"))
            .await
            .unwrap();
        assert_eq!(obj.value, json!({"x": 1}));
        let mut rx = client.watch(store.clone(), Revision::ZERO).await.unwrap();
        let e = rx.recv().await.unwrap();
        assert_eq!(e.key, ObjectKey::new("a"));
    }

    #[tokio::test]
    async fn loopback_log_roundtrip() {
        let (_, _, client) = in_process(Subject::operator("test"));
        let store = StoreId::new("t/log");
        client.log_create_store(store.clone()).await.unwrap();
        client
            .log_append(store.clone(), json!({"n": 1}))
            .await
            .unwrap();
        client
            .log_append_batch(store.clone(), vec![json!({"n": 2}), json!({"n": 3})])
            .await
            .unwrap();
        let recs = client.log_read(store.clone(), 0).await.unwrap();
        assert_eq!(recs.len(), 3);
        let rows = client
            .log_query(
                store.clone(),
                QuerySpec {
                    ops: vec![crate::proto::OpSpec::Filter {
                        expr: "this.n > 1".into(),
                    }],
                },
            )
            .await
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[tokio::test]
    async fn as_subject_switches_identity() {
        let (_, _, client) = in_process(Subject::operator("a"));
        let other = client.as_subject(Subject::integrator("b"));
        assert_eq!(other.subject().to_string(), "integrator:b");
        assert_eq!(client.subject().to_string(), "operator:a");
    }

    /// A replicated profile behaves the same through a node's loopback as
    /// through its socket — quorum state attached, follower fenced — and
    /// bare exchanges, which could only serve it un-replicated, refuse it.
    #[tokio::test]
    async fn replicated_profile_needs_the_nodes_replication_runtime() {
        let replicated = ProfileSpec::Replicated { acks: 1 };
        let (object, _, bare) = in_process(Subject::operator("t"));
        let err = bare
            .create_store(StoreId::new("r/bare"), replicated.clone())
            .await
            .unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "{err:?}");
        assert!(object.store(&StoreId::new("r/bare")).is_err());

        let server = ExchangeServer::bind_ephemeral().await.unwrap();
        let local = server.loopback(Subject::operator("t"));
        let wire = TcpClient::connect(server.local_addr(), Subject::operator("t"))
            .await
            .unwrap();
        local
            .create_store(StoreId::new("r/local"), replicated.clone())
            .await
            .unwrap();
        wire.create_store(StoreId::new("r/wire"), replicated)
            .await
            .unwrap();
        for id in ["r/local", "r/wire"] {
            let store = server.object.store(&StoreId::new(id)).unwrap();
            assert!(store.repl().is_some(), "{id} has no quorum state");
        }
        server.repl().set_follower();
        for client in [&local as &dyn ExchangeApi, &wire] {
            let err = client
                .create(StoreId::new("r/local"), ObjectKey::new("a"), json!(1))
                .await
                .unwrap_err();
            assert!(matches!(err, Error::NotLeader { .. }), "{err:?}");
        }
        server.shutdown().await;
    }

    #[tokio::test]
    async fn stream_request_through_call_is_a_typed_error() {
        let (_, _, client) = in_process(Subject::operator("test"));
        let store = StoreId::new("t/s");
        let from = Revision::ZERO;
        for request in [
            Request::Watch {
                store: store.clone(),
                from,
            },
            Request::ReplSubscribe {
                store: store.clone(),
                from,
            },
            Request::LogTail { store, from: 0 },
        ] {
            let err = client.call(request).await.unwrap_err();
            assert!(matches!(err, Error::Internal(_)), "{err:?}");
        }
    }
}
