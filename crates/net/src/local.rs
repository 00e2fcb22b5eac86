//! The local dispatcher: one interpretation of [`Request`] against
//! in-process exchanges, shared by the TCP server's connection loop and
//! [`crate::loopback::LoopbackClient`].
//!
//! Access control and engine-profile latency are applied here: they are
//! properties of the exchange, not of the transport. What differs between
//! deployments is what the dispatcher is constructed with — a serving
//! node hands it its [`ReplRuntime`], a bare in-process exchange does not.

use crate::api::misrouted;
use crate::proto::{EventBody, Request, Response};
use crate::replica::ReplRuntime;
use crate::stream::Stream;
use knactor_logstore::{LogExchange, TailEvent, TailRx};
use knactor_rbac::Subject;
use knactor_store::handle::WatchStream;
use knactor_store::store::StoreWatch;
use knactor_store::{BatchOp, DataExchange, ReplState, WatchEvent};
use knactor_types::{metrics, Error, Result, StoreId};
use std::future::Future;
use std::path::PathBuf;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

/// How long a `ReplWait` barrier may block before reporting the replica
/// as behind. Bounded well under client request timeouts.
const REPL_WAIT_TIMEOUT: Duration = Duration::from_secs(3);

/// In-process Object + Log exchanges behind the [`Request`] vocabulary.
#[derive(Clone)]
pub struct LocalExchange {
    pub(crate) object: Arc<DataExchange>,
    pub(crate) log: Arc<LogExchange>,
    /// Where durable profiles root their WAL files.
    pub(crate) data_dir: PathBuf,
    /// This node's replication role, when it has one. With a runtime,
    /// replicated stores get their quorum state attached at creation and
    /// their mutations are fenced to the leader; without one there is no
    /// fence (the follower apply path relies on that) and a replicated
    /// profile is refused rather than silently served un-replicated.
    pub(crate) repl: Option<Arc<ReplRuntime>>,
}

impl LocalExchange {
    /// Reject client mutations of replicated stores on non-leader nodes.
    /// Unknown stores pass: the op will fail with its own `NotFound`.
    fn fence(&self, store: &StoreId) -> Result<()> {
        let Some(repl) = self.repl.as_ref().filter(|r| !r.is_leader()) else {
            return Ok(());
        };
        let replicated = self
            .object
            .store(store)
            .map(|s| s.repl().is_some() || s.profile().repl_acks > 0)
            .unwrap_or(false);
        if replicated {
            return Err(Error::NotLeader {
                epoch: repl.epoch(),
            });
        }
        Ok(())
    }

    fn runtime(&self) -> Result<&Arc<ReplRuntime>> {
        self.repl
            .as_ref()
            .ok_or_else(|| Error::Internal("this exchange has no replication runtime".to_string()))
    }

    /// Execute one request as `subject`.
    pub async fn call(&self, subject: &Subject, request: Request) -> Result<Response> {
        let handle = |store: &StoreId| self.object.handle(store, subject.clone());
        let revision = |revision| Ok(Response::Revision { revision });
        match request {
            Request::Ping => Ok(Response::Pong),
            Request::CreateStore { store, profile } => {
                let profile = profile.materialize(&self.data_dir, &store);
                if profile.repl_acks == 0 {
                    self.object.create_store(store, profile)?;
                } else {
                    // Replicated store: wire its quorum state to this node's
                    // role flag (quorum waits are live only while leading).
                    let flag = self.runtime()?.leading_flag();
                    let created = self.object.create_store(store.clone(), profile)?;
                    created.attach_repl(ReplState::new(&store, flag));
                }
                Ok(Response::Ok)
            }
            Request::Create { store, key, value } => {
                self.fence(&store)?;
                revision(handle(&store)?.create(key, value).await?)
            }
            Request::Get { store, key } => Ok(Response::Object {
                object: handle(&store)?.get(&key).await?,
            }),
            Request::List { store } => {
                let (objects, revision) = handle(&store)?.list().await?;
                Ok(Response::Objects { objects, revision })
            }
            Request::Update {
                store,
                key,
                value,
                expected,
            } => {
                self.fence(&store)?;
                revision(handle(&store)?.update(&key, value, expected).await?)
            }
            Request::Patch {
                store,
                key,
                patch,
                upsert,
            } => {
                self.fence(&store)?;
                revision(handle(&store)?.patch(&key, patch, upsert).await?)
            }
            Request::Delete { store, key } => {
                self.fence(&store)?;
                revision(handle(&store)?.delete(&key).await?)
            }
            Request::BatchGet { store, keys } => Ok(Response::Batch {
                items: handle(&store)?.batch_get(&keys).await?,
            }),
            Request::BatchPut { store, items } => {
                self.fence(&store)?;
                let ops = items.into_iter().map(BatchOp::from).collect();
                Ok(Response::Batch {
                    items: handle(&store)?.batch_commit(ops).await?,
                })
            }
            Request::BatchCommit { store, ops } => {
                self.fence(&store)?;
                Ok(Response::Batch {
                    items: handle(&store)?.batch_commit(ops).await?,
                })
            }
            Request::RegisterConsumer {
                store,
                key,
                consumer,
            } => {
                handle(&store)?.register_consumer(&key, &consumer).await?;
                Ok(Response::Ok)
            }
            Request::MarkProcessed {
                store,
                key,
                consumer,
            } => Ok(Response::Collected {
                keys: handle(&store)?.mark_processed(&key, &consumer).await?,
            }),
            Request::RegisterSchema { schema } => {
                self.object.register_schema(schema)?;
                Ok(Response::Ok)
            }
            Request::BindSchema { store, schema } => {
                self.object.bind_schema(&store, &schema)?;
                Ok(Response::Ok)
            }
            Request::GetSchema { schema } => Ok(Response::Schema {
                schema: self.object.schema(&schema)?,
            }),
            Request::RegisterUdf {
                name,
                inputs,
                assignments,
            } => {
                self.object.register_udf(name, inputs, &assignments)?;
                Ok(Response::Ok)
            }
            Request::ExecuteUdf { name, bindings } => {
                // Pushing logic down still costs one command round trip to
                // the exchange (what Redis Functions cost); model it with the
                // priciest bound store's per-op delays once, instead of once
                // per read/write as the non-pushdown path pays.
                let mut round_trip = Duration::ZERO;
                for b in &bindings {
                    if let Ok(store) = self.object.store(&b.store) {
                        let p = store.profile();
                        round_trip = round_trip.max(p.read_delay + p.write_delay);
                    }
                }
                knactor_store::profile::precise_sleep(round_trip).await;
                let revisions = self.object.execute_udf(subject, &name, &bindings)?;
                Ok(Response::Revisions {
                    revisions: revisions.into_iter().collect(),
                })
            }
            Request::Transact { ops } => {
                for op in &ops {
                    self.fence(&op.store)?;
                }
                let revisions = self.object.transact(subject, &ops)?;
                Ok(Response::Revisions {
                    revisions: revisions.into_iter().collect(),
                })
            }
            Request::LogCreateStore { store } => {
                self.log.create_store(store)?;
                Ok(Response::Ok)
            }
            Request::LogAppend { store, fields } => Ok(Response::Seq {
                seq: self.log.ingest(&subject.to_string(), &store, fields)?,
            }),
            Request::LogAppendBatch { store, batch } => Ok(Response::Seq {
                seq: self.log.ingest_batch(&subject.to_string(), &store, batch)?,
            }),
            Request::LogRead { store, from } => Ok(Response::Records {
                records: self.log.store(&store)?.read_from(from),
            }),
            Request::LogQuery { store, query } => {
                let compiled = query.compile()?;
                Ok(Response::Rows {
                    rows: self.log.query(&subject.to_string(), &store, &compiled)?,
                })
            }
            Request::ReplAck {
                store,
                follower,
                revision,
            } => {
                // Acks against a store with no attached ReplState (e.g. a
                // non-replicated profile) are harmless no-ops.
                let target = self.object.store(&store)?;
                if let Some(repl) = target.repl() {
                    repl.ack(&follower, revision, target.revision());
                }
                Ok(Response::Ok)
            }
            Request::ReplStatus => {
                let applied = self
                    .object
                    .store_ids()
                    .into_iter()
                    .filter_map(|id| self.object.store(&id).ok().map(|s| (id, s.revision())))
                    .collect();
                // A bare exchange is its own leader, like a freshly bound node.
                let (leader, epoch) = match &self.repl {
                    Some(repl) => (repl.is_leader(), repl.epoch()),
                    None => (true, 0),
                };
                Ok(Response::ReplStatus {
                    leader,
                    epoch,
                    applied,
                })
            }
            Request::ReplPromote { epoch } => {
                self.runtime()?.promote(epoch)?;
                Ok(Response::Ok)
            }
            Request::ReplWait { store, revision } => {
                // Read-your-writes barrier: block (bounded) until this node's
                // copy of the store has applied at least `revision`, woken by
                // the apply itself.
                let store = self.object.store(&store)?;
                let applied = store.revision_reached(revision);
                match tokio::time::timeout(REPL_WAIT_TIMEOUT, applied).await {
                    Ok(revision) => Ok(Response::Revision { revision }),
                    Err(_) => Err(Error::Timeout(format!(
                        "replica at revision {} has not applied {}",
                        store.revision().0,
                        revision.0
                    ))),
                }
            }
            Request::Metrics => Ok(Response::Metrics {
                snapshot: metrics::global().snapshot(),
            }),
            // Streams are opened, not called; subscription ids are a
            // connection's business.
            stream @ (Request::Watch { .. }
            | Request::ReplSubscribe { .. }
            | Request::LogTail { .. }
            | Request::Unwatch { .. }) => Err(misrouted(&stream, "call")),
        }
    }

    /// Open the stream a `Watch`, `ReplSubscribe` or `LogTail` names: a
    /// cursor over the store's retained window, refused with
    /// `WatchTooOld` when its start has already left it.
    pub fn open(&self, subject: &Subject, request: Request) -> Result<LocalStream> {
        match request {
            Request::Watch { store, from } => Ok(LocalStream::Watch(
                self.object
                    .handle(&store, subject.clone())?
                    .watch_from(from)?,
            )),
            // Replication stream: the raw store watch (no RBAC handle, no
            // profile delivery delays) — followers mirror commit order,
            // they are not clients.
            Request::ReplSubscribe { store, from } => Ok(LocalStream::Repl(
                self.object.store(&store)?.watch_from(from)?,
            )),
            Request::LogTail { store, from } => {
                Ok(LocalStream::Tail(self.log.store(&store)?.tail_from(from)?))
            }
            other => Err(misrouted(&other, "open")),
        }
    }
}

/// A stream opened on a [`LocalExchange`]: the in-process subscription.
/// The server's push pump and a loopback consumer read the same thing —
/// a cursor over what the store retains — so neither buffers events, and
/// every kind ends the same way.
pub enum LocalStream {
    Watch(WatchStream),
    Repl(StoreWatch),
    Tail(TailRx),
}

fn object_body(event: WatchEvent) -> EventBody {
    EventBody::Object { event }
}

/// A store's tail yields records only (`Lagged` is `stream::establish`'s).
fn record_body(event: TailEvent) -> Option<EventBody> {
    let TailEvent::Record(record) = event else {
        return None;
    };
    Some(EventBody::Record { record })
}

impl LocalStream {
    /// Next event as a wire body; `None` when the stream ended.
    pub async fn recv(&mut self) -> Option<EventBody> {
        match self {
            LocalStream::Watch(s) => s.recv().await.map(object_body),
            LocalStream::Repl(s) => s.recv().await.map(object_body),
            LocalStream::Tail(t) => t.recv().await.and_then(record_body),
        }
    }

    /// An event that is already available, without waiting.
    pub fn try_recv(&mut self) -> Option<EventBody> {
        match self {
            LocalStream::Watch(s) => s.try_recv().map(object_body),
            LocalStream::Repl(s) => s.try_recv().map(object_body),
            LocalStream::Tail(t) => t.try_recv().and_then(record_body),
        }
    }

    /// The body that closes the stream: a cursor that fell off its
    /// store's retained window — watch, feed or tail alike — says where it
    /// stopped, so the client recovers from there; an ordinary close says
    /// so plainly.
    pub fn end(&self) -> EventBody {
        let stopped = match self {
            LocalStream::Watch(s) => s.lag_resume_from(),
            LocalStream::Repl(s) => s.lag_resume_from(),
            LocalStream::Tail(t) => t.lag_resume_from(),
        };
        stopped.map_or(EventBody::Closed, |resume_from| EventBody::WatchLagged {
            resume_from,
        })
    }
}

impl Stream for LocalStream {
    /// Every `recv` above keeps its state in the stream, not in the
    /// future, so a fresh future per poll loses nothing.
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
        pin!(self.recv()).poll(cx)
    }
}
