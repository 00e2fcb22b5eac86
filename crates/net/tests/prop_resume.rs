//! The dense-sequence rule as a property: [`stream::resume`] over a
//! scripted inner stream that duplicates, reorders and truncates what it
//! delivers. This is the rule every stream — client watch, log tail, a
//! follower's replication feed — is read through.
//!
//! A model leader holds the dense sequence `1..=total`. The k-th open
//! replays the k-th scripted burst of revisions — any of them, in any
//! order, repeated or missing — and then ends; once the script runs out an
//! open is refused, or (`catch_up`) served one last time in order from the
//! position asked for, as a healthy leader would.
//!
//! * **prefix integrity** — whatever the script, what the consumer gets is
//!   exactly a prefix of the leader's sequence: no holes, no duplicates, no
//!   reordering;
//! * **eventual parity** — with the in-order catch-up at the end, the
//!   consumer gets all of it.

use knactor_net::proto::{EventBody, Request, Response};
use knactor_net::stream::{self, Stream, Subscription};
use knactor_net::{BoxFuture, Exchange};
use knactor_store::{EventKind, WatchEvent};
use knactor_types::{Error, ObjectKey, Result, Revision, StoreId};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

fn event(revision: u64) -> EventBody {
    let event = WatchEvent {
        revision: Revision(revision),
        kind: EventKind::Created,
        key: ObjectKey::new(format!("k-{revision}")),
        value: Arc::new(serde_json::json!({ "rev": revision })),
    };
    EventBody::Object { event }
}

/// A wire that delivers what it is told and then closes.
struct Burst(VecDeque<EventBody>);

impl Stream for Burst {
    fn poll_next(&mut self, _: &mut Context<'_>) -> Poll<Option<EventBody>> {
        Poll::Ready(self.0.pop_front())
    }
}

struct Scripted {
    total: u64,
    bursts: Mutex<VecDeque<Vec<u64>>>,
    catch_up: Mutex<bool>,
}

impl Exchange for Scripted {
    fn call(&self, request: Request) -> BoxFuture<'_, Result<Response>> {
        Box::pin(async move { Err(Error::Internal(format!("{request:?} not scripted"))) })
    }

    fn open(&self, request: Request) -> BoxFuture<'_, Result<Subscription>> {
        let Request::ReplSubscribe { from, .. } = request else {
            unreachable!("only a replication feed is scripted")
        };
        let revisions = match self.bursts.lock().pop_front() {
            Some(burst) => burst,
            None if std::mem::take(&mut *self.catch_up.lock()) => {
                (from.0 + 1..=self.total).collect()
            }
            None => return Box::pin(async { Err(Error::Transport("script over".into())) }),
        };
        let burst = Burst(revisions.into_iter().map(event).collect());
        Box::pin(async move { Ok(Subscription::new(burst)) })
    }
}

/// Everything a resumed feed delivers over the script, in order.
fn delivered(total: u64, bursts: Vec<Vec<u64>>, catch_up: bool) -> Vec<u64> {
    let script = Scripted {
        total,
        bursts: Mutex::new(bursts.into()),
        catch_up: Mutex::new(catch_up),
    };
    let request = Request::ReplSubscribe {
        store: StoreId::new("prop/feed"),
        from: Revision::ZERO,
    };
    // A scripted open never waits, so neither does anything here.
    let opened = std::pin::pin!(stream::resume(Arc::new(script), request))
        .poll(&mut Context::from_waker(Waker::noop()));
    let Poll::Ready(Ok(mut feed)) = opened else {
        return Vec::new();
    };
    std::iter::from_fn(|| match feed.try_recv()? {
        EventBody::Object { event } => Some(event.revision.0),
        other => panic!("a feed carries object events, got {other:?}"),
    })
    .collect()
}

/// Up to ten opens' worth of deliveries, each up to a dozen raw draws —
/// mapped into `1..=total` (in any order) by [`scripted`].
fn any_script() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..12), 0..10)
}

fn scripted(total: u64, raw: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    let burst = |raw: Vec<u64>| raw.into_iter().map(|r| r % total + 1).collect();
    raw.into_iter().map(burst).collect()
}

proptest! {
    #[test]
    fn resume_delivers_an_exact_dense_prefix(total in 1u64..60, raw in any_script()) {
        let got = delivered(total, scripted(total, raw), false);
        let prefix: Vec<u64> = (1..=got.len() as u64).collect();
        prop_assert_eq!(got, prefix, "no holes, no duplicates, no reordering");
    }

    #[test]
    fn a_final_in_order_replay_reaches_parity(total in 1u64..50, raw in any_script()) {
        let got = delivered(total, scripted(total, raw), true);
        prop_assert_eq!(got, (1..=total).collect::<Vec<_>>());
    }
}
