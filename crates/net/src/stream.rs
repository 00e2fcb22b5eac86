//! The stream waist: one subscription type from store to integrator.
//!
//! [`Exchange::open`] answers a stream request (`Watch`, `ReplSubscribe`,
//! `LogTail`) with a [`Subscription`]: a boxed [`Stream`] of wire bodies
//! ([`EventBody`]) that is polled *by its consumer*. A layer that wraps a
//! stream is therefore an adaptor — its `poll_next` calls the inner one —
//! never a forwarder task plus an intermediate channel. A stream that
//! returns `None` has ended for good; what to do about that is decided in
//! exactly one of two places: the resume adaptor below, or the consumer
//! (an integrator's run loop re-opens from its own resume point).
//!
//! Each stream concern is written once, here:
//!
//! * [`resume`] — the dense-sequence rule ([`dense`]) and the stream-end
//!   rule over any [`Exchange`] that says how to open from a position, for
//!   client watches, log tails and a follower's replication feed alike;
//! * [`establish`] — open from a position, and the one place a position
//!   that has left its store's retained window is recovered (every store
//!   cursor has the same fall-off contract, `knactor_types::window`): a
//!   watch re-lists ([`Position::relist`]), a tail jumps to the retention
//!   horizon behind one typed `Lagged`;
//! * [`Merge`] — n streams polled round-robin, ending when any ends.

use crate::api::{misrouted, BoxFuture, Exchange, ExchangeApi};
use crate::proto::{EventBody, Request};
use knactor_store::{EventKind, StoredObject, WatchEvent};
use knactor_types::{Error, ObjectKey, Result, Revision, Value};
use std::collections::{BTreeSet, VecDeque};
use std::future::poll_fn;
use std::sync::Arc;
use std::task::{ready, Context, Poll, Waker};

/// What a layer implements to be a stream.
pub trait Stream: Send {
    /// The next event; `Ready(None)` once the stream has ended.
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>>;
}

/// An open stream, as every [`Exchange`] returns it and every layer wraps
/// it. `ExchangeApi::{watch, log_tail}` turn it into typed events.
pub struct Subscription {
    stream: Box<dyn Stream>,
    /// This stream is the output of [`resume`]: already in order, exactly
    /// once, and carrying re-list events whose revisions are *not* dense.
    /// An outer resume adaptor tracks its position but must not re-check
    /// density.
    resumed: bool,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Subscription")
    }
}

/// One poll with a no-op waker: what is ready now, or `None`.
fn poll_now<T>(poll: impl FnOnce(&mut Context<'_>) -> Poll<Option<T>>) -> Option<T> {
    match poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(next) => next,
        Poll::Pending => None,
    }
}

impl Subscription {
    pub fn new(stream: impl Stream + 'static) -> Subscription {
        Subscription {
            stream: Box::new(stream),
            resumed: false,
        }
    }

    pub fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
        self.stream.poll_next(cx)
    }

    /// The next event; `None` once the stream has ended.
    pub async fn recv(&mut self) -> Option<EventBody> {
        poll_fn(|cx| self.poll_next(cx)).await
    }

    /// An event that is already available, without waiting. It replaces
    /// the stream's registered waker with a no-op one, so a caller that
    /// gets `None` must come back through [`Subscription::recv`] — as every
    /// drain loop does — to be woken for the next event.
    pub fn try_recv(&mut self) -> Option<EventBody> {
        poll_now(|cx| self.poll_next(cx))
    }
}

/// Several streams merged into one and typed; an event carries the index
/// of the member it came from. Members are polled round-robin, so one busy
/// member cannot starve the others, and the merge **ends as soon as any
/// member ends** (or yields a body `view` cannot type): its consumer
/// re-opens all of them from their resume points rather than keep
/// listening to a stream with a silent hole in it.
pub struct Merge<T> {
    /// Events to deliver before the members' own: a re-list's output.
    queued: VecDeque<(usize, T)>,
    members: Vec<Subscription>,
    view: fn(EventBody) -> Option<T>,
    /// The member polled first next time.
    first: usize,
    ended: bool,
}

impl<T> Merge<T> {
    pub fn new(members: Vec<Subscription>, view: fn(EventBody) -> Option<T>) -> Merge<T> {
        Merge {
            queued: VecDeque::new(),
            members,
            view,
            first: 0,
            ended: false,
        }
    }

    /// Deliver `events`, as member `index`'s, ahead of everything else.
    pub fn queue(&mut self, index: usize, events: impl IntoIterator<Item = EventBody>) {
        let typed = events.into_iter().filter_map(self.view);
        self.queued.extend(typed.map(|event| (index, event)));
    }

    pub fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<(usize, T)>> {
        if let Some(event) = self.queued.pop_front() {
            return Poll::Ready(Some(event));
        }
        let n = self.members.len();
        if self.ended {
            return Poll::Ready(None);
        }
        for index in (0..n).map(|k| (self.first + k) % n) {
            if let Poll::Ready(next) = self.members[index].poll_next(cx) {
                self.first = (index + 1) % n;
                let next = next.and_then(self.view);
                self.ended = next.is_none();
                return Poll::Ready(next.map(|event| (index, event)));
            }
        }
        Poll::Pending
    }

    pub async fn recv(&mut self) -> Option<(usize, T)> {
        poll_fn(|cx| self.poll_next(cx)).await
    }

    /// See [`Subscription::try_recv`].
    pub fn try_recv(&mut self) -> Option<(usize, T)> {
        poll_now(|cx| self.poll_next(cx))
    }
}

/// Where a consumer stands in a stream: the cursor a re-open continues
/// from.
#[derive(Default)]
pub struct Position {
    /// Last revision (watch, replication feed) or sequence number (tail)
    /// delivered.
    at: u64,
    /// Watch only: the keys believed alive, so a re-list can report the
    /// ones that vanished while the watch was down.
    known: BTreeSet<ObjectKey>,
}

/// What the dense-sequence rule makes of one event.
#[derive(Debug, PartialEq)]
enum Verdict {
    Deliver,
    Duplicate,
    Gap,
}

/// The dense-sequence rule. Store revisions and log sequence numbers grow
/// by exactly one per commit, so against the cursor an event is the
/// successor (deliver it), at or behind the cursor (a replay after a
/// re-open, or a duplicated frame: drop it), or further ahead (a frame was
/// lost: do not deliver out of order, re-open from the cursor and let the
/// server replay the missing range).
fn dense(cursor: u64, at: u64) -> Verdict {
    if at <= cursor {
        Verdict::Duplicate
    } else if at == cursor + 1 {
        Verdict::Deliver
    } else {
        Verdict::Gap
    }
}

impl Position {
    /// Where `request` — a `Watch`, `ReplSubscribe` or `LogTail` — starts.
    pub fn of(request: &Request) -> Result<Position> {
        let at = match request {
            Request::Watch { from, .. } | Request::ReplSubscribe { from, .. } => from.0,
            Request::LogTail { from, .. } => *from,
            other => return Err(misrouted(other, "a stream")),
        };
        Ok(Position {
            at,
            ..Position::default()
        })
    }

    /// Judge `body` against the cursor and, when it is to be delivered,
    /// move past it. `resumed`: see [`Subscription`].
    fn admit(&mut self, body: &EventBody, resumed: bool) -> Verdict {
        let (at, verdict) = match body {
            EventBody::Object { event } => (event.revision.0, dense(self.at, event.revision.0)),
            EventBody::Record { record } => (record.seq, dense(self.at, record.seq)),
            // An inner resumed stream's own recovery (only [`establish`]
            // says `Lagged`): pass it on and jump the cursor with it.
            EventBody::Lagged { resume_from, .. } => {
                (resume_from.saturating_sub(1), Verdict::Deliver)
            }
            // The stream's last words: treat like its end.
            EventBody::WatchLagged { .. } | EventBody::Closed => return Verdict::Gap,
        };
        if verdict != Verdict::Deliver && !resumed {
            return verdict;
        }
        self.at = self.at.max(at);
        if let EventBody::Object { event } = body {
            match event.kind {
                EventKind::Created | EventKind::Updated => self.known.insert(event.key.clone()),
                EventKind::Deleted => self.known.remove(&event.key),
            };
        }
        Verdict::Deliver
    }

    /// The one re-list: turn a fresh listing into the synthetic events a
    /// watcher that resumed too late needs — `Updated` for every object
    /// changed past the cursor (in revision order), then `Deleted` (at the
    /// listing revision) for the known keys that vanished — and move the
    /// cursor to the listing revision.
    fn relist(&mut self, objects: Vec<StoredObject>, revision: Revision) -> Vec<EventBody> {
        let listed: BTreeSet<ObjectKey> = objects.iter().map(|o| o.key.clone()).collect();
        let mut changed: Vec<StoredObject> = objects
            .into_iter()
            .filter(|o| o.revision.0 > self.at)
            .collect();
        changed.sort_by_key(|o| o.revision);
        let updated = changed.into_iter().map(|o| WatchEvent {
            revision: o.revision,
            kind: EventKind::Updated,
            key: o.key,
            value: o.value,
        });
        let deleted = self.known.difference(&listed).map(|key| WatchEvent {
            revision,
            kind: EventKind::Deleted,
            key: key.clone(),
            value: Arc::new(Value::Null),
        });
        let events = updated
            .chain(deleted)
            .map(|event| EventBody::Object { event })
            .collect();
        self.known = listed;
        self.at = self.at.max(revision.0);
        events
    }
}

/// Synthetic recovery events to deliver first, then the live stream.
pub type Established = (VecDeque<EventBody>, Subscription);

/// Open `request` (a `Watch`, `ReplSubscribe` or `LogTail`) from `position`
/// instead of its own `from` — the one place a position that has left its
/// store's retained window ([`Error::WatchTooOld`]) is recovered:
///
/// * a watch re-lists and opens from the listing revision — which on a
///   busy store may be too old again by then, and is then re-listed again;
/// * a tail's records are gone: it opens from the retention horizon, and
///   the one `Lagged { missed, resume_from }` queued ahead of the stream
///   says how many records it lost;
/// * a replication feed has no recovery here: its follower re-syncs.
pub async fn establish(
    exchange: &dyn Exchange,
    request: &Request,
    position: &mut Position,
) -> Result<Established> {
    let mut synthetic = VecDeque::new();
    let start = position.at;
    loop {
        let mut request = request.clone();
        match &mut request {
            Request::Watch { from, .. } | Request::ReplSubscribe { from, .. } => {
                *from = Revision(position.at)
            }
            Request::LogTail { from, .. } => *from = position.at,
            _ => {}
        }
        match (exchange.open(request.clone()).await, request) {
            (Err(Error::WatchTooOld { .. }), Request::Watch { store, .. }) => {
                let (objects, revision) = exchange.list(store).await?;
                synthetic.extend(position.relist(objects, revision));
            }
            (Err(Error::WatchTooOld { oldest, .. }), Request::LogTail { .. }) => {
                position.at = oldest - 1;
            }
            (opened, request) => {
                if matches!(request, Request::LogTail { .. }) && position.at > start {
                    synthetic.push_back(EventBody::Lagged {
                        missed: position.at - start,
                        resume_from: position.at + 1,
                    });
                }
                return opened.map(|stream| (synthetic, stream));
            }
        }
    }
}

/// A stream that survives the stream it was opened on. Events pass the
/// dense-sequence rule; on a gap, or when the inner stream ends, it is
/// re-[`establish`]ed on `exchange` from the position reached. Only a
/// re-open that fails — `exchange` gave up, or the error is not one time
/// heals — ends it.
struct Resume {
    /// How to open from a position: retry on the current connection, the
    /// next node of a replica set, ...
    exchange: Arc<dyn Exchange>,
    request: Request,
    position: Position,
    /// Re-list output, delivered ahead of the stream opened after it.
    synthetic: VecDeque<EventBody>,
    state: State,
}

enum State {
    Live(Subscription),
    Opening(BoxFuture<'static, (Position, Result<Established>)>),
    Ended,
}

/// Open `request` on `exchange` as a stream that resumes (see `Resume`).
/// The first open happens here, so hard errors (forbidden, unknown store)
/// reach the caller instead of silently ending the stream later.
pub async fn resume(exchange: Arc<dyn Exchange>, request: Request) -> Result<Subscription> {
    let mut position = Position::of(&request)?;
    let (synthetic, stream) = establish(&*exchange, &request, &mut position).await?;
    let state = State::Live(stream);
    Ok(Subscription {
        stream: Box::new(Resume {
            exchange,
            request,
            position,
            synthetic,
            state,
        }),
        resumed: true,
    })
}

impl Stream for Resume {
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Option<EventBody>> {
        loop {
            if let Some(body) = self.synthetic.pop_front() {
                return Poll::Ready(Some(body));
            }
            match &mut self.state {
                State::Ended => return Poll::Ready(None),
                State::Opening(opening) => {
                    let (position, opened) = ready!(opening.as_mut().poll(cx));
                    self.position = position;
                    self.state = match opened {
                        Ok((synthetic, stream)) => {
                            self.synthetic = synthetic;
                            State::Live(stream)
                        }
                        Err(_) => State::Ended,
                    };
                }
                State::Live(stream) => {
                    if let Some(body) = ready!(stream.poll_next(cx)) {
                        match self.position.admit(&body, stream.resumed) {
                            Verdict::Deliver => return Poll::Ready(Some(body)),
                            Verdict::Duplicate => continue,
                            Verdict::Gap => {}
                        }
                    }
                    // A gap or a dead stream either way: resume from the
                    // position.
                    let exchange = Arc::clone(&self.exchange);
                    let request = self.request.clone();
                    let mut position = std::mem::take(&mut self.position);
                    self.state = State::Opening(Box::pin(async move {
                        let opened = establish(&*exchange, &request, &mut position).await;
                        (position, opened)
                    }));
                }
            }
        }
    }
}
