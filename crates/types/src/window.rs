//! One cursor over every retained sequence.
//!
//! Both data exchanges keep their recent history in one place and let every
//! reader follow it there: the Object DE's ring of committed events, the Log
//! DE's segments (and, through the Object DE, a follower's replication feed).
//! Each is *dense* — the k-th item after position `p` is at `p + k` — and
//! *bounded*: the oldest items leave as new ones arrive. A [`Window`] is such
//! a sequence plus its one wake and its reader bookkeeping; a [`Cursor`] is a
//! reader over it. The sequence implements one thing,
//! [`Retained::read_after`]; what a reader does is written here, once:
//!
//! * it reads a bounded chunk ([`CHUNK`]) after its position, under the
//!   sequence's own lock, and hands it out item by item — a cursor holds at
//!   most one chunk, the window nothing per reader;
//! * it waits on the window's wake, a `watch<u64>` the writer sends after
//!   releasing its locks;
//! * **the one fall-off contract**: a cursor whose next position has left the
//!   window ends (`recv` is `None`) and says where it stopped
//!   ([`Cursor::lag_resume_from`]); it is never ended while that position is
//!   still retained, and opening one behind the window is
//!   [`Error::WatchTooOld`]. Recovering is the consumer's business (for the
//!   exchange, `knactor_net::stream::establish`);
//! * it is counted: a gauge of live cursors, a counter of cursors that fell
//!   off (counted when their reader finds out).

use crate::error::{Error, Result};
use crate::metrics::{Counter, Gauge};
use std::collections::VecDeque;
use std::sync::Arc;
use tokio::sync::watch;

/// Most items one read hands a cursor: what a slow reader can hold.
pub const CHUNK: usize = 256;

/// A dense, bounded sequence cursors can read.
pub trait Retained: Send + Sync + 'static {
    type Item: Send + 'static;

    /// Append to `out` up to `max` items after position `after`, in order
    /// (the k-th is at `after + k`), or report `Err(oldest)` when `after + 1`
    /// is no longer retained.
    fn read_after(
        &self,
        after: u64,
        max: usize,
        out: &mut VecDeque<Self::Item>,
    ) -> std::result::Result<(), u64>;
}

/// A retained sequence, its wake and its reader bookkeeping — shared by the
/// writer and every cursor.
pub struct Window<S> {
    retained: S,
    wake: watch::Sender<u64>,
    /// Open cursors.
    live: Arc<Gauge>,
    /// Cursors that fell off.
    cutoffs: Arc<Counter>,
}

impl<S: Retained> Window<S> {
    pub fn new(retained: S, live: Arc<Gauge>, cutoffs: Arc<Counter>) -> Arc<Window<S>> {
        Arc::new(Window {
            retained,
            wake: watch::channel(0).0,
            live,
            cutoffs,
        })
    }

    pub fn retained(&self) -> &S {
        &self.retained
    }

    /// Wake every waiting cursor: `head` is the newest position written.
    /// Sent with the sequence's locks released.
    pub fn announce(&self, head: u64) {
        let _ = self.wake.send(head);
    }

    /// The wake, for a waiter that is not a cursor.
    pub fn subscribe(&self) -> watch::Receiver<u64> {
        self.wake.subscribe()
    }

    /// A cursor after `from` that finds out at its first read whether
    /// `from + 1` is still retained (and falls off if not).
    pub fn cursor(self: &Arc<Self>, from: u64) -> Cursor<S> {
        // Subscribed before the first read: nothing written in between can
        // go unannounced.
        let wake = self.wake.subscribe();
        self.live.add(1);
        Cursor {
            window: Arc::clone(self),
            wake,
            at: from,
            chunk: VecDeque::new(),
            fell_off: false,
        }
    }

    /// A cursor after `from`, or [`Error::WatchTooOld`] when `from + 1` has
    /// already left the window.
    pub fn open(self: &Arc<Self>, from: u64) -> Result<Cursor<S>> {
        let cursor = self.cursor(from);
        match self.retained.read_after(from, 0, &mut VecDeque::new()) {
            Err(oldest) => Err(Error::WatchTooOld { from, oldest }),
            Ok(()) => Ok(cursor),
        }
    }
}

/// A reader over a [`Window`]: the position of the last item it handed out
/// and at most one chunk read after it. It costs the window nothing while
/// it is not read.
pub struct Cursor<S: Retained> {
    window: Arc<Window<S>>,
    wake: watch::Receiver<u64>,
    /// Position of the last item handed out; the next is `at + 1`.
    at: u64,
    /// Items read after `at`, not handed out yet.
    chunk: VecDeque<S::Item>,
    /// `at + 1` was found to have left the window: the cursor is over.
    fell_off: bool,
}

impl<S: Retained> Cursor<S> {
    /// The next item; `None` once the cursor fell off.
    pub async fn recv(&mut self) -> Option<S::Item> {
        loop {
            if let Some(item) = self.try_recv() {
                return Some(item);
            }
            if self.fell_off {
                return None;
            }
            // `changed` compares against the version seen before the read:
            // a write landing in between completes this wait.
            self.wake.changed().await.ok()?;
        }
    }

    /// The next item if it is already written, without waiting.
    pub fn try_recv(&mut self) -> Option<S::Item> {
        if self.chunk.is_empty() && !self.fell_off {
            let read = self
                .window
                .retained
                .read_after(self.at, CHUNK, &mut self.chunk);
            if read.is_err() {
                self.fell_off = true;
                self.window.cutoffs.inc();
            }
        }
        let item = self.chunk.pop_front()?;
        self.at += 1;
        Some(item)
    }

    /// Position of the last item handed out.
    pub fn position(&self) -> u64 {
        self.at
    }

    /// `Some(position)` once the cursor has fallen off the window (the first
    /// missed item is at `position + 1`).
    pub fn lag_resume_from(&self) -> Option<u64> {
        self.fell_off.then_some(self.at)
    }
}

impl<S: Retained> Drop for Cursor<S> {
    fn drop(&mut self) {
        self.window.live.sub(1);
    }
}

impl<S: Retained> std::fmt::Debug for Cursor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("at", &self.at)
            .field("fell_off", &self.fell_off)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    /// The last `cap` of the numbers appended so far: item `n` is at `n`.
    struct Numbers {
        cap: usize,
        kept: RwLock<VecDeque<u64>>,
    }

    impl Retained for Numbers {
        type Item = u64;

        fn read_after(
            &self,
            after: u64,
            max: usize,
            out: &mut VecDeque<u64>,
        ) -> std::result::Result<(), u64> {
            let kept = self.kept.read().unwrap();
            let head = kept.back().copied().unwrap_or(0);
            let oldest = head + 1 - kept.len() as u64;
            if after + 1 < oldest {
                return Err(oldest);
            }
            let start = ((after + 1 - oldest) as usize).min(kept.len());
            out.extend(kept.range(start..).take(max));
            Ok(())
        }
    }

    fn window(cap: usize) -> (Arc<Window<Numbers>>, Arc<Gauge>, Arc<Counter>) {
        let (live, cutoffs) = (Arc::new(Gauge::default()), Arc::new(Counter::default()));
        let numbers = Numbers {
            cap,
            kept: RwLock::new(VecDeque::new()),
        };
        let window = Window::new(numbers, Arc::clone(&live), Arc::clone(&cutoffs));
        (window, live, cutoffs)
    }

    fn append(window: &Window<Numbers>, n: u64) {
        let numbers = window.retained();
        {
            let mut kept = numbers.kept.write().unwrap();
            for _ in 0..n {
                let next = kept.back().copied().unwrap_or(0) + 1;
                kept.push_back(next);
                if kept.len() > numbers.cap {
                    kept.pop_front();
                }
            }
        }
        window.announce(numbers.kept.read().unwrap().back().copied().unwrap_or(0));
    }

    fn drain(cursor: &mut Cursor<Numbers>) -> Vec<u64> {
        std::iter::from_fn(|| cursor.try_recv()).collect()
    }

    #[test]
    fn every_retained_item_once_densely_in_order() {
        let (window, ..) = window(1000);
        append(&window, 3);
        let mut cursor = window.open(1).unwrap();
        assert_eq!(drain(&mut cursor), [2, 3]);
        // More than one chunk, written while the cursor was idle: one read
        // takes a chunk, no more.
        append(&window, CHUNK as u64 + 5);
        assert_eq!(cursor.try_recv(), Some(4));
        assert_eq!(cursor.chunk.len(), CHUNK - 1);
        let got = drain(&mut cursor);
        assert_eq!(got, (5..=CHUNK as u64 + 8).collect::<Vec<_>>());
        assert_eq!(cursor.position(), CHUNK as u64 + 8);
        assert_eq!(cursor.lag_resume_from(), None);
    }

    #[test]
    fn items_already_read_outlive_their_eviction() {
        let (window, ..) = window(4);
        append(&window, 4);
        let mut cursor = window.open(0).unwrap();
        assert_eq!(cursor.try_recv(), Some(1));
        // 2..=4 are in the cursor's chunk; the window moving on does not
        // take them back, and only then is the cursor behind it.
        append(&window, 6);
        assert_eq!(drain(&mut cursor), [2, 3, 4]);
        assert_eq!(cursor.lag_resume_from(), Some(4));
    }

    #[test]
    fn a_cursor_is_ended_only_once_its_next_position_has_left() {
        let (window, live, cutoffs) = window(4);
        let mut cursor = window.open(0).unwrap();
        append(&window, 4);
        assert_eq!(drain(&mut cursor), [1, 2, 3, 4]);
        // A whole window later 5 is still retained: the cursor is live.
        append(&window, 4);
        assert_eq!(cursor.try_recv(), Some(5));
        assert_eq!(cursor.lag_resume_from(), None);
        // One more window, and 9 has left before the cursor looked.
        append(&window, 5);
        assert_eq!(drain(&mut cursor), [6, 7, 8]);
        assert_eq!(cursor.lag_resume_from(), Some(8));
        assert_eq!((live.get(), cutoffs.get()), (1, 1));
        // It stays ended, counted once; re-opening where it stopped is
        // refused with the horizon.
        assert_eq!(cursor.try_recv(), None);
        assert_eq!(cutoffs.get(), 1);
        let refused = window.open(8).unwrap_err();
        assert_eq!(
            refused,
            Error::WatchTooOld {
                from: 8,
                oldest: 10
            }
        );
        assert!(window.open(9).is_ok());
        drop(cursor);
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn an_unchecked_cursor_behind_the_window_falls_off_at_its_first_read() {
        let (window, ..) = window(2);
        append(&window, 5);
        let mut cursor = window.cursor(1);
        assert_eq!(cursor.try_recv(), None);
        assert_eq!(cursor.lag_resume_from(), Some(1));
    }

    #[tokio::test]
    async fn a_blocked_reader_is_woken_by_the_next_write() {
        let (window, ..) = window(16);
        let mut cursor = window.open(0).unwrap();
        let reader = tokio::spawn(async move { (cursor.recv().await, cursor.recv().await) });
        append(&window, 2);
        assert_eq!(reader.await.unwrap(), (Some(1), Some(2)));
    }
}
