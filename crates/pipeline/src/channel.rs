//! A bounded multi-producer multi-consumer channel built from one `Mutex`
//! and one `Condvar` — the only synchronization primitives the standard
//! library offers that compose into a capacity-bounded queue without
//! external crates.
//!
//! Why not `std::sync::mpsc`? Two reasons, both structural:
//!
//! 1. `mpsc` is single-consumer: a worker pool needs every worker pulling
//!    from the same injector, which forces an `Arc<Mutex<Receiver>>` wrapper
//!    whose lock serializes exactly the path that should scale.
//! 2. `mpsc::channel()` is unbounded — an overload does not push back, it
//!    allocates until the process dies. This crate's whole premise is that
//!    capacity is a first-class, visible limit (the `concurrency` rule in
//!    `rbd-lint` denies unbounded channel constructs for the same reason).
//!
//! The design is the textbook monitor, half of it: producers never wait —
//! a full channel refuses the item ([`Bounded::try_send`]) and the caller
//! decides — while consumers wait on `not_empty`, which every send and the
//! close notify. Closing is sticky and drains cleanly — `recv` keeps
//! returning queued items after `close()` and reports disconnection only
//! once the queue is empty, so no accepted item is ever lost to a shutdown
//! race.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The queue and the closed flag, guarded together so "closed" and "empty"
/// are always observed consistently.
#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC channel. All methods take `&self`; share it via `Arc`.
#[derive(Debug)]
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives (a `send`) or the channel closes.
    not_empty: Condvar,
    capacity: usize,
}

/// Why a non-blocking send did not take the value. The value comes back to
/// the caller either way — nothing is dropped silently.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity; backpressure applies.
    Full(T),
    /// The channel was closed; no further sends can ever succeed.
    Closed(T),
}

impl<T> Bounded<T> {
    /// Creates a channel holding at most `capacity` items. A zero capacity
    /// is rounded up to one: a channel that can never accept an item is a
    /// deadlock generator, not a rendezvous primitive.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Bounded {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Items currently queued. A snapshot — stale the moment it returns —
    /// but exact at the instant it was taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Queues the value only if there is room right now.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TrySendError::Closed(value));
        }
        if state.queue.len() >= self.capacity {
            return Err(TrySendError::Full(value));
        }
        state.queue.push_back(value);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item arrives; `None` means closed and fully
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Some(value);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the channel: future sends fail, queued items remain
    /// receivable, and every blocked receiver wakes up to observe the new
    /// state.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Locks the state, recovering from poisoning: the invariants here are
    /// maintained entirely by this module (no user code runs under the
    /// lock), so a poisoned mutex only means some *other* thread panicked
    /// between its lock and unlock of a structurally consistent queue.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let ch = Bounded::new(4);
        for i in 0..4 {
            ch.try_send(i).expect("room");
        }
        assert_eq!(ch.len(), 4);
        assert_eq!(
            (ch.recv(), ch.recv(), ch.recv(), ch.recv()),
            (Some(0), Some(1), Some(2), Some(3))
        );
        assert_eq!(ch.len(), 0);
    }

    #[test]
    fn try_send_reports_full_then_closed() {
        let ch = Bounded::new(1);
        ch.try_send(1).expect("room for one");
        assert_eq!(ch.try_send(2), Err(TrySendError::Full(2)));
        ch.close();
        assert_eq!(ch.try_send(3), Err(TrySendError::Closed(3)));
        // The queued item survives the close.
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn zero_capacity_rounds_up_to_one() {
        let ch = Bounded::new(0);
        ch.try_send(7).expect("capacity one, not zero");
        assert_eq!(ch.try_send(8), Err(TrySendError::Full(8)), "one, not more");
        assert_eq!(ch.recv(), Some(7));
    }

    #[test]
    fn close_drains_cleanly() {
        let ch = Bounded::new(8);
        ch.try_send("a").expect("open");
        ch.try_send("b").expect("open");
        ch.close();
        assert_eq!(ch.try_send("c"), Err(TrySendError::Closed("c")));
        assert_eq!(ch.recv(), Some("a"));
        assert_eq!(ch.recv(), Some("b"));
        assert_eq!(ch.recv(), None, "closed and drained");
    }

    #[test]
    fn blocked_receiver_unblocks_on_close() {
        let ch: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let consumer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || ch.recv())
        };
        ch.close();
        assert_eq!(consumer.join().expect("no panic"), None);
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 250;
        let ch: Arc<Bounded<u64>> = Arc::new(Bounded::new(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ch = Arc::clone(&ch);
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut item = p * PER_PRODUCER + i;
                    // A full channel refuses; the producer retries.
                    while let Err(TrySendError::Full(back)) = ch.try_send(item) {
                        item = back;
                        thread::yield_now();
                    }
                }
            }));
        }
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let ch = Arc::clone(&ch);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = ch.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        ch.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected, "every sent item received exactly once");
    }
}
