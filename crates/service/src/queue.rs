//! A bounded multi-producer/multi-consumer work queue: one `Mutex` over a
//! `VecDeque` and a `closed` flag, and one `Condvar` that idle consumers
//! park on.
//!
//! A push never waits for space: a full queue rejects it immediately,
//! which is the admission-control contract of the service (back-pressure
//! must be visible to the caller, not absorbed silently). A rejected push
//! hands its item back, so a bounced job keeps whatever rides inside it.
//!
//! The primitives come from the [`moqo_sync`] facade, so
//! `RUSTFLAGS="--cfg moqo_model"` runs `tests/model_queue.rs` over this
//! same code: exactly-once delivery, the `Full` item-return contract,
//! close-then-drain and the parked-consumer wakeup.

use std::collections::VecDeque;
use std::time::Duration;

use moqo_sync::{Arc, Condvar, Mutex, MutexGuard};

/// The longest an idle consumer stays parked before it runs its `tick`
/// callback again (see [`BoundedQueue::pop_blocking_with`]).
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled on every push and on close.
    ready: Condvar,
}

/// The error returned by [`BoundedQueue::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` items; the caller should reject or retry.
    Full,
    /// The queue was closed; no further work is accepted.
    Closed,
}

/// A bounded FIFO MPMC queue; cloning shares the underlying channel.
pub struct BoundedQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue admits nothing");
        BoundedQueue {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                }),
                capacity,
                ready: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.shared.state.lock().expect("queue lock poisoned")
    }

    /// Non-blocking push; fails on a full or closed queue. A failed push
    /// hands the item back alongside the error — the caller keeps whatever
    /// state rides inside it (e.g. a request's trace span) instead of
    /// losing it to the rejected queue.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut state = self.lock();
        if state.closed {
            return Err((PushError::Closed, item));
        }
        if state.items.len() >= self.shared.capacity {
            return Err((PushError::Full, item));
        }
        state.items.push_back(item);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; returns `None` once the queue is
    /// closed *and* drained (the worker-shutdown signal).
    pub fn pop_blocking(&self) -> Option<T> {
        self.pop_blocking_with(|| {})
    }

    /// [`BoundedQueue::pop_blocking`] with a liveness callback. `tick` runs,
    /// outside the queue lock, before every look at the queue, and a parked
    /// consumer looks again after at most 5 ms, so `tick` keeps running
    /// while the queue is idle. Workers stamp their supervision heartbeat
    /// through it — without it, an idle-but-healthy worker is
    /// indistinguishable from one wedged inside a job.
    pub fn pop_blocking_with(&self, mut tick: impl FnMut()) -> Option<T> {
        loop {
            tick();
            let mut state = self.lock();
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            // A notify, a timeout and a spurious wakeup all lead back to
            // the top: tick, then check again.
            drop(
                self.shared
                    .ready
                    .wait_timeout(state, PARK_TIMEOUT)
                    .expect("queue lock poisoned"),
            );
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked consumers wake up.
    pub fn close(&self) {
        self.lock().closed = true;
        self.shared.ready.notify_all();
    }

    /// Number of items currently pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether no items are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((PushError::Full, 3)));
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((PushError::Closed, 8)));
        assert_eq!(q.pop_blocking(), Some(7));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn single_shard_is_fifo() {
        let q = BoundedQueue::new(16);
        for v in 0..10 {
            q.try_push(v).unwrap();
        }
        let popped: Vec<i32> = (0..10).map(|_| q.pop_blocking().unwrap()).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parked_pop_ticks_outside_the_lock() {
        // The third tick closes the queue; closing takes the lock, so this
        // would deadlock if `tick` ran under it.
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let mut ticks = 0;
        let popped = q.pop_blocking_with(|| {
            ticks += 1;
            if ticks == 3 {
                q.close();
            }
        });
        assert_eq!((popped, ticks), (None, 3));
    }

    #[test]
    fn consumers_across_threads() {
        let q = BoundedQueue::new(64);
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut sum = 0usize;
                        while let Some(v) = q.pop_blocking() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            for v in 1..=32usize {
                while q.try_push(v) == Err((PushError::Full, v)) {
                    std::thread::yield_now();
                }
            }
            q.close();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, (1..=32).sum::<usize>());
    }
}
