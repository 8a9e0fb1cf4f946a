//! A bounded multi-producer/multi-consumer work queue: one `Mutex` over a
//! `VecDeque` and a `closed` flag, and one `Condvar` that idle consumers
//! park on until a push or a close wakes them.
//!
//! A push never waits for space: a full queue rejects it immediately,
//! which is the admission-control contract of the service (back-pressure
//! must be visible to the caller, not absorbed silently). A rejected push
//! hands its item back, so a bounced job keeps whatever rides inside it.

use std::collections::VecDeque;

use moqo_sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// closed *and* drained (the worker-shutdown signal). An idle consumer
    /// parks on the condvar and wakes only for a push, a close or a
    /// spurious wakeup.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.shared.ready.wait(state).expect("queue lock poisoned");
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
    fn parked_pop_wakes_for_a_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || done_tx.send(q.pop_blocking()).unwrap())
        };
        // Either order of pop and close returns `None`; the pause makes the
        // parked pop, which only the close's notify can wake, the likely
        // one. A missed wakeup fails here instead of hanging the test.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let popped = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(popped, Ok(None), "a parked pop missed the close");
        consumer.join().unwrap();
    }

    #[test]
    fn racing_pushes_into_capacity_one_admit_exactly_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for _ in 0..1_000 {
            let q = BoundedQueue::new(1);
            // A spinning start line, not a `Barrier`: a thread parked in a
            // barrier wakes after the other has already pushed.
            let arrived = AtomicUsize::new(0);
            let results: Vec<_> = std::thread::scope(|s| {
                let pushers: Vec<_> = [1u32, 2]
                    .into_iter()
                    .map(|item| {
                        let (q, arrived) = (&q, &arrived);
                        s.spawn(move || {
                            arrived.fetch_add(1, Ordering::SeqCst);
                            while arrived.load(Ordering::SeqCst) < 2 {
                                std::hint::spin_loop();
                            }
                            (item, q.try_push(item))
                        })
                    })
                    .collect();
                pushers.into_iter().map(|p| p.join().unwrap()).collect()
            });
            let admitted: Vec<u32> = results
                .iter()
                .filter(|(_, r)| r.is_ok())
                .map(|(item, _)| *item)
                .collect();
            assert_eq!(admitted.len(), 1, "capacity 1 admits exactly one push");
            for (item, r) in results {
                if let Err(rejected) = r {
                    assert_eq!(
                        rejected,
                        (PushError::Full, item),
                        "the loser gets its own item"
                    );
                }
            }
            assert_eq!(q.pop_blocking(), Some(admitted[0]));
        }
    }

    #[test]
    fn consumers_across_threads() {
        let q = BoundedQueue::new(64);
        let started = std::sync::Barrier::new(5);
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (q, started) = (q.clone(), &started);
                    s.spawn(move || {
                        started.wait();
                        let mut sum = 0usize;
                        while let Some(v) = q.pop_blocking() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            // Every consumer finds the queue empty and parks; only the
            // pushes below wake them.
            started.wait();
            std::thread::sleep(std::time::Duration::from_millis(15));
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
