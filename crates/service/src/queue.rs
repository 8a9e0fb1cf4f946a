//! A bounded multi-producer/multi-consumer work queue, sharded and
//! lock-free on the submit path.
//!
//! Producers never block and never take a `Mutex`: a push is a lock-free
//! reservation against the global capacity followed by a lock-free ring
//! insert into one shard (Vyukov's bounded MPMC algorithm — each slot
//! carries a sequence number that hands it back and forth between
//! producers and consumers). A full queue rejects the push immediately,
//! which is the admission-control contract of the service (back-pressure
//! must be visible to the caller, not absorbed silently).
//!
//! Consumers pop work-stealing style: each worker drains its own shard
//! first and scans the others only when it runs dry, so under load
//! producers and consumers spread across shards instead of serializing on
//! one lock — the seed's single `Mutex + Condvar` queue made every
//! submission and every pop a critical section.
//!
//! Idle consumers park on a condvar with a short timeout. The *producer*
//! side never touches that mutex: after a push it issues a bare
//! `Condvar::notify_one` only when the sleeper counter is nonzero. The
//! unsynchronized notify admits a narrow lost-wakeup race (a consumer
//! re-checks empty, the producer pushes and notifies before the consumer
//! parks); the bounded `wait_timeout` turns that race into at most one
//! timeout tick of extra latency on an otherwise idle queue instead of a
//! hang — and under load nobody sleeps at all.
//!
//! Every synchronization primitive here comes from the [`moqo_sync`]
//! facade, so `RUSTFLAGS="--cfg moqo_model"` swaps the whole structure
//! onto the model checker: `tests/model_queue.rs` exhaustively explores
//! the push/pop/steal/park interleavings and pins exactly-once delivery,
//! the `Full` item-return contract, close-then-drain completeness and the
//! lost-wakeup backstop. The memory orderings below are the *minimal*
//! ones those model suites prove sufficient.

use std::mem::MaybeUninit;
use std::time::Duration;

use moqo_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use moqo_sync::cell::UnsafeCell;
use moqo_sync::hint::spin_loop;
use moqo_sync::{Arc, Condvar, Mutex};

/// How long an idle consumer parks before re-scanning the shards; bounds
/// the cost of the producer-side lock-free wakeup protocol.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// Model-checker steering knobs; compiled only under `--cfg moqo_model`.
/// Seeded-bug injection for the model suite.
///
/// `tests/model_seeded.rs` flips [`WEAKEN_PUBLISH`] to demote the
/// producer's slot-publish store to `Relaxed` and asserts the checker
/// reports the resulting race with a replayable schedule. The knob
/// lives on [`moqo_sync::raw`] so reading it is invisible to the
/// checker itself.
#[cfg(moqo_model)]
pub mod model_hooks {
    use moqo_sync::raw::AtomicBool;

    /// When `true`, [`super::Ring::push`] publishes a filled slot with
    /// `Ordering::Relaxed` instead of `Release` — the canonical
    /// "forgot the release fence" bug.
    pub static WEAKEN_PUBLISH: AtomicBool = AtomicBool::new(false);
}

/// One slot of a Vyukov ring. `seq` is the hand-off protocol: it equals
/// the slot index when the slot is free for the producer of lap `L`, and
/// index + 1 once a value is ready for the consumer of the same lap.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free MPMC ring (Vyukov). `size` is a power of two; the
/// ring never rejects a push while its occupancy is below `size`, which
/// the sharded queue guarantees by global capacity reservation.
struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: slots are handed between threads through the `seq` protocol.
// For position `pos` (slot index `pos & mask`), `seq == pos` means the
// slot is free for the producer that claims `pos`; `seq == pos + 1`
// means a value is ready for the consumer that claims `pos`; and
// `seq == pos + mask + 1` re-arms the slot for the producer one lap
// later. A value written under an enqueue reservation is only read by
// the single consumer that wins the matching dequeue CAS, with
// release/acquire ordering on `seq` publishing the write. `T: Send` is
// all that moving values across threads requires. The protocol itself
// (exclusive access between CAS win and `seq` bump, exactly-once
// delivery) is model-checked in `tests/model_queue.rs`.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: see the `Send` impl above; `&Ring` only exposes the slots
// through the seq-gated push/pop protocol, never directly.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn new(size: usize) -> Self {
        debug_assert!(size.is_power_of_two());
        Ring {
            slots: (0..size)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: size - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Lock-free push; `Err(item)` when the slot at the enqueue position
    /// is still occupied — the ring is full, or the consumer of that slot's
    /// previous lap has not re-armed it yet.
    #[moqo::hot_path]
    fn push(&self, item: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot free for this lap: claim it.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Protocol invariant: winning the enqueue CAS on
                        // `pos` while `seq == pos` grants exclusive write
                        // access; no other producer can claim `pos` again
                        // and no consumer reads until `seq = pos + 1`.
                        debug_assert_eq!(
                            slot.seq.load(Ordering::Relaxed),
                            pos,
                            "enqueue CAS won but the slot is not in the free-for-lap state",
                        );
                        // SAFETY: per the invariant above, this thread has
                        // exclusive access to the slot's value until the
                        // `seq` bump below; writing a fresh `MaybeUninit`
                        // payload needs no drop of the old (consumed or
                        // never-initialized) contents.
                        slot.value.with_mut(|p| unsafe { (*p).write(item) });
                        slot.seq
                            .store(pos.wrapping_add(1), Self::publish_ordering());
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return Err(item);
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Ordering for the producer's slot-publish store: `Release`, unless
    /// the model suite injects the seeded weakening bug.
    #[inline(always)]
    fn publish_ordering() -> Ordering {
        #[cfg(moqo_model)]
        if model_hooks::WEAKEN_PUBLISH.load(moqo_sync::raw::Ordering::Relaxed) {
            return Ordering::Relaxed;
        }
        Ordering::Release
    }

    /// Lock-free pop; `None` when the ring is empty.
    #[moqo::hot_path]
    fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Protocol invariant: winning the dequeue CAS on
                        // `pos` while `seq == pos + 1` grants exclusive
                        // read access to a fully-written value; the
                        // producer's Release store on `seq` (seen by the
                        // Acquire load above) publishes the payload.
                        debug_assert_eq!(
                            slot.seq.load(Ordering::Relaxed),
                            pos.wrapping_add(1),
                            "dequeue CAS won but the slot is not in the value-ready state",
                        );
                        // SAFETY: per the invariant above, the value was
                        // fully initialized by the producer of this lap
                        // and this thread is its only reader; moving it
                        // out leaves the slot logically uninitialized,
                        // which the `seq` re-arm below advertises.
                        let item = slot.value.with_mut(|p| unsafe { (*p).assume_init_read() });
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(item);
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Run destructors of anything still queued.
        while self.pop().is_some() {}
    }
}

struct Shared<T> {
    shards: Box<[Ring<T>]>,
    /// Items currently queued (plus in-flight push reservations); the
    /// capacity gate.
    len: AtomicUsize,
    capacity: usize,
    closed: AtomicBool,
    /// Producer round-robin cursor for shard selection.
    next_shard: AtomicUsize,
    /// Consumers currently parked (or about to park); producers only
    /// notify when this is nonzero, so the empty-queue machinery costs
    /// the hot path a single relaxed load.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    wake: Condvar,
}

/// The error returned by [`BoundedQueue::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` items; the caller should reject or retry.
    Full,
    /// The queue was closed; no further work is accepted.
    Closed,
}

/// A bounded MPMC queue, sharded for parallel producers and consumers;
/// cloning shares the underlying channel. The submit path
/// ([`BoundedQueue::try_push`]) is lock-free.
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
    /// A single-shard queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// A queue of `shards` independent rings sharing one `capacity`.
    /// Shard the queue per worker: producers scatter round-robin, and
    /// each consumer drains its own shard before stealing from the rest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (`shards` is clamped to at least 1).
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue admits nothing");
        let shards = shards.max(1);
        // Each ring is sized to the whole capacity: occupancy of any one
        // shard can never exceed the global reservation count, so a push
        // that holds a reservation always finds ring space (at worst after
        // a preempted consumer's re-arm; see `try_push`) — `Full` is
        // decided by the capacity gate alone, exactly like the seed.
        let ring_size = capacity.next_power_of_two();
        Self {
            shared: Arc::new(Shared {
                shards: (0..shards).map(|_| Ring::new(ring_size)).collect(),
                len: AtomicUsize::new(0),
                capacity,
                closed: AtomicBool::new(false),
                next_shard: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
                park_lock: Mutex::new(()),
                wake: Condvar::new(),
            }),
        }
    }

    /// Number of shards (fixed at construction).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Non-blocking, lock-free push; fails on a full or closed queue. A
    /// failed push hands the item back alongside the error — the caller
    /// keeps whatever state rides inside it (e.g. a request's trace span)
    /// instead of losing it to the rejected queue.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item.
    #[moqo::hot_path]
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::Acquire) {
            return Err((PushError::Closed, item));
        }
        // Reserve capacity before touching a ring; back out on overflow.
        // Relaxed suffices on both RMWs: `len` is a pure occupancy gate —
        // no payload is published through it (the value handoff
        // synchronizes on `Slot::seq`), and atomic RMWs observe a single
        // total modification order per location regardless of ordering,
        // so reservations can never over-admit. Pinned by
        // `tests/model_queue.rs::try_push_full_returns_item` and
        // `::pushes_pop_exactly_once`.
        if shared.len.fetch_add(1, Ordering::Relaxed) >= shared.capacity {
            shared.len.fetch_sub(1, Ordering::Relaxed);
            return Err((PushError::Full, item));
        }
        // A reservation guarantees ring space, but not at the ring's
        // enqueue position: a consumer preempted between its dequeue CAS
        // and its `seq` re-arm pins that slot while others drain and lap
        // the ring around it. Its one remaining store frees the slot, so
        // try the next shard and spin until some push lands. Pinned by
        // `tests/model_queue.rs::producer_lapping_a_preempted_consumer`.
        let n = shared.shards.len();
        let mut shard = shared.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        let mut item = item;
        while let Err(back) = shared.shards[shard].push(item) {
            item = back;
            shard = (shard + 1) % n;
            spin_loop();
        }
        // SeqCst pairs with the consumer's SeqCst raise of `sleepers`
        // before its final re-scan (a store/load Dekker handshake): either
        // the producer sees the sleeper and notifies, or the consumer's
        // re-scan sees the pushed item.
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            // Bare notify — see the module docs for why this needs no
            // mutex and how the park timeout bounds the race.
            shared.wake.notify_one();
        }
        Ok(())
    }

    /// Scans every shard once, `hint` first.
    #[moqo::hot_path]
    fn scan(&self, hint: usize) -> Option<T> {
        let shared = &*self.shared;
        let n = shared.shards.len();
        for k in 0..n {
            if let Some(item) = shared.shards[(hint + k) % n].pop() {
                // Relaxed: retiring a reservation needs no ordering — the
                // item itself was acquired through `Slot::seq`, and `len`
                // only ever reads high transiently (reserve happens
                // before insert, remove happens after extraction), so the
                // close-then-drain loop can never see 0 with items still
                // queued. Pinned by
                // `tests/model_queue.rs::close_then_drain_conserves_items`.
                shared.len.fetch_sub(1, Ordering::Relaxed);
                return Some(item);
            }
        }
        None
    }

    /// Blocks until an item is available; returns `None` once the queue is
    /// closed *and* drained (the worker-shutdown signal). Equivalent to
    /// [`BoundedQueue::pop_blocking_from`] with shard hint 0.
    pub fn pop_blocking(&self) -> Option<T> {
        self.pop_blocking_from(0)
    }

    /// Blocking pop with shard affinity: drains shard `hint` (modulo the
    /// shard count) first and steals from the others only when it is
    /// empty. Workers pass their own index so disjoint workers touch
    /// disjoint cache lines under load.
    pub fn pop_blocking_from(&self, hint: usize) -> Option<T> {
        self.pop_blocking_from_with(hint, || {})
    }

    /// [`BoundedQueue::pop_blocking_from`] with a liveness callback:
    /// `tick` runs on every wait iteration (at least once per park
    /// timeout), so a consumer parked on an idle queue can keep stamping
    /// its supervision heartbeat — without it, an idle-but-healthy worker
    /// is indistinguishable from one wedged inside a job.
    pub fn pop_blocking_from_with(&self, hint: usize, mut tick: impl FnMut()) -> Option<T> {
        let shared = &*self.shared;
        loop {
            tick();
            if let Some(item) = self.scan(hint) {
                return Some(item);
            }
            if shared.closed.load(Ordering::Acquire) {
                // Closed: drain reservations still in flight, then stop.
                if shared.len.load(Ordering::Acquire) == 0 {
                    return None;
                }
                spin_loop();
                continue;
            }
            // Park. The sleeper count is raised *before* the final
            // re-scan so a producer that pushes in between sees it and
            // notifies; the timeout covers the bare-notify race. The
            // raise must stay SeqCst — it is the consumer half of the
            // Dekker handshake with `try_push`'s SeqCst `sleepers` load
            // (store/load visibility, which release/acquire cannot give).
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            if let Some(item) = self.scan(hint) {
                // Relaxed: retiring the sleeper flag publishes nothing;
                // the cost of a stale nonzero read by a producer is one
                // spurious `notify_one`. Pinned by
                // `tests/model_queue.rs::parked_consumer_always_wakes`.
                shared.sleepers.fetch_sub(1, Ordering::Relaxed);
                return Some(item);
            }
            if !shared.closed.load(Ordering::Acquire) {
                let guard = shared.park_lock.lock().expect("park lock poisoned");
                let _ = shared
                    .wake
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .expect("park lock poisoned");
            }
            // Relaxed: same argument as the early-exit decrement above.
            shared.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked consumers wake up.
    pub fn close(&self) {
        let shared = &*self.shared;
        shared.closed.store(true, Ordering::Release);
        // Taking the park lock orders this notify after any in-progress
        // park decision; close is cold, so the lock is fine here.
        drop(shared.park_lock.lock().expect("park lock poisoned"));
        shared.wake.notify_all();
    }

    /// Number of items currently pending (transiently includes push
    /// reservations still being written).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
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
    fn sharded_roundtrip_preserves_everything() {
        let q = BoundedQueue::with_shards(64, 4);
        assert_eq!(q.shards(), 4);
        for v in 0..48 {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.len(), 48);
        q.close();
        let mut seen: Vec<i32> = std::iter::from_fn(|| q.pop_blocking_from(2)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_is_fifo() {
        // One shard keeps the seed's strict FIFO order.
        let q = BoundedQueue::new(16);
        for v in 0..10 {
            q.try_push(v).unwrap();
        }
        let popped: Vec<i32> = (0..10).map(|_| q.pop_blocking().unwrap()).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn consumers_across_threads() {
        let q = BoundedQueue::with_shards(64, 4);
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut sum = 0usize;
                        while let Some(v) = q.pop_blocking_from(i) {
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
