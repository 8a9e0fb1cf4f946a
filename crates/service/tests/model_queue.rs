//! Model-checked invariants of the sharded lock-free [`BoundedQueue`]
//! (run with `RUSTFLAGS="--cfg moqo_model" cargo test -p moqo_service
//! --test model_queue --release`).
//!
//! Every test explores ≥10k interleavings (bounded-exhaustive DFS with a
//! preemption budget, topped up by a seeded random walk) of the *real*
//! queue code — the same `queue.rs` that serves production, compiled onto
//! the `moqo_sync` model shims. These are the proofs backing the relaxed
//! memory orderings on the `len` capacity gate and the `sleepers`
//! retirement (see the ordering comments in `queue.rs`).
#![cfg(moqo_model)]

use moqo_service::{BoundedQueue, PushError};
use moqo_sync::model::{self, Config};
use moqo_sync::thread;

fn cfg() -> Config {
    Config::smoke()
}

/// Exactly-once delivery across the steal path: two consumers with
/// different shard hints race over a 2-shard queue; every pushed item is
/// popped exactly once, no loss, no duplication.
#[test]
fn pushes_pop_exactly_once() {
    let report = model::check("pushes_pop_exactly_once", &cfg(), || {
        let q = BoundedQueue::with_shards(4, 2);
        let consumers: Vec<_> = (0..2)
            .map(|i| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop_blocking_from(i) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for v in 0..3u32 {
            q.try_push(v).expect("reserved capacity");
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "each item must arrive exactly once");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// The `Full` contract under racing producers (PR 9 regression, and the
/// two-producer admission gate): a capacity-1 queue admits exactly one of
/// two concurrent pushes in *every* interleaving, and the rejected push
/// hands back exactly its own item.
#[test]
fn try_push_full_returns_item() {
    let report = model::check("try_push_full_returns_item", &cfg(), || {
        let q = BoundedQueue::new(1);
        let racer = {
            let q = q.clone();
            thread::spawn(move || q.try_push(2u32))
        };
        let r1 = q.try_push(1u32);
        let r2 = racer.join().expect("producer");
        let successes = [&r1, &r2].iter().filter(|r| r.is_ok()).count();
        assert_eq!(successes, 1, "capacity 1 admits exactly one of two pushes");
        for (r, pushed) in [(r1, 1u32), (r2, 2u32)] {
            if let Err((e, item)) = r {
                assert_eq!(e, PushError::Full);
                assert_eq!(item, pushed, "a rejected push must return its own item");
            }
        }
        assert!(q.pop_blocking().is_some(), "the admitted item is popped");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// Close-then-drain completeness: items pushed before (or racing with)
/// `close` are all delivered before the consumer sees the shutdown
/// `None`. This is the invariant that lets the `len` decrement in `scan`
/// stay Relaxed — the drain loop terminates on `len == 0` and the counter
/// only ever reads transiently *high*, never low.
#[test]
fn close_then_drain_conserves_items() {
    let report = model::check("close_then_drain_conserves_items", &cfg(), || {
        let q = BoundedQueue::with_shards(4, 2);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop_blocking_from(1) {
                    got.push(v);
                }
                got
            })
        };
        q.try_push(10u32).expect("capacity");
        q.try_push(20u32).expect("capacity");
        q.close();
        let mut got = consumer.join().expect("consumer");
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "close must drain, not drop");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// PR 8 regression: a shard whose owning consumer never pops (dead
/// worker) is fully drained by a surviving consumer through the steal
/// scan — exactly once per item.
#[test]
fn dead_consumer_shard_is_drained_by_survivors_exactly_once() {
    let report = model::check("dead_consumer_shard_drained", &cfg(), || {
        let q = BoundedQueue::with_shards(4, 2);
        // Round-robin scatters one item into each shard; shard 1's owner
        // is dead (never spawned), so the survivor must steal.
        q.try_push(1u32).expect("capacity");
        q.try_push(2u32).expect("capacity");
        let survivor = {
            let q = q.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop_blocking_from(0) {
                    got.push(v);
                }
                got
            })
        };
        q.close();
        let mut got = survivor.join().expect("survivor");
        got.sort_unstable();
        assert_eq!(
            got,
            vec![1, 2],
            "the dead shard's item must be stolen exactly once"
        );
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// The 5 ms-park lost-wakeup backstop: a consumer that parks *just* after
/// the producer's sleeper check (so the bare `notify_one` is never sent)
/// still gets the item — the bounded `wait_timeout` converts the lost
/// wakeup into one timeout tick instead of a hang. The model schedules
/// the timeout as an always-possible wakeup, so every lost-notify
/// interleaving is explored.
#[test]
fn parked_consumer_always_wakes() {
    let report = model::check("parked_consumer_always_wakes", &cfg(), || {
        let q = BoundedQueue::new(2);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.pop_blocking())
        };
        q.try_push(7u32).expect("capacity");
        assert_eq!(
            consumer.join().expect("consumer"),
            Some(7),
            "a parked consumer must eventually see the push"
        );
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// A producer that laps a preempted consumer: the consumer that wins the
/// dequeue CAS on slot 0 can stall before re-arming it while the other
/// consumer drains slot 1. A third push then holds a valid capacity
/// reservation, yet the ring's enqueue position is slot 0 again — the push
/// must wait out the re-arm instead of treating the ring as full, and
/// every item still arrives exactly once.
#[test]
fn producer_lapping_a_preempted_consumer() {
    let report = model::check("producer_lapping_a_preempted_consumer", &cfg(), || {
        let q = BoundedQueue::new(2);
        q.try_push(1u32).expect("capacity");
        q.try_push(2u32).expect("capacity");
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop_blocking() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        loop {
            match q.try_push(3u32) {
                Ok(()) => break,
                Err((PushError::Full, _)) => thread::yield_now(),
                Err((PushError::Closed, _)) => unreachable!("closed only below"),
            }
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3], "each item must arrive exactly once");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}
