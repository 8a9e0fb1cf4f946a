//! Model-checked invariants of the [`BoundedQueue`] (run with
//! `RUSTFLAGS="--cfg moqo_model" cargo test -p moqo_service --test
//! model_queue --release`).
//!
//! Every test explores ≥10k interleavings (bounded-exhaustive DFS with a
//! preemption budget, topped up by a seeded random walk) of the *real*
//! queue code — the same `queue.rs` that serves production, compiled onto
//! the `moqo_sync` model shims.
#![cfg(moqo_model)]

use moqo_service::{BoundedQueue, PushError};
use moqo_sync::model::{self, Config};
use moqo_sync::thread;

fn cfg() -> Config {
    Config::smoke()
}

/// Exactly-once delivery: two consumers race over one queue; every pushed
/// item is popped exactly once, no loss, no duplication.
#[test]
fn pushes_pop_exactly_once() {
    let report = model::check("pushes_pop_exactly_once", &cfg(), || {
        let q = BoundedQueue::new(4);
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
        for v in 0..3u32 {
            q.try_push(v).expect("capacity");
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

/// Close-then-drain completeness: items pushed before `close` are all
/// delivered, in order, before the consumer sees the shutdown `None`.
#[test]
fn close_then_drain_conserves_items() {
    let report = model::check("close_then_drain_conserves_items", &cfg(), || {
        let q = BoundedQueue::new(4);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop_blocking() {
                    got.push(v);
                }
                got
            })
        };
        q.try_push(10u32).expect("capacity");
        q.try_push(20u32).expect("capacity");
        q.close();
        let got = consumer.join().expect("consumer");
        assert_eq!(got, vec![10, 20], "close must drain, not drop");
    });
    assert!(report.coverage_ok(10_000), "coverage too low: {report:?}");
}

/// A parked consumer always sees a later push: the push's `notify_one`
/// wakes it, and the model also fires the 5 ms park timeout at every
/// possible point, so every wakeup order is explored.
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
