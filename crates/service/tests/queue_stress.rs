//! Multi-thread stress coverage for the bounded work queue.
//!
//! The contract under contention: every successfully pushed item is popped
//! exactly once (no loss, no duplication), `QueueFull` is the only way a
//! push fails before `close()`, and closing drains the backlog before
//! consumers observe `None`.

use moqo_sync::Mutex;
use std::collections::HashSet;
use std::thread::{self, Scope, ScopedJoinHandle};

use moqo_service::{BoundedQueue, PushError};

/// Spawns `producers` threads that each push `per_producer` distinct
/// items, retrying on `Full`.
fn spawn_producers<'scope>(
    s: &'scope Scope<'scope, '_>,
    queue: &'scope BoundedQueue<u64>,
    producers: u64,
    per_producer: u64,
) -> Vec<ScopedJoinHandle<'scope, ()>> {
    (0..producers)
        .map(|p| {
            s.spawn(move || {
                for i in 0..per_producer {
                    let item = p * per_producer + i;
                    loop {
                        match queue.try_push(item) {
                            Ok(()) => break,
                            Err((PushError::Full, _)) => thread::yield_now(),
                            Err((PushError::Closed, _)) => {
                                panic!("queue closed while producers were live")
                            }
                        }
                    }
                }
            })
        })
        .collect()
}

/// Joins the producers, closes the queue so the consumers drain and exit,
/// then re-raises any producer panic: a broken push fails the test
/// instead of leaving the consumers parked forever.
fn close_after(queue: &BoundedQueue<u64>, producers: Vec<ScopedJoinHandle<'_, ()>>) {
    let outcomes: Vec<_> = producers.into_iter().map(ScopedJoinHandle::join).collect();
    queue.close();
    for outcome in outcomes {
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Hammers a queue with `producers` push threads and `consumers` pop
/// threads, then checks exactly-once delivery of everything accepted.
fn run_stress(producers: u64, consumers: usize, per_producer: u64) {
    let queue = BoundedQueue::new(256);
    let delivered: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    thread::scope(|s| {
        let pushers = spawn_producers(s, &queue, producers, per_producer);
        for _ in 0..consumers {
            let queue = &queue;
            let delivered = &delivered;
            s.spawn(move || {
                let mut local = Vec::new();
                while let Some(item) = queue.pop_blocking() {
                    local.push(item);
                }
                delivered.lock().unwrap().append(&mut local);
            });
        }
        close_after(&queue, pushers);
    });

    let delivered = delivered.into_inner().unwrap();
    let total = producers * per_producer;
    assert_eq!(
        delivered.len() as u64,
        total,
        "lost or duplicated items: delivered {} of {total}",
        delivered.len()
    );
    let unique: HashSet<u64> = delivered.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "duplicate deliveries");
    assert!(queue.is_empty());
}

#[test]
fn single_shard_exactly_once_under_contention() {
    run_stress(4, 2, 5_000);
}

#[test]
fn sharded_exactly_once_under_contention() {
    run_stress(4, 4, 5_000);
}

#[test]
fn more_consumers_than_shards() {
    run_stress(3, 6, 3_000);
}

/// A consumer leaving mid-stream must not strand the backlog: the others
/// drain it and exactly-once delivery still holds. Nothing replaces the
/// consumer that left — correctness must not depend on one arriving.
#[test]
fn dead_consumer_shard_is_drained_by_survivors_exactly_once() {
    let consumers = 4;
    let per_producer: u64 = 4_000;
    let producers: u64 = 4;
    let queue = BoundedQueue::new(256);
    let delivered: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    thread::scope(|s| {
        let pushers = spawn_producers(s, &queue, producers, per_producer);
        // Consumer 0 "dies" early: it exits after a few hundred pops while
        // producers keep pushing. No replacement is spawned — the other
        // three must pick up the slack.
        {
            let queue = &queue;
            let delivered = &delivered;
            s.spawn(move || {
                let mut local = Vec::new();
                while local.len() < 300 {
                    match queue.pop_blocking() {
                        Some(item) => local.push(item),
                        None => break,
                    }
                }
                delivered.lock().unwrap().append(&mut local);
            });
        }
        for _ in 1..consumers {
            let queue = &queue;
            let delivered = &delivered;
            s.spawn(move || {
                let mut local = Vec::new();
                while let Some(item) = queue.pop_blocking() {
                    local.push(item);
                }
                delivered.lock().unwrap().append(&mut local);
            });
        }
        close_after(&queue, pushers);
    });

    let delivered = delivered.into_inner().unwrap();
    let total = producers * per_producer;
    assert_eq!(
        delivered.len() as u64,
        total,
        "dead consumer stranded items: delivered {} of {total}",
        delivered.len()
    );
    let unique: HashSet<u64> = delivered.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "duplicate deliveries");
    assert!(queue.is_empty());
}

#[test]
fn full_is_the_only_preclose_failure_and_reports_backpressure() {
    let queue: BoundedQueue<u64> = BoundedQueue::new(4);
    for i in 0..4 {
        queue.try_push(i).unwrap();
    }
    assert!(matches!(queue.try_push(99), Err((PushError::Full, 99))));
    assert_eq!(queue.len(), 4);
    queue.close();
    assert!(matches!(queue.try_push(5), Err((PushError::Closed, 5))));
    // The backlog survives close and drains in full.
    let mut drained = Vec::new();
    while let Some(v) = queue.pop_blocking() {
        drained.push(v);
    }
    drained.sort_unstable();
    assert_eq!(drained, vec![0, 1, 2, 3]);
}
