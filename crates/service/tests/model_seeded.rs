//! Seeded-bug detection: prove the model checker *fails* — determin-
//! istically, with a replayable schedule — when a known ordering bug is
//! injected into a production structure (run with
//! `RUSTFLAGS="--cfg moqo_model" cargo test -p moqo_service --test
//! model_seeded --release`).
//!
//! The test flips the `trace_hooks::WEAKEN_COMMIT` knob, which demotes the
//! seqlock's `Release` commit stamp to `Relaxed` (the canonical "forgot
//! the release fence" bug), asserts the checker reports the violation,
//! and replays the reported decision schedule to reproduce the exact
//! failing interleaving — the workflow a developer follows from a CI
//! failure message (`MOQO_MODEL_REPLAY="<schedule>"`).
#![cfg(moqo_model)]

use moqo_service::model_internals::{trace_hooks, EventRing};
use moqo_service::{EventKind, TraceEvent};
use moqo_sync::model::{self, Config};
use moqo_sync::raw::Ordering as RawOrdering;
use moqo_sync::thread;
use moqo_sync::Arc;

fn exploring_config() -> Config {
    Config {
        dfs_budget: 3_000,
        min_executions: 3_000,
        ..Config::default()
    }
}

/// Weakening the seqlock commit stamp to `Relaxed` lets a reader
/// validate a slot whose payload words it never synchronized with — the
/// checker finds an interleaving where a stale-word event passes
/// validation (a torn read).
#[test]
fn weakened_trace_commit_is_caught() {
    // The knob is process-global; this is the binary's only test.
    trace_hooks::WEAKEN_COMMIT.store(true, RawOrdering::SeqCst);

    let scenario = || {
        let ring = Arc::new(EventRing::new(2));
        let writer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.record(&TraceEvent {
                    trace_id: 9,
                    ts: 9,
                    kind: EventKind::Submitted,
                    seq: 0,
                    arg0: 9,
                    arg1: 9,
                    arg2: 9,
                });
            })
        };
        let (events, _) = ring.snapshot();
        for e in &events {
            assert!(
                e.trace_id == e.ts && e.ts == e.arg0 && e.arg0 == e.arg1 && e.arg1 == e.arg2,
                "torn slot passed seqlock validation: {e:?}"
            );
        }
        writer.join().expect("writer");
    };
    let report = model::explore(&exploring_config(), scenario);
    let failure = report
        .failure
        .expect("the weakened commit must admit a torn read in some interleaving");
    assert!(
        failure.message.contains("torn slot"),
        "expected the torn-read assertion, got: {}",
        failure.message
    );
    let replayed = model::replay(&failure.schedule, scenario);
    assert!(
        replayed.failure.is_some(),
        "the torn-read schedule must replay deterministically"
    );
}
