//! Flight-recorder guarantees under hostile conditions:
//!
//! * **Tail-based retention beats ring overwrite** (property test): with a
//!   ring small enough that the event stream is continuously overwritten,
//!   every error-class request of a random fault plan still survives as a
//!   *complete* exemplar trace — drop accounting applies to the
//!   best-effort stream only, never to errors.
//! * **Exactly-once, ordered spans under concurrency** (stress test): with
//!   a full worker pool and many submitter threads, every trace id owns a
//!   contiguous, duplicate-free span `seq 0..n` that opens with
//!   `submitted` and closes with exactly one terminal event.

use std::collections::HashMap;
use std::time::Duration;

use moqo_catalog::Catalog;
use moqo_cost::{Objective, ObjectiveSet, Preference};
use moqo_service::{
    EventKind, ExemplarClass, FaultPlan, OptimizationRequest, OptimizationService, ServiceError,
    TraceConfig,
};
use proptest::prelude::*;

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

fn small_request(catalog: &Catalog) -> OptimizationRequest {
    OptimizationRequest::new(moqo_tpch::query(catalog, 3), weighted_pref(), 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random panic sets over 24 sequential requests, recorded into a
    /// 16-slot ring (~5 events per request, so the stream overwrites
    /// itself several times over): every panicked ordinal must still be
    /// retained as a full exemplar — `submitted` through `failed`, with a
    /// contiguous sequence — even while `dropped_events` grows.
    #[test]
    fn error_exemplars_survive_ring_overwrite(panic_mask in 1u32..(1 << 24)) {
        const REQUESTS: u64 = 24;
        let panicked: Vec<u64> =
            (0..REQUESTS).filter(|i| panic_mask & (1 << i) != 0).collect();
        let mut plan = FaultPlan::builder();
        for &ordinal in &panicked {
            plan = plan.panic_at(ordinal);
        }
        let catalog = moqo_catalog::tpch::catalog(0.01);
        let service = OptimizationService::builder(catalog.clone())
            .workers(1)
            .faults(plan.build())
            .tracing(TraceConfig {
                ring_capacity: 16,
                logical_clock: true,
            })
            .build();
        for i in 0..REQUESTS {
            let result = service.submit_wait(small_request(&catalog));
            let should_panic = panicked.contains(&i);
            prop_assert_eq!(
                matches!(result, Err(ServiceError::Internal { .. })),
                should_panic,
                "ordinal {} (should_panic={})", i, should_panic
            );
        }
        let trace = service.trace_snapshot().expect("tracing enabled");
        // The stream genuinely overwrote itself (24 requests × ≥4 events
        // into 16 slots) — retention must not depend on ring residency.
        prop_assert!(trace.dropped_events > 0, "ring was never overwritten");
        // Each ring's resident events and drop count come from one look at
        // the ring, so together they account for every recorded event.
        prop_assert_eq!(
            trace.events.len() as u64 + trace.dropped_events,
            trace.events_total
        );
        prop_assert_eq!(trace.error_exemplars_dropped, 0);
        let exemplars = trace.exemplars_of(ExemplarClass::Panicked);
        prop_assert_eq!(exemplars.len(), panicked.len());
        for &ordinal in &panicked {
            let exemplar = exemplars
                .iter()
                .find(|e| e.trace_id == ordinal)
                .expect("every panicked ordinal is retained");
            prop_assert!(!exemplar.truncated);
            for (index, event) in exemplar.events.iter().enumerate() {
                prop_assert_eq!(usize::from(event.seq), index, "span has a gap");
            }
            let kinds: Vec<EventKind> = exemplar.events.iter().map(|e| e.kind).collect();
            prop_assert_eq!(kinds.first(), Some(&EventKind::Submitted));
            prop_assert!(kinds.contains(&EventKind::PanicCaught));
            prop_assert_eq!(kinds.last(), Some(&EventKind::Failed));
        }
    }
}

/// Eight submitter threads race 32 requests each into a 4-worker pool.
/// The ring is big enough that nothing drops, so the snapshot must show
/// **exactly one** event per `(trace id, seq)` pair, a contiguous
/// `0..n` span per trace, `submitted` first, and exactly one terminal
/// `completed`/`failed` per trace — concurrent writers never tear,
/// duplicate, or interleave spans.
#[test]
fn concurrent_writers_keep_spans_exactly_once_and_ordered() {
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 32;
    let catalog = moqo_catalog::tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(4)
        .queue_capacity(SUBMITTERS * PER_THREAD + 8)
        .tracing(TraceConfig {
            ring_capacity: 16 * 1024,
            ..TraceConfig::default()
        })
        .build();
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    let response = service
                        .submit(small_request(&catalog))
                        .expect("queue sized for the full load")
                        .wait();
                    assert!(response.is_ok(), "{response:?}");
                }
            });
        }
    });
    std::thread::sleep(Duration::from_millis(20));
    let trace = service.trace_snapshot().expect("tracing enabled");
    assert_eq!(trace.dropped_events, 0, "ring was sized for the full load");

    let mut spans: HashMap<u64, Vec<(u16, EventKind)>> = HashMap::new();
    for event in &trace.events {
        spans
            .entry(event.trace_id)
            .or_default()
            .push((event.seq, event.kind));
    }
    assert_eq!(spans.len(), SUBMITTERS * PER_THREAD, "one span per request");
    for (trace_id, span) in &mut spans {
        span.sort_by_key(|(seq, _)| *seq);
        for (index, (seq, _)) in span.iter().enumerate() {
            assert_eq!(
                usize::from(*seq),
                index,
                "trace {trace_id} has a duplicated or missing seq: {span:?}"
            );
        }
        let kinds: Vec<EventKind> = span.iter().map(|(_, kind)| *kind).collect();
        assert_eq!(
            kinds[0],
            EventKind::Submitted,
            "trace {trace_id}: {kinds:?}"
        );
        let terminals = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::Completed | EventKind::Failed))
            .count();
        assert_eq!(terminals, 1, "trace {trace_id}: {kinds:?}");
        assert_eq!(
            kinds.iter().filter(|k| **k == EventKind::Popped).count(),
            1,
            "trace {trace_id} popped exactly once: {kinds:?}"
        );
    }
}
