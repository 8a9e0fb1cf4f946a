//! Chaos acceptance tests: deterministic fault injection against the
//! self-healing service spine. The headline trace panics 25% of 512
//! requests and kills 2 of 4 workers mid-stream; every request must still
//! be answered exactly once (success or `Internal` — never a hung
//! `wait()`), the supervisor must restore the pool to 4, the robustness
//! counters must replay byte-stable, and every request counter must equal
//! its projection of the traced event stream (the cache's own hit counter
//! must equal the traced cache-probe hits).

use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_cost::{Objective, ObjectiveSet, Preference};
use moqo_service::{
    error_code, AlgorithmKind, BrownoutConfig, EventKind, ExemplarClass, FaultPlan,
    MetricsSnapshot, OptimizationRequest, OptimizationService, ServiceError, TraceConfig,
    TraceSnapshot,
};

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

fn small_request(catalog: &Catalog) -> OptimizationRequest {
    OptimizationRequest::new(moqo_tpch::query(catalog, 3), weighted_pref(), 2.0)
}

/// Polls `probe` until it returns true or `deadline` elapses.
fn eventually(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    probe()
}

/// The counters — and trace reconstruction — one chaos run must reproduce
/// exactly.
#[derive(Debug, PartialEq, Eq)]
struct ChaosOutcome {
    ok: u64,
    internal: u64,
    other: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    panics_total: u64,
    shed: u64,
    respawns: u64,
    /// Every injected panic must survive as a full-trace exemplar.
    panic_exemplars: usize,
    /// Both worker kills must be reconstructed (their requests complete
    /// `Ok`; the `worker_killed` event classifies the trace).
    kill_exemplars: usize,
    /// Interleaving-independent checksum over all retained error
    /// exemplars; byte-stable across runs of the same fault plan.
    error_checksum: u64,
}

/// Asserts that every request counter of `metrics` equals its projection of
/// the resident ring events, since both come from one record of each event,
/// and that the cache's own hit counter matches the traced probe hits.
fn assert_counters_reconcile(metrics: &MetricsSnapshot, trace: &TraceSnapshot) {
    assert_eq!(trace.dropped_events, 0, "every event must stay resident");
    let count = |kind: EventKind, keep: &dyn Fn(u64) -> bool| {
        let events = trace.events.iter();
        events.filter(|e| e.kind == kind && keep(e.arg0)).count() as u64
    };
    let total = |kind| count(kind, &|_| true);
    let failed_as = |errors: &[ServiceError]| {
        count(EventKind::Failed, &|code| {
            errors.iter().any(|e| error_code(e) == code)
        })
    };
    let block = |bit: u64| count(EventKind::BlockOptimized, &|arg0| arg0 >> bit & 1 == 1);
    let algorithm = |kind: AlgorithmKind| {
        count(EventKind::BlockOptimized, &|arg0| {
            (arg0 >> 32) as u8 == kind.as_u8()
        })
    };
    let bounced = count(EventKind::QueueFull, &|origin| origin == 0);
    assert_eq!(metrics.submitted, total(EventKind::Enqueued) - bounced);
    assert_eq!(metrics.completed, total(EventKind::Completed));
    assert_eq!(metrics.queue_full, total(EventKind::QueueFull));
    assert_eq!(metrics.shed, total(EventKind::Shed));
    assert_eq!(metrics.respawns, total(EventKind::WorkerRespawned));
    assert_eq!(metrics.stalls_detected, total(EventKind::WorkerStalled));
    assert_eq!(metrics.panics_total, total(EventKind::PanicCaught));
    let rejected = failed_as(&[ServiceError::Rejected(String::new())]);
    assert_eq!(metrics.rejected, total(EventKind::Rejected) + rejected);
    let timed_out = failed_as(&[ServiceError::DeadlineExceeded]);
    assert_eq!(metrics.timed_out, timed_out);
    let failed = failed_as(&[
        ServiceError::QueueFull,
        ServiceError::ShuttingDown,
        ServiceError::internal(String::new()),
        ServiceError::WorkerLost,
    ]);
    assert_eq!(metrics.failed, failed);
    assert_eq!(metrics.blocks_exa, algorithm(AlgorithmKind::Exa));
    assert_eq!(metrics.blocks_rta, algorithm(AlgorithmKind::Rta));
    assert_eq!(metrics.blocks_ira, algorithm(AlgorithmKind::Ira));
    assert_eq!(metrics.blocks_rmq, algorithm(AlgorithmKind::Rmq));
    assert_eq!(metrics.degraded_blocks, block(40));
    assert_eq!(metrics.downgraded_blocks, block(41));
    let hits = count(EventKind::CacheProbe, &|arg0| arg0 >> 32 == 0);
    assert_eq!(metrics.blocks_cached, hits);
    assert_eq!(metrics.blocks_cached, metrics.cache.hits);
}

fn run_chaos_trace(catalog: &Catalog) -> ChaosOutcome {
    const REQUESTS: u64 = 512;
    const WORKERS: usize = 4;
    // Panic on every 4th ordinal starting at 1; kill the serving worker
    // after ordinals 101 and 301 (both ≡ 1 mod 4 — the exact kill
    // overrides the periodic panic, so the panic count is 128 - 2 = 126).
    // Ordinal 0 is a fault-free warm-up that is waited on before the
    // storm: every later identical request probes a warm cache, so each
    // exemplar's event list is independent of worker interleaving and the
    // error checksum replays byte-stable.
    let plan = FaultPlan::builder()
        .panic_every(4, 1)
        .kill_worker_at(101)
        .kill_worker_at(301)
        .build();
    let service = OptimizationService::builder(catalog.clone())
        .workers(WORKERS)
        .queue_capacity(REQUESTS as usize + WORKERS)
        .supervisor_tick(Duration::from_millis(1))
        .faults(plan)
        .tracing(TraceConfig {
            logical_clock: true,
            ..TraceConfig::default()
        })
        .build();

    service
        .submit_wait(small_request(catalog))
        .expect("warm-up request succeeds");
    let mut tickets = Vec::with_capacity(REQUESTS as usize);
    for _ in 0..REQUESTS {
        tickets.push(
            service
                .submit(small_request(catalog))
                .expect("no deadline, spare capacity, brownout off: every submission is accepted"),
        );
    }
    // Every ticket resolves: panics come back as `Internal`, worker deaths
    // never strand a request (the supervisor refills the pool and the
    // MPMC queue lets survivors steal the dead worker's backlog).
    let (mut ok, mut internal, mut other) = (0u64, 0u64, 0u64);
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => ok += 1,
            Err(ServiceError::Internal { payload, .. }) => {
                assert!(
                    payload.contains("injected fault"),
                    "unexpected panic payload: {payload}"
                );
                internal += 1;
            }
            Err(error) => {
                other += 1;
                eprintln!("unexpected error: {error}");
            }
        }
    }

    // The supervisor restores the pool to its configured size.
    assert!(
        eventually(Duration::from_secs(10), || service.alive_workers()
            == WORKERS
            && service.metrics().respawns == 2),
        "supervisor never restored the pool: alive={}, respawns={}",
        service.alive_workers(),
        service.metrics().respawns
    );

    let trace = service
        .trace_snapshot()
        .expect("tracing was enabled for the chaos run");
    assert_eq!(
        trace.error_exemplars_dropped, 0,
        "the exemplar store must hold every error-class trace of this run"
    );
    // Exemplars carry the full lifecycle: a panicked request must show its
    // submit-side and worker-side events plus the caught panic.
    for exemplar in trace.exemplars_of(ExemplarClass::Panicked) {
        let kinds: Vec<EventKind> = exemplar.events.iter().map(|e| e.kind).collect();
        for expected in [
            EventKind::Submitted,
            EventKind::Enqueued,
            EventKind::Popped,
            EventKind::PanicCaught,
            EventKind::Failed,
        ] {
            assert!(
                kinds.contains(&expected),
                "panic exemplar {} missing {expected:?}: {kinds:?}",
                exemplar.trace_id
            );
        }
    }

    let metrics = service.shutdown();
    assert_counters_reconcile(&metrics, &trace);
    ChaosOutcome {
        ok,
        internal,
        other,
        submitted: metrics.submitted,
        completed: metrics.completed,
        failed: metrics.failed,
        panics_total: metrics.panics_total,
        shed: metrics.shed,
        respawns: metrics.respawns,
        panic_exemplars: trace.exemplars_of(ExemplarClass::Panicked).len(),
        kill_exemplars: trace.exemplars_of(ExemplarClass::WorkerKilled).len(),
        error_checksum: trace.error_checksum(),
    }
}

#[test]
fn chaos_trace_answers_every_request_and_heals_the_pool() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    let outcome = run_chaos_trace(&catalog);
    // 128 ordinals ≡ 1 mod 4, minus the two exact kills that override the
    // periodic panic rule; the checksum itself is pinned by the
    // replay-stability test, not an absolute value here.
    let expected = ChaosOutcome {
        ok: 512 - 126,
        internal: 126,
        other: 0,
        submitted: 513,
        completed: 513 - 126,
        failed: 126,
        panics_total: 126,
        shed: 0,
        respawns: 2,
        panic_exemplars: 126,
        kill_exemplars: 2,
        error_checksum: outcome.error_checksum,
    };
    assert_eq!(outcome, expected);
}

#[test]
fn chaos_counters_replay_stable_across_runs() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    let first = run_chaos_trace(&catalog);
    for run in 1..5 {
        let again = run_chaos_trace(&catalog);
        assert_eq!(again, first, "chaos run {run} diverged");
    }
}

#[test]
fn panic_isolation_keeps_a_single_worker_serving() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    let plan = FaultPlan::builder().panic_at(0).build();
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .faults(plan)
        .build();
    let poisoned = service.submit_wait(small_request(&catalog));
    match poisoned {
        Err(ServiceError::Internal { payload, .. }) => {
            assert!(payload.contains("panic at ordinal 0"), "{payload}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The same worker thread survived the panic and serves the next one.
    let healthy = service.submit_wait(small_request(&catalog));
    assert!(healthy.is_ok(), "{healthy:?}");
    assert_eq!(service.alive_workers(), 1);
    let metrics = service.shutdown();
    assert_eq!(metrics.panics_total, 1);
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.respawns, 0, "no thread died; nothing to respawn");
}

#[test]
fn drop_with_dead_pool_answers_the_backlog_instead_of_hanging() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    // One worker, killed by its first job; a glacial supervisor tick so no
    // replacement arrives before the drop — the queued backlog must be
    // answered by the shutdown drain, not abandoned to hung `wait()`s.
    let plan = FaultPlan::builder().kill_worker_at(0).build();
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .supervisor_tick(Duration::from_secs(30))
        .faults(plan)
        .build();
    let first = service.submit(small_request(&catalog)).unwrap();
    // The kill answers its own request first, then takes the thread down.
    assert!(first.wait().is_ok());
    assert!(eventually(Duration::from_secs(5), || service
        .alive_workers()
        == 0));
    let stranded: Vec<_> = (0..3)
        .map(|_| service.submit(small_request(&catalog)).unwrap())
        .collect();
    drop(service);
    for ticket in stranded {
        assert!(matches!(ticket.wait(), Err(ServiceError::ShuttingDown)));
    }
}

#[test]
fn idle_workers_keep_beating_and_a_wedged_one_is_replaced() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    // Ordinal 0 sleeps 1 s inside its job, where no heartbeat runs: past
    // `stall_after`, so the supervisor abandons that worker and fields a
    // substitute. Workers parked on the idle queue beat through the pop's
    // tick callback and must never look wedged.
    let plan = FaultPlan::builder()
        .delay_at(0, Duration::from_secs(1))
        .build();
    let service = OptimizationService::builder(catalog.clone())
        .workers(2)
        .supervisor_tick(Duration::from_millis(1))
        .stall_after(Duration::from_millis(200))
        .faults(plan)
        .build();
    std::thread::sleep(Duration::from_millis(600));
    let idle = service.metrics();
    assert_eq!((idle.stalls_detected, idle.respawns), (0, 0));
    assert_eq!(service.alive_workers(), 2);

    let response = service.submit_wait(small_request(&catalog));
    assert!(response.is_ok(), "{response:?}");
    let healed = service.metrics();
    assert_eq!((healed.stalls_detected, healed.respawns), (1, 1));
    assert!(eventually(Duration::from_secs(5), || service
        .alive_workers()
        == 2));
    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.errors_total(), 0);
}

#[test]
fn brownout_sheds_and_degrades_under_pressure() {
    let catalog = moqo_catalog::tpch::catalog(0.01);
    // Every job sleeps 10 ms before processing (the test submits ten, so
    // the first 16 ordinals cover them all); the sleep counts as queue
    // wait, so completed requests push the pressure EWMA far beyond the
    // 1 µs watermark. With a single worker the backlog guard is easy to
    // satisfy deterministically.
    let plan = (0..16)
        .fold(FaultPlan::builder(), |plan, ordinal| {
            plan.delay_at(ordinal, Duration::from_millis(10))
        })
        .build();
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .brownout(BrownoutConfig {
            watermark: Some(Duration::from_micros(1)),
        })
        .faults(plan)
        .tracing(TraceConfig::default())
        .build();
    // Distinct queries so the backlog stays cache-miss work (cache hits
    // never degrade — serving a certified front is already cheap).
    let pool = [3u8, 6, 12, 14, 4, 3, 6, 12];
    let tickets: Vec<_> = pool
        .iter()
        .map(|q| {
            let request =
                OptimizationRequest::new(moqo_tpch::query(&catalog, *q), weighted_pref(), 2.0);
            service.submit(request).unwrap()
        })
        .collect();
    // Wait until pressure is measured (a completion) while a real backlog
    // still exists, then submit: the valve must shed.
    assert!(
        eventually(Duration::from_secs(10), || service.metrics().completed >= 1
            && service.queued() >= 1),
        "never reached the pressured-with-backlog state"
    );
    match service.submit(small_request(&catalog)) {
        Err(ServiceError::Shed) => {}
        Err(other) => panic!("expected Shed, got {other:?}"),
        Ok(_) => panic!("expected Shed, got an accepted submission"),
    }

    let mut degraded_blocks_seen = 0;
    for ticket in tickets {
        if let Ok(response) = ticket.wait() {
            for block in &response.blocks {
                if block.report.degraded_by_pressure {
                    degraded_blocks_seen += 1;
                    assert!(
                        block.achieved_alpha.is_infinite(),
                        "a browned-out block must not claim a guarantee"
                    );
                }
            }
        }
    }
    // With the backlog drained the valve reopens (the queue-length guard
    // keeps a stale EWMA from shedding forever): a plain submit goes
    // straight through.
    let reopened = service.submit_wait(small_request(&catalog));
    assert!(reopened.is_ok(), "{reopened:?}");

    // The shed submission never took a queue slot, yet its trace survives
    // as a full exemplar (tail-based retention keeps every error class).
    let trace = service.trace_snapshot().expect("tracing enabled");
    let shed_exemplars = trace.exemplars_of(ExemplarClass::Shed);
    assert!(
        !shed_exemplars.is_empty(),
        "a shed request must be retained as an exemplar"
    );
    assert!(
        shed_exemplars[0]
            .events
            .iter()
            .any(|e| e.kind == EventKind::Shed),
        "the shed exemplar carries the shed event"
    );

    let metrics = service.shutdown();
    assert!(metrics.shed >= 1, "{:?}", metrics.shed);
    assert!(
        metrics.degraded_blocks >= 1 && degraded_blocks_seen >= 1,
        "pressured cache-miss blocks should degrade: counter={}, seen={degraded_blocks_seen}",
        metrics.degraded_blocks
    );
}
