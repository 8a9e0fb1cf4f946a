//! Deterministic replays of a skewed serving trace, pinned counter for
//! counter.
//!
//! The inputs are a 16-entry request pool and a 128-request trace drawn
//! from seed 2024. The pool holds eight TPC-H blocks (three of them bounded)
//! plus the four large-join-graph topologies at 8 and 12 tables through
//! hinted RMQ. 80% of the trace draws from the three hottest entries:
//! real frontends re-send hot queries, which is what the α-aware plan
//! cache exploits.
//!
//! Under free-running concurrency the cache counters race (whichever
//! worker reaches a cold key first fills it). The replays remove the race,
//! so their counters are machine- and profile-independent integers:
//!
//! * **Single worker**: one request in flight at a time, in trace order.
//!   With the flight recorder on a logical clock the ordered event stream
//!   is byte-deterministic too. Every `block_optimized` event folds its
//!   block's `DpStats` into the stream checksum, so the checksum pins the
//!   considered and stored plans of every optimized block.
//! * **Two workers**: a solo warm-up pass over the pool drives every cache
//!   key to its fixed point, then the trace runs as barrier pairs. Every
//!   key's servability is then stable, so the counter deltas of a pair do
//!   not depend on which worker wins, even though both race over the
//!   queue.
//! * **Two workers under faults**: the same replay with panics, worker
//!   kills, an injected queue-full and a delay, all keyed on submission
//!   ordinals, so the robustness counters replay exactly.
//!
//! A free-running run at four workers, untraced and then traced, bounds
//! what the flight recorder costs.

use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_core::Algorithm;
use moqo_cost::{Objective, ObjectiveSet, Preference};
use moqo_service::{
    FaultPlan, OptimizationRequest, OptimizationService, ServiceBuilder, ServiceError, TraceConfig,
    TraceSnapshot,
};
use moqo_tpch::{large_query_with, query, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REQUESTS: usize = 128;

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

/// The catalog, the request pool and the skewed trace over it.
struct Inputs {
    catalog: Catalog,
    pool: Vec<OptimizationRequest>,
    /// Pool indices in submission order.
    trace: Vec<usize>,
}

impl Inputs {
    fn new() -> Self {
        let catalog = moqo_tpch::catalog(0.01);
        let bounded = weighted_pref().bound(Objective::TupleLoss, 0.0);
        let mut pool = vec![
            // Hot set: small blocks, served from the cache after first touch.
            OptimizationRequest::new(query(&catalog, 3), weighted_pref(), 2.0),
            OptimizationRequest::new(query(&catalog, 12), weighted_pref(), 1.0),
            OptimizationRequest::new(query(&catalog, 6), bounded, 1.0),
            // Cold tail: more TPC-H…
            OptimizationRequest::new(query(&catalog, 14), weighted_pref(), 2.0),
            OptimizationRequest::new(query(&catalog, 10), weighted_pref(), 2.0),
            OptimizationRequest::new(query(&catalog, 4), bounded, 1.0),
            OptimizationRequest::new(query(&catalog, 19), weighted_pref(), 1.5),
            // Bounded + approximate: the IRA path.
            OptimizationRequest::new(query(&catalog, 12), bounded, 1.5),
        ];
        // …plus every large-join-graph topology through the anytime search.
        let rmq = Algorithm::Rmq {
            samples: 100,
            seed: 42,
            threads: 1,
        };
        for topology in Topology::ALL {
            for n in [8, 12] {
                let graph = large_query_with(&catalog, n, topology);
                pool.push(OptimizationRequest::new(graph, weighted_pref(), 2.0).with_hint(rmq));
            }
        }
        let mut rng = StdRng::seed_from_u64(2024);
        let trace = (0..REQUESTS)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.8 {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..pool.len())
                }
            })
            .collect();
        Inputs {
            catalog,
            pool,
            trace,
        }
    }

    /// A service sized for the trace: queue capacity 128, cache capacity 256.
    fn service(&self, workers: usize) -> ServiceBuilder {
        OptimizationService::builder(self.catalog.clone())
            .workers(workers)
            .queue_capacity(REQUESTS)
            .cache_capacity(256)
    }
}

/// How the trace is fed to the service.
enum Drive {
    /// Submit one request, wait for it, then submit the next.
    Serial,
    /// Submit and wait for each pool entry once, then the trace in pairs.
    WarmedPairs,
    /// Submit the whole trace, then wait for every ticket.
    FreeRunning,
}

/// What the tickets of one drive reported.
#[derive(Debug, Default)]
struct Outcomes {
    submitted: u64,
    completed: u64,
    /// `Internal` responses: injected panics.
    internal: u64,
    /// Injected queue-full rejections at submission.
    injected_full: u64,
    wall: Duration,
}

/// Feeds the trace to `service` as `drive` says. With `chaos` the two
/// injected failure shapes are counted; without it any error fails the
/// test (the trace carries no deadlines and brownout is off).
fn drive(service: &OptimizationService, inputs: &Inputs, drive: Drive, chaos: bool) -> Outcomes {
    let warm_up: Vec<usize> = (0..inputs.pool.len()).collect();
    let batches: Vec<&[usize]> = match drive {
        Drive::Serial => inputs.trace.chunks(1).collect(),
        Drive::WarmedPairs => warm_up.chunks(1).chain(inputs.trace.chunks(2)).collect(),
        Drive::FreeRunning => vec![&inputs.trace[..]],
    };
    let mut outcomes = Outcomes::default();
    let started = Instant::now();
    for batch in batches {
        let mut tickets = Vec::new();
        for &i in batch {
            outcomes.submitted += 1;
            match service.submit(inputs.pool[i].clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServiceError::QueueFull) if chaos => outcomes.injected_full += 1,
                Err(error) => panic!("unexpected submit failure: {error}"),
            }
        }
        for ticket in tickets {
            match ticket.wait() {
                Ok(response) => {
                    assert!(response.weighted_cost.is_finite());
                    outcomes.completed += 1;
                }
                Err(ServiceError::Internal { .. }) if chaos => outcomes.internal += 1,
                Err(error) => panic!("unexpected error in the trace: {error}"),
            }
        }
    }
    outcomes.wall = started.elapsed();
    outcomes
}

/// The counters a replay pins: completions, cache, block mix and every
/// error and robustness counter.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    completed: u64,
    hits: u64,
    misses: u64,
    warm_starts: u64,
    insertions: u64,
    blocks_rmq: u64,
    rejected: u64,
    timed_out: u64,
    failed: u64,
    shed: u64,
    panics_total: u64,
    respawns: u64,
    injected_queue_full: u64,
}

/// One finished run.
struct Run {
    counters: Counters,
    hit_ratio: f64,
    wall: Duration,
    trace: Option<TraceSnapshot>,
}

/// Shuts `service` down and checks what every run must satisfy: the
/// service counted what the tickets saw, and completions and errors
/// partition the submissions (nothing falls between the counters, and
/// nothing counts twice).
fn finish(service: OptimizationService, outcomes: Outcomes) -> Run {
    let trace = service.trace_snapshot();
    let m = service.shutdown();
    assert_eq!(m.completed, outcomes.completed);
    assert_eq!(
        m.failed, outcomes.internal,
        "every Internal counts as failed"
    );
    assert_eq!(
        m.completed + m.errors_total(),
        outcomes.submitted,
        "completions and errors must partition the submissions"
    );
    let counters = Counters {
        completed: m.completed,
        hits: m.cache.hits,
        misses: m.cache.misses,
        warm_starts: m.cache.warm_starts,
        insertions: m.cache.insertions,
        blocks_rmq: m.blocks_rmq,
        rejected: m.rejected,
        timed_out: m.timed_out,
        failed: m.failed,
        shed: m.shed,
        panics_total: m.panics_total,
        respawns: m.respawns,
        injected_queue_full: outcomes.injected_full,
    };
    Run {
        counters,
        hit_ratio: m.cache.hit_ratio(),
        wall: outcomes.wall,
        trace,
    }
}

#[test]
fn single_worker_replay_pins_counters_and_the_trace_stream() {
    let inputs = Inputs::new();
    let logical = TraceConfig {
        logical_clock: true,
        ..TraceConfig::default()
    };
    for traced in [false, true] {
        let mut builder = inputs.service(1);
        if traced {
            builder = builder.tracing(logical.clone());
        }
        let service = builder.build();
        let outcomes = drive(&service, &inputs, Drive::Serial, false);
        let run = finish(service, outcomes);
        let expected = Counters {
            completed: 128,
            hits: 110,
            misses: 21,
            warm_starts: 3,
            insertions: 16,
            blocks_rmq: 10,
            ..Counters::default()
        };
        assert_eq!(run.counters, expected, "traced: {traced}");
        assert_eq!(run.trace.is_some(), traced);
        if let Some(trace) = run.trace {
            assert_eq!(trace.events_total, 664);
            assert_eq!(trace.dropped_events, 0);
            assert_eq!(trace.error_exemplars.len(), 0);
            assert_eq!(trace.stream_checksum, 18_182_511_501_769_746_661);
        }
    }
}

#[test]
fn two_worker_replay_pins_the_concurrent_serving_path() {
    let inputs = Inputs::new();
    let service = inputs.service(2).build();
    let outcomes = drive(&service, &inputs, Drive::WarmedPairs, false);
    let expected = Counters {
        completed: 144,
        hits: 118,
        misses: 30,
        warm_starts: 10,
        insertions: 17,
        blocks_rmq: 18,
        ..Counters::default()
    };
    assert_eq!(finish(service, outcomes).counters, expected);
}

#[test]
fn two_worker_fault_replay_pins_the_robustness_counters() {
    let inputs = Inputs::new();
    // Ordinal 90 is also a periodic panic ordinal; the exact kill wins.
    let plan = FaultPlan::builder()
        .panic_every(8, 2)
        .kill_worker_at(40)
        .kill_worker_at(90)
        .queue_full_at(70)
        .delay_at(77, Duration::from_millis(2))
        .build();
    let service = inputs.service(2).faults(plan).build();
    let outcomes = drive(&service, &inputs, Drive::WarmedPairs, true);
    // Let the supervisor replace both killed workers, so the respawn
    // counter is settled when the snapshot reads it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (service.metrics().respawns < 2 || service.alive_workers() < 2)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let counters = finish(service, outcomes).counters;
    // A panicked warm-up request leaves its key cold and the pairs race
    // on it, so the cache counters are not pinned here.
    let expected = Counters {
        completed: 126,
        blocks_rmq: 16,
        rejected: 0,
        timed_out: 0,
        failed: 17,
        shed: 0,
        panics_total: 17,
        respawns: 2,
        injected_queue_full: 1,
        ..counters
    };
    assert_eq!(counters, expected);
}

#[test]
fn free_running_trace_hits_the_cache_and_tracing_stays_cheap() {
    let inputs = Inputs::new();
    let mut walls = Vec::new();
    for traced in [false, true] {
        let mut builder = inputs.service(4);
        if traced {
            builder = builder.tracing(TraceConfig::default());
        }
        let service = builder.build();
        let outcomes = drive(&service, &inputs, Drive::FreeRunning, false);
        let run = finish(service, outcomes);
        // Workers race to fill cold keys: the cache counters and the block
        // mix are not pinned.
        let expected = Counters {
            completed: 128,
            rejected: 0,
            timed_out: 0,
            failed: 0,
            shed: 0,
            panics_total: 0,
            respawns: 0,
            injected_queue_full: 0,
            ..run.counters
        };
        assert_eq!(run.counters, expected, "traced: {traced}");
        assert!(
            run.hit_ratio > 0.5,
            "the skewed trace must produce a >50% cache hit ratio, got {:.1}% (traced: {traced})",
            run.hit_ratio * 100.0
        );
        walls.push(run.wall);
    }
    // A fixed slack absorbs scheduler noise on a run this short.
    let (untraced, traced) = (walls[0], walls[1]);
    let limit = untraced.mul_f64(1.05) + Duration::from_millis(500);
    assert!(
        traced <= limit,
        "tracing overhead exceeded 5% (+0.5 s slack): untraced {untraced:?}, traced {traced:?}"
    );
}
