//! Service load replay: hammers the optimization service with a skewed
//! trace of mixed TPC-H and large-join-graph requests at configurable
//! concurrency, then reports throughput, latency percentiles, cache hit
//! ratio and the per-algorithm block mix — and writes the `BENCH_pr7.json`
//! snapshot the perf trajectory tracks.
//!
//! The trace is skewed on purpose: real frontends re-send the same hot
//! queries, which is exactly what the α-aware plan cache exploits. 80% of
//! requests draw from the three hottest pool entries (small TPC-H blocks
//! the DP schemes answer and the cache then serves), the rest spread over
//! the full pool including all four `large_join_graph` topologies driven
//! through hinted RMQ.
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MOQO_SMOKE` | unset | `1`: 128 requests, RMQ budgets ÷10 (CI smoke) |
//! | `MOQO_BENCH_OUT` | `BENCH_pr7.json` | output path |
//! | `MOQO_SL_REQUESTS` | 512 | trace length |
//! | `MOQO_SL_WORKERS` | 4 | service worker threads |
//! | `MOQO_SL_SEED` | 2024 | trace RNG seed |
//! | `MOQO_SL_REPLAY` | unset | deterministic replay: `1` = one worker, submit-after-wait; `2` = two workers, warmed barrier pairs |
//! | `MOQO_SL_FAULTS` | unset | deterministic fault plan (see [`FaultPlan::parse`] grammar) |
//! | `MOQO_SL_TRACE` | unset | `1`: enable the flight recorder. Under replay 1 the trace checksum cells are emitted for `bench_diff`; under the free-running mode the whole trace is driven twice — untraced then traced — and the binary asserts the traced wall time stays within 5% (+0.5 s slack) of the untraced run |
//!
//! Under concurrency the *completion* results are deterministic but the
//! cache hit/miss counters race (whichever worker reaches a cold key first
//! fills it; the rest hit). The replay modes remove the race, so the
//! hit/miss/warm-start cells become machine-independent integers that
//! `bench_diff`'s checksum gate can diff across snapshots — they are only
//! emitted in these modes:
//!
//! * **Replay 1**: a single worker processes one request at a time in
//!   trace order — the strongest determinism, zero concurrency.
//! * **Replay 2**: two workers, but a solo warm-up pass first touches
//!   every pool entry, driving each cache key to its fixed point
//!   (servable keys hit forever after; RMQ/bounded-approximate keys
//!   deterministically warm-start or recompute and reinsert). The trace
//!   then runs as barrier *pairs* (submit two, wait both): because every
//!   key's servability is stable, the per-request counter increments are
//!   order-independent within a pair and the cumulative counters are
//!   machine-independent even though two workers genuinely race — this is
//!   the cell that pins the *sharded* queue and lock-free metrics under
//!   real concurrency.
//!
//! With `MOQO_SL_FAULTS` set, the replay becomes a deterministic *chaos*
//! run: faults are keyed on submission ordinals, so the same trace plus
//! the same plan produces the same caught panics (`Internal` responses),
//! the same worker deaths (and supervisor respawns) and the same injected
//! queue-full rejections on every machine. The binary computes the
//! expected counts straight from the plan and asserts the service's
//! robustness counters match; in the replay modes those counters are also
//! emitted as checksum cells for `bench_diff`'s gate. Cache counter cells
//! are *not* emitted under faults — a panicked warm-up request leaves its
//! key cold, and two workers racing on a cold key fill it in
//! machine-dependent order.

use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_core::Algorithm;
use moqo_cost::{Objective, ObjectiveSet, Preference};
use moqo_service::{
    FaultAction, FaultPlan, OptimizationRequest, OptimizationService, ServiceError, Ticket,
    TraceConfig,
};
use moqo_tpch::{large_query_with, query, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

/// The request pool. The first three entries are the hot set.
fn pool(catalog: &Catalog, rmq_samples: u64) -> Vec<OptimizationRequest> {
    let bounded = weighted_pref().bound(Objective::TupleLoss, 0.0);
    let rmq = Algorithm::Rmq {
        samples: rmq_samples,
        seed: 42,
        threads: 1,
    };
    let mut pool = vec![
        // Hot set: small blocks, served from the cache after first touch.
        OptimizationRequest::new(query(catalog, 3), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 12), weighted_pref(), 1.0),
        OptimizationRequest::new(query(catalog, 6), bounded, 1.0),
        // Cold tail: more TPC-H…
        OptimizationRequest::new(query(catalog, 14), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 10), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 4), bounded, 1.0),
        OptimizationRequest::new(query(catalog, 19), weighted_pref(), 1.5),
        // Bounded + approximate: the IRA path.
        OptimizationRequest::new(query(catalog, 12), bounded, 1.5),
    ];
    // …plus every large-join-graph topology through the anytime search.
    for topology in Topology::ALL {
        for n in [8usize, 12] {
            pool.push(
                OptimizationRequest::new(
                    large_query_with(catalog, n, topology),
                    weighted_pref(),
                    2.0,
                )
                .with_hint(rmq),
            );
        }
    }
    pool
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct Cell {
    name: &'static str,
    params: Vec<(&'static str, String)>,
    median_ms: f64,
    checksum: u64,
}

/// Robustness counters a fault plan predicts for the submitted ordinals.
#[derive(Debug, Default)]
struct FaultExpectations {
    panics: u64,
    kills: u64,
    fulls: u64,
}

/// What the trace actually observed on its tickets.
#[derive(Debug, Default)]
struct Outcomes {
    completed: u64,
    internal: u64,
    injected_full: u64,
}

/// Drives the trace against `service` under the given replay mode (see
/// the module docs) and returns the observed outcomes plus the wall time
/// of the submission loop. `chaos` tolerates the two fault-injected
/// failure shapes (`Internal` responses, injected queue-full bounces).
fn drive(
    service: &OptimizationService,
    pool: &[OptimizationRequest],
    trace: &[usize],
    replay: u32,
    chaos: bool,
) -> (Outcomes, Duration) {
    let mut outcomes = Outcomes::default();
    let settle =
        |outcomes: &mut Outcomes,
         result: Result<moqo_service::OptimizationResponse, ServiceError>| {
            match result {
                Ok(response) => {
                    assert!(response.weighted_cost.is_finite());
                    outcomes.completed += 1;
                }
                Err(ServiceError::Internal { .. }) if chaos => outcomes.internal += 1,
                Err(error) => panic!("unexpected error in the trace: {error}"),
            }
        };
    // Submission wrapper tolerating injected queue-full rejections (the
    // only submit-time fault; the trace carries no deadlines and brownout
    // is off).
    let submit = |outcomes: &mut Outcomes, request: &OptimizationRequest| -> Option<Ticket> {
        match service.submit(request.clone()) {
            Ok(ticket) => Some(ticket),
            Err(ServiceError::QueueFull) if chaos => {
                outcomes.injected_full += 1;
                None
            }
            Err(error) => panic!("unexpected submit failure: {error}"),
        }
    };

    let started = Instant::now();
    if replay == 1 {
        // Submit-after-wait: exactly one request in flight, so every cache
        // probe sees the deterministic state the trace prefix produced.
        for &i in trace {
            if let Some(ticket) = submit(&mut outcomes, &pool[i]) {
                settle(&mut outcomes, ticket.wait());
            }
        }
    } else if replay == 2 {
        // Warm-up: touch every pool entry once, solo, driving each cache
        // key to its fixed point (see module docs).
        for request in pool {
            if let Some(ticket) = submit(&mut outcomes, request) {
                settle(&mut outcomes, ticket.wait());
            }
        }
        // Barrier pairs: two requests genuinely in flight across the two
        // workers, yet the counter deltas stay order-independent because
        // every key's servability is already stable.
        for pair in trace.chunks(2) {
            let tickets: Vec<_> = pair
                .iter()
                .filter_map(|&i| submit(&mut outcomes, &pool[i]))
                .collect();
            for t in tickets {
                settle(&mut outcomes, t.wait());
            }
        }
    } else {
        let tickets: Vec<_> = trace
            .iter()
            .filter_map(|&i| submit(&mut outcomes, &pool[i]))
            .collect();
        for t in tickets {
            settle(&mut outcomes, t.wait());
        }
    }
    (outcomes, started.elapsed())
}

fn main() {
    let smoke = std::env::var("MOQO_SMOKE").is_ok_and(|v| v != "0");
    let env_usize = |key: &str, default: usize| -> usize {
        std::env::var(key)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default)
    };
    let replay: u32 = std::env::var("MOQO_SL_REPLAY")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    assert!(replay <= 2, "MOQO_SL_REPLAY must be 0, 1 or 2");
    let trace_on = std::env::var("MOQO_SL_TRACE").is_ok_and(|v| v != "0");
    let requests = env_usize("MOQO_SL_REQUESTS", if smoke { 128 } else { 512 });
    let workers = match replay {
        1 => 1,
        2 => 2,
        _ => env_usize("MOQO_SL_WORKERS", 4),
    };
    let seed = env_usize("MOQO_SL_SEED", 2024) as u64;
    let rmq_samples: u64 = if smoke { 100 } else { 1000 };
    let out_path = std::env::var("MOQO_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr7.json".to_owned());
    let faults = FaultPlan::from_env();

    let catalog = moqo_tpch::catalog(0.01);
    let mut builder = OptimizationService::builder(catalog.clone())
        .workers(workers)
        .queue_capacity(requests.max(16))
        .cache_capacity(256);
    if let Some(plan) = faults.clone() {
        builder = builder.faults(plan);
    }
    if trace_on {
        // The logical clock makes the replay-mode event stream (and its
        // checksum) byte-deterministic; free-running mode keeps wall-clock
        // timestamps for real latency attribution.
        builder = builder.tracing(TraceConfig {
            logical_clock: replay > 0,
            ..TraceConfig::default()
        });
    }
    let service = builder.build();
    let pool = pool(&catalog, rmq_samples);
    let hot = 3usize.min(pool.len());

    let mut rng = StdRng::seed_from_u64(seed);
    let trace: Vec<usize> = (0..requests)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.8 {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..pool.len())
            }
        })
        .collect();

    // Every submission outcome is a function of its ordinal and the plan,
    // so the expected robustness counters are computable up front. A
    // `KillWorker` fault answers its request normally (then takes the
    // worker down), an injected `QueueFull` bounces at submission, and a
    // `Panic` comes back as `ServiceError::Internal`.
    let total_submissions = (requests + if replay == 2 { pool.len() } else { 0 }) as u64;
    let mut expected = FaultExpectations::default();
    if let Some(plan) = &faults {
        for ordinal in 0..total_submissions {
            match plan.at(ordinal) {
                Some(FaultAction::Panic) => expected.panics += 1,
                Some(FaultAction::KillWorker) => expected.kills += 1,
                Some(FaultAction::QueueFull) => expected.fulls += 1,
                Some(FaultAction::Delay(_)) | None => {}
            }
        }
    }
    // In-binary tracing-overhead gate: the free-running (concurrent) trace
    // is driven twice against two fresh services — untraced first, then
    // traced — and the traced wall time must stay within 5% plus a fixed
    // slack absorbing scheduler noise on short smoke runs. Replay modes
    // skip the double run; their purpose is checksums, not throughput.
    let untraced_wall = if trace_on && replay == 0 && faults.is_none() {
        let untraced = OptimizationService::builder(catalog.clone())
            .workers(workers)
            .queue_capacity(requests.max(16))
            .cache_capacity(256)
            .build();
        let (_, wall) = drive(&untraced, &pool, &trace, replay, false);
        drop(untraced.shutdown());
        Some(wall)
    } else {
        None
    };

    let (outcomes, wall) = drive(&service, &pool, &trace, replay, faults.is_some());
    let completed = outcomes.completed;

    if let Some(baseline) = untraced_wall {
        let limit = baseline.mul_f64(1.05) + Duration::from_millis(500);
        println!(
            "  trace overhead: untraced {:.1} ms vs traced {:.1} ms (limit {:.1} ms)",
            baseline.as_secs_f64() * 1e3,
            wall.as_secs_f64() * 1e3,
            limit.as_secs_f64() * 1e3,
        );
        assert!(
            wall <= limit,
            "tracing overhead exceeded 5% (+0.5 s slack): untraced {baseline:?}, traced {wall:?}"
        );
    }

    // Chaos runs: wait for the supervisor to finish replacing every
    // injected worker death before snapshotting, so the respawn counter is
    // settled (and therefore checksum-stable) when it is recorded.
    if expected.kills > 0 {
        let deadline = Instant::now() + Duration::from_secs(30);
        while (service.metrics().respawns < expected.kills || service.alive_workers() < workers)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Captured before shutdown (which consumes the service); only `Some`
    // when `MOQO_SL_TRACE` enabled the recorder.
    let trace_snapshot = service.trace_snapshot();
    let metrics = service.shutdown();
    let hit_ratio = metrics.cache.hit_ratio();

    println!(
        "service_load: {requests} requests × {workers} workers in {:.1} ms \
         ({:.0} req/s wall)",
        wall.as_secs_f64() * 1e3,
        completed as f64 / wall.as_secs_f64()
    );
    println!(
        "  latency p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms",
        metrics.p50.as_secs_f64() * 1e3,
        metrics.p95.as_secs_f64() * 1e3,
        metrics.p99.as_secs_f64() * 1e3,
    );
    println!(
        "  queue wait p95 {:.2} ms | service time p95 {:.2} ms",
        metrics.queue_p95.as_secs_f64() * 1e3,
        metrics.service_p95.as_secs_f64() * 1e3,
    );
    println!(
        "  cache: {:.1}% hit ratio ({} hits / {} misses / {} warm starts, \
         {} entries, {} evictions)",
        hit_ratio * 100.0,
        metrics.cache.hits,
        metrics.cache.misses,
        metrics.cache.warm_starts,
        metrics.cache.entries,
        metrics.cache.evictions,
    );
    println!(
        "  block mix: {} exa | {} rta | {} ira | {} rmq | {} cache-served \
         ({} downgraded)",
        metrics.blocks_exa,
        metrics.blocks_rta,
        metrics.blocks_ira,
        metrics.blocks_rmq,
        metrics.blocks_cached,
        metrics.downgraded_blocks,
    );

    assert_eq!(metrics.completed, completed);
    // Every submission ends in exactly one outcome: a completion or one
    // error-taxonomy counter. Nothing falls between the counters, and
    // nothing counts twice.
    assert_eq!(
        metrics.completed + metrics.errors_total(),
        total_submissions,
        "completions and errors must partition the submissions"
    );
    if faults.is_none() {
        assert!(
            hit_ratio > 0.5,
            "the skewed trace must produce a >50% cache hit ratio, got {:.1}%",
            hit_ratio * 100.0
        );
        // A deadline-free, fault-free trace errors exactly zero times.
        assert_eq!(metrics.errors_total(), 0, "fault-free traces never error");
        assert_eq!(metrics.panics_total, 0);
        assert_eq!(metrics.respawns, 0);
    } else {
        // Chaos runs: the observed outcomes and the service's robustness
        // counters must both match what the plan predicts, exactly.
        println!(
            "  chaos: {} panics caught | {} workers killed+respawned | \
             {} injected queue-full | {} shed",
            metrics.panics_total, metrics.respawns, outcomes.injected_full, metrics.shed,
        );
        assert_eq!(outcomes.internal, expected.panics, "caught-panic responses");
        assert_eq!(
            outcomes.injected_full, expected.fulls,
            "injected rejections"
        );
        assert_eq!(
            metrics.panics_total, expected.panics,
            "panics_total counter"
        );
        assert_eq!(
            metrics.failed, expected.panics,
            "every Internal counts as failed"
        );
        assert_eq!(
            metrics.respawns, expected.kills,
            "supervisor respawn counter"
        );
        assert_eq!(
            completed,
            total_submissions - expected.panics - expected.fulls,
            "every non-faulted submission completes"
        );
        assert_eq!(metrics.shed, 0, "brownout is off in this trace");
    }

    let base_params = vec![
        ("workers", workers.to_string()),
        ("requests", requests.to_string()),
    ];
    let latency_cell = |pct: &'static str, value: std::time::Duration| Cell {
        name: "service_load_latency",
        params: {
            let mut v = base_params.clone();
            v.push(("percentile", pct.to_owned()));
            v
        },
        median_ms: value.as_secs_f64() * 1e3,
        checksum: completed,
    };
    let mut cells = vec![
        latency_cell("50", metrics.p50),
        latency_cell("95", metrics.p95),
        latency_cell("99", metrics.p99),
        Cell {
            name: "service_load_hit_ratio_pct",
            params: base_params.clone(),
            median_ms: hit_ratio * 100.0,
            checksum: completed,
        },
        Cell {
            name: "service_load_throughput_rps",
            params: base_params.clone(),
            median_ms: completed as f64 / wall.as_secs_f64(),
            checksum: completed,
        },
        Cell {
            name: "service_load_rmq_blocks",
            params: base_params.clone(),
            median_ms: metrics.blocks_rmq as f64,
            checksum: completed,
        },
    ];
    if replay > 0 {
        if faults.is_none() {
            // Cache counters are only deterministic in the fault-free
            // replay modes (an injected warm-up panic leaves its key cold
            // and later pair submissions race on it); the value doubles as
            // the checksum so `bench_diff` gates it.
            for (counter, value) in [
                ("hits", metrics.cache.hits),
                ("misses", metrics.cache.misses),
                ("warm_starts", metrics.cache.warm_starts),
                ("insertions", metrics.cache.insertions),
            ] {
                let mut params = base_params.clone();
                params.push(("counter", counter.to_owned()));
                cells.push(Cell {
                    name: "service_load_replay_cache",
                    params,
                    median_ms: value as f64,
                    checksum: value,
                });
            }
        }
        // The per-variant error counters, gated the same way: a replay
        // trace carries no deadlines, so every cell stays pinned at zero
        // in a fault-free run — and at the plan-predicted counts in a
        // chaos run. Any drift means the serving path started misrouting
        // or inventing errors.
        for (variant, value) in [
            ("rejected", metrics.rejected),
            ("timed_out", metrics.timed_out),
            ("failed", metrics.failed),
            ("shed", metrics.shed),
        ] {
            let mut params = base_params.clone();
            params.push(("variant", variant.to_owned()));
            cells.push(Cell {
                name: "service_load_replay_errors",
                params,
                median_ms: value as f64,
                checksum: value,
            });
        }
        // The robustness counters: caught panics, supervisor respawns and
        // injected rejections replay byte-stable because faults are keyed
        // on submission ordinals — this is the chaos gate's payload (and
        // it pins all three at zero for fault-free replays).
        for (counter, value) in [
            ("panics_total", metrics.panics_total),
            ("respawns", metrics.respawns),
            ("injected_queue_full", outcomes.injected_full),
        ] {
            let mut params = base_params.clone();
            params.push(("counter", counter.to_owned()));
            cells.push(Cell {
                name: "service_load_fault_replay",
                params,
                median_ms: value as f64,
                checksum: value,
            });
        }
    }
    if let Some(snapshot) = &trace_snapshot {
        println!(
            "  trace: {} events total ({} overwritten in the ring), {} error exemplars, \
             stream checksum {:#018x}",
            snapshot.events_total,
            snapshot.dropped_events,
            snapshot.error_exemplars.len(),
            snapshot.stream_checksum,
        );
        if replay == 1 {
            // Single-worker replay is the only mode where the *ordered*
            // event stream is interleaving-free, so its checksum (and the
            // event counts) are machine-independent integers bench_diff
            // can gate byte-for-byte.
            for (counter, value) in [
                ("events_total", snapshot.events_total),
                ("dropped_events", snapshot.dropped_events),
                ("error_exemplars", snapshot.error_exemplars.len() as u64),
                ("stream_checksum", snapshot.stream_checksum),
            ] {
                let mut params = base_params.clone();
                params.push(("counter", counter.to_owned()));
                cells.push(Cell {
                    name: "service_trace_replay",
                    params,
                    median_ms: 0.0,
                    checksum: value,
                });
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"moqo-bench-snapshot/v1\",\n");
    json.push_str("  \"pr\": 7,\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let params: Vec<String> = c
            .params
            .iter()
            .map(|(k, v)| {
                // Numeric values stay bare; anything else is a JSON string.
                if v.parse::<f64>().is_ok() {
                    format!("\"{}\": {}", json_escape(k), v)
                } else {
                    format!("\"{}\": \"{}\"", json_escape(k), json_escape(v))
                }
            })
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", {}, \"median_ms\": {:.4}, \"checksum\": {}}}{}\n",
            json_escape(c.name),
            params.join(", "),
            c.median_ms,
            c.checksum,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("snapshot file must be writable");
    println!("\nwrote {} cells to {out_path}", cells.len());
}
