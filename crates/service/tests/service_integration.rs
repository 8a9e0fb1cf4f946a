//! Acceptance tests for the optimization service: a mixed 256-request load
//! at 4 workers where **every** response is either bit-equivalent to a
//! direct `Optimizer` call or a certified cache serve, plus determinism
//! under the single-worker test configuration.

use std::collections::HashMap;

use moqo_catalog::Catalog;
use moqo_core::{Algorithm, Optimizer, PlanEntry, PruneMode};
use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference};
use moqo_service::{
    BlockSource, CacheKey, CacheLookup, OptimizationRequest, OptimizationService, PlanCache,
    ServiceError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

fn bounded_pref() -> Preference {
    weighted_pref().bound(Objective::TupleLoss, 0.0)
}

/// The mixed request pool: small/medium TPC-H blocks through the DP
/// schemes (α′ 1.0 and 2.0, weighted and bounded) plus all four large
/// join-graph topologies through hinted RMQ.
fn request_pool(catalog: &Catalog) -> Vec<OptimizationRequest> {
    use moqo_tpch::{large_query_with, query, Topology};
    let rmq = Algorithm::Rmq {
        samples: 400,
        seed: 7,
        threads: 1,
    };
    let mut pool = vec![
        OptimizationRequest::new(query(catalog, 3), weighted_pref(), 1.0),
        OptimizationRequest::new(query(catalog, 3), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 6), bounded_pref(), 1.0),
        OptimizationRequest::new(query(catalog, 12), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 14), weighted_pref(), 1.0),
        // Multi-block query (two singleton blocks).
        OptimizationRequest::new(query(catalog, 4), weighted_pref(), 2.0),
    ];
    for topology in Topology::ALL {
        pool.push(
            OptimizationRequest::new(
                large_query_with(catalog, 10, topology),
                weighted_pref(),
                2.0,
            )
            .with_hint(rmq),
        );
    }
    pool
}

fn frontier_costs(entries: &[PlanEntry]) -> Vec<CostVector> {
    entries.iter().map(|e| e.cost).collect()
}

/// Reference results for one (block, preference, algorithm) computed
/// outside the service, memoized by signature so the verification pass
/// stays fast.
struct Reference<'a> {
    optimizer: Optimizer<'a>,
    fresh: HashMap<(u64, u64, String), Vec<CostVector>>,
    warm: HashMap<(u64, u64, String), Vec<CostVector>>,
}

impl<'a> Reference<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Reference {
            optimizer: Optimizer::new(catalog),
            fresh: HashMap::new(),
            warm: HashMap::new(),
        }
    }

    fn key(
        graph: &moqo_catalog::JoinGraph,
        preference: &Preference,
        algorithm: Algorithm,
    ) -> (u64, u64, String) {
        (
            graph.signature().0,
            preference.signature().0,
            format!("{algorithm:?}"),
        )
    }

    /// The frontier a fresh direct `optimize_block` produces.
    fn fresh_front(
        &mut self,
        graph: &moqo_catalog::JoinGraph,
        preference: &Preference,
        algorithm: Algorithm,
    ) -> Vec<CostVector> {
        let key = Self::key(graph, preference, algorithm);
        if let Some(found) = self.fresh.get(&key) {
            return found.clone();
        }
        let (block, _) = self.optimizer.optimize_block(graph, preference, algorithm);
        let costs = frontier_costs(&block.frontier);
        self.fresh.insert(key, costs.clone());
        costs
    }

    /// The frontier a warm-started `optimize_block_warm` produces when
    /// seeded from the fresh run's front — exactly what the service's
    /// cache hands to RMQ on a warm start.
    fn warm_front(
        &mut self,
        graph: &moqo_catalog::JoinGraph,
        preference: &Preference,
        algorithm: Algorithm,
    ) -> Vec<CostVector> {
        let key = Self::key(graph, preference, algorithm);
        if let Some(found) = self.warm.get(&key) {
            return found.clone();
        }
        let (fresh_block, _) = self.optimizer.optimize_block(graph, preference, algorithm);
        let trees = fresh_block.frontier_trees();
        let (block, _) = self
            .optimizer
            .optimize_block_warm(graph, preference, algorithm, &trees);
        let costs = frontier_costs(&block.frontier);
        self.warm.insert(key, costs.clone());
        costs
    }
}

#[test]
fn mixed_load_equals_direct_optimization_or_certified_hits() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(4)
        .queue_capacity(512)
        .cache_capacity(256)
        .build();
    let pool = request_pool(&catalog);

    // A skewed trace: ~60% of the 256 requests draw from three pool
    // entries, the rest spread across the full pool.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut trace: Vec<usize> = Vec::with_capacity(256);
    for _ in 0..256 {
        let hot: f64 = rng.gen_range(0.0..1.0);
        trace.push(if hot < 0.6 {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(0..pool.len())
        });
    }

    let tickets: Vec<_> = trace
        .iter()
        .map(|&i| {
            service
                .submit(pool[i].clone())
                .expect("queue capacity covers the trace")
        })
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("no deadlines, nothing is rejected"))
        .collect();
    assert_eq!(responses.len(), 256);

    let mut reference = Reference::new(&catalog);
    let mut hits = 0usize;
    let mut computed = 0usize;
    let mut warmed = 0usize;
    for (&combo, response) in trace.iter().zip(&responses) {
        let request = &pool[combo];
        assert_eq!(response.blocks.len(), request.query.blocks.len());
        assert!(response.weighted_cost.is_finite());
        for (graph, block) in request.query.blocks.iter().zip(&response.blocks) {
            let served = frontier_costs(&block.frontier);
            assert!(!served.is_empty());
            match &block.source {
                BlockSource::CacheHit { certificate } => {
                    hits += 1;
                    assert!(
                        certificate.is_valid(),
                        "hit without a valid certificate: {certificate:?}"
                    );
                    assert!(certificate.cached_alpha <= request.alpha);
                    // α′-coverage, certified against the exact front: the
                    // served front must α′-cover the true Pareto frontier.
                    let exact =
                        reference.fresh_front(graph, &request.preference, Algorithm::Exhaustive);
                    assert!(
                        moqo_cost::pareto_front::is_approx_pareto_set(
                            &served,
                            &exact,
                            request.alpha,
                            request.preference.objectives,
                        ),
                        "cached front does not α′-cover the exact frontier"
                    );
                }
                BlockSource::Computed { algorithm, .. } => {
                    computed += 1;
                    let expected = reference.fresh_front(graph, &request.preference, *algorithm);
                    assert_eq!(
                        served, expected,
                        "computed front must match the direct optimizer call"
                    );
                }
                BlockSource::WarmStarted { algorithm, .. } => {
                    warmed += 1;
                    let expected = reference.warm_front(graph, &request.preference, *algorithm);
                    assert_eq!(
                        served, expected,
                        "warm-started front must match a direct warm-started call"
                    );
                }
            }
        }
    }

    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 256);
    assert_eq!(metrics.rejected, 0);
    assert!(hits > 0, "a skewed trace must produce cache hits");
    assert!(computed > 0);
    assert_eq!(metrics.cache.hits, hits as u64);
    assert_eq!(
        metrics.blocks_cached, hits as u64,
        "block mix must agree with per-response sources"
    );
    // Every block was served one of the three ways.
    assert_eq!(
        metrics.blocks_cached
            + metrics.blocks_exa
            + metrics.blocks_rta
            + metrics.blocks_ira
            + metrics.blocks_rmq,
        (hits + computed + warmed) as u64
    );
    assert!(metrics.p95 >= metrics.p50);
    assert!(metrics.throughput_rps > 0.0);
}

#[test]
fn single_worker_processing_is_deterministic() {
    let catalog = moqo_tpch::catalog(0.01);
    let pool = request_pool(&catalog);
    let run = || -> Vec<(f64, Vec<Vec<CostVector>>)> {
        let service = OptimizationService::builder(catalog.clone())
            .workers(1)
            .queue_capacity(64)
            .build();
        let mut out = Vec::new();
        // Two passes over the pool: the second is served from the cache
        // wherever certificates allow.
        for _ in 0..2 {
            for request in &pool {
                let response = service.submit_wait(request.clone()).unwrap();
                out.push((
                    response.weighted_cost,
                    response
                        .blocks
                        .iter()
                        .map(|b| frontier_costs(&b.frontier))
                        .collect(),
                ));
            }
        }
        out
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "weighted costs must agree");
        assert_eq!(x.1, y.1, "fronts must be bit-identical across runs");
    }
}

#[test]
fn second_identical_request_is_served_from_cache() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let request = OptimizationRequest::new(moqo_tpch::query(&catalog, 3), weighted_pref(), 2.0);
    let first = service.submit_wait(request.clone()).unwrap();
    assert!(!first.fully_cached());
    let second = service.submit_wait(request).unwrap();
    assert!(
        second.fully_cached(),
        "identical request must hit the cache"
    );
    assert_eq!(first.weighted_cost, second.weighted_cost);
    let snap = service.cache_snapshot();
    assert!(snap.hits >= 1);
    assert!(snap.hit_ratio() > 0.0);
}

#[test]
fn tighter_alpha_request_recomputes_and_tightens_the_entry() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let query = moqo_tpch::query(&catalog, 3);
    // Loose request first: cached at α = 2.
    let loose = service
        .submit_wait(OptimizationRequest::new(
            query.clone(),
            weighted_pref(),
            2.0,
        ))
        .unwrap();
    assert!(matches!(
        loose.blocks[0].source,
        BlockSource::Computed {
            algorithm: Algorithm::Rta { .. },
            ..
        }
    ));
    // Exactness demanded: the α = 2 entry cannot serve; EXA runs and the
    // entry tightens to α = 1.
    let exact = service
        .submit_wait(OptimizationRequest::new(
            query.clone(),
            weighted_pref(),
            1.0,
        ))
        .unwrap();
    assert!(matches!(
        exact.blocks[0].source,
        BlockSource::Computed {
            algorithm: Algorithm::Exhaustive,
            ..
        }
    ));
    // The entry now carries α = 1, so the same preference is served from
    // the cache at every tolerance, including exactness.
    for alpha in [1.0, 1.5, 10.0] {
        let served = service
            .submit_wait(OptimizationRequest::new(
                query.clone(),
                weighted_pref(),
                alpha,
            ))
            .unwrap();
        assert!(served.fully_cached(), "α′ = {alpha} must hit the α=1 entry");
        assert_eq!(served.weighted_cost, exact.weighted_cost);
    }
    // A different preference is a different key: no hit.
    let other_pref = service
        .submit_wait(OptimizationRequest::new(
            query,
            weighted_pref().bound(Objective::TupleLoss, 0.0),
            1.0,
        ))
        .unwrap();
    assert!(matches!(
        other_pref.blocks[0].source,
        BlockSource::Computed { .. }
    ));
}

/// Mode-mismatched cache entries are never served, end to end.
///
/// Within one service the required mode is a function of the request's
/// objective set, and the preference signature keys the cache — so the only
/// way a mismatch can reach `lookup` is a signature collision. The test
/// forces exactly that with real optimizer fronts: a genuine props-aware
/// EXA front (sampling on, `TupleLoss` unselected) inserted under one key
/// must refuse a cost-only consumer of the same key in both directions,
/// regardless of how tight its α is. At the service level, requests whose
/// objectives flip the mode use distinct keys and therefore recompute
/// rather than cross-serve.
#[test]
fn mode_mismatched_cache_entries_are_never_served() {
    let catalog = moqo_tpch::catalog(0.01);
    let query = moqo_tpch::query(&catalog, 3);
    let graph = &query.blocks[0];
    let optimizer = Optimizer::new(&catalog);

    // A real props-aware exact front (default params keep sampling on).
    let pref = weighted_pref();
    let (block, report) = optimizer.optimize_block(graph, &pref, Algorithm::Exhaustive);
    assert_eq!(report.prune_mode, PruneMode::PropsAware);
    assert_eq!(report.alpha_final, 1.0);

    let cache = PlanCache::new(8, 1);
    let key = CacheKey {
        graph: graph.signature(),
        preference: pref.signature(),
    };
    cache.insert(
        key,
        graph,
        &block.frontier,
        &block.arena,
        report.alpha_final,
        report.prune_mode,
    );

    // A colliding cost-only consumer (what a TupleLoss-selecting request
    // would require) is refused at any tolerance…
    for alpha in [1.0, 2.0, 1000.0] {
        assert!(
            matches!(
                cache.lookup(&key, graph, alpha, false, PruneMode::CostOnly),
                CacheLookup::NotServable { .. }
            ),
            "α′ = {alpha}: a props-aware front must never serve a cost-only request"
        );
    }
    // …while the matching mode serves directly.
    assert!(matches!(
        cache.lookup(&key, graph, 1.0, false, PruneMode::PropsAware),
        CacheLookup::Hit { .. }
    ));

    // The reverse direction: a cost-only front (TupleLoss selected) never
    // serves a props-aware consumer.
    let loss_pref = weighted_pref().weight(Objective::TupleLoss, 1e3);
    let (loss_block, loss_report) =
        optimizer.optimize_block(graph, &loss_pref, Algorithm::Exhaustive);
    assert_eq!(loss_report.prune_mode, PruneMode::CostOnly);
    let cache2 = PlanCache::new(8, 1);
    cache2.insert(
        key,
        graph,
        &loss_block.frontier,
        &loss_block.arena,
        1.0,
        loss_report.prune_mode,
    );
    assert!(matches!(
        cache2.lookup(&key, graph, 10.0, false, PruneMode::PropsAware),
        CacheLookup::NotServable { .. }
    ));

    // Service level: the two preference classes hash to different keys, so
    // the second request recomputes instead of touching the first entry —
    // and certificates always record matching modes.
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let first = service
        .submit_wait(OptimizationRequest::new(query.clone(), pref, 1.0))
        .unwrap();
    assert!(matches!(
        first.blocks[0].source,
        BlockSource::Computed { .. }
    ));
    let hit = service
        .submit_wait(OptimizationRequest::new(
            query.clone(),
            weighted_pref(),
            1.0,
        ))
        .unwrap();
    match &hit.blocks[0].source {
        BlockSource::CacheHit { certificate } => {
            assert!(certificate.is_valid());
            assert_eq!(certificate.cached_mode, certificate.required_mode);
            assert_eq!(certificate.cached_mode, PruneMode::PropsAware);
        }
        other => panic!("expected a cache hit, got {other:?}"),
    }
    let crossed = service
        .submit_wait(OptimizationRequest::new(query.clone(), loss_pref, 1.0))
        .unwrap();
    assert!(
        matches!(crossed.blocks[0].source, BlockSource::Computed { .. }),
        "a mode-flipping preference is a different key and must recompute"
    );
}

#[test]
fn queue_full_rejects_and_counts() {
    let catalog = moqo_tpch::catalog(0.01);
    // One worker, tiny queue, and requests that take long enough for the
    // queue to fill: expansive large-graph RMQ runs.
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .queue_capacity(2)
        .build();
    let request = OptimizationRequest::new(
        moqo_tpch::large_query_with(&catalog, 12, moqo_tpch::Topology::Clique),
        weighted_pref(),
        2.0,
    )
    .with_hint(Algorithm::Rmq {
        samples: 20_000,
        seed: 1,
        threads: 1,
    });
    let mut tickets = Vec::new();
    let mut full = 0;
    for _ in 0..16 {
        match service.submit(request.clone()) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::QueueFull) => full += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(full > 0, "a 2-slot queue cannot absorb 16 slow requests");
    for t in tickets {
        t.wait().unwrap();
    }
    let metrics = service.metrics();
    assert_eq!(metrics.queue_full, full);
    assert_eq!(metrics.errors_total(), full, "a bounce is an error too");
}

#[test]
fn deadline_admission_rejects_unmeetable_requests() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let request = OptimizationRequest::new(moqo_tpch::query(&catalog, 3), weighted_pref(), 1.0)
        .with_deadline(std::time::Duration::ZERO);
    match service.submit_wait(request) {
        Err(ServiceError::Rejected(reason)) => {
            assert!(reason.contains("admits no algorithm"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(service.metrics().rejected, 1);
}

/// Hopeless deadlines never occupy a queue slot: the submit-time fast path
/// rejects them before enqueue, and only the `rejected` counter moves.
#[test]
fn hopeless_deadlines_are_rejected_before_the_queue() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let request = OptimizationRequest::new(moqo_tpch::query(&catalog, 3), weighted_pref(), 1.0)
        .with_deadline(std::time::Duration::ZERO);
    match service.submit(request).map(|_| ()) {
        Err(ServiceError::Rejected(_)) => {}
        other => panic!("expected a submit-time rejection, got {other:?}"),
    }
    let metrics = service.metrics();
    assert_eq!(metrics.submitted, 0, "rejected requests never enqueue");
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.timed_out, 0);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.errors_total(), 1);
}

/// A request that passes submit-time admission but whose whole budget is
/// eaten by queue wait times out — landing in `timed_out`, not `rejected`.
#[test]
fn queue_wait_past_the_deadline_counts_as_timed_out() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .queue_capacity(8)
        .build();
    // Occupy the only worker for a while.
    let blocker = OptimizationRequest::new(
        moqo_tpch::large_query_with(&catalog, 12, moqo_tpch::Topology::Clique),
        weighted_pref(),
        2.0,
    )
    .with_hint(Algorithm::Rmq {
        samples: 20_000,
        seed: 1,
        threads: 1,
    });
    let busy = service.submit(blocker).unwrap();
    // Admissible at submit (RMQ starts under 30 ms for a 3-relation
    // block), but the blocker holds the worker far longer than that.
    let doomed = OptimizationRequest::new(moqo_tpch::query(&catalog, 3), weighted_pref(), 2.0)
        .with_deadline(std::time::Duration::from_millis(30));
    let ticket = service.submit(doomed).expect("passes submit admission");
    match ticket.wait() {
        Err(ServiceError::DeadlineExceeded) => {}
        other => panic!("expected a queue-wait timeout, got {other:?}"),
    }
    busy.wait().unwrap();
    let metrics = service.metrics();
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.rejected, 0);
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.errors_total(), 1);
}

#[test]
fn deadline_pressure_downgrades_to_the_anytime_search() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    // 6-table block, exactness preferred, but only 2 ms of budget: the
    // policy's DP estimate (~2 µs · 3.5⁶ ≈ 4 ms) rules the DP out.
    let request = OptimizationRequest::new(
        moqo_tpch::large_query_with(&catalog, 6, moqo_tpch::Topology::Chain),
        weighted_pref(),
        1.0,
    )
    .with_deadline(std::time::Duration::from_millis(2));
    match service.submit_wait(request) {
        Ok(response) => {
            assert!(matches!(
                response.blocks[0].source,
                BlockSource::Computed {
                    algorithm: Algorithm::Rmq { .. },
                    downgraded: true,
                }
            ));
            assert!(service.metrics().downgraded_blocks >= 1);
        }
        // Queue wait can eat a tight budget on a loaded CI machine; the
        // rejection path is then the correct behaviour, not a failure.
        Err(ServiceError::Rejected(_)) => {}
        Err(other) => panic!("unexpected error {other:?}"),
    }
}
