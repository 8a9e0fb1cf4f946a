//! Acceptance tests for the optimization service: a mixed 256-request load
//! at 4 workers where **every** response is either bit-equivalent to a
//! direct `Optimizer` call or a certified cache serve, determinism under
//! the single-worker test configuration, honest α for timed-out blocks,
//! deadline admission at its boundary, and a typed rejection for every
//! malformed request.

use std::collections::HashMap;
use std::time::Duration;

use moqo_catalog::{Catalog, ColumnStats, JoinGraphBuilder, Query, TableStats};
use moqo_core::{select_best, Algorithm, Optimizer, PlanEntry, PruneMode};
use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference};
use moqo_service::{
    BlockSource, DeadlineAwarePolicy, EventKind, ExemplarClass, OptimizationRequest,
    OptimizationService, ServiceError, TraceConfig,
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
    let snap = service.metrics().cache;
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
    // A preference over other objectives is a different key: no hit.
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

/// The cache key is the block and the objective set: a front computed for
/// one weighting serves every other weighting of the same objectives that
/// tolerates its α, and each hit selects with its own preference. Bounds
/// are served from exact fronts only.
#[test]
fn one_front_serves_every_weighting_and_bound_of_its_objectives() {
    let catalog = moqo_tpch::catalog(0.01);
    let query = moqo_tpch::query(&catalog, 3);
    let graph = &query.blocks[0];
    let optimizer = Optimizer::new(&catalog);
    let bits = |c: &CostVector| c.as_array().map(f64::to_bits);
    let source = |response: &moqo_service::OptimizationResponse| response.blocks[0].source.clone();

    // Two weightings of the same objectives, {TotalTime, BufferFootprint}.
    let time_first = weighted_pref();
    let buffer_first = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1e-3)
        .weight(Objective::BufferFootprint, 1.0);
    assert_eq!(time_first.objectives, buffer_first.objectives);
    assert_ne!(time_first.signature(), buffer_first.signature());

    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let first = service
        .submit_wait(OptimizationRequest::new(query.clone(), time_first, 1.5))
        .unwrap();
    let BlockSource::Computed { algorithm, .. } = source(&first) else {
        panic!("the first request computes");
    };
    assert_eq!(algorithm, Algorithm::Rta { alpha: 1.5 });

    // Another weighting with α′ ≥ α is served from that front, and selects
    // exactly what a fresh front for its own preference would give.
    let other = service
        .submit_wait(OptimizationRequest::new(query.clone(), buffer_first, 2.0))
        .unwrap();
    match source(&other) {
        BlockSource::CacheHit { certificate } => {
            assert!(certificate.is_valid());
            assert_eq!(certificate.cached_alpha, 1.5);
        }
        source => panic!("another weighting of the same objectives must hit: {source:?}"),
    }
    let (fresh, _) = optimizer.optimize_block(graph, &buffer_first, algorithm);
    let best = select_best(&fresh.frontier, &buffer_first).unwrap();
    assert_eq!(bits(&other.blocks[0].cost), bits(&best.cost));

    // A bounded request needs an exact front: the α = 1.5 entry cannot
    // serve it. The bound sits between the smallest buffer footprint of
    // the exact front and that of its time-first optimum, so it binds.
    let (exact, _) = optimizer.optimize_block(graph, &time_first, Algorithm::Exhaustive);
    let least_buffer = exact
        .frontier
        .iter()
        .map(|e| e.cost.get(Objective::BufferFootprint))
        .fold(f64::INFINITY, f64::min);
    let unbounded = select_best(&exact.frontier, &time_first).unwrap();
    let bound = (least_buffer + unbounded.cost.get(Objective::BufferFootprint)) / 2.0;
    assert!(bound < unbounded.cost.get(Objective::BufferFootprint));
    let bounded = time_first.bound(Objective::BufferFootprint, bound);
    assert_eq!(bounded.objectives, time_first.objectives);
    let refused = service
        .submit_wait(OptimizationRequest::new(query.clone(), bounded, 2.0))
        .unwrap();
    assert!(
        matches!(source(&refused), BlockSource::Computed { .. }),
        "an approximate front must not serve a bounded request"
    );

    // After an exact request, the bounded request is a hit that holds the
    // bounded optimum.
    let exact_request = service
        .submit_wait(OptimizationRequest::new(query.clone(), time_first, 1.0))
        .unwrap();
    assert!(matches!(
        source(&exact_request),
        BlockSource::Computed {
            algorithm: Algorithm::Exhaustive,
            ..
        }
    ));
    let served = service
        .submit_wait(OptimizationRequest::new(query, bounded, 2.0))
        .unwrap();
    assert!(
        served.fully_cached(),
        "an exact front serves bounded requests"
    );
    let optimum = select_best(&exact.frontier, &bounded).unwrap();
    assert!(bounded.respects_bounds(&optimum.cost));
    assert_ne!(
        bits(&optimum.cost),
        bits(&unbounded.cost),
        "the bound binds"
    );
    assert_eq!(bits(&served.blocks[0].cost), bits(&optimum.cost));
    assert!(served.respects_bounds);
}

/// A preference that adds `TupleLoss` selects another objective set, and
/// with it another pruning mode: while sampling is on, `PruneMode::auto`
/// prunes cost-only when `TupleLoss` is selected and props-aware when it
/// is not. It is another cache key, so it recomputes instead of being
/// served a front of the other mode.
#[test]
fn a_mode_flipping_objective_set_is_another_key_and_recomputes() {
    let catalog = moqo_tpch::catalog(0.01);
    let query = moqo_tpch::query(&catalog, 3);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let first = service
        .submit_wait(OptimizationRequest::new(
            query.clone(),
            weighted_pref(),
            1.0,
        ))
        .unwrap();
    assert!(matches!(
        first.blocks[0].source,
        BlockSource::Computed { .. }
    ));
    assert_eq!(first.blocks[0].report.prune_mode, PruneMode::PropsAware);
    let hit = service
        .submit_wait(OptimizationRequest::new(
            query.clone(),
            weighted_pref(),
            1.0,
        ))
        .unwrap();
    match &hit.blocks[0].source {
        BlockSource::CacheHit { certificate } => assert!(certificate.is_valid()),
        other => panic!("expected a cache hit, got {other:?}"),
    }
    assert_eq!(hit.blocks[0].report.prune_mode, PruneMode::PropsAware);
    let loss_pref = weighted_pref().weight(Objective::TupleLoss, 1e3);
    let crossed = service
        .submit_wait(OptimizationRequest::new(query, loss_pref, 1.0))
        .unwrap();
    assert!(
        matches!(crossed.blocks[0].source, BlockSource::Computed { .. }),
        "a mode-flipping objective set is a different key and must recompute"
    );
    assert_eq!(crossed.blocks[0].report.prune_mode, PruneMode::CostOnly);
}

/// A full queue bounces for real: no fault injection is needed to test
/// it. Each bounce is counted and leaves its trace as an error exemplar.
#[test]
fn queue_full_rejects_and_counts() {
    let catalog = moqo_tpch::catalog(0.01);
    // One worker, tiny queue, and requests that take long enough for the
    // queue to fill: expansive large-graph RMQ runs.
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .queue_capacity(2)
        .tracing(TraceConfig::default())
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
    let trace = service.trace_snapshot().expect("tracing enabled");
    assert_eq!(trace.error_exemplars.len() as u64, full);
    let bounces = trace.exemplars_of(ExemplarClass::QueueFull);
    assert_eq!(bounces.len() as u64, full, "one exemplar per bounce");
    for exemplar in bounces {
        let last = exemplar.events.last().map(|e| e.kind);
        assert_eq!(last, Some(EventKind::QueueFull), "{exemplar:?}");
    }
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
/// The boundary is the policy's minimum budget: one microsecond less is
/// rejected, the minimum itself gets a ticket.
#[test]
fn hopeless_deadlines_are_rejected_before_the_queue() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let with_deadline = |deadline| {
        OptimizationRequest::new(moqo_tpch::query(&catalog, 3), weighted_pref(), 1.0)
            .with_deadline(deadline)
    };
    let just_short = DeadlineAwarePolicy::MIN_BUDGET - Duration::from_micros(1);
    for deadline in [Duration::ZERO, just_short] {
        match service.submit(with_deadline(deadline)).map(|_| ()) {
            Err(ServiceError::Rejected(_)) => {}
            other => panic!("{deadline:?}: expected a submit-time rejection, got {other:?}"),
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.submitted, 0, "rejected requests never enqueue");
    assert_eq!(metrics.rejected, 2);
    assert_eq!(metrics.timed_out, 0);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.errors_total(), 2);

    let ticket = service
        .submit(with_deadline(DeadlineAwarePolicy::MIN_BUDGET))
        .expect("the minimum budget passes submit");
    // The worker starts the block with less than the minimum left, or just
    // in time: a timeout or a plan, never a rejection after submit.
    match ticket.wait() {
        Ok(_) | Err(ServiceError::DeadlineExceeded) => {}
        Err(other) => panic!("expected a plan or a timeout, got {other:?}"),
    }
    assert_eq!(service.shutdown().rejected, 2);
}

/// A cheap block ahead of an expensive one is served. Each block gets the
/// whole budget left when it starts, so TPC-H Q1's one-table block
/// followed by a 9-table chain passes submit with a 100 ms deadline. A
/// split in proportion to estimated DP time would give Q1's block its own
/// 7 µs estimate, below the policy's 200 µs minimum, and reject the
/// request at submit.
#[test]
fn a_cheap_block_before_an_expensive_one_is_served() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let mut query = moqo_tpch::query(&catalog, 1);
    let chain = moqo_tpch::large_join_graph_with(&catalog, 9, moqo_tpch::Topology::Chain);
    query.blocks.push(chain);
    let request = OptimizationRequest::new(query, weighted_pref(), 1.5)
        .with_deadline(Duration::from_millis(100));
    let response = service
        .submit_wait(request)
        .expect("both blocks are admitted against the whole budget");
    assert_eq!(response.blocks.len(), 2);
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
        // timeout is then the correct behaviour, not a failure.
        Err(ServiceError::DeadlineExceeded) => {}
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

/// A block cut short by its deadline claims no guarantee. A 7-table clique
/// at α = 1 with a 20 ms deadline passes admission to EXA (the policy
/// estimates 2 µs · 3.5⁷ ≈ 13 ms), but its exact DP takes about 320 ms in
/// a release build on a 2-vCPU VM, so the run quick-finishes a one-plan
/// front. That front covers none of the 209 exact plans at α = 1: it must
/// claim `α = ∞` and must not serve the next exact request from the cache.
#[test]
fn a_timed_out_block_claims_no_guarantee_and_is_never_served_as_exact() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let query = moqo_tpch::large_query_with(&catalog, 7, moqo_tpch::Topology::Clique);
    let hurried = OptimizationRequest::new(query.clone(), weighted_pref(), 1.0)
        .with_deadline(Duration::from_millis(20));
    let first = service
        .submit_wait(hurried)
        .expect("an idle worker picks the request up well within 20 ms");
    let block = &first.blocks[0];
    match &block.source {
        BlockSource::Computed {
            algorithm: Algorithm::Exhaustive,
            ..
        } => assert!(block.report.timed_out, "EXA finished a 7-clique in 20 ms"),
        // A slow pickup can leave less than the EXA estimate; the anytime
        // search then runs, and claims no guarantee either.
        BlockSource::Computed {
            algorithm: Algorithm::Rmq { .. },
            downgraded: true,
        } => {}
        other => panic!("unexpected source {other:?}"),
    }
    assert!(
        block.achieved_alpha.is_infinite(),
        "a cut-short block claimed α = {}",
        block.achieved_alpha
    );

    let exact = service
        .submit_wait(OptimizationRequest::new(query, weighted_pref(), 1.0))
        .unwrap();
    let exact_block = &exact.blocks[0];
    assert!(
        matches!(
            exact_block.source,
            BlockSource::Computed {
                algorithm: Algorithm::Exhaustive,
                ..
            }
        ),
        "the cut-short front must not serve an exact request: {:?}",
        exact_block.source
    );
    assert!(!exact_block.report.timed_out);
    assert_eq!(exact_block.achieved_alpha, 1.0);
    assert!(!moqo_cost::pareto_front::is_approx_pareto_set(
        &frontier_costs(&block.frontier),
        &frontier_costs(&exact_block.frontier),
        1.0,
        weighted_pref().objectives,
    ));
    assert_eq!(service.metrics().cache.hits, 0);
}

/// Every malformed input is rejected at `submit` with `Rejected`, counted
/// in `rejected`, and leaves the service serving.
#[test]
fn malformed_requests_are_rejected_at_submit() {
    let catalog = moqo_tpch::catalog(0.01);
    let service = OptimizationService::builder(catalog.clone())
        .workers(1)
        .build();
    let q3 = moqo_tpch::query(&catalog, 3);
    let valid = OptimizationRequest::new(q3.clone(), weighted_pref(), 2.0);
    let with_pref = |preference: Preference| OptimizationRequest {
        preference,
        ..valid.clone()
    };
    let with_query = |query: Query| OptimizationRequest {
        query,
        ..valid.clone()
    };
    // A 25th relation, unconnected: past what any DP scheme enumerates.
    let mut oversized = moqo_tpch::large_query_with(&catalog, 24, moqo_tpch::Topology::Chain);
    let extra = oversized.blocks[0].rels[0].clone();
    oversized.blocks[0].rels.push(extra);
    // A table the service's catalog does not hold.
    let mut wider = catalog.clone();
    wider.add_table(TableStats::new("extra", 10.0, 8.0).with_column(ColumnStats::new("id", 10.0)));
    let foreign = Query::single_block(
        "foreign",
        JoinGraphBuilder::new(&wider).rel("extra", 1.0).build(),
    );
    let cases: Vec<(&str, OptimizationRequest)> = vec![
        (
            "α NaN",
            OptimizationRequest {
                alpha: f64::NAN,
                ..valid.clone()
            },
        ),
        (
            "α below 1",
            OptimizationRequest {
                alpha: 0.5,
                ..valid.clone()
            },
        ),
        (
            "weight NaN",
            with_pref(weighted_pref().weight(Objective::Energy, f64::NAN)),
        ),
        (
            "weight negative",
            with_pref(weighted_pref().weight(Objective::Energy, -1.0)),
        ),
        (
            "weight infinite",
            with_pref(weighted_pref().weight(Objective::Energy, f64::INFINITY)),
        ),
        (
            "bound NaN",
            with_pref(weighted_pref().bound(Objective::TupleLoss, f64::NAN)),
        ),
        (
            "no objective",
            with_pref(Preference::over(ObjectiveSet::empty())),
        ),
        (
            "empty query",
            with_query(Query {
                name: "empty".into(),
                blocks: Vec::new(),
            }),
        ),
        (
            "empty block",
            with_query(Query::single_block(
                "empty",
                JoinGraphBuilder::new(&catalog).build(),
            )),
        ),
        ("foreign table", with_query(foreign)),
        (
            "DP hint over 24 relations",
            with_query(oversized.clone()).with_hint(Algorithm::Exhaustive),
        ),
        (
            "RTA hint over 24 relations",
            with_query(oversized.clone()).with_hint(Algorithm::Rta { alpha: 2.0 }),
        ),
        (
            "IRA hint over 24 relations",
            with_query(oversized).with_hint(Algorithm::Ira { alpha: 2.0 }),
        ),
        (
            "hint α below 1",
            valid.clone().with_hint(Algorithm::Rta { alpha: 0.5 }),
        ),
    ];
    for (rejected, (case, request)) in (1..).zip(cases) {
        match service.submit(request).map(|_| ()) {
            Err(ServiceError::Rejected(reason)) => assert!(!reason.is_empty(), "{case}"),
            other => panic!("{case}: expected a rejection, got {other:?}"),
        }
        let metrics = service.metrics();
        assert_eq!(metrics.rejected, rejected, "{case}");
        assert_eq!(metrics.submitted, rejected - 1, "{case}: never enqueued");
        let served = service.submit_wait(valid.clone());
        assert!(
            served.is_ok(),
            "{case}: the next valid request failed: {served:?}"
        );
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.failed, 0, "nothing reached a worker as Internal");
    assert_eq!(metrics.completed + metrics.errors_total(), 2 * 14);

    // A query sent to a service over an empty catalog names tables that
    // service does not hold.
    let empty = OptimizationService::builder(Catalog::new())
        .workers(1)
        .build();
    match empty
        .submit(OptimizationRequest::new(q3, weighted_pref(), 2.0))
        .map(|_| ())
    {
        Err(ServiceError::Rejected(reason)) => {
            assert!(reason.contains("unknown table"), "{reason}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_eq!(empty.shutdown().rejected, 1);
}
