//! The optimization service: submission, scheduling, and the worker pool.

use moqo_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use moqo_sync::Arc;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_core::{select_best, Algorithm, BlockReport, Optimizer, PruneMode};
use moqo_costmodel::CostModelParams;

use crate::cache::{CacheKey, CacheLookup, PlanCache};
use crate::fault::{guarded_catch, FaultPlan};
use crate::metrics::{AlgorithmKind, MetricsSnapshot, ServiceMetrics};
use crate::policy::{Admission, DeadlineAwarePolicy, PolicyContext};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{
    AlphaCertificate, BlockOutcome, BlockSource, OptimizationRequest, OptimizationResponse,
    ServiceError,
};
use crate::trace::{
    error_code, EventKind, FlightRecorder, RequestTrace, SpanCollector, TraceConfig, TraceSnapshot,
};

/// Plan-cache shards: keys hash to one of this many independently locked
/// maps, so concurrent workers rarely contend on the same lock.
const CACHE_SHARDS: usize = 8;

/// Largest block a dynamic-programming hint may name: the DP keeps one
/// table entry per relation subset and refuses larger blocks.
const DP_MAX_RELATIONS: usize = 24;

type Responder = mpsc::Sender<Result<OptimizationResponse, ServiceError>>;

struct Job {
    request: OptimizationRequest,
    submitted: Instant,
    /// 0-based submission index; the key into the fault plan — and, when
    /// tracing is on, the request's trace id.
    ordinal: u64,
    /// Whether the fault plan schedules a panic for this ordinal.
    inject_panic: bool,
    /// Shared with the request's [`Ticket`], which sets it when dropped:
    /// the optimizer then stops as on a timeout.
    cancel: Arc<AtomicBool>,
    /// The request's span collector, when the flight recorder is on: the
    /// submit-path events ride through the queue with the job so the
    /// worker appends to the same trace.
    span: Option<SpanCollector>,
    responder: Responder,
}

struct ServiceInner {
    catalog: Catalog,
    queue: BoundedQueue<Job>,
    cache: PlanCache,
    metrics: ServiceMetrics,
    /// Deterministic fault schedule, if chaos is enabled.
    faults: Option<FaultPlan>,
    /// Submission-order counter; assigns fault-plan ordinals.
    ordinals: AtomicU64,
    /// The flight recorder, when tracing is enabled (see
    /// [`ServiceBuilder::tracing`]). `None` skips only the ring, span and
    /// exemplar writes: every event is still counted in `metrics`.
    recorder: Option<FlightRecorder>,
}

impl ServiceInner {
    /// What makes `request` unservable whatever the load, if anything —
    /// a malformed field or a hopeless deadline: resending it unchanged
    /// would fail the same way, so it is rejected at submission instead of
    /// failing inside a worker. Allocates only to describe a rejection.
    fn unservable(&self, request: &OptimizationRequest) -> Option<String> {
        if request.alpha.is_nan() || request.alpha < 1.0 {
            return Some(format!("α′ = {} is not a number ≥ 1", request.alpha));
        }
        if let Err(reason) = request.preference.validate() {
            return Some(reason);
        }
        if request.query.blocks.is_empty() {
            return Some("the query has no blocks".to_owned());
        }
        let dp_hint = match request.hint {
            Some(Algorithm::Exhaustive) => Some(1.0),
            Some(Algorithm::Rta { alpha } | Algorithm::Ira { alpha }) => Some(alpha),
            Some(Algorithm::Rmq { .. }) | None => None,
        };
        if let Some(alpha) = dp_hint {
            if alpha.is_nan() || alpha < 1.0 {
                return Some(format!("the hint's α = {alpha} is not a number ≥ 1"));
            }
        }
        for (idx, graph) in request.query.blocks.iter().enumerate() {
            if graph.n_rels() == 0 {
                return Some(format!("block {idx} has no relations"));
            }
            if let Err(reason) = graph.validate(&self.catalog) {
                return Some(format!("block {idx}: {reason}"));
            }
            if dp_hint.is_some() && graph.n_rels() > DP_MAX_RELATIONS {
                return Some(format!(
                    "block {idx} has {} relations; the hinted DP scheme takes at most \
                     {DP_MAX_RELATIONS}",
                    graph.n_rels()
                ));
            }
        }
        // A block gets what is left of the deadline when it starts, at most
        // the whole of it, so a block admitted to nothing at the whole
        // deadline could never run.
        let total = request.deadline?;
        request.query.blocks.iter().find_map(|graph| {
            let decision = DeadlineAwarePolicy::admit(&PolicyContext {
                block_size: graph.n_rels(),
                alpha: request.alpha,
                bounded: request.is_bounded(),
                remaining: Some(total),
                hint: request.hint,
            });
            (decision == Admission::Reject).then(|| {
                format!(
                    "deadline budget {total:?} admits no algorithm for a {}-relation block",
                    graph.n_rels()
                )
            })
        })
    }
}

/// A handle to one outstanding request; blocks on [`Ticket::wait`].
///
/// Dropping a ticket without waiting cancels the request: nobody is left
/// to read the answer, so its optimizer run stops at its next amortized
/// deadline check, as on a timeout, and the worker moves on. A request
/// still queued when its ticket drops runs the same way when a worker
/// picks it up: each block takes the optimizer's timeout path at once.
pub struct Ticket {
    receiver: mpsc::Receiver<Result<OptimizationResponse, ServiceError>>,
    cancel: Arc<AtomicBool>,
}

impl Ticket {
    /// Blocks until the response (or rejection) arrives.
    ///
    /// # Errors
    ///
    /// Propagates the worker's [`ServiceError`]; [`ServiceError::WorkerLost`]
    /// if the service terminated with the request in flight. A worker
    /// *panic* does not surface here as `WorkerLost`: the panic is caught
    /// at the job boundary and delivered as [`ServiceError::Internal`]
    /// with the payload.
    pub fn wait(self) -> Result<OptimizationResponse, ServiceError> {
        self.receiver
            .recv()
            .unwrap_or(Err(ServiceError::WorkerLost))
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // Release pairs with the Acquire load in `Deadline`'s check. After
        // `wait` the job has already answered, and the store is moot.
        self.cancel.store(true, Ordering::Release);
    }
}

/// Builder for [`OptimizationService`].
pub struct ServiceBuilder {
    catalog: Catalog,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    faults: Option<FaultPlan>,
    tracing: Option<TraceConfig>,
}

impl ServiceBuilder {
    /// Starts a builder over the catalog the service will serve.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        ServiceBuilder {
            catalog,
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 1024,
            faults: None,
            tracing: None,
        }
    }

    /// Sets the worker count (default 2; pass the core count for
    /// throughput, 1 for fully deterministic processing order).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded work-queue capacity; submissions beyond it are
    /// rejected with [`ServiceError::QueueFull`] (default 256).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the plan-cache capacity in entries (default 1024).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Installs a deterministic fault plan (chaos testing; see
    /// [`FaultPlan`]).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Enables the flight recorder (see [`TraceConfig`]): per-worker
    /// event rings, span-structured lifecycle events, and tail-based
    /// exemplar retention, all read through
    /// [`OptimizationService::trace_snapshot`]. Tracing is off by
    /// default. The counters do not depend on it: each lifecycle event is
    /// one call that always counts, and tracing only adds the ring, span
    /// and exemplar writes.
    #[must_use]
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Spawns the workers and returns the running service.
    #[must_use]
    pub fn build(self) -> OptimizationService {
        let workers = self.workers.max(1);
        let inner = Arc::new(ServiceInner {
            catalog: self.catalog,
            queue: BoundedQueue::new(self.queue_capacity),
            cache: PlanCache::new(self.cache_capacity, CACHE_SHARDS),
            metrics: ServiceMetrics::default(),
            faults: self.faults,
            ordinals: AtomicU64::new(0),
            recorder: self
                .tracing
                .as_ref()
                .map(|config| FlightRecorder::new(config, workers)),
        });
        let workers = (0..workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("moqo-worker-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    .expect("worker thread spawns")
            })
            .collect();
        OptimizationService { inner, workers }
    }
}

/// A concurrent optimization service over one catalog: bounded submission
/// queue, std-thread worker pool, deadline-aware admission, cancellation
/// of abandoned requests, and the α-aware plan cache. See the crate docs
/// for the serving semantics.
pub struct OptimizationService {
    inner: Arc<ServiceInner>,
    /// Every worker thread; shutdown joins each one.
    workers: Vec<JoinHandle<()>>,
}

impl OptimizationService {
    /// Builder entry point.
    #[must_use]
    pub fn builder(catalog: Catalog) -> ServiceBuilder {
        ServiceBuilder::new(catalog)
    }

    /// A service with default configuration.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        ServiceBuilder::new(catalog).build()
    }

    /// Submits a request; returns immediately with a [`Ticket`].
    ///
    /// A malformed request (see [`ServiceError::Rejected`]) is rejected
    /// here, before it occupies a queue slot. So is a request whose whole
    /// deadline admits no algorithm for some block — for a well-formed
    /// request, exactly a deadline below [`DeadlineAwarePolicy::MIN_BUDGET`]
    /// — so a request no algorithm could ever serve never displaces
    /// feasible work. A block that queue wait or earlier blocks leave too
    /// little budget fails the request later as
    /// [`ServiceError::DeadlineExceeded`]. The push takes the queue mutex
    /// once; every metrics update is atomic.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] under back-pressure,
    /// [`ServiceError::Rejected`] for a malformed request or a hopeless
    /// deadline, [`ServiceError::ShuttingDown`] after shutdown began.
    #[allow(clippy::cast_possible_truncation)]
    pub fn submit(&self, request: OptimizationRequest) -> Result<Ticket, ServiceError> {
        // Ordinals are assigned to every submission — including ones that
        // are then rejected — so a fault plan keyed on submission order
        // replays exactly. The ordinal doubles as the trace id.
        let ordinal = self.inner.ordinals.fetch_add(1, Ordering::Relaxed);
        let metrics = &self.inner.metrics;
        let recorder = self.inner.recorder.as_ref();
        let mut rt = RequestTrace::started(metrics, recorder, ordinal);
        rt.event(
            EventKind::Submitted,
            request.query.blocks.len() as u64,
            request.alpha.to_bits(),
            u64::from(request.deadline.is_some()),
        );
        if let Some(reason) = self.inner.unservable(&request) {
            let error = ServiceError::Rejected(reason);
            rt.event(EventKind::Rejected, 0, 0, 0);
            rt.failed(&error);
            return Err(error);
        }
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        // `enqueued` is stamped before the push (the span rides inside the
        // job through the queue); a bounced push hands the job — and its
        // span — back, and the trace closes with a `queue_full` event.
        rt.event(EventKind::Enqueued, 0, 0, 0);
        #[expect(clippy::disallowed_methods, reason = "latency counts from arrival")]
        let job = Job {
            request,
            submitted: Instant::now(),
            ordinal,
            inject_panic: self
                .inner
                .faults
                .as_ref()
                .is_some_and(|plan| plan.panics_at(ordinal)),
            cancel: Arc::clone(&cancel),
            span: rt.into_span(),
            responder: tx,
        };
        match self.inner.queue.try_push(job) {
            Ok(()) => Ok(Ticket {
                receiver: rx,
                cancel,
            }),
            Err((PushError::Full, mut job)) => {
                let error = ServiceError::QueueFull;
                let mut rt =
                    RequestTrace::resumed(metrics, recorder, usize::MAX, ordinal, job.span.take());
                rt.event(EventKind::QueueFull, 0, 0, 0);
                rt.failed(&error);
                Err(error)
            }
            Err((PushError::Closed, _)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Submits and blocks for the response.
    ///
    /// # Errors
    ///
    /// See [`OptimizationService::submit`] and [`Ticket::wait`].
    pub fn submit_wait(
        &self,
        request: OptimizationRequest,
    ) -> Result<OptimizationResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// The service's counters: every request counter projected from the
    /// event table, plus the cache's own counters. No latencies: those are
    /// on each response and in the trace.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(self.inner.cache.snapshot())
    }

    /// Point-in-time flight-recorder snapshot: ring events (sorted), the
    /// retained error exemplars, and the stream checksum. `None` when the
    /// service was built without [`ServiceBuilder::tracing`].
    #[must_use]
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.inner.recorder.as_ref().map(TraceSnapshot::capture)
    }

    /// Requests currently waiting in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Stops accepting work, lets the workers drain the queue, and joins
    /// every worker.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics()
    }

    fn shutdown_in_place(&mut self) {
        self.inner.queue.close();
        for handle in self.workers.drain(..) {
            // Every job runs under the panic guard, so a worker only
            // returns; a payload must still never escape `Drop`, which
            // would abort an already-unwinding caller.
            drop(handle.join());
        }
    }
}

impl Drop for OptimizationService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[allow(clippy::cast_possible_truncation)]
fn worker_loop(inner: &ServiceInner, worker: usize) {
    while let Some(mut job) = inner.queue.pop_blocking() {
        let mut rt = RequestTrace::resumed(
            &inner.metrics,
            inner.recorder.as_ref(),
            worker,
            job.ordinal,
            job.span.take(),
        );
        rt.event(EventKind::Popped, 0, 0, 0);
        let (inject_panic, ordinal) = (job.inject_panic, job.ordinal);
        // Panic isolation: anything the job does — injected faults and
        // genuine optimizer bugs alike — is caught here, converted to
        // `Internal` on the responder, and the worker keeps serving.
        let result = guarded_catch(|| {
            if inject_panic {
                panic!("injected fault: panic at ordinal {ordinal}");
            }
            process(inner, &job.request, job.submitted, &job.cancel, &mut rt)
        })
        .unwrap_or_else(|payload| {
            let error = ServiceError::internal(payload);
            if let ServiceError::Internal {
                payload,
                payload_truncated,
            } = &error
            {
                rt.event(
                    EventKind::PanicCaught,
                    payload.len() as u64,
                    u64::from(*payload_truncated),
                    0,
                );
            }
            Err(error)
        });
        match &result {
            Ok(response) => rt.event(
                EventKind::Completed,
                0,
                response.blocks.len() as u64,
                u64::from(response.fully_cached()),
            ),
            Err(error) => {
                rt.event(EventKind::Failed, error_code(error), 0, 0);
                rt.failed(error);
            }
        }
        // A dropped ticket is fine: its cancel flag already cut the run
        // short, and the work that was done still filled the cache.
        let _ = job.responder.send(result);
    }
}

#[allow(clippy::cast_possible_truncation)]
fn process(
    inner: &ServiceInner,
    request: &OptimizationRequest,
    submitted: Instant,
    cancel: &Arc<AtomicBool>,
    rt: &mut RequestTrace<'_>,
) -> Result<OptimizationResponse, ServiceError> {
    let queue_wait = submitted.elapsed();
    #[expect(clippy::disallowed_methods, reason = "service time counts from here")]
    let processing_started = Instant::now();
    let bounded = request.is_bounded();
    // The pruning mode every front of this request's objective set is
    // computed under, and so the mode of every cache entry it can reach.
    let prune_mode = PruneMode::auto(
        CostModelParams::default().enable_sampling,
        request.preference.objectives,
    );
    let mut blocks = Vec::with_capacity(request.query.blocks.len());

    // Each block is admitted and optimized against the whole budget left
    // when it starts. An expensive early block may spend all of it; the
    // next block then times out here.
    for (block_idx, graph) in request.query.blocks.iter().enumerate() {
        let remaining = request
            .deadline
            .map(|d| d.saturating_sub(submitted.elapsed()));
        if remaining == Some(Duration::ZERO) {
            return Err(deadline_exceeded(rt, block_idx));
        }
        // A front depends on the block and the objectives, not on the
        // weights or bounds: a hit selects with this request's preference.
        let key = CacheKey {
            graph: graph.signature(),
            objectives: request.preference.objectives,
        };
        let lookup = inner.cache.lookup(&key, graph, request.alpha, bounded);
        // Probe outcome codes: 0 hit, 1 resident-but-not-servable, 2 miss;
        // arg1 carries the resident entry's α (0 on a plain miss).
        let (probe_outcome, probe_alpha) = match &lookup {
            CacheLookup::Hit { alpha, .. } => (0u64, alpha.to_bits()),
            CacheLookup::NotServable { alpha, .. } => (1, alpha.to_bits()),
            CacheLookup::Miss => (2, 0),
        };
        rt.event(
            EventKind::CacheProbe,
            block_idx as u64 | (probe_outcome << 32),
            probe_alpha,
            0,
        );
        if let CacheLookup::Hit {
            arena,
            frontier,
            alpha,
        } = lookup
        {
            let best =
                select_best(&frontier, &request.preference).expect("cached fronts are never empty");
            blocks.push(BlockOutcome {
                arena,
                root: best.plan,
                cost: best.cost,
                frontier,
                source: BlockSource::CacheHit {
                    certificate: AlphaCertificate {
                        cached_alpha: alpha,
                        requested_alpha: request.alpha,
                        bounded,
                    },
                },
                achieved_alpha: alpha,
                // Cache hits ran no optimizer; a synthetic report records
                // what was served.
                report: BlockReport {
                    alpha_final: alpha,
                    prune_mode,
                    ..BlockReport::default()
                },
            });
            continue;
        }

        let decision = DeadlineAwarePolicy::admit(&PolicyContext {
            block_size: graph.n_rels(),
            alpha: request.alpha,
            bounded,
            remaining,
            hint: request.hint,
        });
        let Admission::Run {
            algorithm,
            downgraded,
        } = decision
        else {
            // Submit admitted this block against the whole deadline, so
            // what is missing is budget that queue wait or earlier blocks
            // used up: the same timeout as an empty budget.
            return Err(deadline_exceeded(rt, block_idx));
        };
        let mut optimizer = Optimizer::new(&inner.catalog).with_cancel(Arc::clone(cancel));
        if let Some(rem) = remaining {
            optimizer = optimizer.with_timeout(rem);
        }
        // Cached fronts that cannot serve directly still seed the
        // randomized search; tree extraction is deferred to here so DP
        // recomputes never pay for (or get counted as) a warm start.
        let (warm_trees, warm_alpha) = match lookup {
            CacheLookup::NotServable { .. } if matches!(algorithm, Algorithm::Rmq { .. }) => {
                match inner.cache.warm_trees(&key, graph) {
                    Some((trees, alpha)) => (trees, Some(alpha)),
                    None => (Vec::new(), None),
                }
            }
            _ => (Vec::new(), None),
        };
        let (block, report) =
            optimizer.optimize_block_warm(graph, &request.preference, algorithm, &warm_trees);
        // A run cut short by its deadline or by cancellation returns the
        // quick-finish front — one plan per table set it had not treated —
        // which covers the true frontier at no finite α, and its wall time
        // is the cut, not the block's cost.
        let achieved_alpha = if report.timed_out || report.alpha_final.is_nan() {
            f64::INFINITY
        } else {
            report.alpha_final
        };
        debug_assert_eq!(
            report.prune_mode, prune_mode,
            "one mode per cache key: the optimizer and the service derive it alike"
        );
        inner
            .cache
            .insert(key, graph, &block.frontier, &block.arena, achieved_alpha);
        // arg0 packs block index (bits 0..32), algorithm kind (32..40) and
        // flags (41: admission downgraded, 42: warm-started; 40 is
        // unassigned); arg2 is the report's deterministic `DpStats` digest,
        // so replay checksums pin the whole optimization outcome.
        rt.event(
            EventKind::BlockOptimized,
            block_idx as u64
                | (u64::from(AlgorithmKind::of(algorithm).as_u8()) << 32)
                | (u64::from(downgraded) << 41)
                | (u64::from(warm_alpha.is_some()) << 42),
            achieved_alpha.to_bits(),
            report.trace_digest(),
        );
        blocks.push(BlockOutcome {
            source: match warm_alpha {
                Some(cached_alpha) => BlockSource::WarmStarted {
                    algorithm,
                    downgraded,
                    cached_alpha,
                },
                None => BlockSource::Computed {
                    algorithm,
                    downgraded,
                },
            },
            arena: block.arena,
            root: block.root,
            cost: block.cost,
            frontier: block.frontier,
            achieved_alpha,
            report,
        });
    }

    Ok(OptimizationResponse::from_blocks(
        blocks,
        &request.preference,
        queue_wait,
        processing_started.elapsed(),
    ))
}

/// Records that block `block_idx` had too little budget left to start —
/// queue wait or earlier blocks consumed it — and returns the error.
fn deadline_exceeded(rt: &mut RequestTrace<'_>, block_idx: usize) -> ServiceError {
    rt.event(EventKind::DeadlineExceeded, block_idx as u64, 0, 0);
    ServiceError::DeadlineExceeded
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::{Objective, ObjectiveSet, Preference};

    /// A request that passed submit but reaches its block with 1–199 µs
    /// left, under the policy's minimum, times out: queue wait used the
    /// budget up, and resending it unchanged could succeed.
    #[test]
    fn a_block_starved_after_submit_times_out() {
        let catalog = moqo_tpch::catalog(0.01);
        let preference = Preference::over(ObjectiveSet::empty()).weight(Objective::TotalTime, 1.0);
        let request = OptimizationRequest::new(moqo_tpch::query(&catalog, 3), preference, 2.0)
            .with_deadline(Duration::from_millis(1));
        let service = OptimizationService::new(catalog);
        let mut rt = RequestTrace::started(&service.inner.metrics, None, 0);
        let submitted = Instant::now() - Duration::from_micros(900);
        let cancel = Arc::new(AtomicBool::new(false));
        let result = process(&service.inner, &request, submitted, &cancel, &mut rt);
        assert_eq!(result.err(), Some(ServiceError::DeadlineExceeded));
    }
}
