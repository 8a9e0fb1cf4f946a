//! The optimization service: submission, scheduling, and the worker pool.

use moqo_sync::atomic::{AtomicU64, Ordering};
use moqo_sync::Arc;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moqo_catalog::Catalog;
use moqo_core::{select_best, Algorithm, BlockReport, Optimizer, PruneMode};
use moqo_costmodel::CostModelParams;

use crate::cache::{CacheKey, CacheLookup, PlanCache};
use crate::fault::{guarded_catch, FaultAction, FaultPlan};
use crate::metrics::{AlgorithmKind, MetricsSnapshot, ServiceMetrics};
use crate::policy::{
    Admission, BrownoutConfig, BrownoutLevel, DeadlineAwarePolicy, LearnedBlockTimes, PolicyContext,
};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{
    AlphaCertificate, BlockOutcome, BlockSource, OptimizationRequest, OptimizationResponse,
    ServiceError,
};
use crate::supervisor::{Finding, Supervision, WorkerSlot};
use crate::trace::{
    error_code, EventKind, FlightRecorder, RequestTrace, SpanCollector, TraceConfig, TraceSnapshot,
    SYSTEM_TRACE_ID,
};

/// Plan-cache shards: keys hash to one of this many independently locked
/// maps, so concurrent workers rarely contend on the same lock.
const CACHE_SHARDS: usize = 8;

type Responder = mpsc::Sender<Result<OptimizationResponse, ServiceError>>;

struct Job {
    request: OptimizationRequest,
    submitted: Instant,
    /// 0-based submission index; the key into the fault plan — and, when
    /// tracing is on, the request's trace id.
    ordinal: u64,
    /// Worker-side fault scheduled for this ordinal, if any.
    fault: Option<FaultAction>,
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
    /// Measured per-block-size wall times; refines the deadline split.
    learned: LearnedBlockTimes,
    /// Worker registry + supervisor signalling.
    supervision: Supervision,
    /// Brownout admission controller config.
    brownout: BrownoutConfig,
    supervisor_tick: Duration,
    stall_after: Duration,
    /// Deterministic fault schedule, if chaos is enabled.
    faults: Option<FaultPlan>,
    /// Submission-order counter; assigns fault-plan ordinals.
    ordinals: AtomicU64,
    /// Pool size the supervisor restores towards.
    workers_target: usize,
    /// The flight recorder, when tracing is enabled (see
    /// [`ServiceBuilder::tracing`]). `None` skips only the ring, span and
    /// exemplar writes: every event is still counted in `metrics`.
    recorder: Option<FlightRecorder>,
}

impl ServiceInner {
    /// The weight of one block in the deadline split: the learned EWMA of
    /// measured wall times when a sample exists, the policy's static
    /// model otherwise — so the split starts from the `3.5ⁿ` prior and
    /// converges to the machine it actually runs on.
    fn block_time_estimate(&self, block_size: usize) -> Duration {
        self.learned
            .estimate(block_size)
            .unwrap_or_else(|| DeadlineAwarePolicy::estimated_dp_time(block_size))
    }

    /// Admission across all blocks of a request against deadline `total`,
    /// with per-block proportional shares. `Ok` means every block admits
    /// *some* algorithm under the optimistic assumption that no budget
    /// has been spent yet — used as the submit-time fast path, and
    /// re-checked per block with real elapsed time at processing time.
    fn admit_all_blocks(
        &self,
        request: &OptimizationRequest,
        total: Duration,
    ) -> Result<(), ServiceError> {
        let estimates: Vec<Duration> = request
            .query
            .blocks
            .iter()
            .map(|g| self.block_time_estimate(g.n_rels()))
            .collect();
        for (idx, graph) in request.query.blocks.iter().enumerate() {
            let share = block_share(total, &estimates[idx..]);
            let decision = DeadlineAwarePolicy::admit(&PolicyContext {
                block_size: graph.n_rels(),
                alpha: request.alpha,
                bounded: request.is_bounded(),
                remaining: Some(share),
                hint: request.hint,
            });
            if decision.admitted_algorithm().is_none() {
                return Err(ServiceError::Rejected(format!(
                    "deadline budget {share:?} admits no algorithm for a {}-relation block",
                    graph.n_rels()
                )));
            }
        }
        Ok(())
    }

    /// The brownout controller's verdict against the current queue-wait
    /// pressure (`Normal` whenever the controller is disabled).
    fn brownout_level(&self) -> BrownoutLevel {
        match self.brownout.watermark {
            Some(watermark) => self
                .brownout
                .assess(self.metrics.pressure_gauge().pressure(watermark)),
            None => BrownoutLevel::Normal,
        }
    }
}

/// A handle to one outstanding request; blocks on [`Ticket::wait`].
pub struct Ticket {
    receiver: mpsc::Receiver<Result<OptimizationResponse, ServiceError>>,
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

/// Builder for [`OptimizationService`].
pub struct ServiceBuilder {
    catalog: Catalog,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    supervisor_tick: Duration,
    stall_after: Duration,
    brownout: BrownoutConfig,
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
            supervisor_tick: Duration::from_millis(5),
            stall_after: Duration::from_secs(5),
            brownout: BrownoutConfig::default(),
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

    /// Sets how often the supervisor scans worker heartbeats (default
    /// 5 ms).
    #[must_use]
    pub fn supervisor_tick(mut self, tick: Duration) -> Self {
        self.supervisor_tick = tick;
        self
    }

    /// Sets the heartbeat silence after which a running worker counts as
    /// wedged and is replaced (default 5 s; `ZERO` disables stall
    /// detection — dead workers are still respawned).
    #[must_use]
    pub fn stall_after(mut self, stall_after: Duration) -> Self {
        self.stall_after = stall_after;
        self
    }

    /// Enables the brownout admission controller (disabled by default —
    /// see [`BrownoutConfig`]).
    #[must_use]
    pub fn brownout(mut self, brownout: BrownoutConfig) -> Self {
        self.brownout = brownout;
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

    /// Spawns the workers and the supervisor, and returns the running
    /// service.
    #[must_use]
    pub fn build(self) -> OptimizationService {
        let workers = self.workers.max(1);
        let inner = Arc::new(ServiceInner {
            catalog: self.catalog,
            queue: BoundedQueue::new(self.queue_capacity),
            cache: PlanCache::new(self.cache_capacity, CACHE_SHARDS),
            metrics: ServiceMetrics::default(),
            learned: LearnedBlockTimes::new(),
            supervision: Supervision::new(),
            brownout: self.brownout,
            supervisor_tick: self.supervisor_tick.max(Duration::from_micros(100)),
            stall_after: self.stall_after,
            faults: self.faults,
            ordinals: AtomicU64::new(0),
            workers_target: workers,
            recorder: self
                .tracing
                .as_ref()
                .map(|config| FlightRecorder::new(config, workers)),
        });
        for worker in 0..workers {
            spawn_worker(&inner, worker);
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("moqo-supervisor".to_owned())
                .spawn(move || supervisor_loop(&inner))
                .expect("supervisor thread spawns")
        };
        OptimizationService {
            inner,
            supervisor: Some(supervisor),
        }
    }
}

/// A concurrent optimization service over one catalog: bounded submission
/// queue, std-thread worker pool under heartbeat supervision, deadline-aware
/// admission with brownout load shedding, and the α-aware plan cache. See
/// the crate docs for the serving semantics.
pub struct OptimizationService {
    inner: Arc<ServiceInner>,
    supervisor: Option<JoinHandle<()>>,
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
    /// Deadline-carrying requests pass admission *here*, against the
    /// whole-request deadline with optimistic per-block shares: a request
    /// no algorithm could ever serve is rejected before it occupies a
    /// queue slot (and before its hopeless wait displaces feasible work).
    /// The per-block admission re-check at processing time still guards
    /// against budget consumed by queue wait and earlier blocks. When the
    /// brownout controller is enabled and measured queue-wait pressure
    /// stands at or above the shed threshold *while a backlog actually
    /// exists*, the submission is shed before taking a queue slot. The
    /// push takes the queue mutex once; every metrics update is atomic.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] under back-pressure,
    /// [`ServiceError::Rejected`] from the admission fast path,
    /// [`ServiceError::Shed`] from the brownout valve,
    /// [`ServiceError::ShuttingDown`] after shutdown began.
    #[allow(clippy::cast_possible_truncation)]
    pub fn submit(&self, request: OptimizationRequest) -> Result<Ticket, ServiceError> {
        // Ordinals are assigned to every submission — including ones that
        // are then rejected or shed — so a fault plan keyed on submission
        // order replays exactly. The ordinal doubles as the trace id.
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
        if let Some(deadline) = request.deadline {
            if let Err(error) = self.inner.admit_all_blocks(&request, deadline) {
                rt.event(EventKind::Rejected, 0, 0, 0);
                rt.finish(Err(&error), 0);
                return Err(error);
            }
        }
        // Shedding needs both signals: pressure says waits are long, the
        // queue length says the backlog is real *now*. The length guard
        // keeps a stale EWMA from shedding forever after load has drained.
        if self.inner.brownout.watermark.is_some()
            && self.inner.queue.len() >= self.inner.workers_target
            && self.inner.brownout_level() == BrownoutLevel::Shed
        {
            let error = ServiceError::Shed;
            rt.event(EventKind::Shed, 0, 0, 0);
            rt.finish(Err(&error), 0);
            return Err(error);
        }
        let fault = self.inner.faults.as_ref().and_then(|plan| plan.at(ordinal));
        if fault == Some(FaultAction::QueueFull) {
            let error = ServiceError::QueueFull;
            rt.event(EventKind::QueueFull, 1, 0, 0);
            rt.finish(Err(&error), 0);
            return Err(error);
        }
        let (tx, rx) = mpsc::channel();
        // `enqueued` is stamped before the push (the span rides inside the
        // job through the queue); a bounced push hands the job — and its
        // span — back, and the trace closes with a `queue_full` event.
        rt.event(EventKind::Enqueued, 0, 0, 0);
        let job = Job {
            request,
            submitted: Instant::now(),
            ordinal,
            fault,
            span: rt.into_span(),
            responder: tx,
        };
        match self.inner.queue.try_push(job) {
            Ok(()) => Ok(Ticket { receiver: rx }),
            Err((PushError::Full, mut job)) => {
                let error = ServiceError::QueueFull;
                let mut rt =
                    RequestTrace::resumed(metrics, recorder, usize::MAX, ordinal, job.span.take());
                rt.event(EventKind::QueueFull, 0, 0, 0);
                rt.finish(Err(&error), 0);
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

    /// Metrics snapshot including cache counters and the live gauges
    /// (pressure, alive workers).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .snapshot(self.inner.cache.snapshot(), self.inner.supervision.alive())
    }

    /// Point-in-time flight-recorder snapshot: ring events (sorted), the
    /// retained error exemplars and slowest-`k` traces, and the stream
    /// checksum. `None` when the service was built without
    /// [`ServiceBuilder::tracing`].
    #[must_use]
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.inner.recorder.as_ref().map(TraceSnapshot::capture)
    }

    /// Requests currently waiting in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Workers currently registered as live. Transiently below the
    /// configured count while the supervisor replaces a dead or wedged
    /// worker; it restores the pool within a few ticks.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.inner.supervision.alive()
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics()
    }

    fn shutdown_in_place(&mut self) {
        // Stop the supervisor first so a worker exiting on queue close is
        // not "helpfully" respawned mid-shutdown.
        self.inner.supervision.begin_shutdown();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        self.inner.queue.close();
        for handle in self.inner.supervision.take_handles() {
            // A worker that died panicking delivers its payload through
            // `join()`; it must be swallowed here — `Drop` propagating a
            // worker's panic would abort an already-unwinding caller.
            drop(handle.join());
        }
        // Backstop: if workers died without draining (e.g. every worker
        // was killed by a fault plan), no ticket may hang forever — answer
        // whatever is left. The queue is closed, so this terminates.
        while let Some(mut job) = self.inner.queue.pop_blocking() {
            let error = ServiceError::ShuttingDown;
            let mut rt = RequestTrace::resumed(
                &self.inner.metrics,
                self.inner.recorder.as_ref(),
                usize::MAX,
                job.ordinal,
                job.span.take(),
            );
            rt.event(EventKind::Failed, error_code(&error), 0, 0);
            rt.finish(Err(&error), elapsed_us(job.submitted));
            let _ = job.responder.send(Err(error));
        }
    }
}

impl Drop for OptimizationService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawns worker number `worker` and registers it with the supervisor.
/// A respawn reuses the index (so the thread name and trace ring carry
/// over) under a fresh generation number in the thread name.
fn spawn_worker(inner: &Arc<ServiceInner>, worker: usize) {
    let slot = Arc::new(WorkerSlot::default());
    let generation = inner.supervision.next_generation();
    let thread_inner = Arc::clone(inner);
    let thread_slot = Arc::clone(&slot);
    let handle = std::thread::Builder::new()
        .name(format!("moqo-worker-{worker}-g{generation}"))
        .spawn(move || worker_loop(&thread_inner, worker, &thread_slot))
        .expect("worker thread spawns");
    inner.supervision.register(worker, slot, handle);
}

/// The supervisor: parks on its tick, scans worker heartbeats, reaps the
/// dead, abandons the wedged, and respawns replacements under the same
/// worker index. Exits when shutdown begins.
fn supervisor_loop(inner: &Arc<ServiceInner>) {
    // Each finding is the one event of a system-scoped trace.
    let record = |kind, worker: usize| {
        let recorder = inner.recorder.as_ref();
        let mut rt = RequestTrace::started(&inner.metrics, recorder, SYSTEM_TRACE_ID);
        rt.event(kind, worker as u64, 0, 0);
    };
    let mut last = Instant::now();
    while !inner.supervision.is_shutting_down() {
        inner.supervision.park(inner.supervisor_tick);
        if inner.supervision.is_shutting_down() {
            return;
        }
        let elapsed = last.elapsed();
        last = Instant::now();
        for finding in inner.supervision.scan(elapsed, inner.stall_after) {
            let worker = match finding {
                Finding::Dead { worker } => worker,
                Finding::Stalled { worker } => {
                    record(EventKind::WorkerStalled, worker);
                    worker
                }
            };
            record(EventKind::WorkerRespawned, worker);
            spawn_worker(inner, worker);
        }
    }
}

/// Microseconds elapsed since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[allow(clippy::cast_possible_truncation)]
fn worker_loop(inner: &ServiceInner, worker: usize, slot: &WorkerSlot) {
    // The heartbeat fires inside the queue's wait loop too (at least once
    // per park timeout), so an idle worker never looks wedged.
    while let Some(mut job) = inner.queue.pop_blocking_with(|| slot.beat()) {
        let queue_wait_us = elapsed_us(job.submitted);
        let mut rt = RequestTrace::resumed(
            &inner.metrics,
            inner.recorder.as_ref(),
            worker,
            job.ordinal,
            job.span.take(),
        );
        rt.event(EventKind::Popped, queue_wait_us, 0, 0);
        let mut die_after = false;
        match job.fault {
            Some(FaultAction::Delay(delay)) => {
                rt.event(
                    EventKind::FaultDelay,
                    u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
                    0,
                    0,
                );
                std::thread::sleep(delay);
            }
            Some(FaultAction::KillWorker) => die_after = true,
            _ => {}
        }
        let inject_panic = job.fault == Some(FaultAction::Panic);
        let ordinal = job.ordinal;
        // Panic isolation: anything the job does — injected faults and
        // genuine optimizer bugs alike — is caught here, converted to
        // `Internal` on the responder, and the worker keeps serving.
        let result = guarded_catch(|| {
            if inject_panic {
                panic!("injected fault: panic at ordinal {ordinal}");
            }
            process(inner, &job.request, job.submitted, &mut rt)
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
            Ok(response) => rt.completed(response, elapsed_us(job.submitted)),
            Err(error) => rt.event(EventKind::Failed, error_code(error), 0, 0),
        }
        if die_after {
            // Stamped before `finish` so exemplar classification sees it:
            // the killed worker's last request completes Ok, and this event
            // is what marks its trace as a kill exemplar.
            rt.event(EventKind::WorkerKilled, worker as u64, 0, 0);
        }
        let finished = match &result {
            Ok(_) => Ok(()),
            Err(error) => Err(error),
        };
        rt.finish(finished, elapsed_us(job.submitted));
        // A dropped ticket is fine; the work (and the cache fill) still
        // happened.
        let _ = job.responder.send(result);
        if die_after {
            // The injected death answers its request first (deterministic
            // responses), then takes the thread down; the supervisor's
            // next tick notices the exit flag and respawns the worker.
            slot.mark_exited();
            return;
        }
    }
    slot.mark_exited();
}

#[allow(clippy::cast_possible_truncation)]
fn process(
    inner: &ServiceInner,
    request: &OptimizationRequest,
    submitted: Instant,
    rt: &mut RequestTrace<'_>,
) -> Result<OptimizationResponse, ServiceError> {
    let queue_wait = submitted.elapsed();
    let processing_started = Instant::now();
    let bounded = request.is_bounded();
    // The pruning mode any fresh optimization of this request runs under;
    // cache entries certified under a different mode are never served.
    let required_mode = PruneMode::auto(
        CostModelParams::default().enable_sampling,
        request.preference.objectives,
    );
    // Brownout verdict, sampled once per request: under pressure, computed
    // blocks degrade onto the anytime search with a pressure-scaled sample
    // budget. A request already past the shed gate degrades at the floor
    // rather than failing. Explicit algorithm hints are honored as-is.
    let brownout = match inner.brownout_level() {
        BrownoutLevel::Shed => BrownoutLevel::Degrade {
            samples: BrownoutConfig::MIN_SAMPLES,
        },
        level => level,
    };
    let mut blocks = Vec::with_capacity(request.query.blocks.len());

    // Per-block deadline shares, proportional to the block cost estimate:
    // granting every block the full remainder sequentially let an
    // expensive early block starve all later ones (it would happily burn
    // the whole budget although the policy knows more work is coming).
    // Shares are re-derived from the *actual* remainder at each block, so
    // budget a fast block leaves unspent flows to its successors. The
    // estimates are the learned EWMA of measured wall times where samples
    // exist (the split adapts to the machine), the policy's static model
    // elsewhere. Only computed when a deadline exists — deadline-less
    // requests (the common case) never touch the estimates.
    let estimates: Vec<Duration> = if request.deadline.is_some() {
        request
            .query
            .blocks
            .iter()
            .map(|g| inner.block_time_estimate(g.n_rels()))
            .collect()
    } else {
        Vec::new()
    };

    for (block_idx, graph) in request.query.blocks.iter().enumerate() {
        let budget_left = request
            .deadline
            .map(|d| d.saturating_sub(submitted.elapsed()));
        if budget_left == Some(Duration::ZERO) {
            // The clock ran out before this block could start (queue wait
            // or earlier blocks consumed everything): a timeout, not an
            // admission decision.
            rt.event(EventKind::DeadlineExceeded, block_idx as u64, 0, 0);
            return Err(ServiceError::DeadlineExceeded);
        }
        let remaining = budget_left.map(|total| block_share(total, &estimates[block_idx..]));
        let key = CacheKey {
            graph: graph.signature(),
            preference: request.preference.signature(),
        };
        let lookup = inner
            .cache
            .lookup(&key, graph, request.alpha, bounded, required_mode);
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
                        // The cache only serves on an exact mode match.
                        cached_mode: required_mode,
                        required_mode,
                    },
                },
                achieved_alpha: alpha,
                // Cache hits ran no optimizer; a synthetic report records
                // what was served.
                report: BlockReport {
                    alpha_final: alpha,
                    prune_mode: required_mode,
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
            return Err(ServiceError::Rejected(format!(
                "deadline budget {remaining:?} admits no algorithm for a {}-relation block",
                graph.n_rels()
            )));
        };
        // Graceful degradation: under brownout the admitted algorithm is
        // replaced by the anytime search at the pressure-scaled sample
        // budget — shorter service time instead of failed requests. An
        // explicit hint is a caller contract and is never overridden.
        let (algorithm, downgraded, degraded) = match brownout {
            BrownoutLevel::Degrade { samples } if request.hint.is_none() => {
                (BrownoutConfig::degraded_algorithm(samples), true, true)
            }
            _ => (algorithm, downgraded, false),
        };

        let mut optimizer = Optimizer::new(&inner.catalog);
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
        let optimize_started = Instant::now();
        let (block, mut report) =
            optimizer.optimize_block_warm(graph, &request.preference, algorithm, &warm_trees);
        // Feed the measured wall time back into the deadline split's
        // estimate table (lock-free EWMA) — admission learns the machine
        // it runs on instead of trusting the static 3.5ⁿ model forever.
        inner
            .learned
            .record(graph.n_rels(), optimize_started.elapsed());
        // α-accounting stays honest about brownout: the report carries the
        // degradation stamp, and `achieved_alpha` reflects the anytime
        // search's lack of guarantee instead of the request's preference.
        report.degraded_by_pressure = degraded;
        let achieved_alpha = if report.alpha_final.is_nan() {
            f64::INFINITY
        } else {
            report.alpha_final
        };
        debug_assert_eq!(
            report.prune_mode, required_mode,
            "optimizer and service must derive the same mode"
        );
        inner.cache.insert(
            key,
            graph,
            &block.frontier,
            &block.arena,
            achieved_alpha,
            report.prune_mode,
        );
        // arg0 packs block index (bits 0..32), algorithm kind (32..40) and
        // flags (40: degraded by pressure, 41: admission downgraded,
        // 42: warm-started); arg2 is the report's deterministic `DpStats`
        // digest, so replay checksums pin the whole optimization outcome.
        rt.event(
            EventKind::BlockOptimized,
            block_idx as u64
                | (u64::from(AlgorithmKind::of(algorithm).as_u8()) << 32)
                | (u64::from(degraded) << 40)
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

/// The deadline share of the first block in `estimates` out of `total`
/// remaining budget: proportional to its cost estimate against the
/// estimated cost of all blocks still to run, but never below the block's
/// own estimate (capped at `total`). The floor matters when a cheap block
/// precedes a very expensive one: a purely proportional share could fall
/// under the policy's admission minimum and reject the whole request even
/// though the cheap block needs only microseconds — proportionality should
/// only distribute *surplus* budget, never take away what a block is
/// estimated to need and the remainder can afford. The last (or only)
/// block always receives the full remainder untouched, so single-block
/// requests behave exactly as before the split existed.
fn block_share(total: Duration, estimates: &[Duration]) -> Duration {
    let [own, rest @ ..] = estimates else {
        return total;
    };
    if rest.is_empty() {
        return total;
    }
    let own_f = own.as_secs_f64();
    let sum = own_f + rest.iter().map(Duration::as_secs_f64).sum::<f64>();
    if sum <= 0.0 {
        // Degenerate estimates: split evenly.
        return total / u32::try_from(estimates.len()).unwrap_or(u32::MAX);
    }
    total.mul_f64(own_f / sum).max((*own).min(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_share_is_proportional_and_exhaustive_for_singletons() {
        let ms = Duration::from_millis;
        // Single block: bit-exact full remainder, no float round-trip.
        assert_eq!(block_share(ms(123), &[ms(7)]), ms(123));
        assert_eq!(block_share(ms(123), &[]), ms(123));
        // Two equal blocks: half each.
        let half = block_share(ms(100), &[ms(10), ms(10)]);
        assert!((half.as_secs_f64() - 0.05).abs() < 1e-9, "{half:?}");
        // A cheap block ahead of an expensive one keeps only its share.
        let cheap = block_share(ms(100), &[ms(1), ms(99)]);
        assert!(cheap <= ms(2), "{cheap:?}");
        // …but never less than its own estimate while the remainder can
        // afford it: a microsecond-scale block before a minutes-scale one
        // must not be starved below the admission floor.
        let floored = block_share(
            Duration::from_secs(10),
            &[Duration::from_micros(86), Duration::from_secs(82)],
        );
        assert!(
            floored >= Duration::from_micros(86),
            "{floored:?} fell below the block's own estimate"
        );
        assert!(floored <= Duration::from_millis(1), "{floored:?}");
        // An estimate beyond the remainder is capped at the remainder.
        assert_eq!(block_share(ms(5), &[ms(50), ms(50)]), ms(5));
        // Degenerate zero estimates fall back to an even split.
        assert_eq!(
            block_share(ms(90), &[Duration::ZERO, Duration::ZERO, Duration::ZERO]),
            ms(30)
        );
    }
}
