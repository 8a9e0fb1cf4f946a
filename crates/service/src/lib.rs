//! # moqo_service — a concurrent optimization service with an α-aware plan cache
//!
//! The paper trades precision for optimization speed through the
//! approximation factor α; its anytime follow-up (arXiv:1603.00400) frames
//! optimization under per-request time budgets. This crate turns those two
//! ideas into a serving layer a frontend can hammer:
//!
//! * **Requests** ([`OptimizationRequest`]) pair a query with a
//!   [`Preference`](moqo_cost::Preference), a tolerated approximation
//!   factor `α′`, an optional wall-clock deadline, and an optional
//!   algorithm hint.
//! * **Scheduling**: submissions land in a bounded FIFO queue (one
//!   `Mutex`-guarded `VecDeque`; back-pressure surfaces as
//!   [`ServiceError::QueueFull`], never silent buffering) and are executed
//!   by a pool of `std::thread` workers. The [`DeadlineAwarePolicy`]
//!   performs deadline-aware admission per block:
//!   prefer the strongest scheme the request asks for, downgrade along
//!   `EXA → IRA/RTA → RMQ` when block size or remaining budget rules it
//!   out, reject when even the anytime search cannot start. Hopeless
//!   deadlines are rejected at *submission* (before occupying a queue
//!   slot), and the deadline split across blocks is weighted by a
//!   lock-free EWMA of measured per-block-size wall times
//!   ([`LearnedBlockTimes`]) once samples exist.
//! * **The α-aware plan cache** ([`PlanCache`]): blocks are keyed by
//!   canonical signatures ([`moqo_catalog::JoinGraph::signature`] ×
//!   [`moqo_cost::Preference::signature`]). A front computed at factor α
//!   serves every later request tolerating `α′ ≥ α` directly (with the
//!   Figure-8 restriction for bounded requests — see [`AlphaCertificate`]),
//!   and warm-starts the randomized search otherwise. Entries own their
//!   plans in compact arenas (re-rooted via `PlanArena::adopt`), eviction
//!   is sharded LRU, and per-entry hit/warm-start statistics are kept.
//! * **Metrics** ([`ServiceMetrics`]): windowed throughput, p50/p95/p99
//!   for end-to-end latency, queue wait and processing time (lock-free
//!   log-bucket histograms, O(buckets) memory — see [`LogHistogram`] for
//!   the ≤12.5% quantile error bound), a per-[`ServiceError`]-variant
//!   error taxonomy, downgrade counts, per-algorithm block mix, and cache
//!   counters, all snapshotted on demand at O(buckets) cost. Each request
//!   counter is a projection of one per-[`EventKind`] counter table,
//!   bumped by the same lifecycle call that feeds the flight recorder, so
//!   counters and traces cannot disagree. A submission takes the queue
//!   mutex once; metrics, histograms and the flight recorder stay
//!   lock-free.
//!
//! * **Self-healing** — a panic inside a job is caught at the worker's
//!   guard and delivered as [`ServiceError::Internal`] (payload included)
//!   while the worker keeps serving; a worker that dies anyway (or wedges
//!   past [`ServiceConfig::stall_after`]) is detected by the supervisor
//!   thread via per-worker heartbeat epochs and respawned under the same
//!   worker index ([`MetricsSnapshot::respawns`], `stalls_detected`).
//! * **Brownout load shedding** ([`BrownoutConfig`]) — an EWMA
//!   [`PressureGauge`] over measured queue waits drives graceful
//!   degradation: above the watermark, blocks run the anytime search at a
//!   pressure-scaled sample budget (stamped `degraded_by_pressure` in the
//!   block report, so α-accounting stays honest); past the shed threshold,
//!   submissions are turned away with [`ServiceError::Shed`] before taking
//!   a queue slot.
//! * **Deterministic chaos** ([`FaultPlan`]) — panics, delays, queue-full
//!   rejections and worker kills keyed on exact submission ordinals, so
//!   fault runs replay byte-stable and tests can pin the robustness
//!   counters.
//! * **End-to-end tracing** ([`ServiceBuilder::tracing`]) — a lock-free
//!   flight recorder ([`TraceConfig`]): per-worker bounded seqlock rings
//!   of fixed-size span events covering the whole request lifecycle
//!   (submit/admission, enqueue, queue wait, cache probes, per-block
//!   optimize with algorithm + achieved α + report digest, faults, panics,
//!   kills, completion), tail-based exemplar retention (every error-class
//!   trace plus the rolling slowest-k), a JSON [`TraceSnapshot`] dump and
//!   a Prometheus-style text exposition ([`render_prometheus`]) over the
//!   entire metrics surface. Under a logical clock the event stream is
//!   byte-deterministic, so a test can pin its checksum. The recorder adds
//!   only the rings, spans and exemplars: the events are counted on every
//!   request whether or not it is on.
//!
//! Everything is std-only — no async runtime — and deterministic under a
//! test configuration (one worker, fixed RMQ seed, no deadlines).
//!
//! ## Example
//!
//! ```
//! use moqo_service::{OptimizationRequest, OptimizationService};
//! use moqo_cost::{Objective, ObjectiveSet, Preference};
//!
//! let catalog = moqo_catalog::tpch::catalog(0.01);
//! let service = OptimizationService::builder(catalog.clone()).workers(2).build();
//!
//! let query = {
//!     // Any query built against the service's catalog works; here a tiny
//!     // two-relation block.
//!     use moqo_catalog::{JoinGraphBuilder, Query};
//!     let block = JoinGraphBuilder::new(&catalog)
//!         .rel("orders", 1.0)
//!         .rel("lineitem", 0.5)
//!         .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
//!         .build();
//!     Query::single_block("example", block)
//! };
//! let preference = Preference::over(ObjectiveSet::empty())
//!     .weight(Objective::TotalTime, 1.0)
//!     .bound(Objective::TupleLoss, 0.0);
//!
//! let request = OptimizationRequest::new(query, preference, 1.0);
//! let response = service.submit_wait(request.clone()).unwrap();
//! assert!(response.respects_bounds);
//!
//! // The same request again is a cache hit.
//! let again = service.submit_wait(request).unwrap();
//! assert!(again.fully_cached());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod export;
mod fault;
mod histogram;
mod metrics;
mod policy;
mod queue;
mod request;
mod service;
mod supervisor;
mod trace;

pub use cache::{CacheKey, CacheLookup, CacheSnapshot, EntryStats, PlanCache, ShardCacheSnapshot};
pub use export::{render_prometheus, TraceSnapshot};
pub use fault::{FaultAction, FaultPlan, FaultPlanBuilder};
pub use histogram::{HistogramSnapshot, LogHistogram, BUCKETS as HISTOGRAM_BUCKETS};
pub use metrics::{AlgorithmKind, MetricsSnapshot, PressureGauge, ServiceMetrics};
pub use policy::{
    Admission, BrownoutConfig, BrownoutLevel, DeadlineAwarePolicy, LearnedBlockTimes, PolicyContext,
};
pub use queue::{BoundedQueue, PushError};
pub use request::{
    AlphaCertificate, BlockOutcome, BlockSource, OptimizationRequest, OptimizationResponse,
    ServiceError,
};
pub use service::{OptimizationService, ServiceBuilder, ServiceConfig, Ticket};
pub use trace::{
    commutative_checksum, error_code, stream_checksum, EventKind, Exemplar, ExemplarClass,
    TraceConfig, TraceEvent, TraceStats,
};

/// Model-suite surface: internals the `tests/model_*.rs` suites drive
/// directly, plus the seeded-bug injection knob. Compiled only under
/// `--cfg moqo_model`, so the normal public API is unchanged.
#[cfg(moqo_model)]
pub mod model_internals {
    pub use crate::trace::model_hooks as trace_hooks;
    pub use crate::trace::EventRing;
}
