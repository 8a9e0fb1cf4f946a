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
//!   algorithm hint. A malformed request (α′ below 1, a NaN weight, a
//!   block the catalog does not hold, …) is rejected at submission with
//!   [`ServiceError::Rejected`] saying what is wrong.
//! * **Scheduling**: submissions land in a bounded FIFO queue (one
//!   `Mutex`-guarded `VecDeque`; back-pressure surfaces as
//!   [`ServiceError::QueueFull`], never silent buffering) and are executed
//!   by a pool of `std::thread` workers. The [`DeadlineAwarePolicy`]
//!   performs deadline-aware admission per block:
//!   prefer the strongest scheme the request asks for, downgrade along
//!   `EXA → IRA/RTA → RMQ` when block size or remaining budget rules it
//!   out, admit nothing when even the anytime search cannot start. Each
//!   block is decided and optimized against the whole budget left when
//!   it starts, so a deadline below [`DeadlineAwarePolicy::MIN_BUDGET`] is
//!   rejected at *submission* (before occupying a queue slot), and a block
//!   that queue wait or earlier blocks leave too little fails the request
//!   as [`ServiceError::DeadlineExceeded`].
//! * **The α-aware plan cache** ([`PlanCache`]): blocks are keyed by
//!   their plan-space signature ([`moqo_catalog::JoinGraph::signature`])
//!   and the request's objective set, everything a front depends on
//!   besides its α. A front computed at factor α serves every later request
//!   on the same block and objectives tolerating `α′ ≥ α` directly, whatever
//!   its weights and bounds, which only select the plan (with the Figure-8
//!   restriction for bounded requests — see [`AlphaCertificate`]), and
//!   warm-starts the randomized search otherwise. Entries own their
//!   plans in compact arenas (re-rooted via `PlanArena::adopt`), and
//!   eviction is sharded LRU.
//! * **Metrics** ([`ServiceMetrics`]): a per-[`ServiceError`]-variant
//!   error taxonomy, downgrade counts, per-algorithm block mix, and cache
//!   counters, snapshotted on demand at a cost independent of uptime.
//!   Each request counter is a projection of one per-[`EventKind`]
//!   counter table, bumped by the same lifecycle call that feeds the
//!   flight recorder, so counters and traces cannot disagree. The cache
//!   counters ([`MetricsSnapshot::cache`]) are the cache's own;
//!   `tests/chaos.rs` reconciles their hits against the traced
//!   cache-probe hits. The service keeps no latency statistics: each
//!   response carries its own queue wait and service time, and the trace
//!   timestamps every event. A submission takes the queue mutex once;
//!   the metrics stay lock-free.
//!
//! * **Panic isolation and cancellation** — a panic inside a job is
//!   caught at the worker's guard and delivered as
//!   [`ServiceError::Internal`] (payload included) while the worker keeps
//!   serving. Dropping a [`Ticket`] cancels its request: the optimizer
//!   stops at its next amortized deadline check and takes its own timeout
//!   path (DP quick-finish, IRA stop, RMQ incumbent), so a long job
//!   nobody waits for frees its worker. A block cut short by a deadline or
//!   a cancel claims no guarantee (`achieved_alpha = ∞`) and enters the
//!   cache as a warm start only. Shutdown closes the queue, lets the
//!   workers drain it, and joins every worker; no thread is detached.
//! * **Deterministic chaos** ([`FaultPlan`]) — panics keyed on exact
//!   submission ordinals, so fault runs replay byte-stable and tests can
//!   pin the robustness counters.
//! * **End-to-end tracing** ([`ServiceBuilder::tracing`]) — a flight
//!   recorder ([`TraceConfig`]): per-worker bounded rings, one mutex
//!   each, of fixed-size span events covering the whole request lifecycle
//!   (submit/admission, enqueue, queue wait, cache probes, per-block
//!   optimize with algorithm + achieved α + report digest, caught panics,
//!   completion), and tail-based retention of every error-class trace as
//!   an exemplar, all read through one [`TraceSnapshot`]. Under a logical
//!   clock the event stream is byte-deterministic, so a test can pin its
//!   checksum. The recorder adds only the rings, spans and exemplars: the
//!   events are counted on every request whether or not it is on.
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

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod cache;
mod fault;
mod metrics;
mod policy;
mod queue;
mod request;
mod service;
mod trace;

pub use cache::{CacheKey, CacheLookup, CacheSnapshot, PlanCache};
pub use fault::{FaultPlan, FaultPlanBuilder};
pub use metrics::{AlgorithmKind, MetricsSnapshot, ServiceMetrics};
pub use policy::{Admission, DeadlineAwarePolicy, PolicyContext};
pub use queue::{BoundedQueue, PushError};
pub use request::{
    AlphaCertificate, BlockOutcome, BlockSource, OptimizationRequest, OptimizationResponse,
    ServiceError,
};
pub use service::{OptimizationService, ServiceBuilder, Ticket};
pub use trace::{
    commutative_checksum, error_code, stream_checksum, EventKind, Exemplar, ExemplarClass,
    TraceConfig, TraceEvent, TraceSnapshot,
};
