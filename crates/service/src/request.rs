//! The service's request/response vocabulary.

use std::time::Duration;

use moqo_catalog::Query;
use moqo_core::{combine_block_costs, Algorithm, BlockReport, PlanEntry};
use moqo_cost::{CostVector, Preference};
use moqo_plan::{PlanArena, PlanId};

/// One optimization request: what to optimize, how precisely, and by when.
#[derive(Debug, Clone)]
pub struct OptimizationRequest {
    /// The query to optimize (one or more blocks).
    pub query: Query,
    /// Objectives, weights and bounds.
    pub preference: Preference,
    /// Tolerated approximation factor `α′ ≥ 1`: the caller accepts any plan
    /// whose guarantee is at least this tight. `1.0` demands exactness.
    pub alpha: f64,
    /// Wall-clock budget measured from submission (queue wait counts
    /// against it); `None` waits as long as optimization takes.
    pub deadline: Option<Duration>,
    /// Optional algorithm override; bypasses the policy's preference order
    /// but not its admission check.
    pub hint: Option<Algorithm>,
}

impl OptimizationRequest {
    /// A request with precision `alpha`, no deadline, no hint.
    #[must_use]
    pub fn new(query: Query, preference: Preference, alpha: f64) -> Self {
        OptimizationRequest {
            query,
            preference,
            alpha,
            deadline: None,
            hint: None,
        }
    }

    /// Sets a deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Forces an algorithm (builder style).
    #[must_use]
    pub fn with_hint(mut self, hint: Algorithm) -> Self {
        self.hint = Some(hint);
        self
    }

    /// Whether any selected objective carries a finite bound — the
    /// bounded-weighted case where cache serving needs the stronger
    /// certificate (see [`AlphaCertificate`]).
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.preference.is_bounded()
    }
}

/// Proof that a cached front may serve a request: the front was computed
/// with guarantee `cached_alpha` and the request tolerates
/// `requested_alpha ≥ cached_alpha`.
///
/// For *bounded* requests an `α`-approximate Pareto set does not guarantee
/// an `α`-approximate plan (the paper's Figure 8 pathology: near-identical
/// cost vectors can differ in feasibility), so the certificate additionally
/// requires `cached_alpha == 1` — an exact front always contains the true
/// bounded-weighted optimum. Approximate fronts still serve bounded
/// requests indirectly, as RMQ warm starts.
///
/// An α guarantee is only meaningful relative to the pruning mode that
/// computed the front. The certificate need not record it: the cache keys
/// on the objective set, which fixes the mode (see [`PlanCache`]), so a
/// front only ever serves requests that would compute it in its own mode.
///
/// [`PlanCache`]: crate::PlanCache
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaCertificate {
    /// Guarantee the cached front was computed with (`1.0` = exact,
    /// `+∞` = RMQ, no guarantee).
    pub cached_alpha: f64,
    /// Precision the request tolerates.
    pub requested_alpha: f64,
    /// Whether the request bounds any selected objective.
    pub bounded: bool,
}

impl AlphaCertificate {
    /// Whether this certificate licenses a direct cache hit.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.cached_alpha.is_finite()
            && self.cached_alpha <= self.requested_alpha
            && (!self.bounded || self.cached_alpha <= 1.0)
    }
}

/// How one block of a response was produced.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockSource {
    /// Freshly optimized (cache miss or no cacheable entry).
    Computed {
        /// Algorithm that ran.
        algorithm: Algorithm,
        /// Whether the policy downgraded the preferred algorithm to meet
        /// the deadline or size limits.
        downgraded: bool,
    },
    /// Served directly from the plan cache under a valid certificate.
    CacheHit {
        /// The coverage certificate (always valid when this variant is
        /// returned).
        certificate: AlphaCertificate,
    },
    /// Recomputed, but seeded from a cached front (RMQ warm start).
    WarmStarted {
        /// Algorithm that ran (always an RMQ variant today).
        algorithm: Algorithm,
        /// Whether the policy downgraded the preferred algorithm.
        downgraded: bool,
        /// Precision of the cached front the walkers started from.
        cached_alpha: f64,
    },
}

/// The served plan for one query block, self-contained and `Send`.
#[derive(Debug)]
pub struct BlockOutcome {
    /// Arena owning every plan in this outcome.
    pub arena: PlanArena,
    /// The selected plan.
    pub root: PlanId,
    /// Cost vector of the selected plan.
    pub cost: CostVector,
    /// The (approximate) Pareto frontier backing the selection.
    pub frontier: Vec<PlanEntry>,
    /// Where the block came from.
    pub source: BlockSource,
    /// Precision guarantee attached to the frontier: `∞` when there is
    /// none — RMQ fronts, and every run that timed out or was cancelled,
    /// since a quick-finished front covers no more than its one plan per
    /// table set.
    pub achieved_alpha: f64,
    /// The optimizer's per-block report (timings, pruning counters, final
    /// α, prune mode, whether the run timed out). Cache hits carry a
    /// synthetic report describing the cached entry.
    pub report: BlockReport,
}

/// A completed optimization, with latency accounting.
#[derive(Debug)]
pub struct OptimizationResponse {
    /// Per-block outcomes in query block order.
    pub blocks: Vec<BlockOutcome>,
    /// Combined cost over all blocks ([`combine_block_costs`] rules).
    pub total_cost: CostVector,
    /// Weighted cost of the combined vector under the request preference.
    pub weighted_cost: f64,
    /// Whether the combined cost respects the request's bounds.
    pub respects_bounds: bool,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Worker processing time (cache probes + optimization).
    pub service_time: Duration,
}

impl OptimizationResponse {
    /// Assembles a response from block outcomes plus timing.
    #[must_use]
    pub fn from_blocks(
        blocks: Vec<BlockOutcome>,
        preference: &Preference,
        queue_wait: Duration,
        service_time: Duration,
    ) -> Self {
        let costs: Vec<CostVector> = blocks.iter().map(|b| b.cost).collect();
        let total_cost = combine_block_costs(&costs);
        OptimizationResponse {
            weighted_cost: preference.weighted_cost(&total_cost),
            respects_bounds: preference.respects_bounds(&total_cost),
            blocks,
            total_cost,
            queue_wait,
            service_time,
        }
    }

    /// Total latency from submission to completion.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.service_time
    }

    /// Whether every block was a direct cache hit.
    #[must_use]
    pub fn fully_cached(&self) -> bool {
        self.blocks
            .iter()
            .all(|b| matches!(b.source, BlockSource::CacheHit { .. }))
    }
}

/// Why a request produced no plan. Each variant lands in its own metrics
/// counter (see [`crate::MetricsSnapshot`]): `Rejected` →
/// `rejected`, `DeadlineExceeded` → `timed_out`, `QueueFull` →
/// `queue_full`, everything else → `failed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded work queue was at capacity (back-pressure).
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
    /// The request was turned away and retrying it unchanged cannot help:
    /// it is malformed (α below 1 or NaN, a NaN, negative or infinite
    /// weight, a NaN or negative bound, no objective, an empty query or
    /// block, a block that does not fit the catalog, a DP hint on a block
    /// over 24 relations), or its whole deadline is below the admission
    /// minimum. Only submission returns it, before the request takes a
    /// queue slot. The string says what is wrong.
    Rejected(String),
    /// A block's turn came with too little of the deadline left to start
    /// it — nothing, or less than the admission minimum — because queue
    /// wait and/or earlier blocks used it up. Distinct from `Rejected`: the
    /// request was admissible as sent, and the clock ran out.
    DeadlineExceeded,
    /// The worker processing the request panicked; the panic was caught at
    /// the job boundary, the worker survived, and the payload is delivered
    /// here instead of killing the thread (and, transitively, the pool).
    Internal {
        /// The panic payload, rendered to a string and capped at
        /// [`ServiceError::MAX_INTERNAL_PAYLOAD`] bytes — a pathological
        /// panic message cannot bloat responders or trace events.
        payload: String,
        /// Whether `payload` was truncated to fit the byte budget.
        payload_truncated: bool,
    },
    /// The worker processing the request disappeared (service dropped
    /// while the ticket was outstanding).
    WorkerLost,
}

impl ServiceError {
    /// Byte budget for [`ServiceError::Internal`] panic payloads.
    pub const MAX_INTERNAL_PAYLOAD: usize = 512;

    /// Builds an [`ServiceError::Internal`] from a caught panic payload,
    /// truncating it to [`ServiceError::MAX_INTERNAL_PAYLOAD`] bytes (on
    /// a character boundary) and flagging the cut.
    #[must_use]
    pub fn internal(mut payload: String) -> Self {
        let payload_truncated = payload.len() > Self::MAX_INTERNAL_PAYLOAD;
        if payload_truncated {
            let mut cut = Self::MAX_INTERNAL_PAYLOAD;
            while !payload.is_char_boundary(cut) {
                cut -= 1;
            }
            payload.truncate(cut);
        }
        ServiceError::Internal {
            payload,
            payload_truncated,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "work queue is full"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Rejected(reason) => write!(f, "request rejected: {reason}"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline expired before optimization could start")
            }
            ServiceError::Internal {
                payload,
                payload_truncated,
            } => {
                let marker = if *payload_truncated { "…" } else { "" };
                write!(f, "internal error: worker panicked: {payload}{marker}")
            }
            ServiceError::WorkerLost => write!(f, "worker terminated before responding"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_payloads_are_capped_at_the_byte_budget() {
        let short = ServiceError::internal("boom".into());
        assert_eq!(
            short,
            ServiceError::Internal {
                payload: "boom".into(),
                payload_truncated: false,
            }
        );
        assert!(!short.to_string().ends_with('…'));

        let long = ServiceError::internal("x".repeat(100_000));
        let ServiceError::Internal {
            payload,
            payload_truncated,
        } = &long
        else {
            panic!("expected Internal");
        };
        assert_eq!(payload.len(), ServiceError::MAX_INTERNAL_PAYLOAD);
        assert!(payload_truncated);
        assert!(long.to_string().ends_with('…'));

        // The cut lands on a char boundary even for multi-byte payloads.
        let multibyte = ServiceError::internal("é".repeat(400));
        let ServiceError::Internal { payload, .. } = &multibyte else {
            panic!("expected Internal");
        };
        assert!(payload.len() <= ServiceError::MAX_INTERNAL_PAYLOAD);
        assert!(payload.chars().all(|c| c == 'é'));
    }

    #[test]
    fn certificate_rules() {
        let ok = AlphaCertificate {
            cached_alpha: 1.5,
            requested_alpha: 2.0,
            bounded: false,
        };
        assert!(ok.is_valid());
        let too_loose = AlphaCertificate {
            cached_alpha: 2.5,
            ..ok
        };
        assert!(!too_loose.is_valid());
        let rmq = AlphaCertificate {
            cached_alpha: f64::INFINITY,
            requested_alpha: 100.0,
            ..ok
        };
        assert!(!rmq.is_valid(), "no-guarantee fronts never serve directly");
        // Figure 8: approximate fronts cannot serve bounded requests…
        let bounded_approx = AlphaCertificate {
            bounded: true,
            ..ok
        };
        assert!(!bounded_approx.is_valid());
        // …but exact fronts can.
        let bounded_exact = AlphaCertificate {
            cached_alpha: 1.0,
            bounded: true,
            ..ok
        };
        assert!(bounded_exact.is_valid());
    }
}
