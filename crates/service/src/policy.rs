//! Deadline-aware admission: which algorithm runs, and whether at all.
//!
//! The anytime follow-up (arXiv:1603.00400) frames optimization under
//! per-request time budgets; a serving layer turns that framing into an
//! admission decision. [`DeadlineAwarePolicy`] picks the *preferred*
//! scheme from the request (`α = 1` → EXA; bounded → IRA; otherwise RTA),
//! then downgrades along `EXA → IRA/RTA → RMQ` whenever the block size or
//! the remaining deadline budget rules a scheme out, and admits nothing
//! when the budget is below [`DeadlineAwarePolicy::MIN_BUDGET`], where even
//! the anytime randomized search cannot start. Each block is decided
//! against the whole budget left when it starts; the service keeps no
//! record of past run times, so the static DP-cost model is the only
//! estimate.

use std::time::Duration;

use moqo_core::Algorithm;

/// What the policy sees about one block of a request at scheduling time.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext {
    /// Relations in the block under decision.
    pub block_size: usize,
    /// Tolerated approximation factor `α′` of the request.
    pub alpha: f64,
    /// Whether the request bounds any selected objective.
    pub bounded: bool,
    /// Deadline budget left when the decision is made (`None` = unlimited).
    pub remaining: Option<Duration>,
    /// The request's algorithm override, if any.
    pub hint: Option<Algorithm>,
}

/// The admission decision for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Run this algorithm; `downgraded` records that it is weaker (larger
    /// guarantee, or none) than the request's preferred scheme.
    Run {
        /// The algorithm to execute.
        algorithm: Algorithm,
        /// Whether deadline/size gates forced a weaker scheme.
        downgraded: bool,
    },
    /// The budget is below [`DeadlineAwarePolicy::MIN_BUDGET`]: no
    /// algorithm can start.
    Reject,
}

/// The admission policy: size and deadline gates around the preference order
/// `EXA → IRA/RTA → RMQ`, with a crude exponential model of
/// dynamic-programming cost. Its limits are constants.
pub struct DeadlineAwarePolicy;

impl DeadlineAwarePolicy {
    /// Largest block the exact algorithm may attempt (the DP table
    /// doubles per relation and EXA keeps full Pareto sets).
    pub const EXA_MAX_TABLES: usize = 7;
    /// Largest block any DP scheme (RTA/IRA) may attempt.
    pub const DP_MAX_TABLES: usize = 10;
    /// Sample budget handed to RMQ fallbacks.
    pub const RMQ_SAMPLES: u64 = 2000;
    /// RMQ seed; fixed so results are reproducible.
    pub const RMQ_SEED: u64 = 0x5EED;
    /// Threads per RMQ run (the worker pool is the parallelism).
    pub const RMQ_THREADS: usize = 1;
    /// Precision the DP falls back to when a request demands exactness on
    /// a block too large for EXA: RTA/IRA at α = 1 would run the *same*
    /// full-precision DP as EXA (the internal pruning precision `α^(1/n)`
    /// degenerates to 1), so a genuine downgrade must relax α.
    pub const RELAXED_ALPHA: f64 = 2.0;
    /// Blocks with less remaining budget than this are admitted to no
    /// algorithm (below it even RMQ's first sample won't land): a request
    /// whose whole deadline is shorter is rejected at submission, and a
    /// block left less by queue wait or earlier blocks times out.
    pub const MIN_BUDGET: Duration = Duration::from_micros(200);
    /// DP cost model `DP_BASE · DP_GROWTHⁿ` — base term.
    pub const DP_BASE: Duration = Duration::from_micros(2);
    /// DP cost model growth per relation.
    pub const DP_GROWTH: f64 = 3.5;

    /// Estimated wall time of one DP run over `tables` relations:
    /// `DP_BASE · DP_GROWTHⁿ`. Deliberately pessimistic for EXA-sized
    /// blocks so deadline pressure downgrades early rather than times out.
    #[must_use]
    pub fn estimated_dp_time(tables: usize) -> Duration {
        let factor = Self::DP_GROWTH.powi(i32::try_from(tables).unwrap_or(i32::MAX));
        Self::DP_BASE.mul_f64(factor.min(1e15))
    }

    fn dp_fits(ctx: &PolicyContext) -> bool {
        match ctx.remaining {
            None => true,
            Some(rem) => Self::estimated_dp_time(ctx.block_size) <= rem,
        }
    }

    /// Decides what to run for one block.
    #[must_use]
    pub fn admit(ctx: &PolicyContext) -> Admission {
        if let Some(rem) = ctx.remaining {
            if rem < Self::MIN_BUDGET {
                return Admission::Reject;
            }
        }
        // An explicit hint bypasses the preference order and the size
        // gates, but never the minimum-budget admission above.
        if let Some(hint) = ctx.hint {
            return Admission::Run {
                algorithm: hint,
                downgraded: false,
            };
        }
        let preferred = if ctx.alpha <= 1.0 {
            Algorithm::Exhaustive
        } else if ctx.bounded {
            Algorithm::Ira { alpha: ctx.alpha }
        } else {
            Algorithm::Rta { alpha: ctx.alpha }
        };
        // Size + deadline gates, weakest last.
        let exa_ok = ctx.block_size <= Self::EXA_MAX_TABLES && Self::dp_fits(ctx);
        let dp_ok = ctx.block_size <= Self::DP_MAX_TABLES && Self::dp_fits(ctx);
        match preferred {
            Algorithm::Exhaustive if exa_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            // An exactness-demanding request that EXA cannot serve within
            // limits degrades to the approximate DP at `RELAXED_ALPHA` —
            // α = 1 would re-run the exact DP under another name (see the
            // constant's docs) — or falls through to the anytime search.
            Algorithm::Exhaustive if dp_ok => Admission::Run {
                algorithm: if ctx.bounded {
                    Algorithm::Ira {
                        alpha: Self::RELAXED_ALPHA,
                    }
                } else {
                    Algorithm::Rta {
                        alpha: Self::RELAXED_ALPHA,
                    }
                },
                downgraded: true,
            },
            Algorithm::Ira { .. } | Algorithm::Rta { .. } if dp_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            _ => Admission::Run {
                algorithm: Algorithm::Rmq {
                    samples: Self::RMQ_SAMPLES,
                    seed: Self::RMQ_SEED,
                    threads: Self::RMQ_THREADS,
                },
                downgraded: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(
        block_size: usize,
        alpha: f64,
        bounded: bool,
        remaining: Option<Duration>,
    ) -> PolicyContext {
        PolicyContext {
            block_size,
            alpha,
            bounded,
            remaining,
            hint: None,
        }
    }

    #[test]
    fn preference_order_without_pressure() {
        assert_eq!(
            DeadlineAwarePolicy::admit(&ctx(4, 1.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Exhaustive,
                downgraded: false
            }
        );
        assert_eq!(
            DeadlineAwarePolicy::admit(&ctx(4, 2.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Rta { alpha: 2.0 },
                downgraded: false
            }
        );
        assert_eq!(
            DeadlineAwarePolicy::admit(&ctx(4, 2.0, true, None)),
            Admission::Run {
                algorithm: Algorithm::Ira { alpha: 2.0 },
                downgraded: false
            }
        );
    }

    #[test]
    fn size_gates_downgrade() {
        // Too big for EXA but fine for the approximate DP: precision is
        // genuinely relaxed (α = 1 would re-run the exact DP).
        match DeadlineAwarePolicy::admit(&ctx(9, 1.0, false, None)) {
            Admission::Run {
                algorithm: Algorithm::Rta { alpha },
                downgraded: true,
            } => assert_eq!(alpha, DeadlineAwarePolicy::RELAXED_ALPHA),
            other => panic!("expected RTA downgrade, got {other:?}"),
        }
        match DeadlineAwarePolicy::admit(&ctx(9, 1.0, true, None)) {
            Admission::Run {
                algorithm: Algorithm::Ira { alpha },
                downgraded: true,
            } => assert_eq!(alpha, DeadlineAwarePolicy::RELAXED_ALPHA),
            other => panic!("expected IRA downgrade, got {other:?}"),
        }
        // Too big for any DP.
        match DeadlineAwarePolicy::admit(&ctx(16, 1.5, false, None)) {
            Admission::Run {
                algorithm: Algorithm::Rmq { .. },
                downgraded: true,
            } => {}
            other => panic!("expected RMQ fallback, got {other:?}"),
        }
    }

    #[test]
    fn deadline_gates_downgrade_and_reject() {
        // 8 tables ≈ 2 µs · 3.5⁸ ≈ 45 ms estimated; a 1 ms budget forces
        // the anytime search.
        match DeadlineAwarePolicy::admit(&ctx(8, 1.5, false, Some(Duration::from_millis(1)))) {
            Admission::Run {
                algorithm: Algorithm::Rmq { .. },
                downgraded: true,
            } => {}
            other => panic!("expected RMQ under deadline pressure, got {other:?}"),
        }
        // Below the minimum budget nothing is admitted.
        assert_eq!(
            DeadlineAwarePolicy::admit(&ctx(2, 1.5, false, Some(Duration::from_micros(50)))),
            Admission::Reject
        );
    }

    #[test]
    fn hints_bypass_gates_but_not_admission() {
        let mut c = ctx(16, 1.0, false, None);
        c.hint = Some(Algorithm::Exhaustive);
        assert_eq!(
            DeadlineAwarePolicy::admit(&c),
            Admission::Run {
                algorithm: Algorithm::Exhaustive,
                downgraded: false
            }
        );
        c.remaining = Some(Duration::from_micros(10));
        assert_eq!(DeadlineAwarePolicy::admit(&c), Admission::Reject);
    }
}
