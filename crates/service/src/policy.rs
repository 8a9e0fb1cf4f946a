//! Deadline-aware admission: which algorithm runs, and whether at all.
//!
//! The anytime follow-up (arXiv:1603.00400) frames optimization under
//! per-request time budgets; a serving layer turns that framing into an
//! admission decision. [`DeadlineAwarePolicy`] picks the *preferred*
//! scheme from the request (`α = 1` → EXA; bounded → IRA; otherwise RTA),
//! then downgrades along `EXA → IRA/RTA → RMQ` whenever the block size or
//! the remaining deadline budget rules a scheme out, and rejects only when
//! even the anytime randomized search cannot start before the deadline.

use std::time::Duration;

use moqo_core::Algorithm;

use crate::metrics::EwmaCell;

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
    /// The deadline cannot be met by any admitted algorithm.
    Reject,
}

impl Admission {
    /// The admitted algorithm, `None` on a rejection — the shape trace
    /// events and admission fast paths branch on.
    #[must_use]
    pub fn admitted_algorithm(&self) -> Option<Algorithm> {
        match self {
            Admission::Run { algorithm, .. } => Some(*algorithm),
            Admission::Reject => None,
        }
    }
}

/// Lock-free EWMA of measured per-block-size optimization wall times.
///
/// The static `DP_BASE · DP_GROWTHⁿ` model in
/// [`DeadlineAwarePolicy::estimated_dp_time`] describes *some* machine;
/// this table learns the one the service actually runs on. Workers feed
/// every measured block optimization into [`LearnedBlockTimes::record`];
/// the deadline split (`block_share` in the service) then prefers the
/// learned estimate over the static model wherever a sample exists.
/// Everything is relaxed atomics — recording sits on the completion path
/// and must not lock. A new sample weighs 0.2.
pub struct LearnedBlockTimes {
    cells: [EwmaCell; Self::MAX_TRACKED + 1],
}

impl Default for LearnedBlockTimes {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedBlockTimes {
    /// Largest block size tracked individually; bigger blocks share the
    /// last cell (the policy hands them to RMQ anyway, whose cost is the
    /// sample budget, not the block size).
    pub const MAX_TRACKED: usize = 32;

    /// An empty table: every estimate falls back to the policy model.
    #[must_use]
    pub fn new() -> Self {
        LearnedBlockTimes {
            cells: std::array::from_fn(|_| EwmaCell::default()),
        }
    }

    fn cell(&self, block_size: usize) -> &EwmaCell {
        &self.cells[block_size.min(Self::MAX_TRACKED)]
    }

    /// Folds one measured optimization wall time into the estimate for
    /// `block_size`-relation blocks. Lock-free (a short CAS loop; a lost
    /// race drops one sample of smoothing, never corrupts the estimate).
    #[moqo::hot_path]
    pub fn record(&self, block_size: usize, wall: Duration) {
        self.cell(block_size).record(wall);
    }

    /// The learned estimate for one block size, if any sample landed yet.
    #[must_use]
    pub fn estimate(&self, block_size: usize) -> Option<Duration> {
        self.cell(block_size).get()
    }
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
    /// Requests with less remaining budget than this are rejected outright
    /// (below it even RMQ's first sample won't land).
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
    fn learned_times_converge_and_fall_back() {
        let learned = LearnedBlockTimes::new();
        assert_eq!(learned.estimate(4), None, "no sample yet");
        learned.record(4, Duration::from_micros(100));
        let first = learned.estimate(4).unwrap();
        assert!((first.as_secs_f64() * 1e6 - 100.0).abs() < 1e-6);
        // EWMA: 0.2 · 300 + 0.8 · 100 = 140.
        learned.record(4, Duration::from_micros(300));
        let second = learned.estimate(4).unwrap();
        assert!((second.as_secs_f64() * 1e6 - 140.0).abs() < 1e-6);
        // Other sizes stay empty; oversized blocks share the last cell.
        assert_eq!(learned.estimate(5), None);
        learned.record(
            LearnedBlockTimes::MAX_TRACKED + 10,
            Duration::from_micros(7),
        );
        assert!(learned.estimate(LearnedBlockTimes::MAX_TRACKED).is_some());
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
