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
/// The static `base · growthⁿ` model in
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

/// Brownout admission control: how the service trades α for latency under
/// measured overload instead of failing requests outright.
///
/// The anytime view of RMQ (arXiv:1603.00400) makes graceful degradation
/// principled: the randomized search produces *some* front under any
/// budget, and shrinking its sample count is a continuous quality/latency
/// dial. This config turns the queue-wait pressure gauge into the two
/// brownout actions:
///
/// * `1 < pressure < shed_threshold` — **degrade**: blocks that would run
///   a DP scheme are forced onto RMQ with `base_samples / pressure`
///   samples (floored at `min_samples`), so service time shrinks as
///   pressure grows. The degradation is stamped in the block's
///   [`BlockReport`](moqo_core::BlockReport) (`degraded_by_pressure`) and
///   the response's `achieved_alpha` honestly reports `∞` — α-accounting
///   never pretends a browned-out block kept its guarantee.
/// * `pressure ≥ shed_threshold` — **shed**: new submissions are turned
///   away with [`ServiceError::Shed`](crate::ServiceError::Shed) before
///   occupying a queue slot they would only time out in.
///
/// `watermark: None` (the default) disables the controller entirely —
/// existing deterministic replay gates see byte-identical behaviour.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Queue-wait EWMA at which brownout begins; `None` disables.
    pub watermark: Option<Duration>,
    /// Pressure multiple (EWMA / watermark) at which shedding starts
    /// (default 2.0; degradation covers the band in between).
    pub shed_threshold: f64,
    /// RMQ sample budget at pressure 1.0 (default 2000, matching
    /// [`DeadlineAwarePolicy::rmq_samples`]).
    pub base_samples: u64,
    /// Sample-budget floor under extreme pressure (default 50).
    pub min_samples: u64,
    /// Seed for degraded RMQ runs (fixed per service: reproducibility).
    pub rmq_seed: u64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            watermark: None,
            shed_threshold: 2.0,
            base_samples: 2000,
            min_samples: 50,
            rmq_seed: 0x5EED,
        }
    }
}

/// What the brownout controller decided for one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutLevel {
    /// No overload: run whatever the policy admits.
    Normal,
    /// Degrade: force the anytime search at this sample budget.
    Degrade {
        /// Pressure-scaled RMQ sample budget.
        samples: u64,
    },
    /// Shed the submission outright.
    Shed,
}

impl BrownoutConfig {
    /// Classifies a measured pressure reading (EWMA / watermark).
    #[must_use]
    pub fn assess(&self, pressure: f64) -> BrownoutLevel {
        if self.watermark.is_none() {
            return BrownoutLevel::Normal;
        }
        if pressure >= self.shed_threshold {
            return BrownoutLevel::Shed;
        }
        if pressure > 1.0 {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let scaled = (self.base_samples as f64 / pressure) as u64;
            return BrownoutLevel::Degrade {
                samples: scaled.max(self.min_samples),
            };
        }
        BrownoutLevel::Normal
    }

    /// The degraded algorithm for one block at `samples` budget.
    #[must_use]
    pub fn degraded_algorithm(&self, samples: u64) -> Algorithm {
        Algorithm::Rmq {
            samples,
            seed: self.rmq_seed,
            threads: 1,
        }
    }
}

/// The admission policy: size and deadline gates around the preference order
/// `EXA → IRA/RTA → RMQ`, with a crude-but-tunable exponential model of
/// dynamic-programming cost.
#[derive(Debug, Clone)]
pub struct DeadlineAwarePolicy {
    /// Largest block the exact algorithm may attempt (default 7: the DP
    /// table doubles per relation and EXA keeps full Pareto sets).
    pub exa_max_tables: usize,
    /// Largest block any DP scheme (RTA/IRA) may attempt (default 10).
    pub dp_max_tables: usize,
    /// Sample budget handed to RMQ fallbacks (default 2000).
    pub rmq_samples: u64,
    /// RMQ seed; fixed per service so results are reproducible.
    pub rmq_seed: u64,
    /// Threads per RMQ run (default 1 — the worker pool is the parallelism).
    pub rmq_threads: usize,
    /// Precision the DP falls back to when a request demands exactness on
    /// a block too large for EXA (default 2.0): RTA/IRA at α = 1 would run
    /// the *same* full-precision DP as EXA (the internal pruning precision
    /// `α^(1/n)` degenerates to 1), so a genuine downgrade must relax α.
    pub relaxed_alpha: f64,
    /// Requests with less remaining budget than this are rejected outright
    /// (default 200 µs: below that even RMQ's first sample won't land).
    pub min_budget: Duration,
    /// DP cost model `base · growthⁿ` — base term (default 2 µs).
    pub dp_base: Duration,
    /// DP cost model growth per relation (default 3.5).
    pub dp_growth: f64,
}

impl Default for DeadlineAwarePolicy {
    fn default() -> Self {
        DeadlineAwarePolicy {
            exa_max_tables: 7,
            dp_max_tables: 10,
            rmq_samples: 2000,
            rmq_seed: 0x5EED,
            rmq_threads: 1,
            relaxed_alpha: 2.0,
            min_budget: Duration::from_micros(200),
            dp_base: Duration::from_micros(2),
            dp_growth: 3.5,
        }
    }
}

impl DeadlineAwarePolicy {
    /// Estimated wall time of one DP run over `tables` relations:
    /// `dp_base · dp_growthⁿ`. Deliberately pessimistic for EXA-sized
    /// blocks so deadline pressure downgrades early rather than times out.
    #[must_use]
    pub fn estimated_dp_time(&self, tables: usize) -> Duration {
        let factor = self
            .dp_growth
            .powi(i32::try_from(tables).unwrap_or(i32::MAX));
        self.dp_base.mul_f64(factor.min(1e15))
    }

    fn rmq(&self) -> Algorithm {
        Algorithm::Rmq {
            samples: self.rmq_samples,
            seed: self.rmq_seed,
            threads: self.rmq_threads,
        }
    }

    fn dp_fits(&self, ctx: &PolicyContext) -> bool {
        match ctx.remaining {
            None => true,
            Some(rem) => self.estimated_dp_time(ctx.block_size) <= rem,
        }
    }

    /// Decides what to run for one block.
    #[must_use]
    pub fn admit(&self, ctx: &PolicyContext) -> Admission {
        if let Some(rem) = ctx.remaining {
            if rem < self.min_budget {
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
        let exa_ok = ctx.block_size <= self.exa_max_tables && self.dp_fits(ctx);
        let dp_ok = ctx.block_size <= self.dp_max_tables && self.dp_fits(ctx);
        match preferred {
            Algorithm::Exhaustive if exa_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            // An exactness-demanding request that EXA cannot serve within
            // limits degrades to the approximate DP at `relaxed_alpha` —
            // α = 1 would re-run the exact DP under another name (see the
            // field docs) — or falls through to the anytime search.
            Algorithm::Exhaustive if dp_ok => Admission::Run {
                algorithm: if ctx.bounded {
                    Algorithm::Ira {
                        alpha: self.relaxed_alpha,
                    }
                } else {
                    Algorithm::Rta {
                        alpha: self.relaxed_alpha,
                    }
                },
                downgraded: true,
            },
            Algorithm::Ira { .. } | Algorithm::Rta { .. } if dp_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            _ => Admission::Run {
                algorithm: self.rmq(),
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
        let p = DeadlineAwarePolicy::default();
        assert_eq!(
            p.admit(&ctx(4, 1.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Exhaustive,
                downgraded: false
            }
        );
        assert_eq!(
            p.admit(&ctx(4, 2.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Rta { alpha: 2.0 },
                downgraded: false
            }
        );
        assert_eq!(
            p.admit(&ctx(4, 2.0, true, None)),
            Admission::Run {
                algorithm: Algorithm::Ira { alpha: 2.0 },
                downgraded: false
            }
        );
    }

    #[test]
    fn size_gates_downgrade() {
        let p = DeadlineAwarePolicy::default();
        // Too big for EXA but fine for the approximate DP: precision is
        // genuinely relaxed (α = 1 would re-run the exact DP).
        match p.admit(&ctx(9, 1.0, false, None)) {
            Admission::Run {
                algorithm: Algorithm::Rta { alpha },
                downgraded: true,
            } => assert_eq!(alpha, p.relaxed_alpha),
            other => panic!("expected RTA downgrade, got {other:?}"),
        }
        match p.admit(&ctx(9, 1.0, true, None)) {
            Admission::Run {
                algorithm: Algorithm::Ira { alpha },
                downgraded: true,
            } => assert_eq!(alpha, p.relaxed_alpha),
            other => panic!("expected IRA downgrade, got {other:?}"),
        }
        // Too big for any DP.
        match p.admit(&ctx(16, 1.5, false, None)) {
            Admission::Run {
                algorithm: Algorithm::Rmq { .. },
                downgraded: true,
            } => {}
            other => panic!("expected RMQ fallback, got {other:?}"),
        }
    }

    #[test]
    fn deadline_gates_downgrade_and_reject() {
        let p = DeadlineAwarePolicy::default();
        // 8 tables ≈ 2 µs · 3.5⁸ ≈ 45 ms estimated; a 1 ms budget forces
        // the anytime search.
        match p.admit(&ctx(8, 1.5, false, Some(Duration::from_millis(1)))) {
            Admission::Run {
                algorithm: Algorithm::Rmq { .. },
                downgraded: true,
            } => {}
            other => panic!("expected RMQ under deadline pressure, got {other:?}"),
        }
        // Below the minimum budget nothing is admitted.
        assert_eq!(
            p.admit(&ctx(2, 1.5, false, Some(Duration::from_micros(50)))),
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
    fn brownout_bands_and_sample_scaling() {
        let disabled = BrownoutConfig::default();
        assert_eq!(disabled.assess(10.0), BrownoutLevel::Normal);

        let active = BrownoutConfig {
            watermark: Some(Duration::from_millis(10)),
            ..BrownoutConfig::default()
        };
        assert_eq!(active.assess(0.0), BrownoutLevel::Normal);
        assert_eq!(active.assess(1.0), BrownoutLevel::Normal);
        // Degradation band: budget shrinks with pressure.
        assert_eq!(
            active.assess(1.25),
            BrownoutLevel::Degrade { samples: 1600 }
        );
        match active.assess(1.9) {
            BrownoutLevel::Degrade { samples } => {
                assert!(samples < 1600 && samples >= active.min_samples);
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        // At and past the threshold: shed (including infinite pressure).
        assert_eq!(active.assess(2.0), BrownoutLevel::Shed);
        assert_eq!(active.assess(f64::INFINITY), BrownoutLevel::Shed);
        // The floor holds under a tiny base budget.
        let floored = BrownoutConfig {
            base_samples: 60,
            shed_threshold: 100.0,
            ..active.clone()
        };
        assert_eq!(floored.assess(50.0), BrownoutLevel::Degrade { samples: 50 });
        // The degraded algorithm is the anytime search at the scaled budget.
        assert_eq!(
            active.degraded_algorithm(1600),
            Algorithm::Rmq {
                samples: 1600,
                seed: active.rmq_seed,
                threads: 1
            }
        );
    }

    #[test]
    fn hints_bypass_gates_but_not_admission() {
        let p = DeadlineAwarePolicy::default();
        let mut c = ctx(16, 1.0, false, None);
        c.hint = Some(Algorithm::Exhaustive);
        assert_eq!(
            p.admit(&c),
            Admission::Run {
                algorithm: Algorithm::Exhaustive,
                downgraded: false
            }
        );
        c.remaining = Some(Duration::from_micros(10));
        assert_eq!(p.admit(&c), Admission::Reject);
    }
}
