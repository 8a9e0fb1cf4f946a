//! Many-objective query optimization algorithms.
//!
//! This crate implements the paper's contribution and its baseline:
//!
//! * [`exa`] — the **exact algorithm** (Ganguly et al. 1992; paper §5,
//!   Algorithm 1): dynamic programming over table subsets that keeps a full
//!   Pareto plan set per subset.
//! * [`rta`] — the **representative-tradeoffs algorithm** (paper §6,
//!   Algorithm 2): an approximation scheme for *weighted* MOQO. Identical
//!   enumeration, but a new plan is only inserted if no stored plan
//!   approximately dominates it with internal precision `α_i = α_U^(1/|Q|)`.
//!   Generates an `α_U`-approximate Pareto set (Theorem 3) and therefore an
//!   `α_U`-approximate weighted optimum (Corollary 1).
//! * [`ira`] — the **iterative-refinement algorithm** (paper §7,
//!   Algorithm 3): an approximation scheme for *bounded-weighted* MOQO that
//!   repeatedly invokes the RTA's `FindParetoPlans` with geometrically
//!   refined precision `α(i) = α_U^(2^(−i/(3l−3)))` until a stopping
//!   condition certifies an `α_U`-approximate plan (Theorem 6).
//! * [`selinger`] — the classical single-objective Selinger baseline (bushy
//!   variant), realized as the exact algorithm over a single objective.
//! * [`rmq`](mod@rmq) — the **anytime randomized optimizer** (following Trummer &
//!   Koch's randomized follow-up, arXiv:1603.00400): samples join trees and
//!   improves them by local transformations, scaling to join graphs far
//!   beyond the reach of the dynamic-programming schemes — without a formal
//!   `α_U` guarantee.
//!
//! The shared dynamic-programming skeleton lives in [`dp`]; the pruning
//! structure implementing Algorithms 1/2's `Prune` in [`pareto`]; plan
//! selection under weights and bounds (`SelectBest`) in [`select`];
//! asymptotic complexity formulas (paper Figure 7, Theorems 1–5) in
//! [`complexity`]; and a user-facing facade over multi-block queries in
//! [`Optimizer`].

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod complexity;
pub mod dp;
pub mod pareto;
pub mod rmq;
pub mod select;
#[doc(hidden)]
pub mod test_support;

mod budget;
mod exa_rta;
mod ira;
mod metrics;
mod optimizer;
mod soqo;

pub use budget::Deadline;
pub use dp::{find_pareto_plans, DpConfig, DpResult, DpStats, PlanEntry, TreeShape};
pub use exa_rta::{exa, rta, rta_internal_precision};
pub use ira::{ira, ira_precision_schedule, IraResult};
pub use metrics::{BlockReport, OptimizationReport};
pub use optimizer::{combine_block_costs, Algorithm, BlockPlan, OptimizationResult, Optimizer};
pub use pareto::{props_key, PruneMode};
pub use rmq::{rmq, rmq_warm, RmqConfig, RmqResult};
pub use select::select_best;
pub use soqo::{min_cost_for_objective, selinger};
