//! Query-plan representation for the MOQO optimizer.
//!
//! The paper's complexity analysis (proof of Theorem 1) relies on plans
//! occupying O(1) space each: "a scan plan is represented by an operator ID
//! and a table ID. All other plans are represented by the operator ID of the
//! last join and pointers to the two sub-plans generating its operands."
//! [`PlanArena`] implements exactly that: plans are small copyable nodes
//! referencing children by [`PlanId`], so sub-plans are shared rather than
//! cloned across the dynamic-programming table.
//!
//! The extended plan space of the paper (§4) is covered by:
//!
//! * [`ScanOp`] — sequential scan, index scan, and a parameterized sampling
//!   scan covering 1–5 % of a base table,
//! * [`JoinOp`] — hash join, sort-merge join (both parameterized by a degree
//!   of parallelism of up to four cores), index-nested-loop join and plain
//!   nested-loop join,
//! * [`PlanProps`] — the physical properties the cost model and the
//!   dynamic programming need per plan: estimated output rows, tuple width,
//!   output [`SortOrder`] (Postgres path keys, coarse) and the cumulated
//!   sampling factor.
//!
//! The arena is the one plan format that crosses an API: a front is a
//! [`PlanArena`] plus the entries that index it (`moqo_core`'s
//! `PlanEntry`: a plan's id with its cost and properties). The dynamic
//! programming, the plan cache and the randomized search store fronts so,
//! and the randomized search takes its warm starts so. A plan leaves its
//! arena only by being copied into another ([`PlanArena::adopt`]).

#![warn(missing_docs)]

mod arena;
mod display;
mod operator;
mod props;

pub use arena::{PlanArena, PlanId, PlanNode};
pub use display::render_plan;
pub use operator::{JoinOp, ScanOp, MAX_DOP, SAMPLING_RATES_PCT};
pub use props::{PlanProps, SortOrder};
