//! Catalog, statistics and join-graph query model for the MOQO optimizer.
//!
//! The paper's algorithms run inside the Postgres optimizer; this crate
//! provides the planner-facing substrate Postgres would supply:
//!
//! * [`Catalog`] / [`TableStats`] / [`ColumnStats`] — base-table statistics
//!   (cardinality, tuple width, per-column distinct counts, index flags),
//! * [`JoinGraph`] — one *query block* as a set of base relations plus
//!   equi-join edges with selectivities (the paper's `Q`, a set of tables to
//!   join; join predicates "are considered in the implementations"),
//! * [`Query`] — a named query consisting of one or more blocks, mirroring
//!   the Postgres heuristic (kept by the paper, §4) of optimizing different
//!   subqueries of the same query separately,
//! * classic System-R style cardinality estimation over table subsets.
//!
//! Table subsets inside one block are represented as `u32` bitmasks
//! ([`RelMask`]), which is sufficient for TPC-H (at most 8 relations per
//! block) and keeps the dynamic programming tables dense.

#![warn(missing_docs)]

mod cardinality;
mod query;
mod signature;
mod table;

pub mod tpch;

pub use cardinality::{subset_rows, subset_width};
pub use query::{BaseRel, JoinEdge, JoinGraph, JoinGraphBuilder, Query, RelMask};
pub use signature::GraphSignature;
pub use table::{Catalog, ColumnId, ColumnStats, TableId, TableStats};

/// Default page size used to convert widths×rows into page counts, in bytes
/// (Postgres' BLCKSZ).
pub const PAGE_BYTES: f64 = 8192.0;
