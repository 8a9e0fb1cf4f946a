//! The TPC-H workload of the paper's evaluation (§5.1, §8).
//!
//! * [`queries`] — the 22 TPC-H queries translated into join-graph blocks
//!   with System-R selectivities, honouring the Postgres heuristic of
//!   optimizing subquery blocks separately (the paper keeps it, §4). The
//!   per-query *maximal from-clause size* reproduces the paper's x-axis
//!   grouping for Figures 5, 9 and 10.
//! * [`testgen`] — the randomized test-case generator: random objective
//!   subsets of fixed cardinality, weights drawn uniformly from `[0, 1]`,
//!   and bounds drawn uniformly from the value domain (bounded-domain
//!   objectives) or as `minimal achievable value × U[1, 2]` (unbounded
//!   objectives), exactly as described in §8.

#![warn(missing_docs)]

pub mod queries;
pub mod testgen;

pub use moqo_catalog::tpch::catalog;
pub use queries::{
    all_queries, large_join_graph, large_join_graph_with, large_query, large_query_with, query,
    Topology, FIGURE_ORDER,
};
pub use testgen::{bounded_test_case, weighted_test_case, TestCase};
