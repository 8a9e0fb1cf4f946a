//! # moqo — Approximation Schemes for Many-Objective Query Optimization
//!
//! A faithful, self-contained reproduction of *Trummer & Koch,
//! "Approximation Schemes for Many-Objective Query Optimization", SIGMOD
//! 2014* (arXiv:1404.0046): multi-objective query optimization (MOQO)
//! algorithms with formal near-optimality guarantees, a nine-objective
//! Postgres-style cost model, and the TPC-H workload of the paper's
//! evaluation.
//!
//! ## The three algorithms
//!
//! | | problem | guarantee | paper |
//! |---|---------|-----------|-------|
//! | EXA | weighted + bounded MOQO | exact | §5 (Ganguly et al.) |
//! | RTA | weighted MOQO | `α_U`-approximate | §6 |
//! | IRA | bounded-weighted MOQO | `α_U`-approximate | §7 |
//! | RMQ | any MOQO, large join graphs | anytime, no formal bound | follow-up (arXiv:1603.00400) |
//!
//! ## Quickstart
//!
//! ```
//! use moqo::prelude::*;
//!
//! // TPC-H statistics at a small scale factor and query Q3.
//! let catalog = moqo::tpch::catalog(0.01);
//! let query = moqo::tpch::query(&catalog, 3);
//!
//! // Minimize a weighted sum of execution time and buffer footprint,
//! // requiring all result tuples (no sampling).
//! let preference = Preference::over(ObjectiveSet::empty())
//!     .weight(Objective::TotalTime, 1.0)
//!     .weight(Objective::BufferFootprint, 1e-6)
//!     .bound(Objective::TupleLoss, 0.0);
//!
//! // Near-optimal plan within factor 1.5, in milliseconds.
//! let optimizer = Optimizer::new(&catalog);
//! let result = optimizer.optimize(&query, &preference, Algorithm::Ira { alpha: 1.5 });
//! assert!(result.respects_bounds);
//! println!("weighted cost: {:.1}", result.weighted_cost);
//! ```
//!
//! ## Crate map
//!
//! * [`cost`] — objectives, cost vectors, dominance relations, preferences.
//! * [`catalog`] — table statistics, join graphs, cardinality estimation.
//! * [`plan`] — operators, plan arena, plan rendering.
//! * [`costmodel`] — the nine-objective recursive cost formulas.
//! * [`core`] — EXA/RTA/IRA/Selinger, Pareto pruning, the optimizer facade.
//! * [`service`] — the concurrent optimization service: bounded work queue,
//!   worker pool, deadline-aware admission, α-aware plan cache, metrics.
//! * [`tpch`] — the 22 TPC-H queries and the §8 test-case generator.

#![warn(missing_docs)]

pub use moqo_core as core;
pub use moqo_cost as cost;
pub use moqo_costmodel as costmodel;
pub use moqo_plan as plan;
pub use moqo_service as service;

/// Catalog, statistics and join-graph query model.
pub mod catalog {
    pub use moqo_catalog::*;
}

/// TPC-H workload: catalog builder, the 22 queries, test-case generation.
pub mod tpch {
    pub use moqo_tpch::catalog;
    pub use moqo_tpch::queries::{
        all_queries, large_join_graph, large_join_graph_with, large_query, large_query_with, query,
        Topology, FIGURE_ORDER,
    };
    pub use moqo_tpch::testgen::{
        bounded_test_case, min_cost_vector, weighted_test_case, TestCase,
    };
}

/// Everything needed for typical use.
pub mod prelude {
    pub use moqo_catalog::{Catalog, JoinGraph, JoinGraphBuilder, Query};
    pub use moqo_core::{
        exa, ira, rmq, rta, select_best, Algorithm, Deadline, OptimizationResult, Optimizer,
        RmqConfig, RmqResult,
    };
    pub use moqo_cost::dominance::{approx_dominates, dominates, strictly_dominates};
    pub use moqo_cost::{Bounds, CostVector, Objective, ObjectiveSet, Preference, Weights};
    pub use moqo_costmodel::{CostModel, CostModelParams};
    pub use moqo_plan::{render_plan, JoinOp, PlanArena, PlanId, ScanOp, SortOrder};
    pub use moqo_service::{
        OptimizationRequest, OptimizationResponse, OptimizationService, ServiceError,
    };
}
