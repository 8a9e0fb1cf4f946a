//! The [`CostModel`]: scan costs and the shared machinery for join costs.

use moqo_catalog::{Catalog, JoinGraph};
use moqo_cost::{CostVector, Objective};
use moqo_plan::{PlanProps, ScanOp, SortOrder};

use crate::params::CostModelParams;

/// The nine-objective cost model, bound to a catalog, one query block and a
/// parameter set.
///
/// The model is *compositional*: scan costs are computed from base-table
/// statistics, join costs from the two children's `(CostVector, PlanProps)`
/// pairs plus the split's [`JoinSplit`](crate::JoinSplit) (crossing
/// predicate, selectivity and output width). This is exactly the interface the
/// dynamic-programming optimizers (EXA/RTA/IRA) need, and it guarantees the
/// recursive formulas only see child costs and fixed per-operator constants
/// — the precondition of the principle of near-optimality (§6.1).
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    /// Cost parameters (Postgres GUC analogues).
    pub params: &'a CostModelParams,
    /// Base-table statistics.
    pub catalog: &'a Catalog,
    /// The query block being optimized.
    pub graph: &'a JoinGraph,
}

impl<'a> CostModel<'a> {
    /// Creates a model for one query block.
    #[must_use]
    pub fn new(params: &'a CostModelParams, catalog: &'a Catalog, graph: &'a JoinGraph) -> Self {
        CostModel {
            params,
            catalog,
            graph,
        }
    }

    /// Cost and properties of scanning base relation `rel` with operator
    /// `op`. Returns `None` when the operator is inapplicable: an index scan
    /// on a column that has no index or that the table does not have.
    #[must_use]
    pub fn scan_cost(&self, rel: usize, op: ScanOp) -> Option<(CostVector, PlanProps)> {
        let p = self.params;
        let base = &self.graph.rels[rel];
        let table = self.catalog.table(base.table);
        let full_rows = self.graph.filtered_rows(rel, self.catalog);
        let heap_pages = table.pages();
        let width = table.tuple_bytes;

        let mut c = CostVector::zero();
        let props = match op {
            ScanOp::SeqScan => {
                let cpu = table.cardinality * p.cpu_tuple_cost;
                let io = heap_pages;
                c.set(Objective::TotalTime, io * p.seq_page_cost + cpu);
                c.set(Objective::StartupTime, 0.0);
                c.set(Objective::IoLoad, io);
                c.set(Objective::CpuLoad, cpu);
                c.set(Objective::UsedCores, 1.0);
                c.set(Objective::DiskFootprint, 0.0);
                c.set(Objective::BufferFootprint, p.scan_buffer_bytes);
                c.set(
                    Objective::Energy,
                    cpu * p.energy_per_cpu_unit + io * p.energy_per_io_page,
                );
                c.set(Objective::TupleLoss, 0.0);
                PlanProps {
                    rels: 1 << rel,
                    rows: full_rows,
                    width,
                    order: SortOrder::None,
                    sampling_factor: 1.0,
                }
            }
            ScanOp::IndexScan { column } => {
                if !table.columns.get(usize::from(column))?.indexed {
                    return None;
                }
                // Full index scan: traverse the index in key order and fetch
                // heap tuples (random access pattern).
                let index_pages = (table.cardinality * 16.0 / p.page_bytes).max(1.0);
                let io = index_pages + heap_pages;
                let cpu = table.cardinality * (p.cpu_index_tuple_cost + p.cpu_tuple_cost);
                // First tuple: btree descent plus one random heap fetch.
                let descend = p.cpu_operator_cost * table.cardinality.max(2.0).log2().ceil()
                    + p.random_page_cost;
                c.set(
                    Objective::TotalTime,
                    index_pages * p.seq_page_cost + heap_pages * p.random_page_cost + cpu,
                );
                c.set(Objective::StartupTime, descend);
                c.set(Objective::IoLoad, io);
                c.set(Objective::CpuLoad, cpu);
                c.set(Objective::UsedCores, 1.0);
                c.set(Objective::DiskFootprint, 0.0);
                c.set(Objective::BufferFootprint, 2.0 * p.scan_buffer_bytes);
                c.set(
                    Objective::Energy,
                    cpu * p.energy_per_cpu_unit + io * p.energy_per_io_page,
                );
                c.set(Objective::TupleLoss, 0.0);
                PlanProps {
                    rels: 1 << rel,
                    rows: full_rows,
                    width,
                    order: SortOrder::on(rel, column),
                    sampling_factor: 1.0,
                }
            }
            ScanOp::SamplingScan { rate_pct } => {
                let fraction = op.sampling_fraction();
                debug_assert!((1..=5).contains(&rate_pct));
                // Bernoulli page-level sampling: read only the sampled pages.
                let io = (heap_pages * fraction).max(1.0);
                let cpu = table.cardinality * fraction * p.cpu_tuple_cost
                    + table.cardinality * p.cpu_operator_cost * 0.1;
                c.set(Objective::TotalTime, io * p.seq_page_cost + cpu);
                c.set(Objective::StartupTime, 0.0);
                c.set(Objective::IoLoad, io);
                c.set(Objective::CpuLoad, cpu);
                c.set(Objective::UsedCores, 1.0);
                c.set(Objective::DiskFootprint, 0.0);
                c.set(Objective::BufferFootprint, p.scan_buffer_bytes);
                c.set(
                    Objective::Energy,
                    cpu * p.energy_per_cpu_unit + io * p.energy_per_io_page,
                );
                c.set(Objective::TupleLoss, 1.0 - fraction);
                PlanProps {
                    rels: 1 << rel,
                    rows: (full_rows * fraction).max(1.0),
                    width,
                    order: SortOrder::None,
                    sampling_factor: fraction,
                }
            }
        };
        Some((c, props))
    }
}

/// Tuple-loss composition for joins (paper §6.1): joining operands with
/// losses `a` and `b` yields loss `1 − (1−a)(1−b)`.
#[inline]
#[must_use]
pub(crate) fn combine_tuple_loss(a: f64, b: f64) -> f64 {
    (1.0 - (1.0 - a) * (1.0 - b)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{ColumnStats, JoinGraphBuilder, TableStats};

    fn setup() -> (CostModelParams, Catalog, JoinGraph) {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("t", 100_000.0, 100.0)
                .with_column(ColumnStats::new("id", 100_000.0).indexed())
                .with_column(ColumnStats::new("payload", 50.0)),
        );
        let graph = JoinGraphBuilder::new(&cat).rel("t", 0.5).build();
        (params, cat, graph)
    }

    #[test]
    fn seq_scan_costs_pages_plus_cpu() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let (c, props) = model.scan_cost(0, ScanOp::SeqScan).unwrap();
        let pages = cat.table(g.rels[0].table).pages();
        assert!((c.get(Objective::IoLoad) - pages).abs() < 1e-9);
        assert!(c.get(Objective::TotalTime) > pages * p.seq_page_cost);
        assert_eq!(c.get(Objective::StartupTime), 0.0);
        assert_eq!(c.get(Objective::TupleLoss), 0.0);
        assert_eq!(props.rows, 50_000.0); // filter selectivity 0.5
        assert_eq!(props.order, SortOrder::None);
        assert_eq!(props.sampling_factor, 1.0);
    }

    #[test]
    fn index_scan_sorted_but_more_expensive_io() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let (seq, _) = model.scan_cost(0, ScanOp::SeqScan).unwrap();
        let (idx, props) = model.scan_cost(0, ScanOp::IndexScan { column: 0 }).unwrap();
        assert_eq!(props.order, SortOrder::on(0, 0));
        assert!(idx.get(Objective::TotalTime) > seq.get(Objective::TotalTime));
        assert!(idx.get(Objective::StartupTime) > 0.0);
    }

    #[test]
    fn index_scan_requires_index() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        // Column 1 exists without an index; the table has no column 2.
        for column in [1, 2, u16::MAX] {
            assert_eq!(
                model.scan_cost(0, ScanOp::IndexScan { column }),
                None,
                "column {column}"
            );
        }
    }

    #[test]
    fn sampling_scan_trades_loss_for_cost() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let (seq, _) = model.scan_cost(0, ScanOp::SeqScan).unwrap();
        let (s1, props1) = model
            .scan_cost(0, ScanOp::SamplingScan { rate_pct: 1 })
            .unwrap();
        let (s5, props5) = model
            .scan_cost(0, ScanOp::SamplingScan { rate_pct: 5 })
            .unwrap();
        assert!(s1.get(Objective::TotalTime) < s5.get(Objective::TotalTime));
        assert!(s5.get(Objective::TotalTime) < seq.get(Objective::TotalTime));
        assert!((s1.get(Objective::TupleLoss) - 0.99).abs() < 1e-12);
        assert!((s5.get(Objective::TupleLoss) - 0.95).abs() < 1e-12);
        assert_eq!(props1.sampling_factor, 0.01);
        assert!((props1.rows - 500.0).abs() < 1e-9);
        assert!(props5.rows > props1.rows);
    }

    #[test]
    fn tuple_loss_composition_matches_paper_formula() {
        assert_eq!(combine_tuple_loss(0.0, 0.0), 0.0);
        assert!((combine_tuple_loss(0.5, 0.5) - 0.75).abs() < 1e-12);
        assert_eq!(combine_tuple_loss(1.0, 0.3), 1.0);
        // Symmetry.
        assert_eq!(combine_tuple_loss(0.2, 0.7), combine_tuple_loss(0.7, 0.2));
    }
}
