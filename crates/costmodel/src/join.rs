//! Join-operator cost formulas for the nine objectives.
//!
//! Every formula combines the children's cost components with {sum, max,
//! min, ×constant} only (plus the tuple-loss composition), so the principle
//! of near-optimality holds per operator (paper §6.1). The degree of
//! parallelism and all cardinality-derived quantities are constants of the
//! operator configuration, not functions of child costs.

use moqo_cost::{CostVector, Objective};
use moqo_plan::{JoinOp, PlanProps, SortOrder};

use crate::model::{combine_tuple_loss, CostModel};

/// The equi-join predicate used by a join, normalized so that `left_*`
/// refers to the outer input and `right_*` to the inner input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinKey {
    /// Relation index of the outer-side join column.
    pub left_rel: usize,
    /// Column ordinal of the outer-side join column.
    pub left_col: u16,
    /// Relation index of the inner-side join column.
    pub right_rel: usize,
    /// Column ordinal of the inner-side join column.
    pub right_col: u16,
    /// Whether the inner-side column has an index on its base table
    /// (precondition for index-nested-loop joins).
    pub inner_indexed: bool,
}

impl JoinKey {
    /// The sort order an input must have for merge joins to skip sorting it:
    /// outer side.
    #[must_use]
    pub fn outer_order(&self) -> SortOrder {
        SortOrder::on(self.left_rel, self.left_col)
    }

    /// Inner-side merge order.
    #[must_use]
    pub fn inner_order(&self) -> SortOrder {
        SortOrder::on(self.right_rel, self.right_col)
    }
}

/// Everything a join derives from its two operand relation sets alone. It
/// is the same for every plan pair and every operator of one split, so
/// callers compute it once per split rather than once per candidate.
#[derive(Debug, Clone, Copy)]
pub struct JoinSplit {
    /// The equi-join predicate: the first join-graph edge crossing the
    /// split, normalized so `left_*` is on the outer side; `None` for a
    /// Cartesian product.
    pub key: Option<JoinKey>,
    /// Product of the selectivities of every edge crossing the split, in
    /// edge order (1.0 when none crosses):
    /// [`JoinGraph::crossing_selectivity`](moqo_catalog::JoinGraph::crossing_selectivity).
    pub selectivity: f64,
    /// Tuple width of the joined relations:
    /// [`subset_width`](moqo_catalog::subset_width) of the union.
    pub width: f64,
}

impl<'a> CostModel<'a> {
    /// Cost and properties of joining two sub-plans with operator `op`.
    ///
    /// * `left` / `right` are the outer and inner child `(cost, props)`.
    /// * `split` holds what the two children's relation sets determine: the
    ///   equi-join predicate, the crossing selectivity and the output width.
    /// * `right_is_canonical_index_scan` must be true iff the inner child is
    ///   exactly the index-scan plan on the `right_col` of `split.key` of a
    ///   single base relation — the precondition under which an
    ///   index-nested-loop join replaces the inner scan by per-tuple index
    ///   probes.
    ///
    /// Returns `None` when the operator is inapplicable: hash, merge and
    /// index-nested-loop joins require an equi-join predicate, and
    /// index-nested-loop additionally requires an indexed inner base
    /// relation accessed by its canonical index scan.
    #[must_use]
    pub fn join_cost(
        &self,
        op: JoinOp,
        left: (&CostVector, &PlanProps),
        right: (&CostVector, &PlanProps),
        split: &JoinSplit,
        right_is_canonical_index_scan: bool,
    ) -> Option<(CostVector, PlanProps)> {
        let (lc, lp) = left;
        let (rc, rp) = right;
        debug_assert_eq!(lp.rels & rp.rels, 0, "operand rel sets must be disjoint");

        let key = split.key.as_ref();
        let out_rels = lp.rels | rp.rels;
        let out_rows = (lp.rows * rp.rows * split.selectivity).max(1.0);
        let loss = combine_tuple_loss(lc.get(Objective::TupleLoss), rc.get(Objective::TupleLoss));
        let sampling_factor = lp.sampling_factor * rp.sampling_factor;

        let (cost, order) = match op {
            JoinOp::HashJoin { dop } => {
                key?;
                (
                    self.hash_join(dop, lc, lp, rc, rp, out_rows),
                    SortOrder::None,
                )
            }
            JoinOp::SortMergeJoin { dop } => {
                let key = key?;
                let order = key.outer_order();
                (self.merge_join(dop, key, lc, lp, rc, rp, out_rows), order)
            }
            JoinOp::IndexNestedLoop => {
                let key = key?;
                if !key.inner_indexed || !right_is_canonical_index_scan || rp.rels.count_ones() != 1
                {
                    return None;
                }
                (self.index_nl_join(key, lc, lp, out_rows), lp.order)
            }
            JoinOp::NestedLoop => (self.nested_loop(lc, lp, rc, rp, out_rows), lp.order),
        };

        let mut cost = cost;
        cost.set(Objective::TupleLoss, loss);
        let props = PlanProps {
            rels: out_rels,
            rows: out_rows,
            width: split.width,
            order,
            sampling_factor,
        };
        Some((cost, props))
    }

    /// Hash join: build a hash table on the inner input (blocking), probe
    /// with the outer input (pipelined). Inputs are generated in parallel
    /// branches.
    fn hash_join(
        &self,
        dop: u8,
        lc: &CostVector,
        lp: &PlanProps,
        rc: &CostVector,
        rp: &PlanProps,
        out_rows: f64,
    ) -> CostVector {
        let p = self.params;
        let hash_bytes = rp.rows * (rp.width + p.hash_entry_overhead);
        let in_mem_bytes = hash_bytes.min(p.work_mem_bytes);
        let spill_bytes = (hash_bytes - p.work_mem_bytes).max(0.0);
        let spill_pages = spill_bytes / p.page_bytes;

        let build_cpu = rp.rows * p.hash_build_cost;
        let probe_cpu = lp.rows * p.hash_probe_cost + out_rows * p.cpu_tuple_cost;
        let own_cpu = build_cpu + probe_cpu;
        let own_io = 2.0 * spill_pages; // write + re-read spilled partitions

        let build_time = p.parallel_time(build_cpu + spill_pages * p.seq_page_cost, dop);
        let probe_time = p.parallel_time(probe_cpu + spill_pages * p.seq_page_cost, dop);

        let mut c = CostVector::zero();
        c.set(
            Objective::TotalTime,
            lc.get(Objective::TotalTime)
                .max(rc.get(Objective::TotalTime) + build_time)
                + probe_time,
        );
        c.set(
            Objective::StartupTime,
            lc.get(Objective::StartupTime)
                .max(rc.get(Objective::TotalTime) + build_time),
        );
        c.set(
            Objective::IoLoad,
            lc.get(Objective::IoLoad) + rc.get(Objective::IoLoad) + own_io,
        );
        c.set(
            Objective::CpuLoad,
            lc.get(Objective::CpuLoad)
                + rc.get(Objective::CpuLoad)
                + own_cpu * p.cpu_overhead_factor(dop),
        );
        c.set(
            Objective::UsedCores,
            (lc.get(Objective::UsedCores) + rc.get(Objective::UsedCores)).max(f64::from(dop)),
        );
        c.set(
            Objective::DiskFootprint,
            lc.get(Objective::DiskFootprint) + rc.get(Objective::DiskFootprint) + spill_bytes,
        );
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint)
                + rc.get(Objective::BufferFootprint)
                + in_mem_bytes
                + p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + rc.get(Objective::Energy)
                + (own_cpu * p.energy_per_cpu_unit + own_io * p.energy_per_io_page)
                    * p.energy_overhead_factor(dop),
        );
        c
    }

    /// Sort-merge join: sort inputs lacking the merge order (blocking),
    /// then merge. Inputs are generated and sorted in parallel branches —
    /// the paper's `max(t_L, t_R) + t_M` example formula (§6.1).
    #[allow(clippy::too_many_arguments)]
    fn merge_join(
        &self,
        dop: u8,
        key: &JoinKey,
        lc: &CostVector,
        lp: &PlanProps,
        rc: &CostVector,
        rp: &PlanProps,
        out_rows: f64,
    ) -> CostVector {
        let p = self.params;
        let sort_side = |rows: f64, width: f64, needed: bool| -> (f64, f64, f64, f64) {
            // (cpu_work, time, spill_bytes, buffer_bytes)
            if !needed {
                return (0.0, 0.0, 0.0, 0.0);
            }
            let cpu = rows * rows.max(2.0).log2() * p.sort_cmp_cost;
            let bytes = rows * width;
            let spill = (bytes - p.work_mem_bytes).max(0.0);
            let spill_pages = spill / p.page_bytes;
            let time = p.parallel_time(cpu + 2.0 * spill_pages * p.seq_page_cost, dop);
            (cpu, time, spill, bytes.min(p.work_mem_bytes))
        };

        let sort_l = lp.order != key.outer_order();
        let sort_r = rp.order != key.inner_order();
        let (l_cpu, l_time, l_spill, l_buf) = sort_side(lp.rows, lp.width, sort_l);
        let (r_cpu, r_time, r_spill, r_buf) = sort_side(rp.rows, rp.width, sort_r);

        let merge_cpu = (lp.rows + rp.rows) * p.cpu_operator_cost + out_rows * p.cpu_tuple_cost;
        let own_cpu = (l_cpu + r_cpu) * p.cpu_overhead_factor(dop) + merge_cpu;
        let own_io = 2.0 * (l_spill + r_spill) / p.page_bytes;

        // A sorted side is "ready" for merging once generated and sorted;
        // an already-sorted side is ready at its startup time (pipelined).
        let l_ready = if sort_l {
            lc.get(Objective::TotalTime) + l_time
        } else {
            lc.get(Objective::StartupTime)
        };
        let r_ready = if sort_r {
            rc.get(Objective::TotalTime) + r_time
        } else {
            rc.get(Objective::StartupTime)
        };

        let mut c = CostVector::zero();
        c.set(
            Objective::TotalTime,
            (lc.get(Objective::TotalTime) + l_time).max(rc.get(Objective::TotalTime) + r_time)
                + merge_cpu,
        );
        c.set(Objective::StartupTime, l_ready.max(r_ready));
        c.set(
            Objective::IoLoad,
            lc.get(Objective::IoLoad) + rc.get(Objective::IoLoad) + own_io,
        );
        c.set(
            Objective::CpuLoad,
            lc.get(Objective::CpuLoad) + rc.get(Objective::CpuLoad) + own_cpu,
        );
        c.set(
            Objective::UsedCores,
            (lc.get(Objective::UsedCores) + rc.get(Objective::UsedCores)).max(f64::from(dop)),
        );
        c.set(
            Objective::DiskFootprint,
            lc.get(Objective::DiskFootprint) + rc.get(Objective::DiskFootprint) + l_spill + r_spill,
        );
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint)
                + rc.get(Objective::BufferFootprint)
                + l_buf
                + r_buf
                + p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + rc.get(Objective::Energy)
                + (own_cpu * p.energy_per_cpu_unit + own_io * p.energy_per_io_page)
                    * p.energy_overhead_factor(dop),
        );
        c
    }

    /// Index-nested-loop join: stream the outer input, probe the inner base
    /// relation's index per outer tuple. The inner child plan is *replaced*
    /// by index probes, so only catalog constants of the inner relation
    /// enter the formula (keeps the formula monotone in child costs).
    fn index_nl_join(
        &self,
        key: &JoinKey,
        lc: &CostVector,
        lp: &PlanProps,
        out_rows: f64,
    ) -> CostVector {
        let p = self.params;
        let inner_table = self.catalog.table(self.graph.rels[key.right_rel].table);
        let inner_rows = inner_table.cardinality.max(2.0);
        let inner_pages = inner_table.pages();

        let probes = lp.rows;
        let descend_cpu = p.cpu_operator_cost * inner_rows.log2().ceil();
        let own_cpu = probes * descend_cpu + out_rows * (p.cpu_index_tuple_cost + p.cpu_tuple_cost);
        // Mackert–Lohman-flavoured cap: repeated probes hit cached pages.
        let own_io = probes.min(2.0 * inner_pages) + out_rows * lp.width * 0.0;
        let own_time = own_cpu + own_io * p.random_page_cost;

        let mut c = CostVector::zero();
        c.set(
            Objective::TotalTime,
            lc.get(Objective::TotalTime) + own_time,
        );
        c.set(
            Objective::StartupTime,
            lc.get(Objective::StartupTime) + descend_cpu,
        );
        c.set(Objective::IoLoad, lc.get(Objective::IoLoad) + own_io);
        c.set(Objective::CpuLoad, lc.get(Objective::CpuLoad) + own_cpu);
        c.set(Objective::UsedCores, lc.get(Objective::UsedCores).max(1.0));
        c.set(Objective::DiskFootprint, lc.get(Objective::DiskFootprint));
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint) + 2.0 * p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + own_cpu * p.energy_per_cpu_unit
                + own_io * p.energy_per_io_page,
        );
        c
    }

    /// Plain nested-loop join with a materialized inner input; the only
    /// operator applicable without an equi-join predicate.
    fn nested_loop(
        &self,
        lc: &CostVector,
        lp: &PlanProps,
        rc: &CostVector,
        rp: &PlanProps,
        out_rows: f64,
    ) -> CostVector {
        let p = self.params;
        let mat_bytes = rp.rows * rp.width;
        let spill_bytes = (mat_bytes - p.work_mem_bytes).max(0.0);
        // The inner is written once and re-read per outer tuple when spilled.
        let own_io = (spill_bytes / p.page_bytes) * (1.0 + lp.rows.clamp(1.0, 100.0));
        let own_cpu = lp.rows * rp.rows * p.cpu_operator_cost
            + out_rows * p.cpu_tuple_cost
            + rp.rows * p.cpu_tuple_cost;
        let own_time = own_cpu + own_io * p.seq_page_cost;

        let mut c = CostVector::zero();
        c.set(
            Objective::TotalTime,
            lc.get(Objective::TotalTime) + rc.get(Objective::TotalTime) + own_time,
        );
        c.set(
            Objective::StartupTime,
            lc.get(Objective::StartupTime)
                .max(rc.get(Objective::TotalTime)),
        );
        c.set(
            Objective::IoLoad,
            lc.get(Objective::IoLoad) + rc.get(Objective::IoLoad) + own_io,
        );
        c.set(
            Objective::CpuLoad,
            lc.get(Objective::CpuLoad) + rc.get(Objective::CpuLoad) + own_cpu,
        );
        c.set(
            Objective::UsedCores,
            lc.get(Objective::UsedCores)
                .max(rc.get(Objective::UsedCores)),
        );
        c.set(
            Objective::DiskFootprint,
            lc.get(Objective::DiskFootprint) + rc.get(Objective::DiskFootprint) + spill_bytes,
        );
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint)
                + rc.get(Objective::BufferFootprint)
                + mat_bytes.min(p.work_mem_bytes)
                + p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + rc.get(Objective::Energy)
                + own_cpu * p.energy_per_cpu_unit
                + own_io * p.energy_per_io_page,
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CostModelParams;
    use moqo_catalog::{
        subset_width, Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats,
    };
    use moqo_plan::ScanOp;

    fn setup() -> (CostModelParams, Catalog, JoinGraph) {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("orders", 150_000.0, 121.0)
                .with_column(ColumnStats::new("o_orderkey", 150_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("lineitem", 600_000.0, 129.0)
                .with_column(ColumnStats::new("l_orderkey", 150_000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat)
            .rel("orders", 1.0)
            .rel("lineitem", 1.0)
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        (params, cat, graph)
    }

    fn key() -> JoinKey {
        JoinKey {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
            inner_indexed: true,
        }
    }

    /// The orders ⋈ lineitem split from the graph's reference definitions,
    /// with `key` as its predicate.
    fn split(model: &CostModel, key: Option<JoinKey>) -> JoinSplit {
        JoinSplit {
            key,
            selectivity: model.graph.crossing_selectivity(0b01, 0b10),
            width: subset_width(model.graph, model.catalog, 0b11),
        }
    }

    fn scan_pair(model: &CostModel, rel: usize, op: ScanOp) -> (CostVector, PlanProps) {
        model.scan_cost(rel, op).expect("scan applicable")
    }

    #[test]
    fn hash_join_requires_equi_predicate() {
        // Hash and sort-merge joins, at every degree of parallelism, need
        // the equi-join key: without one they do not apply.
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let keyed = JoinOp::ALL
            .into_iter()
            .filter(|op| matches!(op, JoinOp::HashJoin { .. } | JoinOp::SortMergeJoin { .. }));
        let mut checked = 0;
        for op in keyed {
            let cost =
                |key| model.join_cost(op, (&l.0, &l.1), (&r.0, &r.1), &split(&model, key), false);
            assert!(cost(None).is_none(), "{op:?} applied without a key");
            assert!(cost(Some(key())).is_some(), "{op:?} refused its key");
            checked += 1;
        }
        assert_eq!(checked, 2 * usize::from(moqo_plan::MAX_DOP));
    }

    #[test]
    fn join_cardinality_uses_crossing_selectivity() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let (_, props) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        // 150k × 600k / 150k = 600k.
        assert!((props.rows - 600_000.0).abs() < 1.0);
        assert_eq!(props.rels, 0b11);
        assert_eq!(props.width, 250.0);
    }

    #[test]
    fn hash_join_startup_includes_build() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let (c, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        // Startup must cover the full inner generation + build.
        assert!(c.get(Objective::StartupTime) >= r.0.get(Objective::TotalTime));
        assert!(c.get(Objective::BufferFootprint) > l.0.get(Objective::BufferFootprint));
    }

    #[test]
    fn parallel_hash_join_is_faster_but_hungrier() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let run = |dop| {
            model
                .join_cost(
                    JoinOp::HashJoin { dop },
                    (&l.0, &l.1),
                    (&r.0, &r.1),
                    &split(&model, Some(key())),
                    false,
                )
                .unwrap()
                .0
        };
        let serial = run(1);
        let wide = run(4);
        assert!(wide.get(Objective::TotalTime) < serial.get(Objective::TotalTime));
        assert!(wide.get(Objective::UsedCores) > serial.get(Objective::UsedCores));
        assert!(wide.get(Objective::Energy) > serial.get(Objective::Energy));
        assert!(wide.get(Objective::CpuLoad) > serial.get(Objective::CpuLoad));
    }

    #[test]
    fn merge_join_skips_sort_on_presorted_inputs() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l_sorted = scan_pair(&model, 0, ScanOp::IndexScan { column: 0 });
        let r_sorted = scan_pair(&model, 1, ScanOp::IndexScan { column: 0 });
        let l_unsorted = scan_pair(&model, 0, ScanOp::SeqScan);
        let r_unsorted = scan_pair(&model, 1, ScanOp::SeqScan);
        let run = |l: &(CostVector, PlanProps), r: &(CostVector, PlanProps)| {
            model
                .join_cost(
                    JoinOp::SortMergeJoin { dop: 1 },
                    (&l.0, &l.1),
                    (&r.0, &r.1),
                    &split(&model, Some(key())),
                    false,
                )
                .unwrap()
                .0
        };
        let presorted = run(&l_sorted, &r_sorted);
        let unsorted = run(&l_unsorted, &r_unsorted);
        // Sorting dominates: the presorted variant avoids the sort CPU even
        // though index scans are individually more expensive.
        assert!(
            presorted.get(Objective::CpuLoad) < unsorted.get(Objective::CpuLoad),
            "presorted {} vs unsorted {}",
            presorted.get(Objective::CpuLoad),
            unsorted.get(Objective::CpuLoad)
        );
        // Merge-join output is sorted on the outer key.
        let (_, props) = model
            .join_cost(
                JoinOp::SortMergeJoin { dop: 1 },
                (&l_sorted.0, &l_sorted.1),
                (&r_sorted.0, &r_sorted.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        assert_eq!(props.order, SortOrder::on(0, 0));
    }

    #[test]
    fn index_nl_requires_canonical_inner_index_scan() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::IndexScan { column: 0 });
        assert!(model
            .join_cost(
                JoinOp::IndexNestedLoop,
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false
            )
            .is_none());
        let (c, props) = model
            .join_cost(
                JoinOp::IndexNestedLoop,
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                true,
            )
            .unwrap();
        // IdxNL streams: startup is tiny compared to hash join.
        let (hash, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        assert!(c.get(Objective::StartupTime) < hash.get(Objective::StartupTime) / 100.0);
        assert!(c.get(Objective::BufferFootprint) < hash.get(Objective::BufferFootprint));
        assert_eq!(props.order, SortOrder::None); // preserves outer (unsorted) order
    }

    #[test]
    fn nested_loop_always_applicable_and_expensive() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let (nl, _) = model
            .join_cost(
                JoinOp::NestedLoop,
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, None),
                false,
            )
            .unwrap();
        let (hash, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        assert!(nl.get(Objective::TotalTime) > hash.get(Objective::TotalTime));
    }

    #[test]
    fn tuple_loss_composes_through_joins() {
        let (p, cat, g) = setup();
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SamplingScan { rate_pct: 2 });
        let r = scan_pair(&model, 1, ScanOp::SamplingScan { rate_pct: 5 });
        let (c, props) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        let expect = 1.0 - (1.0 - 0.98) * (1.0 - 0.95);
        assert!((c.get(Objective::TupleLoss) - expect).abs() < 1e-12);
        assert!((props.sampling_factor - 0.001).abs() < 1e-12);
    }

    #[test]
    fn spill_kicks_in_beyond_work_mem() {
        let (mut p, cat, g) = setup();
        p.work_mem_bytes = 1024.0; // force spilling
        let model = CostModel::new(&p, &cat, &g);
        let l = scan_pair(&model, 0, ScanOp::SeqScan);
        let r = scan_pair(&model, 1, ScanOp::SeqScan);
        let (c, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key())),
                false,
            )
            .unwrap();
        assert!(c.get(Objective::DiskFootprint) > 0.0);
        assert!(c.get(Objective::IoLoad) > l.0.get(Objective::IoLoad) + r.0.get(Objective::IoLoad));
    }
}
