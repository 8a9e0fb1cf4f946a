//! Join-operator cost formulas for the nine objectives.
//!
//! Every formula combines the children's cost components with {sum, max,
//! min, ×constant} only (plus the tuple-loss composition), so the principle
//! of near-optimality holds per operator (paper §6.1). The degree of
//! parallelism and all cardinality-derived quantities are constants of the
//! operator configuration, not functions of child costs.
//!
//! Each operator family has one helper that holds its terms independent of
//! the degree of parallelism ([`HashTerms`], [`MergeTerms`] with a
//! [`SortSide`] per input) and prices one degree from them; the
//! index-nested-loop and nested-loop formulas have no degree, and the
//! former reads its inner table's constants from the key ([`InnerIndex`]).
//! The output rows, tuple loss and sampling factor every operator shares
//! are a [`JoinOutput`]. A [`JoinPair`] holds one plan pair's output and
//! builds each family at the first operator that needs it.
//! [`CostModel::join_cost`] is a pair priced under its one operator, so it
//! builds only that operator's family; callers that cost several operators
//! of a pair keep the pair ([`CostModel::join_costs`] prices all ten
//! through one).
//!
//! Which operators apply follows from the split and the inner plan's
//! properties alone ([`JoinSplit::applies`]).

use moqo_catalog::RelMask;
use moqo_cost::{CostVector, Objective};
use moqo_plan::{JoinOp, PlanProps, SortOrder};

use crate::model::{combine_tuple_loss, CostModel};
use crate::params::CostModelParams;

/// The equi-join predicate used by a join, normalized so that `left_*`
/// refers to the outer input and `right_*` to the inner input
/// ([`CostModel::join_key`] builds one from the catalog).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinKey {
    /// Relation index of the outer-side join column.
    pub left_rel: usize,
    /// Column ordinal of the outer-side join column.
    pub left_col: u16,
    /// Relation index of the inner-side join column.
    pub right_rel: usize,
    /// Column ordinal of the inner-side join column.
    pub right_col: u16,
    /// The index on the inner-side column's base table, if it has one
    /// (precondition for index-nested-loop joins).
    pub inner_index: Option<InnerIndex>,
}

/// The constants of an indexed inner base table that an index-nested-loop
/// join's probes read, resolved from the catalog once per key
/// ([`CostModel::join_key`]) rather than per costed join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerIndex {
    /// Levels one probe descends: `⌈log₂ max(rows, 2)⌉` of the table.
    depth: f64,
    /// The table's pages.
    pages: f64,
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

/// What every operator's join of one plan pair shares: the output's
/// relations and rows, its tuple loss and its sampling factor.
struct JoinOutput {
    rels: RelMask,
    rows: f64,
    loss: f64,
    sampling_factor: f64,
}

impl JoinOutput {
    #[inline]
    fn new(
        lc: &CostVector,
        lp: &PlanProps,
        rc: &CostVector,
        rp: &PlanProps,
        split: &JoinSplit,
    ) -> Self {
        debug_assert_eq!(lp.rels & rp.rels, 0, "operand rel sets must be disjoint");
        JoinOutput {
            rels: lp.rels | rp.rels,
            rows: (lp.rows * rp.rows * split.selectivity).max(1.0),
            loss: combine_tuple_loss(lc.get(Objective::TupleLoss), rc.get(Objective::TupleLoss)),
            sampling_factor: lp.sampling_factor * rp.sampling_factor,
        }
    }

    /// An operator's cost with the shared tuple loss set, and the output
    /// properties in `order`.
    #[inline]
    fn finish(
        &self,
        mut cost: CostVector,
        order: SortOrder,
        split: &JoinSplit,
    ) -> (CostVector, PlanProps) {
        cost.set(Objective::TupleLoss, self.loss);
        let props = PlanProps {
            rels: self.rels,
            rows: self.rows,
            width: split.width,
            order,
            sampling_factor: self.sampling_factor,
        };
        (cost, props)
    }
}

impl JoinSplit {
    /// Whether `op` joins an outer plan with an inner plan of properties
    /// `inner` across this split, that is whether [`CostModel::join_cost`]
    /// prices it: hash, merge and index-nested-loop joins need the
    /// equi-join key, and the index-nested loop also needs the key's inner
    /// column to be indexed and the inner plan to be that column's index
    /// scan.
    #[inline]
    #[must_use]
    pub fn applies(&self, op: JoinOp, inner: &PlanProps) -> bool {
        match op {
            JoinOp::HashJoin { .. } | JoinOp::SortMergeJoin { .. } => self.key.is_some(),
            JoinOp::IndexNestedLoop => self.index_nl(inner).is_some(),
            JoinOp::NestedLoop => true,
        }
    }

    /// The index an index-nested-loop join probes, when it applies: the
    /// key's inner column is indexed, and the inner plan reads one relation
    /// in the key's inner order. A one-relation plan is a scan, and only an
    /// index scan has an order, that of its column
    /// ([`CostModel::scan_cost`]), so the inner plan is the index scan of
    /// the key's inner column.
    #[inline]
    fn index_nl(&self, inner: &PlanProps) -> Option<&InnerIndex> {
        let key = self.key.as_ref()?;
        let index = key.inner_index.as_ref()?;
        (inner.rels.count_ones() == 1 && inner.order == key.inner_order()).then_some(index)
    }
}

/// Hash join: build a hash table on the inner input (blocking), probe with
/// the outer input (pipelined). Inputs are generated in parallel branches.
/// These are the terms that do not depend on the degree of parallelism.
struct HashTerms {
    in_mem_bytes: f64,
    spill_bytes: f64,
    /// Build and probe work, spill reads included, before parallelizing.
    build_work: f64,
    probe_work: f64,
    own_cpu: f64,
    own_io: f64,
}

impl HashTerms {
    #[inline]
    fn new(p: &CostModelParams, lp: &PlanProps, rp: &PlanProps, out_rows: f64) -> Self {
        let hash_bytes = rp.rows * (rp.width + p.hash_entry_overhead);
        let spill_bytes = (hash_bytes - p.work_mem_bytes).max(0.0);
        let spill_pages = spill_bytes / p.page_bytes;
        let build_cpu = rp.rows * p.hash_build_cost;
        let probe_cpu = lp.rows * p.hash_probe_cost + out_rows * p.cpu_tuple_cost;
        HashTerms {
            in_mem_bytes: hash_bytes.min(p.work_mem_bytes),
            spill_bytes,
            build_work: build_cpu + spill_pages * p.seq_page_cost,
            probe_work: probe_cpu + spill_pages * p.seq_page_cost,
            own_cpu: build_cpu + probe_cpu,
            own_io: 2.0 * spill_pages, // write + re-read spilled partitions
        }
    }

    /// The hash join's cost at degree of parallelism `dop`.
    #[inline]
    fn cost(&self, p: &CostModelParams, dop: u8, lc: &CostVector, rc: &CostVector) -> CostVector {
        let build_time = p.parallel_time(self.build_work, dop);
        let probe_time = p.parallel_time(self.probe_work, dop);

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
            lc.get(Objective::IoLoad) + rc.get(Objective::IoLoad) + self.own_io,
        );
        c.set(
            Objective::CpuLoad,
            lc.get(Objective::CpuLoad)
                + rc.get(Objective::CpuLoad)
                + self.own_cpu * p.cpu_overhead_factor(dop),
        );
        c.set(
            Objective::UsedCores,
            (lc.get(Objective::UsedCores) + rc.get(Objective::UsedCores)).max(f64::from(dop)),
        );
        c.set(
            Objective::DiskFootprint,
            lc.get(Objective::DiskFootprint) + rc.get(Objective::DiskFootprint) + self.spill_bytes,
        );
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint)
                + rc.get(Objective::BufferFootprint)
                + self.in_mem_bytes
                + p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + rc.get(Objective::Energy)
                + (self.own_cpu * p.energy_per_cpu_unit + self.own_io * p.energy_per_io_page)
                    * p.energy_overhead_factor(dop),
        );
        c
    }
}

/// One input's sort for a sort-merge join, the terms that do not depend on
/// the degree of parallelism; all zero when the input already has the
/// merge order.
struct SortSide {
    needed: bool,
    cpu: f64,
    /// Sort CPU plus writing and re-reading the spilled runs.
    work: f64,
    spill: f64,
    buffer: f64,
}

impl SortSide {
    #[inline]
    fn new(p: &CostModelParams, props: &PlanProps, needed: bool) -> Self {
        if !needed {
            return SortSide {
                needed,
                cpu: 0.0,
                work: 0.0,
                spill: 0.0,
                buffer: 0.0,
            };
        }
        let rows = props.rows;
        let cpu = rows * rows.max(2.0).log2() * p.sort_cmp_cost;
        let bytes = rows * props.width;
        let spill = (bytes - p.work_mem_bytes).max(0.0);
        let spill_pages = spill / p.page_bytes;
        SortSide {
            needed,
            cpu,
            work: cpu + 2.0 * spill_pages * p.seq_page_cost,
            spill,
            buffer: bytes.min(p.work_mem_bytes),
        }
    }

    /// Wall time of the sort at degree of parallelism `dop`.
    #[inline]
    fn time(&self, p: &CostModelParams, dop: u8) -> f64 {
        if self.needed {
            p.parallel_time(self.work, dop)
        } else {
            0.0
        }
    }
}

/// Sort-merge join: sort inputs lacking the merge order (blocking), then
/// merge. Inputs are generated and sorted in parallel branches — the
/// paper's `max(t_L, t_R) + t_M` example formula (§6.1). These are the
/// terms that do not depend on the degree of parallelism.
struct MergeTerms {
    /// The output order: the outer merge key.
    order: SortOrder,
    left: SortSide,
    right: SortSide,
    merge_cpu: f64,
    own_io: f64,
}

impl MergeTerms {
    #[inline]
    fn new(
        p: &CostModelParams,
        key: &JoinKey,
        lp: &PlanProps,
        rp: &PlanProps,
        out_rows: f64,
    ) -> Self {
        let order = key.outer_order();
        let left = SortSide::new(p, lp, lp.order != order);
        let right = SortSide::new(p, rp, rp.order != key.inner_order());
        MergeTerms {
            order,
            merge_cpu: (lp.rows + rp.rows) * p.cpu_operator_cost + out_rows * p.cpu_tuple_cost,
            own_io: 2.0 * (left.spill + right.spill) / p.page_bytes,
            left,
            right,
        }
    }

    /// The sort-merge join's cost at degree of parallelism `dop`.
    #[inline]
    fn cost(&self, p: &CostModelParams, dop: u8, lc: &CostVector, rc: &CostVector) -> CostVector {
        let (l, r) = (&self.left, &self.right);
        let l_time = l.time(p, dop);
        let r_time = r.time(p, dop);
        let own_cpu = (l.cpu + r.cpu) * p.cpu_overhead_factor(dop) + self.merge_cpu;

        // A sorted side is "ready" for merging once generated and sorted;
        // an already-sorted side is ready at its startup time (pipelined).
        let l_ready = if l.needed {
            lc.get(Objective::TotalTime) + l_time
        } else {
            lc.get(Objective::StartupTime)
        };
        let r_ready = if r.needed {
            rc.get(Objective::TotalTime) + r_time
        } else {
            rc.get(Objective::StartupTime)
        };

        let mut c = CostVector::zero();
        c.set(
            Objective::TotalTime,
            (lc.get(Objective::TotalTime) + l_time).max(rc.get(Objective::TotalTime) + r_time)
                + self.merge_cpu,
        );
        c.set(Objective::StartupTime, l_ready.max(r_ready));
        c.set(
            Objective::IoLoad,
            lc.get(Objective::IoLoad) + rc.get(Objective::IoLoad) + self.own_io,
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
            lc.get(Objective::DiskFootprint) + rc.get(Objective::DiskFootprint) + l.spill + r.spill,
        );
        c.set(
            Objective::BufferFootprint,
            lc.get(Objective::BufferFootprint)
                + rc.get(Objective::BufferFootprint)
                + l.buffer
                + r.buffer
                + p.scan_buffer_bytes,
        );
        c.set(
            Objective::Energy,
            lc.get(Objective::Energy)
                + rc.get(Objective::Energy)
                + (own_cpu * p.energy_per_cpu_unit + self.own_io * p.energy_per_io_page)
                    * p.energy_overhead_factor(dop),
        );
        c
    }
}

/// One plan pair's join under any of the ten operators: the output every
/// operator shares is built once, and each operator family's terms at the
/// first operator that needs them. A caller that costs several operators
/// of one pair pays once for the sort of each side (with its `log2`), not
/// once per degree of parallelism. Built by [`CostModel::join_pair`].
pub struct JoinPair<'a> {
    model: &'a CostModel<'a>,
    left: (&'a CostVector, &'a PlanProps),
    right: (&'a CostVector, &'a PlanProps),
    split: &'a JoinSplit,
    index_nl: Option<&'a InnerIndex>,
    out: JoinOutput,
    hash: Option<HashTerms>,
    merge: Option<MergeTerms>,
}

impl JoinPair<'_> {
    /// This pair joined with operator `op`, or `None` when `op` is
    /// inapplicable (see [`CostModel::join_cost`]).
    #[inline]
    pub fn cost(&mut self, op: JoinOp) -> Option<(CostVector, PlanProps)> {
        let (model, p) = (self.model, self.model.params);
        let ((lc, lp), (rc, rp)) = (self.left, self.right);
        let out_rows = self.out.rows;
        let (cost, order) = match op {
            JoinOp::HashJoin { dop } => {
                self.split.key?;
                let hash = self
                    .hash
                    .get_or_insert_with(|| HashTerms::new(p, lp, rp, out_rows));
                (hash.cost(p, dop, lc, rc), SortOrder::None)
            }
            JoinOp::SortMergeJoin { dop } => {
                let key = self.split.key.as_ref()?;
                let merge = self
                    .merge
                    .get_or_insert_with(|| MergeTerms::new(p, key, lp, rp, out_rows));
                (merge.cost(p, dop, lc, rc), merge.order)
            }
            JoinOp::IndexNestedLoop => (
                model.index_nl_join(self.index_nl?, lc, lp, out_rows),
                lp.order,
            ),
            JoinOp::NestedLoop => (model.nested_loop(lc, lp, rc, rp, out_rows), lp.order),
        };
        Some(self.out.finish(cost, order, self.split))
    }
}

impl<'a> CostModel<'a> {
    /// The predicate `left = right` of two `(relation, column)` ends with
    /// `left` on the outer side, its inner index resolved from the catalog.
    #[must_use]
    pub fn join_key(&self, left: (usize, u16), right: (usize, u16)) -> JoinKey {
        let inner = self.catalog.table(self.graph.rels[right.0].table);
        JoinKey {
            left_rel: left.0,
            left_col: left.1,
            right_rel: right.0,
            right_col: right.1,
            inner_index: inner.column(right.1).indexed.then(|| InnerIndex {
                depth: inner.cardinality.max(2.0).log2().ceil(),
                pages: inner.pages(),
            }),
        }
    }

    /// The join of two sub-plans, to be priced under one operator or
    /// several ([`JoinPair::cost`]); the arguments are those of
    /// [`CostModel::join_cost`].
    #[inline]
    #[must_use]
    pub fn join_pair<'p>(
        &'p self,
        left: (&'p CostVector, &'p PlanProps),
        right: (&'p CostVector, &'p PlanProps),
        split: &'p JoinSplit,
    ) -> JoinPair<'p> {
        let ((lc, lp), (rc, rp)) = (left, right);
        JoinPair {
            model: self,
            left,
            right,
            split,
            index_nl: split.index_nl(rp),
            out: JoinOutput::new(lc, lp, rc, rp, split),
            hash: None,
            merge: None,
        }
    }

    /// Cost and properties of joining two sub-plans with operator `op`.
    ///
    /// * `left` / `right` are the outer and inner child `(cost, props)`.
    /// * `split` holds what the two children's relation sets determine: the
    ///   equi-join predicate, the crossing selectivity and the output width.
    ///
    /// Returns `None` when the operator is inapplicable
    /// ([`JoinSplit::applies`]): hash, merge and index-nested-loop joins
    /// require an equi-join predicate, and an index-nested-loop join
    /// replaces its inner child, the index scan of the key's indexed inner
    /// column, by per-tuple index probes.
    ///
    /// The [`JoinPair`] of the two sub-plans priced under `op` alone, so
    /// only `op`'s own family of terms is computed.
    #[must_use]
    pub fn join_cost(
        &self,
        op: JoinOp,
        left: (&CostVector, &PlanProps),
        right: (&CostVector, &PlanProps),
        split: &JoinSplit,
    ) -> Option<(CostVector, PlanProps)> {
        self.join_pair(left, right, split).cost(op)
    }

    /// [`CostModel::join_cost`] of every operator of [`JoinOp::ALL`], in
    /// that order, for one plan pair: entry `k` equals
    /// `join_cost(JoinOp::ALL[k], ..)` bit for bit, `None` included. One
    /// [`JoinPair`] prices them all, so what the operators share is
    /// computed once.
    #[must_use]
    pub fn join_costs(
        &self,
        left: (&CostVector, &PlanProps),
        right: (&CostVector, &PlanProps),
        split: &JoinSplit,
    ) -> [Option<(CostVector, PlanProps)>; JoinOp::ALL.len()] {
        let mut pair = self.join_pair(left, right, split);
        JoinOp::ALL.map(|op| pair.cost(op))
    }

    /// Index-nested-loop join: stream the outer input, probe the inner base
    /// relation's index per outer tuple. The inner child plan is *replaced*
    /// by index probes, so only catalog constants of the inner relation
    /// enter the formula (keeps the formula monotone in child costs).
    #[inline]
    fn index_nl_join(
        &self,
        index: &InnerIndex,
        lc: &CostVector,
        lp: &PlanProps,
        out_rows: f64,
    ) -> CostVector {
        let p = self.params;
        let probes = lp.rows;
        let descend_cpu = p.cpu_operator_cost * index.depth;
        let own_cpu = probes * descend_cpu + out_rows * (p.cpu_index_tuple_cost + p.cpu_tuple_cost);
        // Mackert–Lohman-flavoured cap: repeated probes hit cached pages.
        let own_io = probes.min(2.0 * index.pages);
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
    #[inline]
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

    /// `orders.o_orderkey = lineitem.l_orderkey`, with `lineitem` inner.
    fn key(model: &CostModel) -> JoinKey {
        model.join_key((0, 0), (1, 0))
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
            let cost = |key| model.join_cost(op, (&l.0, &l.1), (&r.0, &r.1), &split(&model, key));
            assert!(cost(None).is_none(), "{op:?} applied without a key");
            assert!(cost(Some(key(&model))).is_some(), "{op:?} refused its key");
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
                &split(&model, Some(key(&model))),
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
                &split(&model, Some(key(&model))),
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
                    &split(&model, Some(key(&model))),
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
                    &split(&model, Some(key(&model))),
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
                &split(&model, Some(key(&model))),
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
        // Any other scan of the inner relation leaves no index to probe.
        let seq = scan_pair(&model, 1, ScanOp::SeqScan);
        assert!(model
            .join_cost(
                JoinOp::IndexNestedLoop,
                (&l.0, &l.1),
                (&seq.0, &seq.1),
                &split(&model, Some(key(&model))),
            )
            .is_none());
        let (c, props) = model
            .join_cost(
                JoinOp::IndexNestedLoop,
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key(&model))),
            )
            .unwrap();
        // IdxNL streams: startup is tiny compared to hash join.
        let (hash, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key(&model))),
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
            )
            .unwrap();
        let (hash, _) = model
            .join_cost(
                JoinOp::HashJoin { dop: 1 },
                (&l.0, &l.1),
                (&r.0, &r.1),
                &split(&model, Some(key(&model))),
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
                &split(&model, Some(key(&model))),
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
                &split(&model, Some(key(&model))),
            )
            .unwrap();
        assert!(c.get(Objective::DiskFootprint) > 0.0);
        assert!(c.get(Objective::IoLoad) > l.0.get(Objective::IoLoad) + r.0.get(Objective::IoLoad));
    }
}
