//! Property tests for the principle of near-optimality (PONO, paper
//! Definition 7) at the cost-formula level: for every join operator and
//! every objective, replacing the children of a plan by children whose cost
//! is worse by at most factor α must not make the parent worse by more than
//! factor α.
//!
//! Cardinality-derived quantities are operator constants here (both child
//! variants share the same physical properties), which is exactly the
//! setting of the paper's proof by structural induction over {sum, max,
//! min, ×const} formulas plus the tuple-loss composition. A separate
//! property lets rows grow too: every formula is monotone in the children's
//! costs and rows, which the DP's chunk bounds rely on. Another holds the
//! one-pass `join_costs` to the per-operator `join_cost`, bit for bit, and
//! both to `JoinSplit::applies`. The last holds the index-nested-loop rule
//! `applies` reads from the inner plan's properties to the plan-tree rule
//! it stands for, on random blocks.

use moqo_catalog::{
    subset_width, BaseRel, Catalog, ColumnStats, JoinEdge, JoinGraph, JoinGraphBuilder, TableId,
    TableStats,
};
use moqo_cost::{approx_dominates, CostVector, Objective, ObjectiveSet, NUM_OBJECTIVES};
use moqo_costmodel::{CostModel, CostModelParams, JoinKey, JoinSplit};
use moqo_plan::{JoinOp, PlanProps, ScanOp, SortOrder, SAMPLING_RATES_PCT};
use proptest::prelude::*;

fn setup() -> (CostModelParams, Catalog, JoinGraph) {
    let params = CostModelParams::default();
    let mut cat = Catalog::new();
    cat.add_table(
        TableStats::new("left_t", 50_000.0, 100.0)
            .with_column(ColumnStats::new("lk", 50_000.0).indexed()),
    );
    cat.add_table(
        TableStats::new("right_t", 200_000.0, 120.0)
            .with_column(ColumnStats::new("rk", 50_000.0).indexed()),
    );
    let graph = JoinGraphBuilder::new(&cat)
        .rel("left_t", 1.0)
        .rel("right_t", 1.0)
        .join(("left_t", "lk"), ("right_t", "rk"))
        .build();
    (params, cat, graph)
}

/// `left_t.lk = right_t.rk`, with `right_t` inner and indexed.
fn key(model: &CostModel<'_>) -> JoinKey {
    model.join_key((0, 0), (1, 0))
}

/// The `left_t ⋈ right_t` split from the graph's reference definitions.
fn split(model: &CostModel<'_>) -> JoinSplit {
    JoinSplit {
        key: Some(key(model)),
        selectivity: model.graph.crossing_selectivity(0b01, 0b10),
        width: subset_width(model.graph, model.catalog, 0b11),
    }
}

/// A child cost vector with sensible magnitudes per objective; tuple loss
/// stays in [0, 1].
fn arb_child_cost() -> impl Strategy<Value = CostVector> {
    (prop::array::uniform8(1.0f64..1e6), 0.0f64..0.9).prop_map(|(vals, loss)| {
        let mut a = [0.0; NUM_OBJECTIVES];
        a[..8].copy_from_slice(&vals);
        a[Objective::UsedCores.index()] = 1.0 + vals[4] % 4.0; // 1..5 cores
        a[Objective::TupleLoss.index()] = loss;
        CostVector::from_array(a)
    })
}

/// Per-dimension degradation factors in [1, α]; tuple loss is clamped to
/// its domain.
fn degrade(c: &CostVector, factors: &[f64; NUM_OBJECTIVES], alpha: f64) -> CostVector {
    let mut out = [0.0; NUM_OBJECTIVES];
    for (i, v) in c.as_array().iter().enumerate() {
        let f = 1.0 + (factors[i] % 1.0) * (alpha - 1.0);
        out[i] = v * f;
    }
    let loss_i = Objective::TupleLoss.index();
    out[loss_i] = out[loss_i].min(1.0);
    CostVector::from_array(out)
}

fn child_props(rel: usize, rows: f64, order: SortOrder) -> PlanProps {
    PlanProps {
        rels: 1 << rel,
        rows,
        width: 110.0,
        order,
        sampling_factor: 1.0,
    }
}

/// The inner child `rp` as an index-nested-loop join needs it for `op`
/// of that family: the index scan of the key's inner column, which is in
/// that column's order. Other operators keep `rp`.
fn index_nl_inner(op: JoinOp, key: &JoinKey, rp: PlanProps) -> PlanProps {
    match op {
        JoinOp::IndexNestedLoop => PlanProps {
            order: key.inner_order(),
            ..rp
        },
        _ => rp,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// PONO over all join operators: degraded children yield a parent within
    /// α of the original parent in every objective.
    #[test]
    fn pono_holds_for_all_join_operators(
        lc in arb_child_cost(),
        rc in arb_child_cost(),
        lf in prop::array::uniform9(0.0f64..100.0),
        rf in prop::array::uniform9(0.0f64..100.0),
        alpha in 1.0f64..3.0,
        lrows in 10.0f64..100_000.0,
        rrows in 10.0f64..100_000.0,
        l_sorted in any::<bool>(),
        r_sorted in any::<bool>(),
    ) {
        let (params, cat, graph) = setup();
        let model = CostModel::new(&params, &cat, &graph);
        let k = key(&model);
        let split = split(&model);

        let l_order = if l_sorted { k.outer_order() } else { SortOrder::None };
        let r_order = if r_sorted { k.inner_order() } else { SortOrder::None };
        let lp = child_props(0, lrows, l_order);
        let rp = child_props(1, rrows, r_order);

        let lc_bad = degrade(&lc, &lf, alpha);
        let rc_bad = degrade(&rc, &rf, alpha);
        // Precondition of PONO: the degraded children are α-dominated.
        prop_assert!(approx_dominates(&lc_bad, &lc, alpha + 1e-9, ObjectiveSet::all()));
        prop_assert!(approx_dominates(&rc_bad, &rc, alpha + 1e-9, ObjectiveSet::all()));

        for op in JoinOp::ALL {
            // Index-nested-loop needs the inner key's index scan; exercise
            // it too.
            let rp = index_nl_inner(op, &k, rp);
            let base = model.join_cost(op, (&lc, &lp), (&rc, &rp), &split);
            let degraded = model.join_cost(op, (&lc_bad, &lp), (&rc_bad, &rp), &split);
            let (Some((base, _)), Some((deg, _))) = (base, degraded) else {
                continue;
            };
            for o in Objective::ALL {
                prop_assert!(
                    deg.get(o) <= alpha * base.get(o) + 1e-6,
                    "{op}: objective {o} violates PONO: {} > {} × {}",
                    deg.get(o),
                    alpha,
                    base.get(o)
                );
            }
        }
    }

    /// POO (Definition 6) as the α = 1 special case: dominated children
    /// yield a dominated parent.
    #[test]
    fn poo_holds_for_all_join_operators(
        lc in arb_child_cost(),
        rc in arb_child_cost(),
        shrink in prop::array::uniform9(0.1f64..1.0),
        lrows in 10.0f64..100_000.0,
        rrows in 10.0f64..100_000.0,
    ) {
        let (params, cat, graph) = setup();
        let model = CostModel::new(&params, &cat, &graph);
        let k = key(&model);
        let split = split(&model);
        let lp = child_props(0, lrows, SortOrder::None);
        let rp = child_props(1, rrows, SortOrder::None);

        // Better children: every dimension shrunk.
        let mut better = [0.0; NUM_OBJECTIVES];
        for (i, v) in lc.as_array().iter().enumerate() {
            better[i] = v * shrink[i];
        }
        let lc_better = CostVector::from_array(better);

        for op in JoinOp::ALL {
            let rp = index_nl_inner(op, &k, rp);
            let base = model.join_cost(op, (&lc, &lp), (&rc, &rp), &split);
            let improved = model.join_cost(op, (&lc_better, &lp), (&rc, &rp), &split);
            let (Some((base, _)), Some((imp, _))) = (base, improved) else {
                continue;
            };
            for o in Objective::ALL {
                prop_assert!(
                    imp.get(o) <= base.get(o) + 1e-9,
                    "{op}: objective {o} violates POO"
                );
            }
        }
    }

    /// Monotonicity, the lemma behind the DP's chunk bounds: children that
    /// cost no more in any of the nine components and have no more rows
    /// (same orders and widths) give a join that costs no more in any
    /// component and has no more rows, with the same output order, for
    /// every operator and split. Exact in floats: a formula that breaks it
    /// would let the DP skip a candidate its bound does not bound.
    #[test]
    fn join_cost_is_monotone_in_child_costs_and_rows(
        lc in arb_child_cost(),
        rc in arb_child_cost(),
        lgrow in prop::array::uniform9(0.0f64..2.0),
        rgrow in prop::array::uniform9(0.0f64..2.0),
        rows in (1.0f64..100_000.0, 1.0f64..100_000.0, 0.0f64..3.0, 0.0f64..3.0),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        grow in (any::<bool>(), any::<bool>()),
        order_picks in (0u8..3, 0u8..3),
        sizes in (1e-6f64..1.0, 1.0f64..500.0, 1.0f64..300.0, 1.0f64..300.0),
    ) {
        let (lrows, rrows, lrow_grow, rrow_grow) = rows;
        let (keyed, inner_indexed, right_multi) = flags;
        // Costs and rows also grow alone, so neither masks the other.
        let (costs_grow, rows_grow) = grow;
        let (lrow_grow, rrow_grow) = if rows_grow { (lrow_grow, rrow_grow) } else { (0.0, 0.0) };
        let (l_order_pick, r_order_pick) = order_picks;
        let (selectivity, width, lwidth, rwidth) = sizes;
        let (params, cat, graph) = setup();
        let model = CostModel::new(&params, &cat, &graph);
        let key = key(&model);
        let k = JoinKey {
            inner_index: key.inner_index.filter(|_| inner_indexed),
            ..key
        };
        let split = JoinSplit {
            key: keyed.then_some(k),
            selectivity,
            width,
        };
        // Each side sorted on its merge key, on the other key, or unsorted.
        let order = |pick: u8, merge: SortOrder, other: SortOrder| match pick {
            0 => SortOrder::None,
            1 => merge,
            _ => other,
        };
        let l_order = order(l_order_pick, k.outer_order(), k.inner_order());
        let r_order = order(r_order_pick, k.inner_order(), k.outer_order());
        let props = |rels: u32, rows: f64, width: f64, order: SortOrder| PlanProps {
            rels,
            rows,
            width,
            order,
            sampling_factor: 1.0,
        };
        let right_rels = if right_multi { 0b110 } else { 0b010 };
        let (lp_lo, lp_hi) = (
            props(0b001, lrows, lwidth, l_order),
            props(0b001, lrows * (1.0 + lrow_grow), lwidth, l_order),
        );
        let (rp_lo, rp_hi) = (
            props(right_rels, rrows, rwidth, r_order),
            props(right_rels, rrows * (1.0 + rrow_grow), rwidth, r_order),
        );
        let raise = |c: &CostVector, grow: &[f64; NUM_OBJECTIVES]| {
            let mut out = *c.as_array();
            for (v, g) in out.iter_mut().zip(grow) {
                *v *= 1.0 + g;
            }
            let loss = Objective::TupleLoss.index();
            out[loss] = out[loss].min(1.0);
            CostVector::from_array(out)
        };
        let (lc_hi, rc_hi) = if costs_grow {
            (raise(&lc, &lgrow), raise(&rc, &rgrow))
        } else {
            (lc, rc)
        };

        for op in JoinOp::ALL {
            let lo = model.join_cost(op, (&lc, &lp_lo), (&rc, &rp_lo), &split);
            let hi = model.join_cost(op, (&lc_hi, &lp_hi), (&rc_hi, &rp_hi), &split);
            prop_assert_eq!(lo.is_some(), hi.is_some(), "{} applies to one side only", op);
            let (Some((lo, lo_props)), Some((hi, hi_props))) = (lo, hi) else {
                continue;
            };
            for o in Objective::ALL {
                prop_assert!(
                    lo.get(o) <= hi.get(o),
                    "{op}: objective {o} is not monotone: {} > {}",
                    lo.get(o),
                    hi.get(o)
                );
            }
            prop_assert!(lo_props.rows <= hi_props.rows, "{op}: output rows");
            prop_assert_eq!(lo_props.order, hi_props.order, "{} output order", op);
        }
    }

    /// `join_costs` prices every operator of a plan pair in one pass; entry
    /// `k` must equal `join_cost(JoinOp::ALL[k], ..)` bit for bit, in the
    /// nine costs, in the output properties and in inapplicability, and
    /// `join_cost` must apply exactly where `JoinSplit::applies` says. The
    /// children are sorted on their merge order, on the other key or not at
    /// all, their rows span both sides of `work_mem` (so sorts, hash
    /// builds and materializations spill or not), and each side may be
    /// sampled; the split may lack a key, its inner column may be indexed
    /// or not, and the inner plan, in the key's inner order or not, may
    /// read one base relation or several.
    #[test]
    fn join_costs_equals_join_cost_bit_for_bit(
        lc in arb_child_cost(),
        rc in arb_child_cost(),
        rows in (0.0f64..6.5, 0.0f64..6.5, 1e-7f64..1.0),
        widths in (1.0f64..400.0, 1.0f64..400.0, 1.0f64..600.0),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        order_picks in (0u8..3, 0u8..3),
        sampled in (any::<bool>(), any::<bool>(), 0.01f64..1.0, 0.01f64..1.0),
    ) {
        let (params, cat, graph) = setup();
        let model = CostModel::new(&params, &cat, &graph);
        // Rows from 1 to about 3·10⁶, log-uniform.
        let (lrows_exp, rrows_exp, selectivity) = rows;
        let (lwidth, rwidth, width) = widths;
        let (keyed, inner_indexed, right_multi) = flags;
        let (l_sampled, r_sampled, l_rate, r_rate) = sampled;
        let key = key(&model);
        let k = JoinKey {
            inner_index: key.inner_index.filter(|_| inner_indexed),
            ..key
        };
        let split = JoinSplit {
            key: keyed.then_some(k),
            selectivity,
            width,
        };
        let order = |pick: u8, merge: SortOrder, other: SortOrder| match pick {
            0 => SortOrder::None,
            1 => merge,
            _ => other,
        };
        let props = |rels: u32, rows_exp: f64, width: f64, order: SortOrder, rate: Option<f64>| {
            PlanProps {
                rels,
                rows: 10f64.powf(rows_exp),
                width,
                order,
                sampling_factor: rate.unwrap_or(1.0),
            }
        };
        let (l_order_pick, r_order_pick) = order_picks;
        let lp = props(
            0b001,
            lrows_exp,
            lwidth,
            order(l_order_pick, k.outer_order(), k.inner_order()),
            l_sampled.then_some(l_rate),
        );
        let rp = props(
            if right_multi { 0b110 } else { 0b010 },
            rrows_exp,
            rwidth,
            order(r_order_pick, k.inner_order(), k.outer_order()),
            r_sampled.then_some(r_rate),
        );
        let loss = |c: &CostVector, rate: Option<f64>| {
            let mut a = *c.as_array();
            a[Objective::TupleLoss.index()] = rate.map_or(0.0, |r| 1.0 - r);
            CostVector::from_array(a)
        };
        let lc = loss(&lc, l_sampled.then_some(l_rate));
        let rc = loss(&rc, r_sampled.then_some(r_rate));

        let all = model.join_costs((&lc, &lp), (&rc, &rp), &split);
        for (op, batched) in JoinOp::ALL.into_iter().zip(all) {
            let alone = model.join_cost(op, (&lc, &lp), (&rc, &rp), &split);
            prop_assert_eq!(batched.is_some(), alone.is_some(), "{} applicability", op);
            prop_assert_eq!(alone.is_some(), split.applies(op, &rp), "{} applies", op);
            let (Some((bc, bp)), Some((ac, ap))) = (batched, alone) else {
                continue;
            };
            for o in Objective::ALL {
                prop_assert_eq!(
                    bc.get(o).to_bits(),
                    ac.get(o).to_bits(),
                    "{}: objective {} differs: {} batched, {} alone",
                    op,
                    o,
                    bc.get(o),
                    ac.get(o)
                );
            }
            prop_assert_eq!(bp.rels, ap.rels, "{} rels", op);
            prop_assert_eq!(bp.rows.to_bits(), ap.rows.to_bits(), "{} rows", op);
            prop_assert_eq!(bp.width.to_bits(), ap.width.to_bits(), "{} width", op);
            prop_assert_eq!(bp.order, ap.order, "{} order", op);
            prop_assert_eq!(
                bp.sampling_factor.to_bits(),
                ap.sampling_factor.to_bits(),
                "{} sampling factor",
                op
            );
        }
    }

    /// Scan costs are monotone in the sampling rate for time/io/cpu and
    /// anti-monotone for tuple loss — the tradeoff sampling exists for.
    #[test]
    fn sampling_rate_tradeoff_is_monotone(rate in 1u8..5) {
        let (params, cat, graph) = setup();
        let model = CostModel::new(&params, &cat, &graph);
        let (lo, _) = model
            .scan_cost(0, moqo_plan::ScanOp::SamplingScan { rate_pct: rate })
            .unwrap();
        let (hi, _) = model
            .scan_cost(0, moqo_plan::ScanOp::SamplingScan { rate_pct: rate + 1 })
            .unwrap();
        prop_assert!(lo.get(Objective::TotalTime) <= hi.get(Objective::TotalTime));
        prop_assert!(lo.get(Objective::CpuLoad) <= hi.get(Objective::CpuLoad));
        prop_assert!(lo.get(Objective::TupleLoss) >= hi.get(Objective::TupleLoss));
    }
}

/// A random block of 2–4 relations over tables of 1–3 columns, each
/// indexed or not: relation `i > 0` joins a random earlier one, and one
/// more edge joins two random distinct relations, closing a cycle or
/// doubling a pair. Every edge joins random columns of its endpoints.
fn arb_block() -> impl Strategy<Value = (Catalog, JoinGraph)> {
    (
        2usize..=4,
        prop::collection::vec((1u16..=3, any::<u8>(), 10.0f64..100_000.0), 4),
        prop::collection::vec((any::<usize>(), any::<u16>(), any::<u16>()), 4),
    )
        .prop_map(|(n, tables, draws)| {
            let mut catalog = Catalog::new();
            for (i, &(columns, index_bits, rows)) in tables.iter().enumerate().take(n) {
                let mut table = TableStats::new(format!("t{i}"), rows, 64.0);
                for c in 0..columns {
                    let column = ColumnStats::new(format!("c{c}"), rows);
                    let indexed = index_bits >> c & 1 == 1;
                    table = table.with_column(if indexed { column.indexed() } else { column });
                }
                catalog.add_table(table);
            }
            let rels = (0..n)
                .map(|i| BaseRel {
                    table: TableId(i as u32),
                    alias: format!("t{i}"),
                    filter_selectivity: 1.0,
                })
                .collect();
            let edges = draws
                .iter()
                .take(n)
                .enumerate()
                .map(|(i, &(pick, left_col, right_col))| {
                    let (left, right) = if i + 1 < n {
                        (pick % (i + 1), i + 1)
                    } else {
                        let left = pick % n;
                        (left, (left + 1 + pick / n % (n - 1)) % n)
                    };
                    JoinEdge {
                        left_rel: left,
                        left_col: left_col % tables[left].0,
                        right_rel: right,
                        right_col: right_col % tables[right].0,
                        selectivity: 1e-3,
                    }
                })
                .collect();
            (catalog, JoinGraph { rels, edges })
        })
}

/// Every scan configuration of a table of `columns` columns, the
/// inapplicable ones included: the sequential scan, an index scan on each
/// column, on the first ordinal past the last and on the largest, and
/// every sampling rate.
fn every_scan(columns: u16) -> impl Iterator<Item = ScanOp> {
    let index_scans = (0..=columns)
        .chain([u16::MAX])
        .map(|column| ScanOp::IndexScan { column });
    let samples = SAMPLING_RATES_PCT.map(|rate_pct| ScanOp::SamplingScan { rate_pct });
    std::iter::once(ScanOp::SeqScan)
        .chain(index_scans)
        .chain(samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `JoinSplit::applies` decides the index-nested loop from the inner
    /// plan's properties; this holds it to the plan-tree rule it replaced.
    /// For both orientations of every edge of a random block, over every
    /// scan configuration of every relation, the join applies exactly to
    /// the index scan of the key's inner column when that column is
    /// indexed, and to no plan of another relation or of two relations:
    /// every operator's join of two scans, over a Cartesian split and
    /// over each edge between them, the outer side's index scan of the
    /// key's inner column included.
    #[test]
    fn index_nl_applies_exactly_to_the_inner_key_index_scan(block in arb_block()) {
        let (catalog, graph) = block;
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &catalog, &graph);
        let columns = |rel: usize| &catalog.table(graph.rels[rel].table).columns;
        let indexed = |rel: usize, column: u16| {
            columns(rel).get(usize::from(column)).is_some_and(|c| c.indexed)
        };
        let mut scans = Vec::new();
        for rel in 0..graph.n_rels() {
            for op in every_scan(columns(rel).len() as u16) {
                match model.scan_cost(rel, op) {
                    Some(scan) => scans.push((rel, op, scan)),
                    None => prop_assert!(
                        matches!(op, ScanOp::IndexScan { column } if !indexed(rel, column)),
                        "{:?} of relation {} is applicable",
                        op,
                        rel
                    ),
                }
            }
        }
        let mut pairs = Vec::new();
        for (outer, _, (lc, lp)) in &scans {
            for (inner, _, (rc, rp)) in &scans {
                if outer == inner {
                    continue;
                }
                let rels = lp.rels | rp.rels;
                let keys = graph.edges.iter().filter(|e| e.within(rels)).map(|e| {
                    let ends = [(e.left_rel, e.left_col), (e.right_rel, e.right_col)];
                    let [o, i] = if e.left_rel == *outer { ends } else { [ends[1], ends[0]] };
                    Some(model.join_key(o, i))
                });
                for key in std::iter::once(None).chain(keys) {
                    let split = JoinSplit {
                        key,
                        selectivity: graph.crossing_selectivity(lp.rels, rp.rels),
                        width: subset_width(&graph, &catalog, rels),
                    };
                    let joins = model.join_costs((lc, lp), (rc, rp), &split);
                    pairs.extend(joins.into_iter().flatten().map(|(_, props)| props));
                }
            }
        }

        for e in &graph.edges {
            let ends = [(e.left_rel, e.left_col), (e.right_rel, e.right_col)];
            for [outer, inner] in [ends, [ends[1], ends[0]]] {
                let key = model.join_key(outer, inner);
                prop_assert_eq!(key.inner_index.is_some(), indexed(inner.0, inner.1));
                let split = JoinSplit {
                    key: Some(key),
                    selectivity: e.selectivity,
                    width: 1.0,
                };
                for (rel, op, (_, props)) in &scans {
                    let tree_rule = *rel == inner.0
                        && *op == ScanOp::IndexScan { column: inner.1 }
                        && indexed(inner.0, inner.1);
                    prop_assert_eq!(
                        split.applies(JoinOp::IndexNestedLoop, props),
                        tree_rule,
                        "{:?} of relation {} under {:?}",
                        op,
                        rel,
                        key
                    );
                }
                for props in &pairs {
                    prop_assert!(
                        !split.applies(JoinOp::IndexNestedLoop, props),
                        "a plan of {:b} under {:?}",
                        props.rels,
                        key
                    );
                }
            }
        }
    }
}
