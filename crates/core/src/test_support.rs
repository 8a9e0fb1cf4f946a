//! Hidden test support: the **no-pruning reference DP** that the
//! props-aware soundness tests (`crates/core/tests/props_pruning_properties.rs`
//! and the workspace-level `tests/props_pruning.rs`) measure pruning
//! against, the **reference split** that the DP's split index must
//! reproduce bit for bit, and the **reference pruning DP** whose front and
//! candidate count the optimized DP must reproduce exactly. One shared
//! implementation each, so a cost-model change (new scan operator, changed
//! IdxNL precondition, new join configuration) cannot silently leave one
//! copy testing a stale plan space.
//!
//! Not part of the public API — the module is `#[doc(hidden)]` and its
//! behaviour may change without notice.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moqo_catalog::{subset_width, RelMask};
use moqo_cost::{CostVector, ObjectiveSet};
use moqo_costmodel::{CostModel, JoinSplit};
use moqo_plan::{JoinOp, PlanArena, PlanId, PlanProps, ScanOp, SortOrder};

use crate::dp::SplitIndex;
use crate::pareto::{PlanEntry, PlanSet, PruneMode, PruneStrategy};

/// The split of `m1` (outer) and `m2` (inner) from the join graph's
/// reference definitions: the first crossing edge in declaration order,
/// normalized so its left fields refer to `m1`, with the inner index from
/// the catalog; [`JoinGraph::crossing_selectivity`] and
/// [`subset_width`] of the union.
///
/// [`JoinGraph::crossing_selectivity`]: moqo_catalog::JoinGraph::crossing_selectivity
#[must_use]
pub fn reference_split(model: &CostModel<'_>, m1: RelMask, m2: RelMask) -> JoinSplit {
    let graph = model.graph;
    let key = graph.edges.iter().find(|e| e.crosses(m1, m2)).map(|e| {
        let left_in_m1 = m1 & (1u32 << e.left_rel) != 0;
        let (lr, lc, rr, rc) = if left_in_m1 {
            (e.left_rel, e.left_col, e.right_rel, e.right_col)
        } else {
            (e.right_rel, e.right_col, e.left_rel, e.left_col)
        };
        model.join_key((lr, lc), (rr, rc))
    });
    JoinSplit {
        key,
        selectivity: graph.crossing_selectivity(m1, m2),
        width: subset_width(graph, model.catalog, m1 | m2),
    }
}

/// Checks the block's split index against [`reference_split`] (key,
/// and selectivity and width by bits) and its neighbour masks against
/// [`JoinGraph::connects`], on every ordered pair of disjoint non-empty
/// relation sets — or, above 10 relations, on `samples` such pairs drawn
/// from `seed`. Returns the number of pairs checked.
///
/// # Panics
///
/// Panics on the first pair where the index and the reference disagree.
///
/// [`JoinGraph::connects`]: moqo_catalog::JoinGraph::connects
pub fn check_split_index(model: &CostModel<'_>, samples: usize, seed: u64) -> usize {
    let index = SplitIndex::new(model);
    let check = |m1: RelMask, m2: RelMask| {
        let (got, want) = (index.split(m1, m2), reference_split(model, m1, m2));
        assert_eq!(got.key, want.key, "key of {m1:b} | {m2:b}");
        assert_eq!(
            got.selectivity.to_bits(),
            want.selectivity.to_bits(),
            "selectivity of {m1:b} | {m2:b}"
        );
        assert_eq!(
            got.width.to_bits(),
            want.width.to_bits(),
            "width of {m1:b} | {m2:b}"
        );
        assert_eq!(
            index.neighbours(m1) & m2 != 0,
            model.graph.connects(m1, m2),
            "connectivity of {m1:b} | {m2:b}"
        );
    };
    let n = model.graph.n_rels();
    let mut checked = 0;
    if n <= 10 {
        for union in 1..=model.graph.full_mask() {
            let mut m1 = (union - 1) & union;
            while m1 != 0 {
                check(m1, union ^ m1);
                checked += 1;
                m1 = (m1 - 1) & union;
            }
        }
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        while checked < samples {
            let (mut m1, mut m2) = (0, 0);
            for rel in 0..n {
                match rng.gen_range(0u32..3) {
                    0 => m1 |= 1u32 << rel,
                    1 => m2 |= 1u32 << rel,
                    _ => {}
                }
            }
            if m1 != 0 && m2 != 0 {
                check(m1, m2);
                checked += 1;
            }
        }
    }
    checked
}

/// The cost-Pareto frontier over **every** plan of a block, computed with
/// no pruning at all: the DP table stores every `(cost, props)` pair ever
/// generated per table set, and only the *complete* plans are reduced to
/// their frontier at the end (sound — nothing is downstream of a complete
/// plan). Exponential in the block size, hence the 3-relation cap.
///
/// # Panics
///
/// Panics if the block has more than 3 relations.
#[must_use]
pub fn reference_frontier(model: &CostModel<'_>, objectives: ObjectiveSet) -> Vec<CostVector> {
    let graph = model.graph;
    let n = graph.n_rels();
    assert!(n <= 3, "the no-pruning oracle explodes beyond 3 relations");
    let full = graph.full_mask() as usize;
    let mut table: Vec<Vec<(CostVector, PlanProps)>> = vec![Vec::new(); 1 << n];

    // Phase 1: every applicable scan.
    for rel in 0..n {
        let t = model.catalog.table(graph.rels[rel].table);
        let mut ops = vec![ScanOp::SeqScan];
        for (ordinal, col) in t.columns.iter().enumerate() {
            if col.indexed {
                ops.push(ScanOp::IndexScan {
                    column: ordinal as u16,
                });
            }
        }
        if model.params.enable_sampling {
            for rate_pct in moqo_plan::SAMPLING_RATES_PCT {
                ops.push(ScanOp::SamplingScan { rate_pct });
            }
        }
        for op in ops {
            if let Some(scan) = model.scan_cost(rel, op) {
                table[1 << rel].push(scan);
            }
        }
    }

    // Phase 2: every split, every operand pair, every join operator —
    // honouring the same Cartesian-product heuristic as the real DP.
    let mut masks: Vec<u32> = (1..(1u32 << n)).filter(|m| m.count_ones() >= 2).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        let mut splits = Vec::new();
        let mut connected = Vec::new();
        let mut m1 = (mask - 1) & mask;
        while m1 != 0 {
            let m2 = mask ^ m1;
            splits.push((m1, m2));
            if graph.connects(m1, m2) {
                connected.push((m1, m2));
            }
            m1 = (m1 - 1) & mask;
        }
        let splits = if connected.is_empty() {
            splits
        } else {
            connected
        };
        let mut out = Vec::new();
        for (m1, m2) in splits {
            let split = reference_split(model, m1, m2);
            for left in &table[m1 as usize] {
                for right in &table[m2 as usize] {
                    for op in JoinOp::ALL {
                        out.extend(model.join_cost(
                            op,
                            (&left.0, &left.1),
                            (&right.0, &right.1),
                            &split,
                        ));
                    }
                }
            }
        }
        table[mask as usize] = out;
    }

    // Every complete plan was generated without any pruning decision; for
    // complete plans the cost vector is all that matters, so extracting
    // the frontier incrementally with exact cost-only pruning is sound —
    // and far cheaper than a quadratic scan over the final candidates.
    let mut frontier = PlanSet::new();
    let strategy = PruneStrategy::exact();
    for (i, (cost, props)) in table[full].iter().enumerate() {
        frontier.prune_insert(
            PlanEntry {
                cost: *cost,
                props: *props,
                plan: PlanId(i as u32),
            },
            &strategy,
            objectives,
        );
    }
    frontier.iter().map(|e| e.cost).collect()
}

/// `FindParetoPlans` written the plain way: an eager sorted mask table,
/// per-split copies of both entry sets, an arena node for *every*
/// considered candidate, and `prune_insert` doing each rejection test. It
/// shares only the cost model, [`reference_split`] and [`PlanSet`] with
/// [`crate::find_pareto_plans`], and enumerates candidates in the same
/// order: splits by descending outer mask, both sides' order groups in map
/// order, [`JoinOp::ALL`]. So the optimized DP must reproduce its result
/// exactly at every precision and in both prune modes.
///
/// Returns the final front, flattened over order groups in map order, and
/// the number of considered plans.
#[must_use]
pub fn reference_dp(
    model: &CostModel<'_>,
    objectives: ObjectiveSet,
    alpha_internal: f64,
    mode: PruneMode,
) -> (Vec<CostVector>, u64) {
    let strategy = PruneStrategy {
        alpha_internal,
        mode,
    };
    let graph = model.graph;
    let n = graph.n_rels();
    let mut arena = PlanArena::new();
    let mut considered = 0u64;
    let mut table: Vec<BTreeMap<SortOrder, PlanSet>> = vec![BTreeMap::new(); 1 << n];

    let scan_ops = |rel: usize| {
        let t = model.catalog.table(graph.rels[rel].table);
        let mut ops = vec![ScanOp::SeqScan];
        for (ordinal, col) in t.columns.iter().enumerate() {
            if col.indexed {
                ops.push(ScanOp::IndexScan {
                    column: ordinal as u16,
                });
            }
        }
        if model.params.enable_sampling {
            for rate_pct in moqo_plan::SAMPLING_RATES_PCT {
                ops.push(ScanOp::SamplingScan { rate_pct });
            }
        }
        ops
    };
    let splits = |mask: u32| {
        let mut connected = Vec::new();
        let mut all = Vec::new();
        let mut m1 = (mask - 1) & mask;
        while m1 != 0 {
            let m2 = mask ^ m1;
            all.push((m1, m2));
            if graph.connects(m1, m2) {
                connected.push((m1, m2));
            }
            m1 = (m1 - 1) & mask;
        }
        if connected.is_empty() {
            all
        } else {
            connected
        }
    };

    // Phase 1: access paths.
    for rel in 0..n {
        for op in scan_ops(rel) {
            if let Some((cost, props)) = model.scan_cost(rel, op) {
                considered += 1;
                let plan = arena.scan(rel, op);
                table[1 << rel]
                    .entry(props.order)
                    .or_default()
                    .prune_insert(PlanEntry { cost, props, plan }, &strategy, objectives);
            }
        }
    }

    // Phase 2: every mask by cardinality, then ascending.
    let mut masks: Vec<u32> = (1..(1u32 << n)).filter(|m| m.count_ones() >= 2).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        for (m1, m2) in splits(mask) {
            let split = reference_split(model, m1, m2);
            let entries = |m: u32| -> Vec<PlanEntry> {
                table[m as usize]
                    .values()
                    .flat_map(|s| s.iter().copied())
                    .collect()
            };
            let (left_entries, right_entries) = (entries(m1), entries(m2));
            for left in &left_entries {
                for right in &right_entries {
                    for op in JoinOp::ALL {
                        let Some((cost, props)) = model.join_cost(
                            op,
                            (&left.cost, &left.props),
                            (&right.cost, &right.props),
                            &split,
                        ) else {
                            continue;
                        };
                        considered += 1;
                        let plan = arena.join(op, left.plan, right.plan);
                        table[mask as usize]
                            .entry(props.order)
                            .or_default()
                            .prune_insert(PlanEntry { cost, props, plan }, &strategy, objectives);
                    }
                }
            }
        }
    }

    let front = table[graph.full_mask() as usize]
        .values()
        .flat_map(|s| s.iter().map(|e| e.cost))
        .collect();
    (front, considered)
}
