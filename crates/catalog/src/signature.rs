//! Join-graph signatures for plan caching.
//!
//! A cached front's plans name relations by their index in the block, so
//! the front serves exactly the blocks whose plan space matches position
//! by position: [`JoinGraph::same_plan_space`] compares, bit for bit, each
//! relation's table and filter selectivity and each edge's endpoints, key
//! columns and selectivity. Aliases are ignored: they name relations for
//! humans but never influence costs. [`JoinGraph::signature`] is the
//! FNV-1a hash of exactly those fields, in order, so blocks of one plan
//! space share a signature. Distinct plan spaces may collide (it is a
//! hash), so a cache compares the stored block with `same_plan_space`
//! before it serves.
//!
//! A block whose relations or edges are listed in another order, or whose
//! edges are flipped, is another plan space here and is cached apart:
//! serving one from the other would need a canonical labelling to remap
//! the relation indices its plans hold.

use crate::query::JoinGraph;

/// A 64-bit fingerprint of one [`JoinGraph`]'s plan space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphSignature(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl JoinGraph {
    /// Whether `other` has this block's plan space: the same number of
    /// relations and edges, and position by position and bit for bit, each
    /// relation's table and filter selectivity and each edge's endpoints,
    /// key columns and selectivity. Aliases are ignored.
    #[must_use]
    pub fn same_plan_space(&self, other: &JoinGraph) -> bool {
        self.rels.len() == other.rels.len()
            && self.edges.len() == other.edges.len()
            && self.rels.iter().zip(&other.rels).all(|(a, b)| {
                a.table == b.table
                    && a.filter_selectivity.to_bits() == b.filter_selectivity.to_bits()
            })
            && self.edges.iter().zip(&other.edges).all(|(a, b)| {
                (a.left_rel, a.left_col, a.right_rel, a.right_col)
                    == (b.left_rel, b.left_col, b.right_rel, b.right_col)
                    && a.selectivity.to_bits() == b.selectivity.to_bits()
            })
    }

    /// The FNV-1a hash of the fields [`JoinGraph::same_plan_space`]
    /// compares, in its order, each count before its list: blocks of one
    /// plan space share it.
    #[must_use]
    pub fn signature(&self) -> GraphSignature {
        let mut h = FNV_OFFSET;
        let mut feed = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        feed(self.rels.len() as u64);
        for r in &self.rels {
            feed(u64::from(r.table.0));
            feed(r.filter_selectivity.to_bits());
        }
        feed(self.edges.len() as u64);
        for e in &self.edges {
            feed(e.left_rel as u64);
            feed(u64::from(e.left_col));
            feed(e.right_rel as u64);
            feed(u64::from(e.right_col));
            feed(e.selectivity.to_bits());
        }
        GraphSignature(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinEdge, JoinGraphBuilder};
    use crate::table::{Catalog, ColumnStats, TableStats};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("a", 1000.0, 50.0)
                .with_column(ColumnStats::new("id", 1000.0).indexed())
                .with_column(ColumnStats::new("b_id", 100.0)),
        );
        cat.add_table(
            TableStats::new("b", 100.0, 50.0).with_column(ColumnStats::new("id", 100.0).indexed()),
        );
        cat.add_table(TableStats::new("c", 10.0, 50.0).with_column(ColumnStats::new("id", 10.0)));
        cat
    }

    fn chain(cat: &Catalog) -> JoinGraph {
        JoinGraphBuilder::new(cat)
            .rel("a", 0.5)
            .rel("b", 1.0)
            .rel("c", 1.0)
            .join(("a", "b_id"), ("b", "id"))
            .join_with_selectivity(("b", "id"), ("c", "id"), 0.1)
            .build()
    }

    /// `other` is another plan space than `g`, with another signature.
    fn assert_apart(g: &JoinGraph, other: &JoinGraph, what: &str) {
        assert!(!g.same_plan_space(other), "{what}: same plan space");
        assert_ne!(g.signature(), other.signature(), "{what}: same signature");
    }

    #[test]
    fn signature_is_deterministic() {
        let cat = catalog();
        assert!(chain(&cat).same_plan_space(&chain(&cat)));
        assert_eq!(chain(&cat).signature(), chain(&cat).signature());
    }

    #[test]
    fn signature_ignores_aliases() {
        let cat = catalog();
        let g = chain(&cat);
        let mut renamed = g.clone();
        for (i, r) in renamed.rels.iter_mut().enumerate() {
            r.alias = format!("alias_{i}");
        }
        assert!(g.same_plan_space(&renamed));
        assert_eq!(g.signature(), renamed.signature());
    }

    #[test]
    fn signature_separates_different_graphs() {
        let cat = catalog();
        let g = chain(&cat);
        // Different filter selectivity.
        let mut filtered = g.clone();
        filtered.rels[0].filter_selectivity = 0.25;
        assert_apart(&g, &filtered, "filter selectivity");
        // Different table.
        let mut table = g.clone();
        table.rels[2].table = table.rels[1].table;
        assert_apart(&g, &table, "table");
        // Different join selectivity.
        let mut sel = g.clone();
        sel.edges[1].selectivity = 0.2;
        assert_apart(&g, &sel, "join selectivity");
        // Different key column.
        let mut col = g.clone();
        col.edges[0].left_col = 0;
        assert_apart(&g, &col, "key column");
        // Different topology over the same relations: drop an edge.
        let mut star = g.clone();
        star.edges.pop();
        assert_apart(&g, &star, "edge count");
        // Different table multiset.
        let two = JoinGraphBuilder::new(&cat)
            .rel("a", 0.5)
            .rel("b", 1.0)
            .join(("a", "b_id"), ("b", "id"))
            .build();
        assert_apart(&g, &two, "relation count");
        // A relabelling: plans name relations by index, so relations or
        // edges listed in another order, or a flipped edge, are another
        // plan space.
        let mut swapped = g.clone();
        swapped.rels.swap(0, 2);
        for e in &mut swapped.edges {
            for rel in [&mut e.left_rel, &mut e.right_rel] {
                *rel = 2 - *rel;
            }
        }
        assert_apart(&g, &swapped, "relations relabelled");
        let mut reordered = g.clone();
        reordered.edges.reverse();
        assert_apart(&g, &reordered, "edges reordered");
        let mut flipped = g.clone();
        let e = &mut flipped.edges[0];
        std::mem::swap(&mut e.left_rel, &mut e.right_rel);
        std::mem::swap(&mut e.left_col, &mut e.right_col);
        assert_apart(&g, &flipped, "edge flipped");
    }

    #[test]
    fn signature_separates_chain_from_triangle() {
        // Same relations and edge count cannot be confused with different
        // connectivity: chain a–b–c vs a–b plus a second parallel a–b edge.
        let cat = catalog();
        let g = chain(&cat);
        let mut parallel = g.clone();
        parallel.edges[1] = JoinEdge {
            left_rel: 0,
            left_col: 1,
            right_rel: 1,
            right_col: 0,
            selectivity: 0.1,
        };
        assert_apart(&g, &parallel, "second a–b edge");
    }
}
