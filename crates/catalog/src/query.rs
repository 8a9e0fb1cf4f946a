//! Join-graph query blocks (the paper's query model `Q` plus predicates).

use crate::table::{Catalog, TableId};

/// A bitmask over the base relations of one [`JoinGraph`]; bit `i` set means
/// relation index `i` participates. Supports blocks of up to 32 relations
/// (TPC-H needs at most 8).
pub type RelMask = u32;

/// One base relation occurrence inside a query block. The same catalog table
/// may occur multiple times under different aliases (e.g. `nation n1`,
/// `nation n2` in TPC-H Q7).
#[derive(Debug, Clone, PartialEq)]
pub struct BaseRel {
    /// The catalog table scanned by this relation.
    pub table: TableId,
    /// Alias, unique within the block.
    pub alias: String,
    /// Combined selectivity of the local filter predicates on this relation
    /// (1.0 = no filter).
    pub filter_selectivity: f64,
}

/// An equi-join edge between two base relations of a block.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// Relation index of the left side.
    pub left_rel: usize,
    /// Column ordinal (within the left relation's table) of the join key.
    pub left_col: u16,
    /// Relation index of the right side.
    pub right_rel: usize,
    /// Column ordinal of the right join key.
    pub right_col: u16,
    /// Join-predicate selectivity applied to the Cartesian product.
    pub selectivity: f64,
}

impl JoinEdge {
    /// Whether this edge connects `a`-side relations with `b`-side relations
    /// (in either direction).
    #[must_use]
    pub fn crosses(&self, a: RelMask, b: RelMask) -> bool {
        let (l, r) = (1u32 << self.left_rel, 1u32 << self.right_rel);
        (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0)
    }

    /// Whether both endpoints lie inside `mask`.
    #[must_use]
    pub fn within(&self, mask: RelMask) -> bool {
        let (l, r) = (1u32 << self.left_rel, 1u32 << self.right_rel);
        mask & l != 0 && mask & r != 0
    }
}

/// One query block: a set of base relations plus equi-join edges. This is
/// the unit the dynamic-programming optimizers work on.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGraph {
    /// Base relations, indexed by position.
    pub rels: Vec<BaseRel>,
    /// Equi-join edges.
    pub edges: Vec<JoinEdge>,
}

impl JoinGraph {
    /// Number of base relations (`n = |Q|`).
    #[must_use]
    pub fn n_rels(&self) -> usize {
        self.rels.len()
    }

    /// Bitmask with all relations set.
    #[must_use]
    pub fn full_mask(&self) -> RelMask {
        if self.rels.is_empty() {
            0
        } else {
            (1u32 << self.rels.len()) - 1
        }
    }

    /// Filtered row count of one base relation.
    #[must_use]
    pub fn filtered_rows(&self, rel_idx: usize, catalog: &Catalog) -> f64 {
        let rel = &self.rels[rel_idx];
        (catalog.table(rel.table).cardinality * rel.filter_selectivity).max(1.0)
    }

    /// Product of the selectivities of all edges crossing between the two
    /// disjoint relation sets (1.0 when no edge crosses, i.e. a Cartesian
    /// product).
    #[must_use]
    pub fn crossing_selectivity(&self, a: RelMask, b: RelMask) -> f64 {
        debug_assert_eq!(a & b, 0, "operand masks must be disjoint");
        self.edges
            .iter()
            .filter(|e| e.crosses(a, b))
            .map(|e| e.selectivity)
            .product()
    }

    /// Whether at least one join edge connects the two disjoint sets
    /// (used for the Postgres heuristic of avoiding Cartesian products).
    #[must_use]
    pub fn connects(&self, a: RelMask, b: RelMask) -> bool {
        self.edges.iter().any(|e| e.crosses(a, b))
    }

    /// Whether the relations in `mask` form a connected subgraph.
    #[must_use]
    pub fn is_connected(&self, mask: RelMask) -> bool {
        if mask == 0 {
            return false;
        }
        let first = mask.trailing_zeros();
        let mut reached: RelMask = 1 << first;
        loop {
            let mut grew = false;
            for e in &self.edges {
                let (l, r) = (1u32 << e.left_rel, 1u32 << e.right_rel);
                if mask & l != 0 && mask & r != 0 {
                    if reached & l != 0 && reached & r == 0 {
                        reached |= r;
                        grew = true;
                    } else if reached & r != 0 && reached & l == 0 {
                        reached |= l;
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        reached == mask
    }

    /// Whether the whole block is connected (no forced Cartesian products).
    #[must_use]
    pub fn fully_connected(&self) -> bool {
        self.is_connected(self.full_mask())
    }

    /// Edges whose endpoints both lie in `mask`.
    pub fn edges_within(&self, mask: RelMask) -> impl Iterator<Item = &JoinEdge> {
        self.edges.iter().filter(move |e| e.within(mask))
    }

    /// Validates internal consistency against a catalog (indices in range).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), String> {
        for (i, rel) in self.rels.iter().enumerate() {
            if rel.table.0 as usize >= catalog.len() {
                return Err(format!("relation {i} references unknown table"));
            }
            if !(0.0..=1.0).contains(&rel.filter_selectivity) {
                return Err(format!(
                    "relation {i} has filter selectivity {} outside [0,1]",
                    rel.filter_selectivity
                ));
            }
        }
        if self.rels.len() > 32 {
            return Err("blocks of more than 32 relations are unsupported".into());
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.left_rel >= self.rels.len() || e.right_rel >= self.rels.len() {
                return Err(format!("edge {i} references unknown relation"));
            }
            if e.left_rel == e.right_rel {
                return Err(format!("edge {i} is a self-join edge"));
            }
            let lt = catalog.table(self.rels[e.left_rel].table);
            let rt = catalog.table(self.rels[e.right_rel].table);
            if e.left_col as usize >= lt.columns.len() || e.right_col as usize >= rt.columns.len() {
                return Err(format!("edge {i} references unknown column"));
            }
            if !(0.0..=1.0).contains(&e.selectivity) {
                return Err(format!(
                    "edge {i} has selectivity {} outside [0,1]",
                    e.selectivity
                ));
            }
        }
        Ok(())
    }
}

/// Convenience builder resolving table/column names against a catalog.
#[derive(Debug)]
pub struct JoinGraphBuilder<'a> {
    catalog: &'a Catalog,
    graph: JoinGraph,
}

impl<'a> JoinGraphBuilder<'a> {
    /// Starts building a block against `catalog`.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        JoinGraphBuilder {
            catalog,
            graph: JoinGraph {
                rels: Vec::new(),
                edges: Vec::new(),
            },
        }
    }

    /// Adds a base relation by table name; the alias defaults to the table
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if the table is unknown.
    #[must_use]
    pub fn rel(self, table: &str, filter_selectivity: f64) -> Self {
        let alias = table.to_owned();
        self.rel_aliased(table, &alias, filter_selectivity)
    }

    /// Adds a base relation with an explicit alias.
    ///
    /// # Panics
    ///
    /// Panics if the table is unknown or the alias is duplicated.
    #[must_use]
    pub fn rel_aliased(mut self, table: &str, alias: &str, filter_selectivity: f64) -> Self {
        let table_id = self
            .catalog
            .table_by_name(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        assert!(
            !self.graph.rels.iter().any(|r| r.alias == alias),
            "duplicate alias {alias}"
        );
        self.graph.rels.push(BaseRel {
            table: table_id,
            alias: alias.to_owned(),
            filter_selectivity,
        });
        self
    }

    /// Adds an equi-join edge `left_alias.left_col = right_alias.right_col`
    /// with selectivity `1 / max(distinct_left, distinct_right)` (System-R).
    ///
    /// # Panics
    ///
    /// Panics if an alias or column name is unknown.
    #[must_use]
    pub fn join(self, left: (&str, &str), right: (&str, &str)) -> Self {
        let sel = {
            let (l_rel, l_col) = self.resolve(left.0, left.1);
            let (r_rel, r_col) = self.resolve(right.0, right.1);
            let ld = self.column_distinct(l_rel, l_col);
            let rd = self.column_distinct(r_rel, r_col);
            1.0 / ld.max(rd).max(1.0)
        };
        self.join_with_selectivity(left, right, sel)
    }

    /// Adds an equi-join edge with an explicit selectivity.
    ///
    /// # Panics
    ///
    /// Panics if an alias or column name is unknown.
    #[must_use]
    pub fn join_with_selectivity(
        mut self,
        left: (&str, &str),
        right: (&str, &str),
        selectivity: f64,
    ) -> Self {
        let (left_rel, left_col) = self.resolve(left.0, left.1);
        let (right_rel, right_col) = self.resolve(right.0, right.1);
        self.graph.edges.push(JoinEdge {
            left_rel,
            left_col,
            right_rel,
            right_col,
            selectivity,
        });
        self
    }

    /// Finishes the block, validating it against the catalog.
    ///
    /// # Panics
    ///
    /// Panics if validation fails (builder misuse is a programming error).
    #[must_use]
    pub fn build(self) -> JoinGraph {
        self.graph
            .validate(self.catalog)
            .expect("join graph must be valid");
        self.graph
    }

    fn resolve(&self, alias: &str, column: &str) -> (usize, u16) {
        let rel_idx = self
            .graph
            .rels
            .iter()
            .position(|r| r.alias == alias)
            .unwrap_or_else(|| panic!("unknown alias {alias}"));
        let table = self.catalog.table(self.graph.rels[rel_idx].table);
        let col = table
            .column_by_name(column)
            .unwrap_or_else(|| panic!("unknown column {alias}.{column}"));
        (rel_idx, col)
    }

    fn column_distinct(&self, rel_idx: usize, col: u16) -> f64 {
        self.catalog
            .table(self.graph.rels[rel_idx].table)
            .column(col)
            .distinct
    }
}

/// A named query consisting of one or more blocks that are optimized
/// separately (the Postgres subquery heuristic the paper keeps in place, §4).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Query name, e.g. `"Q3"`.
    pub name: String,
    /// Query blocks in optimization order; the first block is the outermost.
    pub blocks: Vec<JoinGraph>,
}

impl Query {
    /// A single-block query.
    #[must_use]
    pub fn single_block(name: impl Into<String>, block: JoinGraph) -> Self {
        Query {
            name: name.into(),
            blocks: vec![block],
        }
    }

    /// Maximal number of tables in any from-clause — the paper's x-axis
    /// ordering key for Figures 5, 9 and 10.
    #[must_use]
    pub fn max_block_size(&self) -> usize {
        self.blocks.iter().map(JoinGraph::n_rels).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnStats, TableStats};

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

    fn two_rel_graph() -> (Catalog, JoinGraph) {
        let cat = catalog();
        let g = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 0.5)
            .join(("a", "b_id"), ("b", "id"))
            .build();
        (cat, g)
    }

    #[test]
    fn builder_resolves_names() {
        let (_, g) = two_rel_graph();
        assert_eq!(g.n_rels(), 2);
        assert_eq!(g.edges.len(), 1);
        let e = &g.edges[0];
        assert_eq!((e.left_rel, e.right_rel), (0, 1));
        // System-R selectivity: 1 / max(100, 100).
        assert!((e.selectivity - 0.01).abs() < 1e-12);
    }

    #[test]
    fn filtered_rows_apply_selectivity() {
        let (cat, g) = two_rel_graph();
        assert_eq!(g.filtered_rows(0, &cat), 1000.0);
        assert_eq!(g.filtered_rows(1, &cat), 50.0);
    }

    #[test]
    fn connectivity_and_crossing() {
        let (_, g) = two_rel_graph();
        assert!(g.connects(0b01, 0b10));
        assert!(g.is_connected(0b11));
        assert!(g.is_connected(0b01));
        assert!(g.fully_connected());
        assert!((g.crossing_selectivity(0b01, 0b10) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_detected() {
        let cat = catalog();
        let g = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("c", 1.0)
            .build();
        assert!(!g.fully_connected());
        assert!(!g.connects(0b01, 0b10));
        assert_eq!(g.crossing_selectivity(0b01, 0b10), 1.0);
    }

    #[test]
    fn self_alias_duplicates_allowed_for_same_table() {
        let cat = catalog();
        let g = JoinGraphBuilder::new(&cat)
            .rel_aliased("b", "b1", 1.0)
            .rel_aliased("b", "b2", 1.0)
            .join(("b1", "id"), ("b2", "id"))
            .build();
        assert_eq!(g.n_rels(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate alias")]
    fn duplicate_alias_panics() {
        let cat = catalog();
        let _ = JoinGraphBuilder::new(&cat).rel("a", 1.0).rel("a", 1.0);
    }

    #[test]
    fn validation_catches_bad_selectivity() {
        let (cat, mut g) = two_rel_graph();
        g.edges[0].selectivity = 1.5;
        assert!(g.validate(&cat).is_err());
    }

    #[test]
    fn query_block_sizes() {
        let (_, g) = two_rel_graph();
        let q = Query {
            name: "test".into(),
            blocks: vec![g.clone(), g],
        };
        assert_eq!(q.max_block_size(), 2);
    }

    #[test]
    fn full_mask_matches_rel_count() {
        let (_, g) = two_rel_graph();
        assert_eq!(g.full_mask(), 0b11);
    }
}
