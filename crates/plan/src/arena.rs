//! Arena storage for plans with O(1) space per plan (Theorem 1's accounting).

use crate::operator::{JoinOp, ScanOp};

/// Index of a plan inside a [`PlanArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub u32);

/// One plan node: either a scan of a base relation or a join of two
/// previously stored plans. Matches the paper's O(1)-per-plan representation
/// (operator ID + table ID, or operator ID + two sub-plan pointers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanNode {
    /// Scan of base relation `rel` (index within the query block).
    Scan {
        /// Relation index within the query block.
        rel: usize,
        /// The scan operator configuration.
        op: ScanOp,
    },
    /// Join of two stored sub-plans.
    Join {
        /// The join operator configuration.
        op: JoinOp,
        /// Outer (left) input plan.
        left: PlanId,
        /// Inner (right) input plan.
        right: PlanId,
    },
}

/// Append-only arena of plan nodes. Plans reference sub-plans by id, so the
/// dynamic-programming tables can share sub-plans freely; discarding a
/// pruned plan costs nothing (its node simply becomes garbage until the
/// arena is dropped), which mirrors how the paper accounts space by the
/// number of *stored* plans.
#[derive(Debug, Default, Clone)]
pub struct PlanArena {
    nodes: Vec<PlanNode>,
}

impl PlanArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// Stores a scan node.
    pub fn scan(&mut self, rel: usize, op: ScanOp) -> PlanId {
        self.push(PlanNode::Scan { rel, op })
    }

    /// Stores a join node over two existing plans.
    ///
    /// # Panics
    ///
    /// Debug-asserts both children exist.
    pub fn join(&mut self, op: JoinOp, left: PlanId, right: PlanId) -> PlanId {
        debug_assert!((left.0 as usize) < self.nodes.len());
        debug_assert!((right.0 as usize) < self.nodes.len());
        self.push(PlanNode::Join { op, left, right })
    }

    fn push(&mut self, node: PlanNode) -> PlanId {
        let id = PlanId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The node for a plan id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this arena.
    #[must_use]
    pub fn node(&self, id: PlanId) -> PlanNode {
        self.nodes[id.0 as usize]
    }

    /// Number of nodes ever stored (including pruned garbage).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes of memory one stored plan node accounts for — used by the
    /// deterministic memory metric (`moqo_core`'s
    /// `DpStats::bytes_per_stored_plan`, which this crate cannot link).
    #[must_use]
    pub fn bytes_per_node() -> usize {
        std::mem::size_of::<PlanNode>()
    }

    /// Walks the plan tree bottom-up, invoking `visit` on every node
    /// (children before parents).
    pub fn visit_postorder(&self, root: PlanId, visit: &mut impl FnMut(PlanId, PlanNode)) {
        match self.node(root) {
            node @ PlanNode::Scan { .. } => visit(root, node),
            node @ PlanNode::Join { left, right, .. } => {
                self.visit_postorder(left, visit);
                self.visit_postorder(right, visit);
                visit(root, node);
            }
        }
    }

    /// Number of scan leaves in the plan tree rooted at `root`.
    #[must_use]
    pub fn leaf_count(&self, root: PlanId) -> usize {
        let mut leaves = 0;
        self.visit_postorder(root, &mut |_, node| {
            if matches!(node, PlanNode::Scan { .. }) {
                leaves += 1;
            }
        });
        leaves
    }

    /// Collects the scan operators used in the plan, in leaf order.
    #[must_use]
    pub fn scan_ops(&self, root: PlanId) -> Vec<(usize, ScanOp)> {
        let mut scans = Vec::new();
        self.visit_postorder(root, &mut |_, node| {
            if let PlanNode::Scan { rel, op } = node {
                scans.push((rel, op));
            }
        });
        scans
    }

    /// Collects the join operators used in the plan, bottom-up.
    #[must_use]
    pub fn join_ops(&self, root: PlanId) -> Vec<JoinOp> {
        let mut joins = Vec::new();
        self.visit_postorder(root, &mut |_, node| {
            if let PlanNode::Join { op, .. } = node {
                joins.push(op);
            }
        });
        joins
    }

    /// Whether any scan in the plan samples.
    #[must_use]
    pub fn uses_sampling(&self, root: PlanId) -> bool {
        self.scan_ops(root).iter().any(|(_, op)| op.is_sampling())
    }

    /// Copies the plan tree rooted at `root` from `src` into this arena,
    /// children before parents (so adopted ids are valid the moment they are
    /// created), and returns the new root id. The plan cache copies fronts
    /// in and out of its entries this way, and the randomized search merges
    /// its walkers' fronts: only the surviving plans leave a walker's arena.
    ///
    /// # Panics
    ///
    /// Panics if `root` does not belong to `src`.
    pub fn adopt(&mut self, src: &PlanArena, root: PlanId) -> PlanId {
        match src.node(root) {
            PlanNode::Scan { rel, op } => self.scan(rel, op),
            PlanNode::Join { op, left, right } => {
                let l = self.adopt(src, left);
                let r = self.adopt(src, right);
                self.join(op, l, r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> (PlanArena, PlanId) {
        let mut arena = PlanArena::new();
        let a = arena.scan(0, ScanOp::SeqScan);
        let b = arena.scan(1, ScanOp::SamplingScan { rate_pct: 2 });
        let ab = arena.join(JoinOp::HashJoin { dop: 2 }, a, b);
        let c = arena.scan(2, ScanOp::IndexScan { column: 0 });
        let root = arena.join(JoinOp::SortMergeJoin { dop: 1 }, ab, c);
        (arena, root)
    }

    #[test]
    fn arena_assigns_sequential_ids() {
        let (arena, root) = small_tree();
        assert_eq!(arena.len(), 5);
        assert_eq!(root, PlanId(4));
    }

    #[test]
    fn postorder_visits_children_first() {
        let (arena, root) = small_tree();
        let mut order = Vec::new();
        arena.visit_postorder(root, &mut |id, _| order.push(id.0));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn leaf_and_join_inventories() {
        let (arena, root) = small_tree();
        assert_eq!(arena.leaf_count(root), 3);
        assert_eq!(arena.scan_ops(root).len(), 3);
        let joins = arena.join_ops(root);
        assert_eq!(joins.len(), 2);
        assert_eq!(joins[0], JoinOp::HashJoin { dop: 2 });
        assert_eq!(joins[1], JoinOp::SortMergeJoin { dop: 1 });
    }

    #[test]
    fn sampling_detection() {
        let (arena, root) = small_tree();
        assert!(arena.uses_sampling(root));
        let mut clean = PlanArena::new();
        let s = clean.scan(0, ScanOp::SeqScan);
        assert!(!clean.uses_sampling(s));
    }

    #[test]
    fn adopt_copies_across_arenas() {
        let (src, root) = small_tree();
        let mut dst = PlanArena::new();
        // Pre-existing nodes must not confuse the id mapping.
        dst.scan(7, ScanOp::SeqScan);
        let adopted = dst.adopt(&src, root);
        assert_eq!(adopted, PlanId(5));
        assert_eq!(dst.len(), 1 + src.len());
        // Node for node, with every child id shifted past the old node.
        for id in 0..src.len() as u32 {
            let shifted = |PlanId(c)| PlanId(c + 1);
            let expected = match src.node(PlanId(id)) {
                PlanNode::Join { op, left, right } => PlanNode::Join {
                    op,
                    left: shifted(left),
                    right: shifted(right),
                },
                scan => scan,
            };
            assert_eq!(dst.node(PlanId(id + 1)), expected);
        }
        // Adopting a leaf works too.
        let leaf = dst.adopt(&src, PlanId(0));
        assert!(matches!(dst.node(leaf), PlanNode::Scan { rel: 0, .. }));
    }

    #[test]
    fn node_is_compact() {
        // The O(1)-space argument of Theorem 1: a node must stay small.
        assert!(PlanArena::bytes_per_node() <= 24);
    }
}
