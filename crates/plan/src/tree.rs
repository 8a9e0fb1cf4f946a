//! Owned join trees: the format warm starts are passed in.
//!
//! The [`crate::PlanArena`] shares sub-plans by id, which suits dynamic
//! programming and the plan cache, but ties a plan to its arena. A
//! [`JoinTree`] owns its subtrees, so a front can leave its arena: the
//! plan cache and the optimizer facade extract stored plans
//! ([`PlanArena::extract_tree`]) and hand them to the randomized search as
//! warm starts. The search costs them into trees of its own, which carry
//! its local transformations (`moqo_core::rmq`).

use crate::arena::{PlanArena, PlanId, PlanNode};
use crate::operator::{JoinOp, ScanOp};

/// An owned binary join tree: scans at the leaves, joins at internal nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinTree {
    /// Scan of base relation `rel` with operator `op`.
    Scan {
        /// Relation index within the query block.
        rel: usize,
        /// The scan operator configuration.
        op: ScanOp,
    },
    /// Join of two subtrees; `left` is the outer input.
    Join {
        /// The join operator configuration.
        op: JoinOp,
        /// Outer (left) input.
        left: Box<JoinTree>,
        /// Inner (right) input.
        right: Box<JoinTree>,
    },
}

impl JoinTree {
    /// A scan leaf.
    #[must_use]
    pub fn scan(rel: usize, op: ScanOp) -> Self {
        JoinTree::Scan { rel, op }
    }

    /// A join node over two subtrees.
    #[must_use]
    pub fn join(op: JoinOp, left: JoinTree, right: JoinTree) -> Self {
        JoinTree::Join {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

impl PlanArena {
    /// Extracts the plan rooted at `root` into an owned [`JoinTree`].
    ///
    /// # Panics
    ///
    /// Panics if `root` does not belong to this arena.
    #[must_use]
    pub fn extract_tree(&self, root: PlanId) -> JoinTree {
        match self.node(root) {
            PlanNode::Scan { rel, op } => JoinTree::Scan { rel, op },
            PlanNode::Join { op, left, right } => JoinTree::Join {
                op,
                left: Box::new(self.extract_tree(left)),
                right: Box::new(self.extract_tree(right)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> JoinTree {
        // ((0 ⋈ 1) ⋈ 2)
        JoinTree::join(
            JoinOp::HashJoin { dop: 1 },
            JoinTree::join(
                JoinOp::SortMergeJoin { dop: 2 },
                JoinTree::scan(0, ScanOp::SeqScan),
                JoinTree::scan(1, ScanOp::SeqScan),
            ),
            JoinTree::scan(2, ScanOp::IndexScan { column: 0 }),
        )
    }

    #[test]
    fn roundtrip_through_arena() {
        let mut arena = PlanArena::new();
        let a = arena.scan(0, ScanOp::SeqScan);
        let b = arena.scan(1, ScanOp::SeqScan);
        let ab = arena.join(JoinOp::SortMergeJoin { dop: 2 }, a, b);
        let c = arena.scan(2, ScanOp::IndexScan { column: 0 });
        let id = arena.join(JoinOp::HashJoin { dop: 1 }, ab, c);
        assert_eq!(arena.extract_tree(id), chain3());
        assert_eq!(arena.leaf_count(id), 3);
    }
}
