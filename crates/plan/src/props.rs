//! Physical plan properties tracked alongside cost vectors.

use moqo_catalog::RelMask;

/// Coarse output ordering of a plan — the slice of Postgres path keys the
/// extended plan space needs: either unordered, or sorted on a single join
/// column identified by `(relation index, column ordinal)` within the query
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SortOrder {
    /// No useful ordering.
    None,
    /// Sorted on a base-relation column.
    Col {
        /// Relation index within the query block.
        rel: usize,
        /// Column ordinal within that relation's table.
        col: u16,
    },
}

impl SortOrder {
    /// Convenience constructor for a column ordering.
    #[must_use]
    pub fn on(rel: usize, col: u16) -> Self {
        SortOrder::Col { rel, col }
    }
}

/// Physical properties of a plan, used by the cost model to derive parent
/// costs and by the dynamic programming to group comparable plans.
///
/// `rows` already includes the sampling factor; `sampling_factor` is the
/// product of the sampling fractions of all sampling scans in the plan, so
/// `rows = rows_without_sampling × sampling_factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanProps {
    /// Relations covered by the plan (bitmask within the query block).
    pub rels: RelMask,
    /// Estimated output row count (≥ a small positive value).
    pub rows: f64,
    /// Output tuple width in bytes.
    pub width: f64,
    /// Output sort order.
    pub order: SortOrder,
    /// Product of sampling fractions over all scans in the plan (1.0 = no
    /// sampling anywhere).
    pub sampling_factor: f64,
}

impl PlanProps {
    /// Output size in bytes.
    #[must_use]
    pub fn bytes(&self) -> f64 {
        self.rows * self.width
    }

    /// Output size in pages of `page_bytes` bytes each (at least one page).
    #[must_use]
    pub fn pages(&self, page_bytes: f64) -> f64 {
        (self.bytes() / page_bytes).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_order_equality_and_sortedness() {
        assert_eq!(SortOrder::on(1, 2), SortOrder::Col { rel: 1, col: 2 });
        assert_ne!(SortOrder::on(1, 2), SortOrder::on(1, 3));
        assert_ne!(SortOrder::on(0, 0), SortOrder::None);
    }

    #[test]
    fn bytes_and_pages() {
        let p = PlanProps {
            rels: 0b1,
            rows: 1000.0,
            width: 100.0,
            order: SortOrder::None,
            sampling_factor: 1.0,
        };
        assert_eq!(p.bytes(), 100_000.0);
        assert!((p.pages(8192.0) - 100_000.0 / 8192.0).abs() < 1e-9);
        // Tiny outputs still occupy one page.
        let tiny = PlanProps {
            rows: 1.0,
            width: 8.0,
            ..p
        };
        assert_eq!(tiny.pages(8192.0), 1.0);
    }
}
