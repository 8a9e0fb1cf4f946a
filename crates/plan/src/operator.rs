//! Scan and join operators of the extended plan space (paper §4).

use std::fmt;

/// Maximal degree of parallelism per operator ("up to 4 cores can be used
/// per operation", paper §4).
pub const MAX_DOP: u8 = 4;

/// The sampling rates (percent of a base table) offered by the parameterized
/// sampling scan ("scans between 1% and 5% of a base table", paper §4).
pub const SAMPLING_RATES_PCT: [u8; 5] = [1, 2, 3, 4, 5];

/// A scan operator applied to one base relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanOp {
    /// Full sequential scan.
    SeqScan,
    /// Full index scan over the index on the given column ordinal; output is
    /// sorted on that column.
    IndexScan {
        /// Column ordinal (within the scanned table) whose index is used.
        column: u16,
    },
    /// Bernoulli sampling scan reading `rate_pct` percent of the table;
    /// introduces a tuple loss of `1 − rate_pct/100`.
    SamplingScan {
        /// Sampling rate in percent, one of [`SAMPLING_RATES_PCT`].
        rate_pct: u8,
    },
}

impl ScanOp {
    /// Fraction of tuples retained by this scan (1.0 for full scans).
    #[must_use]
    pub fn sampling_fraction(self) -> f64 {
        match self {
            ScanOp::SeqScan | ScanOp::IndexScan { .. } => 1.0,
            ScanOp::SamplingScan { rate_pct } => f64::from(rate_pct) / 100.0,
        }
    }

    /// Whether this scan samples (loses tuples).
    #[must_use]
    pub fn is_sampling(self) -> bool {
        matches!(self, ScanOp::SamplingScan { .. })
    }

    /// Short operator name as used in plan rendering (Figure 3 style).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScanOp::SeqScan => "SeqScan",
            ScanOp::IndexScan { .. } => "IdxScan",
            ScanOp::SamplingScan { .. } => "SampleScan",
        }
    }
}

impl fmt::Display for ScanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanOp::SeqScan => write!(f, "SeqScan"),
            ScanOp::IndexScan { column } => write!(f, "IdxScan(col{column})"),
            ScanOp::SamplingScan { rate_pct } => write!(f, "SampleScan({rate_pct}%)"),
        }
    }
}

/// A join operator combining two sub-plans. The left input is the outer
/// (probe/driving) side, the right input the inner (build/lookup) side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinOp {
    /// Hash join: builds a hash table on the inner side, probes with the
    /// outer side. Parameterized by degree of parallelism.
    HashJoin {
        /// Degree of parallelism, `1..=MAX_DOP`.
        dop: u8,
    },
    /// Sort-merge join: sorts both inputs on the join key (skipping inputs
    /// already sorted appropriately) and merges. Parameterized by degree of
    /// parallelism used for the sorts.
    SortMergeJoin {
        /// Degree of parallelism, `1..=MAX_DOP`.
        dop: u8,
    },
    /// Index-nested-loop join: for each outer tuple, probes an index on the
    /// inner side. The inner side must be a single base relation with an
    /// index on the join column.
    IndexNestedLoop,
    /// Plain (tuple-at-a-time) nested-loop join; the only operator
    /// applicable to joins without equi-predicates (Cartesian products).
    NestedLoop,
}

impl JoinOp {
    /// Degree of parallelism of this operator (1 for serial operators).
    #[must_use]
    pub fn dop(self) -> u8 {
        match self {
            JoinOp::HashJoin { dop } | JoinOp::SortMergeJoin { dop } => dop,
            JoinOp::IndexNestedLoop | JoinOp::NestedLoop => 1,
        }
    }

    /// Short operator name as used in plan rendering (Figure 3 style).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JoinOp::HashJoin { .. } => "HashJ",
            JoinOp::SortMergeJoin { .. } => "SMJ",
            JoinOp::IndexNestedLoop => "IdxNL",
            JoinOp::NestedLoop => "NL",
        }
    }

    /// Every join operator configuration of the extended plan space, in
    /// enumeration order: hash and sort-merge joins with DOP 1–4, then
    /// index-nested-loop and nested-loop joins.
    pub const ALL: [JoinOp; 2 * MAX_DOP as usize + 2] = [
        JoinOp::HashJoin { dop: 1 },
        JoinOp::HashJoin { dop: 2 },
        JoinOp::HashJoin { dop: 3 },
        JoinOp::HashJoin { dop: 4 },
        JoinOp::SortMergeJoin { dop: 1 },
        JoinOp::SortMergeJoin { dop: 2 },
        JoinOp::SortMergeJoin { dop: 3 },
        JoinOp::SortMergeJoin { dop: 4 },
        JoinOp::IndexNestedLoop,
        JoinOp::NestedLoop,
    ];
}

impl fmt::Display for JoinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinOp::HashJoin { dop } => write!(f, "HashJ(dop={dop})"),
            JoinOp::SortMergeJoin { dop } => write!(f, "SMJ(dop={dop})"),
            JoinOp::IndexNestedLoop => write!(f, "IdxNL"),
            JoinOp::NestedLoop => write!(f, "NL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_fractions() {
        assert_eq!(ScanOp::SeqScan.sampling_fraction(), 1.0);
        assert_eq!(ScanOp::IndexScan { column: 0 }.sampling_fraction(), 1.0);
        assert_eq!(
            ScanOp::SamplingScan { rate_pct: 5 }.sampling_fraction(),
            0.05
        );
        assert!(ScanOp::SamplingScan { rate_pct: 1 }.is_sampling());
        assert!(!ScanOp::SeqScan.is_sampling());
    }

    #[test]
    fn join_configuration_count_matches_paper_plan_space() {
        // "over 10 different configurations are considered for the scan and
        // for the join operator respectively" (§5.1): 4 + 4 + 1 + 1 = 10.
        assert_eq!(JoinOp::ALL.len(), 10);
        // Hash joins first, then sort-merge joins, each by ascending DOP.
        for (i, dop) in (1..=MAX_DOP).enumerate() {
            assert_eq!(JoinOp::ALL[i], JoinOp::HashJoin { dop });
            assert_eq!(
                JoinOp::ALL[MAX_DOP as usize + i],
                JoinOp::SortMergeJoin { dop }
            );
        }
    }

    #[test]
    fn dop_bounds() {
        for op in JoinOp::ALL {
            assert!(op.dop() >= 1 && op.dop() <= MAX_DOP);
        }
        assert_eq!(JoinOp::IndexNestedLoop.dop(), 1);
    }

    #[test]
    fn display_matches_figure3_names() {
        assert_eq!(JoinOp::HashJoin { dop: 1 }.name(), "HashJ");
        assert_eq!(JoinOp::SortMergeJoin { dop: 2 }.name(), "SMJ");
        assert_eq!(JoinOp::IndexNestedLoop.name(), "IdxNL");
        assert_eq!(
            ScanOp::SamplingScan { rate_pct: 3 }.to_string(),
            "SampleScan(3%)"
        );
    }
}
