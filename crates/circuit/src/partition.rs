//! Contiguous row partitions.
//!
//! The parallel algorithms partition the circuit's rows among processors
//! *contiguously* — "since there are computation localities among rows in
//! TWGR, the rows are partitioned contiguously" (§3). A processor that owns
//! a row owns all its cells, and (in the row-wise and hybrid algorithms)
//! all pins on those cells.
//!
//! Balance is by cell count, which tracks the per-row work of feedthrough
//! assignment and switchable-segment optimization better than raw row
//! count when row sizes vary.

use crate::ids::RowId;
use crate::model::Circuit;

/// A partition of rows `0..num_rows` into `parts` contiguous blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// `bounds[p]..bounds[p + 1]` is the row range of part `p`.
    bounds: Vec<usize>,
}

impl RowPartition {
    /// Split `circuit`'s rows into `parts` contiguous blocks with balanced
    /// cell counts (greedy sweep against the ideal cumulative share).
    ///
    /// Every part is non-empty provided `parts <= num_rows`.
    pub fn balanced(circuit: &Circuit, parts: usize) -> Self {
        assert!(parts > 0, "need at least one part");
        let rows = circuit.num_rows();
        assert!(
            parts <= rows,
            "cannot split {rows} rows into {parts} non-empty contiguous parts"
        );
        let cells_per_row: Vec<usize> = circuit.rows().map(|r| r.cells.len()).collect();
        Self::from_weights(&cells_per_row, parts)
    }

    /// Balanced split by explicit per-row weights.
    pub fn from_weights(weights: &[usize], parts: usize) -> Self {
        assert!(parts > 0 && parts <= weights.len());
        let total: usize = weights.iter().sum();
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0);
        let mut acc = 0usize;
        let mut row = 0usize;
        for p in 1..parts {
            // Ideal cumulative weight after part p.
            let target = total * p / parts;
            // Advance until we pass the target, but always leave enough rows
            // for the remaining parts to be non-empty.
            let max_row = weights.len() - (parts - p);
            while row < max_row && (acc < target || row < bounds[p - 1] + 1) {
                acc += weights[row];
                row += 1;
                if acc >= target && row > bounds[p - 1] {
                    break;
                }
            }
            if row <= bounds[p - 1] {
                row = bounds[p - 1] + 1;
                acc += weights[row - 1];
            }
            bounds.push(row);
        }
        bounds.push(weights.len());
        RowPartition { bounds }
    }

    /// Equal-row-count split (used by tests to probe imbalance effects).
    pub fn uniform(num_rows: usize, parts: usize) -> Self {
        assert!(parts > 0 && parts <= num_rows);
        let bounds = (0..=parts).map(|p| num_rows * p / parts).collect();
        RowPartition { bounds }
    }

    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range `[start, end)` owned by `part`.
    pub fn range(&self, part: usize) -> std::ops::Range<usize> {
        self.bounds[part]..self.bounds[part + 1]
    }

    /// First row of `part`.
    pub fn start(&self, part: usize) -> usize {
        self.bounds[part]
    }

    /// One-past-last row of `part`.
    pub fn end(&self, part: usize) -> usize {
        self.bounds[part + 1]
    }

    /// Which part owns `row`.
    pub fn owner(&self, row: RowId) -> usize {
        let r = row.index();
        debug_assert!(r < *self.bounds.last().expect("nonempty bounds"));
        // bounds is sorted; partition_point gives the first bound > r.
        self.bounds.partition_point(|&b| b <= r) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};

    #[test]
    fn uniform_covers_all_rows() {
        let p = RowPartition::uniform(10, 3);
        assert_eq!(p.parts(), 3);
        assert_eq!(p.range(0), 0..3);
        assert_eq!(p.range(1), 3..6);
        assert_eq!(p.range(2), 6..10);
        for r in 0..10 {
            let owner = p.owner(RowId(r));
            assert!(p.range(owner).contains(&(r as usize)));
        }
    }

    #[test]
    fn single_part_owns_everything() {
        let p = RowPartition::uniform(5, 1);
        assert_eq!(p.range(0), 0..5);
        assert_eq!(p.owner(RowId(4)), 0);
    }

    #[test]
    fn parts_equal_rows_gives_singletons() {
        let p = RowPartition::uniform(4, 4);
        for i in 0..4 {
            assert_eq!(p.range(i), i..i + 1);
        }
    }

    #[test]
    fn balanced_split_tracks_weights() {
        // Heavy rows at the front: part 0 should get fewer rows.
        let w = vec![100, 100, 1, 1, 1, 1, 1, 1];
        let p = RowPartition::from_weights(&w, 2);
        assert!(
            p.end(0) <= 3,
            "heavy prefix confines part 0, got {:?}",
            p.range(0)
        );
        // All parts non-empty, contiguous, covering.
        assert_eq!(p.start(0), 0);
        assert_eq!(p.end(1), 8);
        assert!(p.end(0) > 0 && p.end(0) < 8);
    }

    #[test]
    fn balanced_on_circuit_is_nonempty_and_covering() {
        let c = generate(&GeneratorConfig::small("t", 2));
        for parts in 1..=c.num_rows().min(8) {
            let p = RowPartition::balanced(&c, parts);
            assert_eq!(p.parts(), parts);
            assert_eq!(p.start(0), 0);
            assert_eq!(p.end(parts - 1), c.num_rows());
            for i in 0..parts {
                assert!(!p.range(i).is_empty(), "part {i} empty for {parts} parts");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty contiguous")]
    fn too_many_parts_panics() {
        let c = generate(&GeneratorConfig::small("t", 2));
        RowPartition::balanced(&c, c.num_rows() + 1);
    }
}
