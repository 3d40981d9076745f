//! Step 3: feedthrough insertion and assignment.
//!
//! After coarse routing, "the feedthrough numbers needed at each grid
//! point are roughly determined, and those needed feedthroughs will be
//! added at each grid point. In the third step, for each row, TWGR
//! assigns each segment which crosses this row a feedthrough from those
//! available in this row." (§2)
//!
//! [`FtPlan`] turns the demand grid into concrete feedthrough cells:
//! `demand[r][g]` cells of width `ft_width` inserted at the left edge of
//! grid column `g` of row `r`, shifting every cell to the right of them —
//! this is what makes rows grow and why minimizing feedthroughs matters
//! for area. [`assign`] then matches each crossing to a feedthrough in
//! x-sorted order (counts match by construction, since the demand grid
//! was built from the same crossings).

use crate::cost;
use crate::route::state::{Grid, Node};
use pgr_circuit::NetId;
use pgr_mpi::wire::{Reader, Wire, WireError};
use pgr_mpi::Comm;

/// A request for one vertical crossing of `row` at (original) column `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    pub net: NetId,
    pub row: u32,
    pub x: i64,
}

impl Wire for Crossing {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.row.encode(out);
        self.x.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Crossing {
            net: NetId(u32::decode(r)?),
            row: u32::decode(r)?,
            x: i64::decode(r)?,
        })
    }
}

/// Concrete feedthrough insertion plan for rows `row0 ..`.
#[derive(Debug, Clone)]
pub struct FtPlan {
    grid_w: i64,
    ft_width: i64,
    row0: u32,
    /// `demand[r][g]`: feedthroughs at the left edge of grid column `g`
    /// of row `row0 + r`.
    demand: Grid,
    /// Inclusive prefix sums of `demand` per row.
    cum: Grid,
}

impl FtPlan {
    /// Build the plan from the coarse router's final demand grid.
    pub fn new(row0: u32, demand: Grid, grid_w: i64, ft_width: i64) -> Self {
        assert!(grid_w > 0 && ft_width > 0);
        debug_assert!(
            demand.cells().iter().all(|&d| d >= 0),
            "demand must be non-negative"
        );
        let mut cum = demand.clone();
        for r in 0..cum.shape().0 {
            let mut acc = 0;
            for c in &mut cum[r] {
                acc += *c;
                *c = acc;
            }
        }
        FtPlan {
            grid_w,
            ft_width,
            row0,
            demand,
            cum,
        }
    }

    pub fn row0(&self) -> u32 {
        self.row0
    }

    pub fn num_rows(&self) -> usize {
        self.demand.shape().0
    }

    fn gcol(&self, x: i64) -> usize {
        let g = (x / self.grid_w).max(0) as usize;
        g.min(self.demand.shape().1 - 1)
    }

    fn row_idx(&self, row: u32) -> usize {
        let i = row.checked_sub(self.row0).expect("row below plan range") as usize;
        assert!(i < self.num_rows(), "row {row} above plan range");
        i
    }

    /// Total feedthroughs inserted in `row`.
    pub fn row_count(&self, row: u32) -> i64 {
        *self.cum[self.row_idx(row)].last().unwrap_or(&0)
    }

    /// Width growth of `row` in columns.
    pub fn row_growth(&self, row: u32) -> i64 {
        self.row_count(row) * self.ft_width
    }

    /// Largest row growth across the plan (drives chip width).
    pub fn max_growth(&self) -> i64 {
        (0..self.num_rows())
            .map(|i| self.row_growth(self.row0 + i as u32))
            .max()
            .unwrap_or(0)
    }

    /// Total feedthroughs inserted.
    pub fn total(&self) -> u64 {
        (0..self.num_rows())
            .map(|r| *self.cum[r].last().unwrap_or(&0) as u64)
            .sum()
    }

    /// New column of something originally at column `x` in `row`: shifted
    /// right by every feedthrough inserted at or left of its grid column.
    pub fn shifted_x(&self, row: u32, x: i64) -> i64 {
        x + self.cum[self.row_idx(row)][self.gcol(x)] * self.ft_width
    }

    /// Post-insertion column of the `i`-th feedthrough at `(row, gcol)`.
    pub fn ft_x(&self, row: u32, gcol: usize, i: i64) -> i64 {
        let r = self.row_idx(row);
        let before = self.cum[r][gcol] - self.demand[r][gcol];
        gcol as i64 * self.grid_w + (before + i) * self.ft_width
    }
}

/// Step 3 proper: match every crossing of a row to a feedthrough of that
/// row. Requests are matched left-to-right within each grid column, which
/// is the order-optimal non-crossing matching.
///
/// Returns one feedthrough [`Node`] per crossing, tagged with its net.
///
/// # Panics
/// Panics if the crossings are inconsistent with the plan's demand (a
/// router bug — demand was derived from the same crossings).
pub fn assign(plan: &FtPlan, crossings: &[Crossing], comm: &mut Comm) -> Vec<(NetId, Node)> {
    comm.compute(cost::FT_ASSIGN * crossings.len() as u64);
    // Sort requests by (row, gcol, x, net) — deterministic.
    let mut sorted: Vec<&Crossing> = crossings.iter().collect();
    sorted.sort_unstable_by_key(|c| (c.row, plan.gcol(c.x), c.x, c.net.0));

    let mut out = Vec::with_capacity(sorted.len());
    let mut i = 0;
    while i < sorted.len() {
        let row = sorted[i].row;
        let gcol = plan.gcol(sorted[i].x);
        // Consume the run of crossings in this (row, gcol) bucket.
        let mut j = i;
        while j < sorted.len() && sorted[j].row == row && plan.gcol(sorted[j].x) == gcol {
            j += 1;
        }
        let count = (j - i) as i64;
        let avail = plan.demand[plan.row_idx(row)][gcol];
        assert_eq!(
            count, avail,
            "crossings at (row {row}, gcol {gcol}) must equal planned demand"
        );
        for (k, c) in sorted[i..j].iter().enumerate() {
            out.push((
                c.net,
                Node::feedthrough(plan.ft_x(row, gcol, k as i64), row),
            ));
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    fn plan(demand: &[&[i64]]) -> FtPlan {
        FtPlan::new(0, Grid::from_rows(demand), 8, 2)
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = plan(&[&[0, 0, 0], &[0, 0, 0]]);
        assert_eq!(p.total(), 0);
        assert_eq!(p.max_growth(), 0);
        assert_eq!(p.shifted_x(1, 17), 17);
        assert!(assign(&p, &[], &mut comm()).is_empty());
    }

    #[test]
    fn shifts_accumulate_left_to_right() {
        // Row 0: 2 fts at gcol 0, 1 ft at gcol 2. ft_width = 2.
        let p = plan(&[&[2, 0, 1, 0]]);
        assert_eq!(p.row_count(0), 3);
        assert_eq!(p.row_growth(0), 6);
        // x = 4 (gcol 0): shifted by the 2 fts at gcol 0 → +4.
        assert_eq!(p.shifted_x(0, 4), 8);
        // x = 12 (gcol 1): still +4.
        assert_eq!(p.shifted_x(0, 12), 16);
        // x = 20 (gcol 2): +6.
        assert_eq!(p.shifted_x(0, 20), 26);
    }

    #[test]
    fn ft_positions_interleave_with_shifts() {
        let p = plan(&[&[2, 0, 1, 0]]);
        // gcol 0 fts at columns 0 and 2 (nothing shifted before them).
        assert_eq!(p.ft_x(0, 0, 0), 0);
        assert_eq!(p.ft_x(0, 0, 1), 2);
        // gcol 2 ft: base 16, plus the 2 earlier fts × width 2 → 20.
        assert_eq!(p.ft_x(0, 2, 0), 20);
    }

    #[test]
    fn assignment_matches_sorted_order() {
        let p = plan(&[&[0, 2, 0, 0]]);
        let crossings = vec![
            Crossing {
                net: NetId(5),
                row: 0,
                x: 14,
            },
            Crossing {
                net: NetId(3),
                row: 0,
                x: 9,
            },
        ];
        let out = assign(&p, &crossings, &mut comm());
        assert_eq!(out.len(), 2);
        // Net 3 (x=9) comes first within the gcol; gets the left ft.
        assert_eq!(out[0].0, NetId(3));
        assert_eq!(out[1].0, NetId(5));
        assert!(out[0].1.x < out[1].1.x);
        assert_eq!(out[0].1.row, 0);
        assert!(out[0].1.switchable(), "feedthroughs reach both channels");
    }

    #[test]
    #[should_panic(expected = "must equal planned demand")]
    fn mismatched_crossings_panic() {
        let p = plan(&[&[1, 0, 0, 0]]);
        let crossings = vec![
            Crossing {
                net: NetId(0),
                row: 0,
                x: 0,
            },
            Crossing {
                net: NetId(1),
                row: 0,
                x: 1,
            },
        ];
        assign(&p, &crossings, &mut comm());
    }

    #[test]
    fn multi_row_plans_are_independent() {
        let p = FtPlan::new(3, Grid::from_rows(&[&[1, 0], &[0, 2]]), 8, 2);
        assert_eq!(p.row_count(3), 1);
        assert_eq!(p.row_count(4), 2);
        assert_eq!(p.max_growth(), 4);
        assert_eq!(p.total(), 3);
        // Row 4 gcol 1 first ft: base 8 + 0 earlier fts.
        assert_eq!(p.ft_x(4, 1, 0), 8);
        assert_eq!(p.ft_x(4, 1, 1), 10);
        assert_eq!(p.shifted_x(3, 20), 22);
    }

    #[test]
    fn out_of_range_x_clamps_to_last_gcol() {
        let p = plan(&[&[0, 0, 0, 1]]);
        // Column beyond the grid is treated as the last gcol.
        assert_eq!(p.shifted_x(0, 10_000), 10_002);
    }

    #[test]
    fn crossing_wire_roundtrip() {
        let c = Crossing {
            net: NetId(7),
            row: 3,
            x: -4,
        };
        assert_eq!(Crossing::from_bytes(&c.to_bytes()).unwrap(), c);
    }
}
