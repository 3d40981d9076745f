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
use crate::route::state::{wire_column, Grid, Node};
use pgr_circuit::NetId;
use pgr_mpi::wire::{Reader, Wire, WireError};
use pgr_mpi::Comm;
use std::ops::Range;

/// A request for one vertical crossing of `row` at (original) column `x`:
/// 12 bytes, the column 32-bit as a [`Node`]'s is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    pub net: NetId,
    pub row: u32,
    pub x: i32,
}

/// In the bytes of the 64-bit column the crossing had: `x` as an `i64`.
impl Wire for Crossing {
    const SIZE: Option<usize> = Some(16);
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.row.encode(out);
        i64::from(self.x).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (net, row) = (NetId(u32::decode(r)?), u32::decode(r)?);
        let x = wire_column(i64::decode(r)?)?;
        Ok(Crossing { net, row, x })
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
        for r in 0..cum.rows() {
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
        self.demand.rows()
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

/// The rows of a plan one caller assigns: all of them (`&plan` converts),
/// or a net-wise rank's own band of a replicated plan ([`FtPlan::rows`]).
#[derive(Debug)]
pub struct PlanRows<'a> {
    plan: &'a FtPlan,
    /// Plan row indices.
    rows: Range<usize>,
}

impl<'a> From<&'a FtPlan> for PlanRows<'a> {
    fn from(plan: &'a FtPlan) -> Self {
        PlanRows {
            plan,
            rows: 0..plan.num_rows(),
        }
    }
}

impl FtPlan {
    /// The `nrows` rows from `row0`, as the caller that assigns only those.
    pub fn rows(&self, (row0, nrows): (u32, usize)) -> PlanRows<'_> {
        let start = row0.checked_sub(self.row0).expect("row below plan range") as usize;
        assert!(start + nrows <= self.num_rows(), "rows above plan range");
        PlanRows {
            plan: self,
            rows: start..start + nrows,
        }
    }
}

/// Step 3 proper: match every crossing of a row to a feedthrough of that
/// row. Requests are matched left-to-right within each grid column, which
/// is the order-optimal non-crossing matching.
///
/// A counting sort over the `(row, gcol)` buckets of the rows `plan`
/// names, whose sizes the plan's demand already holds: their prefix sums
/// place each bucket, one walk of `crossings` puts every crossing in its
/// bucket's next slot as one 8-byte run, and each bucket (about ten
/// crossings) is sorted alone; its `k`-th feedthrough sits `k · ft_width`
/// right of the bucket's first. `put` gets one feedthrough [`Node`] per
/// crossing, with its net, in `(row, gcol, x, net)` order, so each net's
/// feedthroughs come in canonical order. `crossings` is consumed by the
/// walk: arrivals held in a `Vec` are freed before the first `put`.
///
/// # Panics
/// Panics if a bucket of those rows does not get exactly its planned
/// demand (a router bug — demand was derived from the same crossings), or
/// if a crossing lies in another row.
pub fn assign<'p>(
    plan: impl Into<PlanRows<'p>>,
    crossings: impl IntoIterator<Item = Crossing>,
    comm: &mut Comm,
    mut put: impl FnMut(NetId, Node),
) {
    let PlanRows { plan, rows } = plan.into();
    let (gcols, grid_w) = (plan.demand.shape().1, plan.grid_w);
    let demand = &plan.demand.cells()[rows.start * gcols..rows.end * gcols];
    // `fill[b]` is bucket b's next free slot and the end of its run.
    let mut at = 0u32;
    let mut fill: Vec<[u32; 2]> = (demand.iter())
        .map(|&d| {
            let start = at;
            at = (u32::try_from(d).ok().and_then(|d| at.checked_add(d)))
                .expect("the rows' demand fits a u32");
            [start, at]
        })
        .collect();
    comm.compute(cost::FT_ASSIGN * u64::from(at));
    let mismatch = |r: usize, gcol: usize| -> ! {
        let row = plan.row0 + r as u32;
        panic!("crossings at (row {row}, gcol {gcol}) must equal planned demand")
    };
    let mut runs = vec![0u64; at as usize];
    for c in crossings {
        let x = i64::from(c.x);
        let (r, gcol) = (plan.row_idx(c.row), plan.gcol(x));
        assert!(
            rows.contains(&r),
            "crossing in row {} not assigned here",
            c.row
        );
        let [next, end] = &mut fill[(r - rows.start) * gcols + gcol];
        if next == end {
            mismatch(r, gcol);
        }
        runs[*next as usize] = run(x - gcol as i64 * grid_w, c.net);
        *next += 1;
    }
    let mut lo = 0;
    for (b, &[next, end]) in fill.iter().enumerate() {
        let (r, gcol) = (rows.start + b / gcols, b % gcols);
        if next != end {
            mismatch(r, gcol);
        }
        let bucket = &mut runs[lo..end as usize];
        lo = end as usize;
        if bucket.is_empty() {
            continue;
        }
        bucket.sort_unstable();
        let row = plan.row0 + r as u32;
        let first = plan.ft_x(row, gcol, 0);
        for (k, &key) in bucket.iter().enumerate() {
            let x = first + k as i64 * plan.ft_width;
            put(NetId(key as u32), Node::feedthrough(x, row));
        }
    }
}

/// A crossing as its bucket holds it, one integer that sorts as
/// `(x, net)`: the column's offset from the bucket's first column in the
/// high half, net in the low. The offset is biased by 2^31 because a
/// column left of the grid or past its last column falls in the first
/// or last bucket.
fn run(offset: i64, net: NetId) -> u64 {
    let offset = i32::try_from(offset).expect("a crossing lies within 2^31 columns of its bucket");
    u64::from(offset as u32 ^ 1 << 31) << 32 | u64::from(net.0)
}

/// Step 3's assignment as a comparison sort, the way it was before the
/// counting sort: every crossing sorted by `(row, gcol, x, net)`, then
/// matched bucket by bucket — the reference [`assign`] must equal.
#[cfg(test)]
pub(crate) fn reference_assign(plan: &FtPlan, crossings: &[Crossing]) -> Vec<(NetId, Node)> {
    let mut sorted: Vec<&Crossing> = crossings.iter().collect();
    sorted.sort_unstable_by_key(|c| (c.row, plan.gcol(c.x.into()), c.x, c.net.0));
    let mut out = Vec::with_capacity(sorted.len());
    let mut i = 0;
    while i < sorted.len() {
        let (row, gcol) = (sorted[i].row, plan.gcol(sorted[i].x.into()));
        let mut j = i;
        while j < sorted.len() && sorted[j].row == row && plan.gcol(sorted[j].x.into()) == gcol {
            j += 1;
        }
        assert_eq!(
            (j - i) as i64,
            plan.demand[plan.row_idx(row)][gcol],
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

    /// [`assign`]'s feedthroughs as a list.
    fn assigned(plan: &FtPlan, crossings: &[Crossing]) -> Vec<(NetId, Node)> {
        let mut out = Vec::new();
        let crossings = crossings.iter().copied();
        assign(plan, crossings, &mut comm(), |net, node| {
            out.push((net, node))
        });
        out
    }

    /// [`assign`]'s feedthroughs over the band `rows` of `plan`, from
    /// `arrivals` held in memory as a net-wise rank holds its own rows'.
    fn assigned_rows(
        plan: &FtPlan,
        rows: (u32, usize),
        arrivals: Vec<Crossing>,
    ) -> Vec<(NetId, Node)> {
        let mut out = Vec::new();
        assign(plan.rows(rows), arrivals, &mut comm(), |net, node| {
            out.push((net, node))
        });
        out
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = plan(&[&[0, 0, 0], &[0, 0, 0]]);
        assert_eq!(p.total(), 0);
        assert_eq!(p.max_growth(), 0);
        assert_eq!(p.shifted_x(1, 17), 17);
        assert!(assigned(&p, &[]).is_empty());
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
        let out = assigned(&p, &crossings);
        assert_eq!(out.len(), 2);
        // Net 3 (x=9) comes first within the gcol; gets the left ft.
        assert_eq!(out[0].0, NetId(3));
        assert_eq!(out[1].0, NetId(5));
        assert!(out[0].1.x() < out[1].1.x());
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
        assigned(&p, &crossings);
    }

    /// A replicated plan over rows 3 ..= 5, of which this rank assigns
    /// row 4: the other rows' demand is not this rank's to fill.
    fn replicated() -> FtPlan {
        FtPlan::new(3, Grid::from_rows(&[&[2, 1], &[1, 0], &[0, 3]]), 8, 2)
    }

    #[test]
    #[should_panic(expected = "crossings at (row 4, gcol 0) must equal planned demand")]
    fn overfilled_own_row_bucket_panics() {
        let crossing = |x| Crossing {
            net: NetId(0),
            row: 4,
            x,
        };
        assigned_rows(&replicated(), (4, 1), vec![crossing(3), crossing(5)]);
    }

    #[test]
    #[should_panic(expected = "crossings at (row 4, gcol 1) must equal planned demand")]
    fn fewer_crossings_than_demand_panic() {
        let p = FtPlan::new(3, Grid::from_rows(&[&[1, 0], &[0, 2]]), 8, 2);
        let crossing = |row, x| Crossing {
            net: NetId(0),
            row,
            x,
        };
        assigned(&p, &[crossing(4, 9), crossing(3, 2)]);
    }

    #[test]
    #[should_panic(expected = "crossings at (row 4, gcol 0) must equal planned demand")]
    fn underfilled_own_row_bucket_panics() {
        assigned_rows(&replicated(), (4, 1), Vec::new());
    }

    #[test]
    #[should_panic(expected = "crossing in row 5 not assigned here")]
    fn a_crossing_outside_the_band_panics() {
        let crossing = |row, x| Crossing {
            net: NetId(0),
            row,
            x,
        };
        assigned_rows(&replicated(), (4, 1), vec![crossing(4, 0), crossing(5, 9)]);
    }

    /// Both shapes step 3 assigns in: every row's crossings generated
    /// lazily (serial, row bands), and a net-wise rank's arrivals for its
    /// own band of a replicated plan, the other rows' demand left alone.
    #[test]
    fn assign_equals_the_comparison_sort_reference() {
        for seed in 0..600u64 {
            let mut rng = pgr_geom::rng::rng_from_seed(0xA551_0000 + seed);
            let (nrows, gcols) = (rng.gen_range(1usize..6), rng.gen_range(1usize..12));
            let (grid_w, ft_width) = (rng.gen_range(1i64..10), rng.gen_range(1i64..4));
            let row0 = rng.gen_range(0u32..5);
            // A narrow x range makes duplicate `(x, net)` pairs common; the
            // wide one reaches below 0 and past the last grid column.
            let (xlo, xhi) = if rng.gen_bool(0.3) {
                (0, 2 * grid_w)
            } else {
                (-2 * grid_w, (gcols as i64 + 2) * grid_w)
            };
            let mut demand = Grid::new(nrows, gcols);
            let mut crossings = Vec::new();
            for r in 0..nrows {
                let row = row0 + r as u32;
                for _ in 0..rng.gen_range(0usize..30) {
                    let x = rng.gen_range(xlo..xhi);
                    let net = NetId(rng.gen_range(0u32..6));
                    demand[r][((x / grid_w).max(0) as usize).min(gcols - 1)] += 1;
                    crossings.push(Crossing {
                        net,
                        row,
                        x: x as i32,
                    });
                }
            }
            // Arrival in any order, as row bands deliver them.
            let order = pgr_geom::shuffled_indices(crossings.len(), &mut rng);
            let p = FtPlan::new(row0, demand, grid_w, ft_width);

            let arriving = || order.iter().map(|&i| crossings[i as usize]);
            let mut lazy = Vec::new();
            assign(&p, arriving(), &mut comm(), |net, node| {
                lazy.push((net, node))
            });
            let all: Vec<Crossing> = arriving().collect();
            assert_eq!(lazy, reference_assign(&p, &all), "seed {seed}");

            let start = rng.gen_range(0..nrows);
            let band = (row0 + start as u32, rng.gen_range(0..=nrows - start));
            let own = |c: &Crossing| (band.0..band.0 + band.1 as u32).contains(&c.row);
            let arrivals: Vec<Crossing> = arriving().filter(own).collect();
            let reference = reference_assign(&p, &arrivals);
            assert_eq!(assigned_rows(&p, band, arrivals), reference, "seed {seed}");
        }
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

    /// A crossing encodes as a written-out encoder of its fields would
    /// (little-endian net, row and 64-bit `x`), at column 0 and at the
    /// largest and smallest columns its field holds; a column outside the
    /// field is refused on decode, not wrapped.
    #[test]
    fn crossing_wire_roundtrip() {
        fn reference(net: u32, row: u32, x: i64) -> Vec<u8> {
            [&net.to_le_bytes()[..], &row.to_le_bytes(), &x.to_le_bytes()].concat()
        }
        for x in [-4, 0, i32::MAX, i32::MIN] {
            let c = Crossing {
                net: NetId(7),
                row: 3,
                x,
            };
            let bytes = reference(7, 3, x.into());
            assert_eq!(c.to_bytes(), bytes, "column {x}");
            assert_eq!(c.wire_len(), 16);
            assert_eq!(Crossing::from_bytes(&bytes).unwrap(), c);
        }
        let (max, min) = (i64::from(i32::MAX), i64::from(i32::MIN));
        for x in [max + 1, min - 1, i64::MAX, i64::MIN] {
            assert!(
                matches!(
                    Crossing::from_bytes(&reference(7, 3, x)),
                    Err(WireError::OutOfRange { .. })
                ),
                "column {x}"
            );
        }
    }
}
