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

/// The order step 3 assigns a bucket's crossings in: by row, then
/// column, then net.
impl Ord for Crossing {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.row, self.x, self.net.0).cmp(&(other.row, other.x, other.net.0))
    }
}

impl PartialOrd for Crossing {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Wire for Crossing {
    const SIZE: Option<usize> = Some(16);
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

/// Step 3 proper: match every crossing of a row to a feedthrough of that
/// row. Requests are matched left-to-right within each grid column, which
/// is the order-optimal non-crossing matching.
///
/// Walks `crossings` three times (count, bucket, place) and hands `put`
/// one feedthrough [`Node`] per crossing, with its net, in
/// `(row, gcol, x, net)` order, so each net's feedthroughs come in
/// canonical order. A counting sort over the plan's `(row, gcol)`
/// buckets: each crossing's bucket is computed once, a histogram's prefix
/// sums place its `(x, net)` there, and each bucket (about ten crossings)
/// is sorted alone; its `k`-th feedthrough sits `k · ft_width` right of
/// the bucket's first.
///
/// # Panics
/// Panics if a bucket's crossings do not match its planned demand (a
/// router bug — demand was derived from the same crossings). A bucket
/// with demand but no crossings here is fine: net-wise ranks assign only
/// their own rows of a replicated plan.
pub fn assign(
    plan: &FtPlan,
    crossings: impl Iterator<Item = Crossing> + Clone,
    comm: &mut Comm,
    mut put: impl FnMut(NetId, Node),
) {
    let n = crossings.clone().count();
    comm.compute(cost::FT_ASSIGN * n as u64);
    let mut bucket = Vec::with_capacity(n);
    let gcols = plan.demand.shape().1;
    let bucket_of = |c: Crossing| (plan.row_idx(c.row) * gcols + plan.gcol(c.x)) as u32;
    bucket.extend(crossings.clone().map(bucket_of));
    // `end[b]` is bucket b's count, then where it starts, then where it ends.
    let mut end = vec![0u32; plan.demand.cells().len()];
    bucket.iter().for_each(|&b| end[b as usize] += 1);
    let mut at = 0;
    for e in &mut end {
        let n = *e;
        *e = at;
        at += n;
    }
    let mut runs = vec![(0i64, 0u32); bucket.len()];
    for (c, &b) in crossings.zip(&bucket) {
        let e = &mut end[b as usize];
        runs[*e as usize] = (c.x, c.net.0);
        *e += 1;
    }
    drop(bucket);
    let mut lo = 0;
    for (b, &hi) in end.iter().enumerate() {
        let run = &mut runs[lo..hi as usize];
        lo = hi as usize;
        if run.is_empty() {
            continue;
        }
        let (r, gcol) = (b / gcols, b % gcols);
        let row = plan.row0 + r as u32;
        assert_eq!(
            run.len() as i64,
            plan.demand[r][gcol],
            "crossings at (row {row}, gcol {gcol}) must equal planned demand"
        );
        run.sort_unstable();
        let first = plan.ft_x(row, gcol, 0);
        for (k, &(_, net)) in run.iter().enumerate() {
            let x = first + k as i64 * plan.ft_width;
            put(NetId(net), Node::feedthrough(x, row));
        }
    }
}

/// [`assign`] over crossings already held in memory: the same
/// feedthroughs, in the same order, but `crossings` itself is put in
/// `(row, gcol, x, net)` order, so no run buffer is allocated beside it —
/// only each crossing's 4-byte bucket, freed before the first `put`.
///
/// A counting sort whose permutation is walked as swaps (each crossing
/// goes straight to its bucket's next free slot), then each bucket sorted
/// alone by `(x, net)`.
///
/// Net-wise ranks hold their rows' crossings as an exchange's arrivals;
/// [`assign`]'s run buffer beside them was a transient whose overlap on
/// two ranks decided the heap peak. Callers whose crossings are generated
/// lazily keep [`assign`]: it needs one offset a plan cell, this two.
///
/// # Panics
/// As [`assign`].
pub fn assign_in_place(
    plan: &FtPlan,
    crossings: &mut [Crossing],
    comm: &mut Comm,
    mut put: impl FnMut(NetId, Node),
) {
    comm.compute(cost::FT_ASSIGN * crossings.len() as u64);
    let gcols = plan.demand.shape().1;
    let bucket_of = |c: &Crossing| (plan.row_idx(c.row) * gcols + plan.gcol(c.x)) as u32;
    let mut bucket: Vec<u32> = crossings.iter().map(bucket_of).collect();
    // `head[b]` is bucket b's next free slot, `tail[b]` where it ends.
    let mut tail = vec![0u32; plan.demand.cells().len()];
    bucket.iter().for_each(|&b| tail[b as usize] += 1);
    let mut head = vec![0u32; tail.len()];
    let mut at = 0;
    for (h, t) in head.iter_mut().zip(&mut tail) {
        *h = at;
        at += *t;
        *t = at;
    }
    // Buckets below `b` are full, so the crossing at `head[b]` belongs to
    // `b` or a later bucket, which still has room.
    for b in 0..head.len() {
        while head[b] < tail[b] {
            let (i, d) = (head[b] as usize, bucket[head[b] as usize] as usize);
            crossings.swap(i, head[d] as usize);
            bucket.swap(i, head[d] as usize);
            head[d] += 1;
        }
    }
    drop(bucket);
    let mut lo = 0;
    for (b, &hi) in tail.iter().enumerate() {
        let run = &mut crossings[lo..hi as usize];
        lo = hi as usize;
        if run.is_empty() {
            continue;
        }
        let (r, gcol) = (b / gcols, b % gcols);
        let row = plan.row0 + r as u32;
        assert_eq!(
            run.len() as i64,
            plan.demand[r][gcol],
            "crossings at (row {row}, gcol {gcol}) must equal planned demand"
        );
        run.sort_unstable();
        let first = plan.ft_x(row, gcol, 0);
        for (k, c) in run.iter().enumerate() {
            let x = first + k as i64 * plan.ft_width;
            put(c.net, Node::feedthrough(x, row));
        }
    }
}

/// Step 3's assignment as a comparison sort, the way it was before the
/// counting sort: every crossing sorted by `(row, gcol, x, net)`, then
/// matched bucket by bucket — the reference [`assign`] must equal.
#[cfg(test)]
pub(crate) fn reference_assign(plan: &FtPlan, crossings: &[Crossing]) -> Vec<(NetId, Node)> {
    let mut sorted: Vec<&Crossing> = crossings.iter().collect();
    sorted.sort_unstable_by_key(|c| (c.row, plan.gcol(c.x), c.x, c.net.0));
    let mut out = Vec::with_capacity(sorted.len());
    let mut i = 0;
    while i < sorted.len() {
        let (row, gcol) = (sorted[i].row, plan.gcol(sorted[i].x));
        let mut j = i;
        while j < sorted.len() && sorted[j].row == row && plan.gcol(sorted[j].x) == gcol {
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

    /// [`assign_in_place`]'s feedthroughs, over a copy of `crossings`.
    fn assigned_in_place(plan: &FtPlan, crossings: &[Crossing]) -> Vec<(NetId, Node)> {
        let mut out = Vec::new();
        assign_in_place(plan, &mut crossings.to_vec(), &mut comm(), |net, node| {
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
        assert!(assigned_in_place(&p, &[]).is_empty());
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
        assert_eq!(assigned_in_place(&p, &crossings), out);
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
        assigned(&p, &crossings);
    }

    #[test]
    #[should_panic(expected = "crossings at (row 0, gcol 0) must equal planned demand")]
    fn mismatched_crossings_in_place_panic() {
        let p = plan(&[&[1, 0, 0, 0]]);
        let crossing = |net, x| Crossing {
            net: NetId(net),
            row: 0,
            x,
        };
        assigned_in_place(&p, &[crossing(0, 0), crossing(1, 1)]);
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
    #[should_panic(expected = "crossings at (row 4, gcol 1) must equal planned demand")]
    fn fewer_crossings_in_place_than_demand_panic() {
        let p = FtPlan::new(3, Grid::from_rows(&[&[1, 0], &[0, 2]]), 8, 2);
        let crossing = |row, x| Crossing {
            net: NetId(0),
            row,
            x,
        };
        assigned_in_place(&p, &[crossing(4, 9), crossing(3, 2)]);
    }

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
                // Rows without crossings here but with demand: a net-wise
                // rank's share of a replicated plan.
                if rng.gen_bool(0.25) {
                    demand[r]
                        .iter_mut()
                        .for_each(|d| *d = rng.gen_range(0i64..3));
                    continue;
                }
                for _ in 0..rng.gen_range(0usize..30) {
                    let x = rng.gen_range(xlo..xhi);
                    let net = NetId(rng.gen_range(0u32..6));
                    demand[r][((x / grid_w).max(0) as usize).min(gcols - 1)] += 1;
                    crossings.push(Crossing { net, row, x });
                }
            }
            // Arrival in any order, as row bands deliver them.
            let order = pgr_geom::shuffled_indices(crossings.len(), &mut rng);
            let crossings: Vec<Crossing> = order.iter().map(|&i| crossings[i as usize]).collect();
            let p = FtPlan::new(row0, demand, grid_w, ft_width);
            let reference = reference_assign(&p, &crossings);
            assert_eq!(assigned(&p, &crossings), reference, "seed {seed}");
            assert_eq!(assigned_in_place(&p, &crossings), reference, "seed {seed}");
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
