//! Step 2: coarse global routing.
//!
//! "The core is partitioned into a coarse global routing grid. Each
//! segment is assumed to be routed by some one bend L-shaped wire. To
//! reduce the order dependence of the segments processed, a segment is
//! randomly picked from the whole segment pool. By evaluating the needed
//! feedthrough number and the channel density change when the side of an
//! L shaped segment is switched, the L shape for this segment can be
//! determined." (§2)
//!
//! [`CoarseState`] holds the grid-resolution channel-density profiles and
//! the per-(row, grid-column) feedthrough demand. The improvement loop
//! removes one segment, scores both L orientations (density delta plus
//! feedthrough crowding), and re-inserts the better one. A state built
//! *replicated* (net-wise, §5) logs its own changes and synchronizes the
//! copies itself, between the slices of [`CoarseState::route`] — the one
//! sweep driver of every algorithm.

use crate::config::RouterConfig;
use crate::cost;
use crate::route::feedthrough::FtPlan;
use crate::route::refine;
use crate::route::state::{Grid, Orientation, Segment};
use pgr_geom::rng::SmallRng;
use pgr_geom::DensityProfile;
use pgr_mpi::Comm;

pgr_mpi::wire_struct!(
    /// Delta log for replicated-state synchronization: the changes since
    /// the last [`CoarseState::take_deltas`], two [`Grid`]s on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct CoarseDeltas {
        /// `chan[c][g]` — change of channel `chan0 + c` at grid column `g`.
        chan: Grid,
        /// `demand[r][g]` — change of row `row0 + r` at grid column `g`.
        demand: Grid,
    }
);

/// Coarse-grid routing state over channels `chan0 ..= chan0 + nchan - 1`
/// and rows `row0 ..= row0 + nrows - 1`.
pub struct CoarseState {
    grid_w: i64,
    gcols: usize,
    chan0: u32,
    row0: u32,
    profiles: Vec<DensityProfile>,
    demand: Grid,
    /// `Some` on a replicated state: what changed since the last sync.
    log: Option<CoarseDeltas>,
}

impl CoarseState {
    /// State covering `nrows` rows starting at `row0` (hence `nrows + 1`
    /// channels starting at `row0`), over a core `width` columns wide.
    pub fn new(row0: u32, nrows: usize, width: i64, grid_w: i64) -> Self {
        assert!(nrows > 0 && width > 0 && grid_w > 0);
        let gcols = ((width + grid_w - 1) / grid_w).max(1) as usize;
        CoarseState {
            grid_w,
            gcols,
            chan0: row0,
            row0,
            profiles: (0..=nrows).map(|_| DensityProfile::new(gcols)).collect(),
            demand: Grid::new(nrows, gcols),
            log: None,
        }
    }

    /// [`CoarseState::new`], registered with `comm`'s modeled-memory
    /// account — how every driver builds its coarse grid.
    pub(crate) fn charged(
        row0: u32,
        nrows: usize,
        width: i64,
        grid_w: i64,
        comm: &mut Comm,
    ) -> Self {
        let coarse = CoarseState::new(row0, nrows, width, grid_w);
        comm.charge_alloc(coarse.modeled_bytes());
        coarse
    }

    /// Make this one copy of a grid every rank holds (net-wise, §5): it
    /// logs its changes and [`CoarseState::route`] synchronizes the copies.
    pub(crate) fn replicated(mut self) -> Self {
        self.log = Some(self.zero_deltas());
        self
    }

    /// Modeled memory footprint (for the per-node memory gate): the 1997
    /// structure at 32 B a grid column per profile plus the demand rows,
    /// which the virtual results are pinned to — not what
    /// [`DensityProfile`] allocates (16 B a column).
    pub fn modeled_bytes(&self) -> u64 {
        (self.profiles.len() * 2 + self.demand.shape().0) as u64 * self.gcols as u64 * 16
    }

    fn zero_deltas(&self) -> CoarseDeltas {
        CoarseDeltas {
            chan: Grid::new(self.profiles.len(), self.gcols),
            demand: Grid::new(self.demand.shape().0, self.gcols),
        }
    }

    /// Drain the delta log (two zeroed buffers, whatever the row count).
    fn take_deltas(&mut self) -> CoarseDeltas {
        let fresh = self.zero_deltas();
        std::mem::replace(self.log.as_mut().expect("logging enabled"), fresh)
    }

    /// Between two slices of a sweep, on a replicated state: allgather
    /// every rank's deltas and merge the remote ones. Every sync also
    /// charges a full refresh of the replicated grid arrays — "all the
    /// processors will share all the channels and communication is more
    /// costly than computation" (§5). Unless `exact`, remote density
    /// updates to cells this rank also wrote are lost
    /// ([`CoarseState::merge_external`]).
    fn sync(&mut self, exact: bool, comm: &mut Comm) {
        let mine = self.take_deltas();
        if comm.size() == 1 {
            return; // nothing is replicated: the log is drained, that is all
        }
        let all: Vec<CoarseDeltas> = comm.allgather(mine);
        let own = (!exact).then(|| &all[comm.rank()]);
        for (r, d) in all.iter().enumerate() {
            if r != comm.rank() {
                self.merge_external(d, own, comm);
            }
        }
        let entries = self.gcols * (self.profiles.len() + self.demand.shape().0);
        comm.compute(cost::MERGE_COL * entries as u64);
    }

    /// Apply another rank's deltas (not logged). Charges a scan over the
    /// delta arrays plus per-nonzero update work.
    ///
    /// With `own` (this rank's deltas of the same sync period) the merge
    /// has snapshot-overwrite semantics: a remote *density* update to a
    /// grid cell this rank also wrote since the last sync (`own` nonzero
    /// there) is **dropped** — the write-write conflict resolution of a
    /// periodic full-state exchange. Lost updates under-count congestion
    /// on exactly the contended cells, which is the net-wise algorithm's
    /// quality failure mode (§5). Feedthrough *demand* merges exactly
    /// either way — it is physical bookkeeping the row owners keep
    /// authoritative, and an inconsistent copy would desynchronize
    /// insertion, not just degrade decisions.
    fn merge_external(&mut self, d: &CoarseDeltas, own: Option<&CoarseDeltas>, comm: &mut Comm) {
        assert_eq!(d.chan.shape(), (self.profiles.len(), self.gcols));
        assert_eq!(d.demand.shape(), self.demand.shape());
        let mut nonzero = 0u64;
        for (ci, prof) in self.profiles.iter_mut().enumerate() {
            let mine = own.map(|o| &o.chan[ci]);
            for (g, &v) in d.chan[ci].iter().enumerate() {
                if v != 0 && mine.is_none_or(|m| m[g] == 0) {
                    nonzero += 1;
                    prof.add_span(g as i64, g as i64, v);
                }
            }
        }
        for r in 0..self.demand.shape().0 {
            for (x, &v) in self.demand[r].iter_mut().zip(&d.demand[r]) {
                nonzero += u64::from(v != 0);
                *x += v;
            }
        }
        let entries = (d.chan.cells().len() + d.demand.cells().len()) as u64;
        comm.compute(entries / 8 + cost::MERGE_COL * nonzero);
    }

    fn gcol(&self, x: i64) -> i64 {
        (x / self.grid_w).clamp(0, self.gcols as i64 - 1)
    }

    fn chan_idx(&self, channel: u32) -> usize {
        let i = channel
            .checked_sub(self.chan0)
            .expect("channel below range") as usize;
        assert!(i < self.profiles.len(), "channel {channel} above range");
        i
    }

    fn row_idx(&self, row: u32) -> usize {
        let i = row.checked_sub(self.row0).expect("row below range") as usize;
        assert!(i < self.demand.shape().0, "row {row} above range");
        i
    }

    /// Add (`sign = 1`) or remove (`sign = -1`) a segment routed with
    /// `orient` from the coarse state.
    pub fn apply(&mut self, seg: &Segment, orient: Orientation, sign: i64) {
        let (lo, hi) = seg.x_span();
        let (glo, ghi) = (self.gcol(lo), self.gcol(hi));
        let channel = if seg.is_cross_row() {
            seg.horizontal_channel(orient)
        } else {
            seg.same_row_channel()
        };
        let ci = self.chan_idx(channel);
        self.profiles[ci].add_span(glo, ghi, sign);
        if let Some(log) = &mut self.log {
            for g in glo..=ghi {
                log.chan[ci][g as usize] += sign;
            }
        }
        let g = self.gcol(seg.vertical_x(orient)) as usize;
        for row in seg.demand_rows() {
            let ri = self.row_idx(row);
            self.demand[ri][g] += sign;
            if let Some(log) = &mut self.log {
                log.demand[ri][g] += sign;
            }
        }
    }

    /// Cost of inserting `seg` with `orient` into the *current* state
    /// (the segment must currently be removed): weighted channel peak
    /// increase plus weighted feedthrough crowding along the vertical.
    /// The reference the tests hold [`CoarseState::improve_slice`]'s
    /// incremental scoring to; the router itself never removes a segment
    /// to score it.
    #[cfg(test)]
    fn eval(&self, seg: &Segment, orient: Orientation, cfg: &RouterConfig) -> f64 {
        let (lo, hi) = seg.x_span();
        let (glo, ghi) = (self.gcol(lo), self.gcol(hi));
        let channel = if seg.is_cross_row() {
            seg.horizontal_channel(orient)
        } else {
            seg.same_row_channel()
        };
        let prof = &self.profiles[self.chan_idx(channel)];
        let density_rise = (prof.max_if_added(glo, ghi) - prof.max()) as f64;
        let mut crowding = 0.0;
        let g = self.gcol(seg.vertical_x(orient)) as usize;
        for row in seg.demand_rows() {
            crowding += self.demand[self.row_idx(row)][g] as f64;
        }
        cfg.w_density * density_rise + cfg.w_feedthrough * crowding
    }

    /// Initialize orientations randomly (cross-row) and insert every
    /// segment into the state. Same-row segments get their side-derived
    /// channel and a placeholder orientation.
    fn init_random(
        &mut self,
        segments: &[Segment],
        rng: &mut SmallRng,
        comm: &mut Comm,
    ) -> Vec<Orientation> {
        comm.compute(cost::COARSE_APPLY * segments.len() as u64);
        segments
            .iter()
            .map(|seg| {
                let orient = if seg.is_cross_row() && rng.gen_bool(0.5) {
                    Orientation::VertAtUpper
                } else {
                    Orientation::VertAtLower
                };
                self.apply(seg, orient, 1);
                orient
            })
            .collect()
    }

    /// One improvement sweep over `order` (indices into `segments`).
    /// Re-decides each cross-row segment's L shape; returns how many
    /// changed. Same-row indices are skipped (their channel is step 5's
    /// business).
    ///
    /// The sweep scores both shapes incrementally from the *current*
    /// state instead of physically removing and re-inserting the segment:
    /// the withdrawn channel's peak is reconstructed from three range-max
    /// queries, and withdrawn feedthrough demand is the stored count minus
    /// one at the segment's present vertical column. The arithmetic
    /// reproduces the remove-eval-reinsert numbers exactly (same i64
    /// peaks, same integer-valued f64 sums), so decisions — and the
    /// virtual-clock charges — are unchanged; the state now mutates only
    /// when a segment actually flips.
    fn improve_slice(
        &mut self,
        segments: &[Segment],
        orients: &mut [Orientation],
        order: &[u32],
        cfg: &RouterConfig,
        comm: &mut Comm,
    ) -> usize {
        let mut changed = 0;
        let mut ops = 0u64;
        let gmax = self.gcols as i64 - 1;
        for &i in order {
            let seg = &segments[i as usize];
            if !seg.is_cross_row() {
                continue;
            }
            let cur = orients[i as usize];
            let (lo, hi) = seg.x_span();
            let (glo, ghi) = (self.gcol(lo), self.gcol(hi));
            let cur_chan = seg.horizontal_channel(cur);
            let cur_prof = &self.profiles[self.chan_idx(cur_chan)];
            // Peak of the current channel with this segment withdrawn:
            // inside its span the density drops by one, outside it is
            // untouched. Side ranges are included only when non-empty (an
            // empty `max_in` would report 0, which is not an identity for
            // the max).
            let mut without_max = cur_prof.max_in(glo, ghi) - 1;
            if glo > 0 {
                without_max = without_max.max(cur_prof.max_in(0, glo - 1));
            }
            if ghi < gmax {
                without_max = without_max.max(cur_prof.max_in(ghi + 1, gmax));
            }
            // Re-adding the span over its own range restores exactly the
            // current peak, so the withdrawn-state `max_if_added` is
            // `cur_prof.max()` — the rise telescopes to one subtraction.
            let rise_cur = cur_prof.max() - without_max;
            let g_cur = self.gcol(seg.vertical_x(cur)) as usize;
            let cost_of = |orient: Orientation| -> f64 {
                let chan = seg.horizontal_channel(orient);
                let density_rise = if chan == cur_chan {
                    // Adjacent-row segments share one channel for both
                    // shapes; reuse the withdrawn-state rise.
                    rise_cur
                } else {
                    let prof = &self.profiles[self.chan_idx(chan)];
                    prof.max_if_added(glo, ghi) - prof.max()
                } as f64;
                let g = self.gcol(seg.vertical_x(orient)) as usize;
                let mut crowding = 0.0;
                for row in seg.demand_rows() {
                    let adj = i64::from(g == g_cur);
                    crowding += (self.demand[self.row_idx(row)][g] - adj) as f64;
                }
                cfg.w_density * density_rise + cfg.w_feedthrough * crowding
            };
            let c_lower = cost_of(Orientation::VertAtLower);
            let c_upper = cost_of(Orientation::VertAtUpper);
            ops += 2 * cost::COARSE_EVAL + 2 * cost::COARSE_APPLY;
            // Strict improvement only, so sweeps converge instead of
            // oscillating between equal-cost shapes.
            let best = match cur {
                Orientation::VertAtLower if c_upper < c_lower => Orientation::VertAtUpper,
                Orientation::VertAtUpper if c_lower < c_upper => Orientation::VertAtLower,
                _ => cur,
            };
            if best != cur {
                changed += 1;
                self.apply(seg, cur, -1);
                orients[i as usize] = best;
                self.apply(seg, best, 1);
            }
        }
        comm.compute(ops);
        changed
    }

    /// Step 2's driver, for every algorithm: random init, then the
    /// improvement sweeps of `route::refine` — synchronized ones when this
    /// state is replicated.
    pub fn route(
        &mut self,
        segments: &[Segment],
        cfg: &RouterConfig,
        rng: &mut SmallRng,
        comm: &mut Comm,
    ) -> Vec<Orientation> {
        let mut orients = self.init_random(segments, rng, comm);
        let sync_period = self.log.is_some().then_some(cfg.sync_period);
        refine(
            self,
            (cfg.coarse_passes, sync_period),
            comm,
            || pgr_geom::shuffled_indices(segments.len(), rng),
            |st, chunk, comm| st.improve_slice(segments, &mut orients, chunk, cfg, comm),
            |st, comm| st.sync(cfg.netwise_exact_sync, comm),
        );
        orients
    }

    /// Peak density of a channel (grid resolution).
    pub fn channel_max(&self, channel: u32) -> i64 {
        self.profiles[self.chan_idx(channel)].max()
    }

    /// Final feedthrough demand, indexed `[row - row0][gcol]`.
    pub fn demand(&self) -> &Grid {
        &self.demand
    }

    /// Consume the state into step 3's insertion plan: the demand grid
    /// with the rows and grid width it was built for.
    pub fn into_plan(self, ft_width: i64) -> FtPlan {
        FtPlan::new(self.row0, self.demand, self.grid_w, ft_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::state::Node;
    use pgr_circuit::NetId;
    use pgr_geom::rng::rng_from_seed;
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    /// Plain pin-endpoint segment: demand rows == strictly-crossed rows.
    fn seg(x1: i64, r1: u32, x2: i64, r2: u32) -> Segment {
        use crate::route::state::ChannelPref;
        Segment::new(
            NetId(0),
            Node::pin(0, x1, r1, ChannelPref::Either),
            Node::pin(1, x2, r2, ChannelPref::Either),
        )
    }

    #[test]
    fn apply_and_remove_are_inverse() {
        let mut st = CoarseState::new(0, 4, 64, 8);
        let s = seg(0, 0, 40, 3);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(st.channel_max(3), 1);
        assert_eq!(st.demand()[1][0], 1, "crossing rows 1,2 at gcol 0");
        assert_eq!(st.demand()[2][0], 1);
        st.apply(&s, Orientation::VertAtLower, -1);
        assert_eq!(st.channel_max(3), 0);
        assert!(st.demand().cells().iter().all(|&d| d == 0));
    }

    #[test]
    fn orientations_use_different_channels_and_columns() {
        let mut st = CoarseState::new(0, 4, 64, 8);
        let s = seg(0, 0, 40, 3);
        st.apply(&s, Orientation::VertAtUpper, 1);
        assert_eq!(st.channel_max(1), 1, "horizontal just above row 0");
        assert_eq!(st.channel_max(3), 0);
        assert_eq!(st.demand()[1][5], 1, "vertical at x=40 → gcol 5");
        assert_eq!(st.demand()[1][0], 0);
    }

    #[test]
    fn same_row_segment_only_adds_density() {
        let mut st = CoarseState::new(0, 2, 32, 8);
        let s = seg(0, 1, 16, 1);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(
            st.channel_max(1),
            1,
            "either-pref defaults to lower channel"
        );
        assert!(st.demand().cells().iter().all(|&d| d == 0));
    }

    #[test]
    fn eval_scores_peak_rise_not_raw_density() {
        let mut st = CoarseState::new(0, 3, 64, 8);
        let cfg = RouterConfig {
            w_feedthrough: 0.0,
            ..Default::default()
        };
        let s = seg(0, 0, 40, 2);
        // Channel 2 (VertAtLower's horizontal) is covered exactly where s
        // would go: its peak must rise.
        for _ in 0..2 {
            st.apply(&seg(0, 1, 60, 2), Orientation::VertAtLower, 1);
        }
        // Channel 1 (VertAtUpper's horizontal) has a higher peak, but
        // only *outside* s's extent — adding s into its valley is free.
        // A same-row segment on row 1 with Lower-preferring endpoints
        // lands in channel 1.
        let mut hi = Node::fake(56, 1);
        hi.pref = crate::route::state::ChannelPref::Lower;
        let mut hi2 = Node::fake(63, 1);
        hi2.pref = crate::route::state::ChannelPref::Lower;
        let off = Segment::new(NetId(1), hi, hi2);
        for _ in 0..5 {
            st.apply(&off, Orientation::VertAtLower, 1);
        }
        let lower = st.eval(&s, Orientation::VertAtLower, &cfg);
        let upper = st.eval(&s, Orientation::VertAtUpper, &cfg);
        assert_eq!(lower, 1.0, "covered channel: peak rises");
        assert_eq!(
            upper, 0.0,
            "peak is elsewhere: adding in the valley is free"
        );
        assert!(upper < lower);
    }

    #[test]
    fn eval_penalizes_feedthrough_crowding() {
        let mut st = CoarseState::new(0, 5, 64, 8);
        let cfg = RouterConfig {
            w_density: 0.0,
            w_feedthrough: 1.0,
            ..Default::default()
        };
        // Pile demand at (row 2, gcol 0) — where VertAtLower of s would go.
        for _ in 0..4 {
            st.apply(&seg(0, 1, 0, 3), Orientation::VertAtLower, 1);
        }
        let s = seg(0, 0, 40, 4);
        let lower = st.eval(&s, Orientation::VertAtLower, &cfg);
        let upper = st.eval(&s, Orientation::VertAtUpper, &cfg);
        assert!(upper < lower, "vertical at x=40 avoids the crowded column");
    }

    #[test]
    fn route_converges_and_reduces_peak() {
        let mut rng = rng_from_seed(1);
        let mut cm = comm();
        // Pure density objective: with unit spans the peak is then
        // provably non-increasing under the strict-improvement rule.
        let cfg = RouterConfig {
            w_feedthrough: 0.0,
            ..Default::default()
        };
        // Many parallel segments between rows 0 and 2 at staggered x:
        // random init stacks some channels; improvement should spread load
        // across channels 1 and 2.
        let segs: Vec<Segment> = (0..40).map(|i| seg(i * 3, 0, i * 3 + 30, 2)).collect();
        let mut st = CoarseState::new(0, 3, 160, 8);
        let init: Vec<Orientation> = {
            let mut s2 = CoarseState::new(0, 3, 160, 8);
            s2.init_random(&segs, &mut rng_from_seed(1), &mut comm())
        };
        let init_peak = {
            let mut s2 = CoarseState::new(0, 3, 160, 8);
            for (s, &o) in segs.iter().zip(&init) {
                s2.apply(s, o, 1);
            }
            s2.channel_max(1).max(s2.channel_max(2))
        };
        let orients = st.route(&segs, &cfg, &mut rng, &mut cm);
        let final_peak = st.channel_max(1).max(st.channel_max(2));
        assert!(
            final_peak <= init_peak,
            "improvement never worsens the peak: {final_peak} vs {init_peak}"
        );
        assert_eq!(orients.len(), segs.len());
        // Load must be split: neither channel takes everything.
        assert!(
            st.channel_max(1) > 0 && st.channel_max(2) > 0,
            "both channels used"
        );
    }

    #[test]
    fn route_is_deterministic_per_seed() {
        let cfg = RouterConfig::default();
        let segs: Vec<Segment> = (0..25).map(|i| seg(i * 5, 0, 120 - i * 4, 2)).collect();
        let run = |seed| {
            let mut st = CoarseState::new(0, 3, 160, 8);
            let o = st.route(&segs, &cfg, &mut rng_from_seed(seed), &mut comm());
            (o, st.channel_max(1), st.channel_max(2))
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn fake_endpoints_demand_their_own_rows() {
        // A partition-boundary piece passes *through* its fake rows, so
        // they need feedthroughs too (the pieces of a split edge must
        // tile the serial edge's demand).
        let mut st = CoarseState::new(0, 4, 64, 8);
        let piece = Segment::new(NetId(0), Node::fake(0, 1), Node::fake(0, 3));
        st.apply(&piece, Orientation::VertAtLower, 1);
        assert_eq!(st.demand()[1][0], 1, "fake lower endpoint row");
        assert_eq!(st.demand()[2][0], 1, "strictly-crossed row");
        assert_eq!(st.demand()[3][0], 1, "fake upper endpoint row");
        assert_eq!(st.demand()[0][0], 0);
        st.apply(&piece, Orientation::VertAtLower, -1);
        assert!(st.demand().cells().iter().all(|&d| d == 0));
    }

    #[test]
    fn delta_logging_captures_changes() {
        let mut st = CoarseState::new(0, 3, 64, 8).replicated();
        let s = seg(0, 0, 40, 2);
        st.apply(&s, Orientation::VertAtLower, 1);
        let d = st.take_deltas();
        let zero = st.zero_deltas();
        assert_ne!(d, zero);
        assert_eq!(d.chan[2][0], 1, "channel 2 gcol 0 gained a span");
        assert_eq!(d.demand[1][0], 1);
        assert_eq!(st.take_deltas(), zero, "drained");
    }

    #[test]
    fn merge_external_reproduces_remote_state() {
        // Rank A applies a segment with logging; rank B merges the deltas
        // and must end up with identical probe results.
        let s = seg(8, 0, 40, 2);
        let mut a = CoarseState::new(0, 3, 64, 8).replicated();
        a.apply(&s, Orientation::VertAtUpper, 1);
        let d = a.take_deltas();

        let mut b = CoarseState::new(0, 3, 64, 8);
        b.merge_external(&d, None, &mut comm());
        for ch in 0..=3 {
            assert_eq!(a.channel_max(ch), b.channel_max(ch), "channel {ch}");
        }
        assert_eq!(a.demand(), b.demand());
    }

    #[test]
    fn deltas_add_and_sub() {
        // Merging a delta and then its negation restores the state;
        // under `own`, the density update on a cell this rank also wrote
        // is dropped while the demand update still lands.
        let mut st = CoarseState::new(0, 3, 64, 8);
        let mut d = st.zero_deltas();
        d.chan[1][2] = 3;
        d.chan[2][5] = 1;
        d.demand[0][2] = 5;
        let mut neg = d.clone();
        for grid in [&mut neg.chan, &mut neg.demand] {
            for r in 0..grid.shape().0 {
                grid[r].iter_mut().for_each(|x| *x = -*x);
            }
        }

        st.merge_external(&d, None, &mut comm());
        assert_eq!((st.channel_max(1), st.channel_max(2)), (3, 1));
        assert_eq!(st.demand()[0][2], 5);
        st.merge_external(&neg, None, &mut comm());
        assert!((0..=3).all(|c| st.channel_max(c) == 0));
        assert!(st.demand().cells().iter().all(|&x| x == 0));

        let mut own = st.zero_deltas();
        own.chan[1][2] = -1;
        own.demand[0][2] = 1;
        st.merge_external(&d, Some(&own), &mut comm());
        assert_eq!(st.channel_max(1), 0, "contended cell: remote update lost");
        assert_eq!(st.channel_max(2), 1, "uncontended cell merges");
        assert_eq!(st.demand()[0][2], 5, "demand merges exactly");
    }

    #[test]
    fn offset_ranges_map_channels_and_rows() {
        // Rows 4..8 → channels 4..=8.
        let mut st = CoarseState::new(4, 4, 64, 8);
        let s = seg(0, 4, 20, 7);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(st.channel_max(7), 1);
        assert_eq!(st.demand()[1][0], 1, "row 5 is demand[1]");
        assert_eq!(st.demand()[2][0], 1, "row 6 is demand[2]");
    }

    #[test]
    #[should_panic(expected = "channel below range")]
    fn out_of_range_channel_panics() {
        let st = CoarseState::new(4, 4, 64, 8);
        st.channel_max(3);
    }

    #[test]
    fn incremental_sweep_matches_remove_reinsert_reference() {
        // The incremental scorer must make the same choices as the
        // historical remove-eval-reinsert sweep, including adjacent-row
        // segments (both shapes share one channel) and shared vertical
        // columns, and leave identical state and deltas behind.
        let mut rng = rng_from_seed(0xC0A5);
        let segs: Vec<Segment> = (0..60)
            .map(|_| {
                let r1 = rng.gen_range(0..5u32);
                let r2 = rng.gen_range(0..5u32);
                let x1 = rng.gen_range(0..150i64);
                let x2 = rng.gen_range(0..150i64);
                seg(x1, r1.min(r2), x2, r1.max(r2))
            })
            .collect();
        let cfg = RouterConfig::default();
        let build = || {
            let mut st = CoarseState::new(0, 6, 160, 8).replicated();
            let init = st.init_random(&segs, &mut rng_from_seed(7), &mut comm());
            st.take_deltas();
            (st, init)
        };
        let order: Vec<u32> = (0..segs.len() as u32).collect();

        let (mut st_inc, mut or_inc) = build();
        let changed_inc = st_inc.improve_slice(&segs, &mut or_inc, &order, &cfg, &mut comm());

        let (mut st_ref, mut or_ref) = build();
        let mut changed_ref = 0;
        for &i in &order {
            let s = &segs[i as usize];
            if !s.is_cross_row() {
                continue;
            }
            let cur = or_ref[i as usize];
            st_ref.apply(s, cur, -1);
            let c_lower = st_ref.eval(s, Orientation::VertAtLower, &cfg);
            let c_upper = st_ref.eval(s, Orientation::VertAtUpper, &cfg);
            let best = match cur {
                Orientation::VertAtLower if c_upper < c_lower => Orientation::VertAtUpper,
                Orientation::VertAtUpper if c_lower < c_upper => Orientation::VertAtLower,
                _ => cur,
            };
            if best != cur {
                changed_ref += 1;
                or_ref[i as usize] = best;
            }
            st_ref.apply(s, best, 1);
        }

        assert_eq!(changed_inc, changed_ref);
        assert_eq!(or_inc, or_ref);
        for ch in 0..=5 {
            assert_eq!(
                st_inc.channel_max(ch),
                st_ref.channel_max(ch),
                "channel {ch}"
            );
        }
        assert_eq!(st_inc.demand(), st_ref.demand());
        assert_eq!(
            st_inc.take_deltas(),
            st_ref.take_deltas(),
            "aggregated delta arrays must cancel identically"
        );
        assert!(changed_inc > 0, "instance must exercise the flip path");
    }

    #[test]
    fn merging_a_grid_of_another_shape_panics() {
        // One column or one row more or less than this state's grids: the
        // nested vectors used to truncate the demand merge silently and
        // index the density merge unchecked.
        for (nchan, nrows, gcols) in [(4, 3, 7), (4, 3, 9), (3, 3, 8), (4, 4, 8)] {
            let remote = CoarseDeltas {
                chan: Grid::new(nchan, gcols),
                demand: Grid::new(nrows, gcols),
            };
            let merged = std::panic::catch_unwind(|| {
                CoarseState::new(0, 3, 64, 8).merge_external(&remote, None, &mut comm());
            });
            assert!(merged.is_err(), "{nchan} + {nrows} rows × {gcols}");
        }
        let same = CoarseState::new(0, 3, 64, 8).zero_deltas();
        CoarseState::new(0, 3, 64, 8).merge_external(&same, None, &mut comm());
    }

    #[test]
    fn deltas_travel_as_two_grids() {
        use pgr_mpi::Wire;
        let mut st = CoarseState::new(0, 3, 64, 8).replicated();
        st.apply(&seg(8, 0, 40, 2), Orientation::VertAtUpper, 1);
        let d = st.take_deltas();
        let mut bytes = d.chan.to_bytes();
        bytes.extend(d.demand.to_bytes());
        assert_eq!(d.to_bytes(), bytes);
        assert_eq!(CoarseDeltas::from_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn a_replicated_state_alone_routes_like_a_local_one() {
        // At P = 1 nothing is replicated: the synchronized driver drains
        // its log and decides exactly as the local one.
        let cfg = RouterConfig::default();
        let segs: Vec<Segment> = (0..25).map(|i| seg(i * 5, 0, 120 - i * 4, 2)).collect();
        let run = |replicated: bool| {
            let mut st = CoarseState::new(0, 3, 160, 8);
            if replicated {
                st = st.replicated();
            }
            let o = st.route(&segs, &cfg, &mut rng_from_seed(5), &mut comm());
            (
                o,
                st.channel_max(1),
                st.channel_max(2),
                st.into_plan(2).total(),
            )
        };
        assert_eq!(run(true), run(false));
    }
}
