//! Step 5: switchable-segment channel optimization, plus the
//! full-resolution channel state it operates on.
//!
//! "To optimize the channel placement of each switchable net segment, and
//! reduce the order dependence of the segment processed, the fifth step
//! randomly picks one switchable net segment and determines its channel
//! by evaluating the channel track change when the segment is flipped to
//! the opposite channel." (§2)
//!
//! [`ChannelState`] is the column-resolution congestion state of a range
//! of channels. It supports background merging (row-wise boundary
//! synchronization, §4); built *replicated* (net-wise, §5) it logs
//! sparse deltas and synchronizes the copies itself, between the slices
//! of [`optimize`] — the one sweep driver of every algorithm.

use crate::config::RouterConfig;
use crate::cost;
use crate::route::refine;
use crate::route::state::Span;
use pgr_geom::rng::SmallRng;
use pgr_geom::DensityProfile;
use pgr_mpi::Comm;

pgr_mpi::wire_struct!(
    /// One logged channel update: `sign` added over `[lo, hi]` of `chan`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct SpanDelta {
        chan: u32,
        lo: i64,
        hi: i64,
        sign: i32,
    }
);

/// Tag of the snapshot-exchange payloads.
const SNAPSHOT_TAG: u32 = 3;

/// Column bucket used for write-write conflict detection on the
/// full-resolution channel state.
const CONFLICT_BUCKET: i64 = 256;

/// Drop from the `remote` ranks' deltas those overlapping a `(channel,
/// column bucket)` that `own` — this rank's deltas of the same sync
/// period — also wrote: the keys of `own` as one sorted list, one binary
/// search per remote delta (whose keys are a contiguous run of that order).
fn drop_conflicts(remote: &mut [Vec<SpanDelta>], own: &[SpanDelta]) {
    let buckets = |d: &SpanDelta| (d.lo / CONFLICT_BUCKET, d.hi / CONFLICT_BUCKET);
    let keys_of = |d| (buckets(d).0..=buckets(d).1).map(move |b| (d.chan, b));
    let mut keys: Vec<(u32, i64)> = own.iter().flat_map(keys_of).collect();
    keys.sort_unstable();
    keys.dedup();
    for deltas in remote {
        deltas.retain(|d| {
            let first = keys.partition_point(|&k| k < (d.chan, buckets(d).0));
            keys.get(first).is_none_or(|&k| k > (d.chan, buckets(d).1))
        });
    }
}

/// Position of `channel` in a state over `chan0 ..= chan0 + n - 1`.
fn chan_idx(chan0: u32, n: usize, channel: u32) -> usize {
    let i = channel.checked_sub(chan0).expect("channel below range") as usize;
    assert!(i < n, "channel {channel} above range");
    i
}

/// Column-resolution congestion over channels `chan0 ..= chan0 + n - 1`.
pub struct ChannelState {
    chan0: u32,
    width: i64,
    profiles: Vec<DensityProfile>,
    /// `Some` on a replicated state: the updates since the last sync.
    log: Option<Vec<SpanDelta>>,
}

impl ChannelState {
    pub fn new(chan0: u32, nchannels: usize, width: i64) -> Self {
        assert!(nchannels > 0 && width > 0);
        ChannelState {
            chan0,
            width,
            profiles: (0..nchannels)
                .map(|_| DensityProfile::new(width as usize))
                .collect(),
            log: None,
        }
    }

    /// How every driver builds its channel state — the one place a span
    /// list becomes column densities, in one [`DensityProfile::load_spans`].
    /// In modeled order: the empty `(chan0, nchannels, width)` state goes
    /// on `comm`'s memory account; `spans` runs (Connect passes route in
    /// it — the spans do not exist before, and the budget polls of the
    /// connect loop must already see the allocation); what it yields is
    /// charged as one `compute(SPAN_APPLY · spans + extra_ops)` (two
    /// charges round differently in `f64`). `replicated` makes it one copy
    /// of a state every rank holds: delta logging starts before the load,
    /// so the loaded spans are the first deltas [`optimize`] synchronizes.
    pub(crate) fn from_spans<'s>(
        (chan0, nchannels, width): (u32, usize, i64),
        replicated: bool,
        extra_ops: u64,
        comm: &mut Comm,
        spans: impl FnOnce(&mut Comm) -> &'s [Span],
    ) -> Self {
        let mut chans = ChannelState::new(chan0, nchannels, width);
        comm.charge_alloc(chans.modeled_bytes());
        chans.log = replicated.then(Vec::new);
        let spans = spans(comm);
        comm.compute(cost::SPAN_APPLY * spans.len() as u64 + extra_ops);
        // Span by span, as `add_span` logs: how the log grows is part of
        // the measured peak heap.
        spans.iter().for_each(|s| chans.record(s, &[1]));
        let placed = |s: &Span| (chan_idx(chan0, nchannels, s.channel), s.lo, s.hi, 1);
        DensityProfile::load_spans(&mut chans.profiles, spans.iter().map(placed));
        chans
    }

    /// Modeled memory footprint (for the per-node memory gate): the 1997
    /// structure at 32 B a column, which the virtual results are pinned
    /// to — not what [`DensityProfile`] allocates (16 B a column).
    pub fn modeled_bytes(&self) -> u64 {
        self.profiles.len() as u64 * (self.width as u64) * 32
    }

    fn idx(&self, channel: u32) -> usize {
        chan_idx(self.chan0, self.profiles.len(), channel)
    }

    pub fn covers(&self, channel: u32) -> bool {
        channel >= self.chan0 && ((channel - self.chan0) as usize) < self.profiles.len()
    }

    /// Add (`sign = 1`) or remove (`sign = -1`) a span.
    pub fn add_span(&mut self, span: &Span, sign: i32) {
        let i = self.idx(span.channel);
        self.profiles[i].add_span(span.lo, span.hi, sign as i64);
        self.record(span, &[sign]);
    }

    /// Peak density of a channel.
    pub fn channel_max(&self, channel: u32) -> i64 {
        self.profiles[self.idx(channel)].max()
    }

    /// Peak density each local channel would reach if a unit span were
    /// added over `[lo, hi]`.
    pub fn max_if_added(&self, channel: u32, lo: i64, hi: i64) -> i64 {
        self.profiles[self.idx(channel)].max_if_added(lo, hi)
    }

    /// Per-column counts of a channel (for boundary exchange).
    pub fn counts(&self, channel: u32) -> Vec<i64> {
        self.profiles[self.idx(channel)].counts()
    }

    /// On a replicated state, log `span` as added with each of `signs`.
    fn record(&mut self, span: &Span, signs: &[i32]) {
        if let Some(log) = &mut self.log {
            log.extend(signs.iter().map(|&sign| SpanDelta {
                chan: span.channel,
                lo: span.lo,
                hi: span.hi,
                sign,
            }));
        }
    }

    /// Peak density per local channel, in channel order.
    pub fn densities(&self) -> Vec<i64> {
        self.profiles.iter().map(|p| p.max()).collect()
    }

    /// Merge another rank's per-column counts into a channel as static
    /// background (row-wise boundary sync). Not logged.
    pub fn merge_background(&mut self, channel: u32, counts: &[i64], comm: &mut Comm) {
        comm.compute(cost::MERGE_COL * counts.len() as u64);
        let i = self.idx(channel);
        self.profiles[i].merge_counts(counts);
    }

    /// Drain the delta log.
    fn take_deltas(&mut self) -> Vec<SpanDelta> {
        std::mem::take(self.log.as_mut().expect("logging enabled"))
    }

    /// Between two slices of a sweep, on a replicated state: allgather
    /// every rank's deltas and merge the remote ones, plus the
    /// full-resolution replicated-array refresh every sync pays. Unless
    /// `exact`, a remote update overlapping a (channel, column bucket)
    /// this rank also wrote since the last sync is dropped.
    fn sync(&mut self, exact: bool, comm: &mut Comm) {
        let mine = self.take_deltas();
        if comm.size() == 1 {
            return; // nothing is replicated: the log is drained, that is all
        }
        let mut all: Vec<Vec<SpanDelta>> = comm.allgather(mine);
        if !exact {
            let own = std::mem::take(&mut all[comm.rank()]);
            drop_conflicts(&mut all, &own);
        }
        for (r, d) in all.iter().enumerate() {
            if r != comm.rank() {
                self.merge_external(d, comm);
            }
        }
        self.exchange_snapshot(comm);
        comm.compute(cost::MERGE_COL * self.width as u64 * self.profiles.len() as u64 / 8);
    }

    /// The naive all-channel snapshot exchange of the 1997 implementation:
    /// every rank ships its full channel-state snapshot to rank 0, which
    /// redistributes the combined state. The transfers are modeled (the
    /// actual reconciliation travels as deltas alongside); what matters to
    /// the simulation is that every synchronization moves
    /// `state_bytes × P` bytes through the network — "this is because all
    /// the processors will share all the channels and communication is more
    /// costly than computation" (§5).
    fn exchange_snapshot(&self, comm: &mut Comm) {
        // One track count per channel column.
        let state_bytes = self.profiles.len() * self.width as usize * 4;
        if comm.rank() == 0 {
            for src in 1..comm.size() {
                comm.recv_modeled(src, SNAPSHOT_TAG);
            }
            for dst in 1..comm.size() {
                comm.send_modeled(dst, SNAPSHOT_TAG, state_bytes);
            }
        } else {
            comm.send_modeled(0, SNAPSHOT_TAG, state_bytes);
            comm.recv_modeled(0, SNAPSHOT_TAG);
        }
    }

    /// Apply another rank's deltas (not logged). Charges per-delta update
    /// work plus a small fixed replicated-array touch.
    fn merge_external(&mut self, deltas: &[SpanDelta], comm: &mut Comm) {
        comm.compute(cost::MERGE_COL * deltas.len() as u64 + self.width as u64 / 8);
        for d in deltas {
            let i = self.idx(d.chan);
            self.profiles[i].add_span(d.lo, d.hi, d.sign as i64);
        }
    }
}

/// Indices of the spans step 5 may flip.
fn switchable_candidates(spans: &[Span]) -> Vec<u32> {
    spans
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.switch_row.map(|_| i as u32))
        .collect()
}

/// One greedy sweep over `order` (indices into `spans`): each switchable
/// span is scored in both channels and lands in the one with the lower
/// resulting peak (ties keep the current channel). Returns the number of
/// flips.
///
/// The scoring is incremental: with the span hypothetically removed,
/// `max_if_added` over its own range collapses to the *unmodified*
/// channel's current peak (`new_max = max(without_max,
/// without_span_max + 1)` telescopes back to the present maximum; the
/// plus-one term is the span re-added), and the opposite
/// channel is untouched by the removal. So the steady-state sweep issues
/// two read-only queries per span and mutates the tree only on an actual
/// flip — same decisions, same i64 comparisons, no per-segment
/// remove/re-insert churn.
fn optimize_slice(
    chans: &mut ChannelState,
    spans: &mut [Span],
    order: &[u32],
    comm: &mut Comm,
) -> usize {
    let mut flips = 0;
    let mut ops = 0u64;
    for &i in order {
        let span = spans[i as usize];
        let row = span.switch_row.expect("candidate is switchable");
        let (lower, upper) = (row, row + 1);
        debug_assert!(
            chans.covers(lower) && chans.covers(upper),
            "rank must own both channels of a switchable row"
        );
        let other = if span.channel == lower { upper } else { lower };
        let m_cur = chans.channel_max(span.channel);
        let m_other = chans.max_if_added(other, span.lo, span.hi);
        ops += 2 * cost::SWITCH_EVAL;
        if m_other < m_cur {
            flips += 1;
            chans.add_span(&span, -1);
            spans[i as usize].channel = other;
            chans.add_span(&spans[i as usize], 1);
        } else {
            // The remove / re-insert pair the optimizer historically emitted
            // for a span it scored but did not move: the replicated delta
            // stream (net-wise sync, §5) stays byte-identical whether or not
            // the sweep short-circuits the tree mutation.
            chans.record(&span, &[-1, 1]);
        }
    }
    comm.compute(ops);
    flips
}

/// Step 5's driver, for every algorithm: the sweeps of `route::refine` over
/// the switchable spans; returns this rank's flips. With replicated
/// `chans` the sweeps are synchronized ones — a rank sees remote spans
/// only when a sync delivers them ("all processors could assign the same
/// switchable net segments to the same channel", §5).
pub fn optimize(
    chans: &mut ChannelState,
    spans: &mut [Span],
    cfg: &RouterConfig,
    rng: &mut SmallRng,
    comm: &mut Comm,
) -> usize {
    let candidates = switchable_candidates(spans);
    let sync_period = chans.log.is_some().then_some(cfg.sync_period);
    refine(
        chans,
        (cfg.switch_passes, sync_period),
        comm,
        || {
            let perm = pgr_geom::shuffled_indices(candidates.len(), rng);
            perm.iter().map(|&k| candidates[k as usize]).collect()
        },
        |chans, chunk, comm| optimize_slice(chans, spans, chunk, comm),
        |chans, comm| chans.sync(cfg.netwise_exact_sync, comm),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_circuit::NetId;
    use pgr_geom::rng::rng_from_seed;
    use pgr_mpi::{MachineModel, Wire};
    use std::collections::HashSet;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    fn span(channel: u32, lo: i64, hi: i64, switch_row: Option<u32>) -> Span {
        Span {
            net: NetId(0),
            channel,
            lo,
            hi,
            switch_row,
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut ch = ChannelState::new(0, 3, 32);
        let s = span(1, 4, 20, None);
        ch.add_span(&s, 1);
        assert_eq!(ch.channel_max(1), 1);
        ch.add_span(&s, -1);
        assert_eq!(ch.channel_max(1), 0);
    }

    #[test]
    fn flip_moves_span_out_of_congested_channel() {
        let mut ch = ChannelState::new(0, 3, 32);
        // Congest channel 1.
        for _ in 0..4 {
            ch.add_span(&span(1, 0, 31, None), 1);
        }
        let mut spans = vec![span(1, 5, 15, Some(1))];
        ch.add_span(&spans[0], 1);
        let flips = optimize_slice(&mut ch, &mut spans, &[0], &mut comm());
        assert_eq!(flips, 1);
        assert_eq!(spans[0].channel, 2);
        assert_eq!(ch.channel_max(1), 4);
        assert_eq!(ch.channel_max(2), 1);
    }

    #[test]
    fn tie_keeps_current_channel() {
        let mut ch = ChannelState::new(0, 3, 32);
        let mut spans = vec![span(2, 5, 15, Some(1))];
        ch.add_span(&spans[0], 1);
        let flips = optimize_slice(&mut ch, &mut spans, &[0], &mut comm());
        assert_eq!(flips, 0, "equal channels: stay put");
        assert_eq!(spans[0].channel, 2);
        assert_eq!(ch.channel_max(2), 1);
    }

    #[test]
    fn optimize_balances_stacked_spans() {
        // 6 identical switchable spans initially stacked in channel 1;
        // the optimum splits them 3/3 across channels 1 and 2.
        let mut ch = ChannelState::new(0, 3, 32);
        let mut spans: Vec<Span> = (0..6).map(|_| span(1, 0, 31, Some(1))).collect();
        for s in &spans {
            ch.add_span(s, 1);
        }
        let cfg = RouterConfig::default();
        optimize(
            &mut ch,
            &mut spans,
            &cfg,
            &mut rng_from_seed(3),
            &mut comm(),
        );
        assert_eq!(ch.channel_max(1) + ch.channel_max(2), 6);
        assert_eq!(ch.channel_max(1), 3);
        assert_eq!(ch.channel_max(2), 3);
    }

    #[test]
    fn optimize_is_deterministic_per_seed() {
        let cfg = RouterConfig::default();
        let build = || {
            let mut ch = ChannelState::new(0, 4, 64);
            let mut spans: Vec<Span> = (0..20)
                .map(|i| {
                    span(
                        1 + (i % 2) as u32,
                        (i * 3) % 40,
                        (i * 3) % 40 + 20,
                        Some(1 + (i % 2) as u32 - if i % 2 == 1 { 1 } else { 0 }),
                    )
                })
                .collect();
            // Normalize: switch_row must be channel or channel-1.
            for s in spans.iter_mut() {
                s.switch_row = Some(s.channel.min(2));
                s.channel = s.switch_row.unwrap();
            }
            for s in &spans {
                ch.add_span(s, 1);
            }
            (ch, spans)
        };
        let (mut ch1, mut sp1) = build();
        optimize(&mut ch1, &mut sp1, &cfg, &mut rng_from_seed(9), &mut comm());
        let (mut ch2, mut sp2) = build();
        optimize(&mut ch2, &mut sp2, &cfg, &mut rng_from_seed(9), &mut comm());
        assert_eq!(sp1, sp2);
        assert_eq!(ch1.densities(), ch2.densities());
    }

    #[test]
    fn background_merge_influences_decisions() {
        // A neighbor rank reports heavy load in channel 2 (the upper
        // option); the local span must stay in channel 1.
        let mut ch = ChannelState::new(1, 2, 16); // channels 1, 2
        let mut spans = vec![span(1, 0, 15, Some(1))];
        ch.add_span(&spans[0], 1);
        ch.add_span(&span(1, 0, 15, None), 1); // make lower look busy (2 vs 0)
        let neighbor = vec![5i64; 16];
        ch.merge_background(2, &neighbor, &mut comm());
        let flips = optimize_slice(&mut ch, &mut spans, &[0], &mut comm());
        assert_eq!(flips, 0, "background keeps the span below");
        assert_eq!(spans[0].channel, 1);
    }

    #[test]
    fn delta_log_replays_remotely() {
        let mut a = ChannelState::new(0, 3, 32);
        a.log = Some(Vec::new());
        a.add_span(&span(1, 2, 9, None), 1);
        a.add_span(&span(2, 0, 31, None), 1);
        a.add_span(&span(1, 2, 9, None), -1);
        let deltas = a.take_deltas();
        assert_eq!(deltas.len(), 3);

        let mut b = ChannelState::new(0, 3, 32);
        b.merge_external(&deltas, &mut comm());
        for c in 0..3 {
            assert_eq!(a.channel_max(c), b.channel_max(c), "channel {c}");
        }
        assert!(a.take_deltas().is_empty(), "drained");
    }

    /// Seeded spans on channels 2..=5 of a 40-column chip, some reaching
    /// past either edge.
    fn seeded_spans(n: usize) -> Vec<Span> {
        let mut rng = rng_from_seed(0x10AD);
        (0..n)
            .map(|_| {
                let lo = rng.gen_range(-5..44i64);
                span(
                    rng.gen_range(2..6u32),
                    lo,
                    lo + rng.gen_range(0..30i64),
                    None,
                )
            })
            .collect()
    }

    #[test]
    fn from_spans_is_new_plus_add_span_per_span() {
        let spans = seeded_spans(200);
        let (shape, extra_ops) = ((2, 4, 40), 77);
        for replicated in [false, true] {
            let mut comm = Comm::solo(MachineModel::sparc_center_1000());
            let built =
                ChannelState::from_spans(shape, replicated, extra_ops, &mut comm, |_| &spans);

            let mut ref_comm = Comm::solo(MachineModel::sparc_center_1000());
            let mut reference = ChannelState::new(shape.0, shape.1, shape.2);
            ref_comm.charge_alloc(reference.modeled_bytes());
            reference.log = replicated.then(Vec::new);
            ref_comm.compute(cost::SPAN_APPLY * spans.len() as u64 + extra_ops);
            for s in &spans {
                reference.add_span(s, 1);
            }

            assert_eq!(built.densities(), reference.densities());
            for c in 2..6 {
                assert_eq!(built.counts(c), reference.counts(c), "channel {c}");
            }
            assert_eq!(built.log, reference.log, "replicated = {replicated}");
            assert_eq!(built.log.as_ref().map(Vec::len), replicated.then_some(200));
            assert_eq!(built.modeled_bytes(), reference.modeled_bytes());
            assert!(comm.now() > 0.0, "the load is charged");
            assert_eq!(comm.now(), ref_comm.now());
        }
    }

    #[test]
    #[should_panic(expected = "channel 6 above range")]
    fn from_spans_rejects_a_span_outside_the_state() {
        let mut spans = seeded_spans(10);
        spans.push(span(6, 0, 3, None));
        ChannelState::from_spans((2, 4, 40), false, 0, &mut comm(), |_| &spans);
    }

    #[test]
    fn candidates_filters_switchable() {
        let spans = vec![
            span(0, 0, 1, None),
            span(1, 0, 1, Some(1)),
            span(2, 0, 1, None),
            span(3, 0, 1, Some(3)),
        ];
        assert_eq!(switchable_candidates(&spans), vec![1, 3]);
    }

    #[test]
    fn incremental_sweep_matches_reference_and_delta_log() {
        // The incremental scorer must reproduce the historical
        // remove-score-reinsert sweep exactly: same flips, same densities,
        // and (with logging on) the same replicated delta stream.
        let build = || {
            let mut ch = ChannelState::new(0, 4, 64);
            ch.log = Some(Vec::new());
            let mut rng = rng_from_seed(0xD1CE);
            let spans: Vec<Span> = (0..40)
                .map(|_| {
                    let row = rng.gen_range(0..3u32);
                    let lo = rng.gen_range(0..50i64);
                    let hi = lo + rng.gen_range(0..14i64);
                    let chan = row + rng.gen_range(0..2u32);
                    span(chan, lo, hi, Some(row))
                })
                .collect();
            for s in &spans {
                ch.add_span(s, 1);
            }
            ch.take_deltas(); // drop setup deltas; compare sweep streams only
            let order: Vec<u32> = (0..spans.len() as u32).collect();
            (ch, spans, order)
        };

        let (mut ch_inc, mut sp_inc, order) = build();
        let flips_inc = optimize_slice(&mut ch_inc, &mut sp_inc, &order, &mut comm());
        let log_inc = ch_inc.take_deltas();

        // Reference: the pre-incremental algorithm, via the public API.
        let (mut ch_ref, mut sp_ref, order) = build();
        let mut flips_ref = 0;
        for &i in &order {
            let s = sp_ref[i as usize];
            let row = s.switch_row.unwrap();
            let (lower, upper) = (row, row + 1);
            ch_ref.add_span(&s, -1);
            let m_lower = ch_ref.max_if_added(lower, s.lo, s.hi);
            let m_upper = ch_ref.max_if_added(upper, s.lo, s.hi);
            let target = if s.channel == lower {
                if m_upper < m_lower {
                    upper
                } else {
                    lower
                }
            } else if m_lower < m_upper {
                lower
            } else {
                upper
            };
            if target != s.channel {
                flips_ref += 1;
                sp_ref[i as usize].channel = target;
            }
            ch_ref.add_span(&sp_ref[i as usize], 1);
        }
        let log_ref = ch_ref.take_deltas();

        assert_eq!(flips_inc, flips_ref);
        assert_eq!(sp_inc, sp_ref);
        assert_eq!(ch_inc.densities(), ch_ref.densities());
        assert_eq!(log_inc, log_ref, "replicated delta stream must not change");
        assert!(flips_inc > 0, "instance must exercise the flip path");
    }

    #[test]
    fn span_delta_wire_roundtrip() {
        let d = SpanDelta {
            chan: 4,
            lo: -1,
            hi: 99,
            sign: -1,
        };
        assert_eq!(SpanDelta::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    /// The conflict rule as the hash set that stated it: a remote delta
    /// is dropped when any `(channel, column bucket)` it writes is one
    /// this rank also wrote. The reference [`drop_conflicts`] is held to.
    fn drop_conflicts_reference(remote: &mut Vec<SpanDelta>, own: &[SpanDelta]) {
        fn buckets(d: &SpanDelta) -> impl Iterator<Item = (u32, i64)> + '_ {
            (d.lo / CONFLICT_BUCKET..=d.hi / CONFLICT_BUCKET).map(move |b| (d.chan, b))
        }
        let own: HashSet<(u32, i64)> = own.iter().flat_map(buckets).collect();
        remote.retain(|d| !buckets(d).any(|k| own.contains(&k)));
    }

    #[test]
    fn sorted_conflict_filter_matches_the_hash_set_rule() {
        let mut rng = rng_from_seed(0xB0C4);
        let mut dropped = 0;
        for case in 0..200 {
            // Narrow and bucket-straddling spans, a few channels, columns
            // on both sides of zero (the division truncates towards it).
            let mut deltas = |n: usize| -> Vec<SpanDelta> {
                (0..n)
                    .map(|_| {
                        let lo = rng.gen_range(-300i64..3000);
                        SpanDelta {
                            chan: rng.gen_range(0..4u32),
                            lo,
                            hi: lo + rng.gen_range(0i64..700),
                            sign: if rng.gen_bool(0.5) { 1 } else { -1 },
                        }
                    })
                    .collect()
            };
            let own = deltas(case % 7);
            let remote = deltas(1 + case % 23);
            // Two remote ranks sent `remote` (the slot between them is this
            // rank's own, taken out); both are filtered alike.
            let mut all = [remote.clone(), Vec::new(), remote.clone()];
            drop_conflicts(&mut all, &own);
            let mut reference = remote.clone();
            drop_conflicts_reference(&mut reference, &own);
            let [fast, taken, last] = all;
            assert_eq!(fast, reference, "case {case}");
            assert_eq!(last, reference, "case {case}: every remote rank");
            assert!(taken.is_empty());
            dropped += remote.len() - fast.len();
            if own.is_empty() {
                assert_eq!(fast, remote, "nothing written, nothing dropped");
            }
        }
        assert!(dropped > 0, "the cases must exercise the drop path");
    }
}
