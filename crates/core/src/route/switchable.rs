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
//! synchronization, §4); built *replicated* (net-wise, §5) it logs what
//! it does, compact, and synchronizes the copies itself, between the
//! slices of [`optimize`] — the one sweep driver of every algorithm.

use crate::config::{RouterConfig, SWITCH_PASSES};
use crate::cost;
use crate::route::state::{Grid, Span};
use crate::route::{chan_idx, gather, refine};
use pgr_geom::rng::SmallRng;
use pgr_geom::DensityProfile;
use pgr_mpi::wire::Wire;
use pgr_mpi::Comm;

pgr_mpi::wire_struct!(
    /// One channel update of the 1997 sync stream: `sign` added over
    /// `[lo, hi]` of `chan`. What a [`Record`] expands to, and what a
    /// sync is billed per update.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct SpanDelta {
        chan: u32,
        lo: i64,
        hi: i64,
        sign: i32,
    }
);

/// One entry of a replicated state's log, in the order written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    /// A span [`ChannelState::from_spans`] loaded: `+1` over `[lo, hi]`
    /// of `chan`.
    Load { chan: u32, lo: i64, hi: i64 },
    /// A span the sweep scored but did not move: the `−1, +1` pair over
    /// one range the optimizer historically emitted for it.
    Kept { chan: u32, lo: i64, hi: i64 },
    /// A span the sweep moved: `−1` on `from`, then `+1` on `to`.
    Flip {
        from: u32,
        to: u32,
        lo: i64,
        hi: i64,
    },
}

impl Record {
    const LOAD: u8 = 0;
    const KEPT: u8 = 1;
    const FLIP: u8 = 2;

    /// The [`SpanDelta`]s this record stands for, in stream order.
    fn halves(self) -> (SpanDelta, Option<SpanDelta>) {
        let delta = |chan, lo, hi, sign| SpanDelta { chan, lo, hi, sign };
        match self {
            Record::Load { chan, lo, hi } => (delta(chan, lo, hi, 1), None),
            Record::Kept { chan, lo, hi } => {
                (delta(chan, lo, hi, -1), Some(delta(chan, lo, hi, 1)))
            }
            Record::Flip { from, to, lo, hi } => {
                (delta(from, lo, hi, -1), Some(delta(to, lo, hi, 1)))
            }
        }
    }

    /// How many [`SpanDelta`]s this record stands for.
    fn deltas(self) -> usize {
        1 + usize::from(!matches!(self, Record::Load { .. }))
    }

    /// Read the record `bytes` starts with ([`Record::write`]) and step
    /// past it.
    fn read(bytes: &mut &[u8]) -> Self {
        let head = read_field(bytes, 1) as u8;
        let w = 2 << (head >> 2);
        let chan = read_field(bytes, w) as u32;
        let to = if head & 3 == Record::FLIP {
            read_field(bytes, w) as u32
        } else {
            0
        };
        let lo = signed(read_field(bytes, w), w);
        let hi = signed(read_field(bytes, w), w);
        match head & 3 {
            Record::LOAD => Record::Load { chan, lo, hi },
            Record::KEPT => Record::Kept { chan, lo, hi },
            _ => Record::Flip {
                from: chan,
                to,
                lo,
                hi,
            },
        }
    }

    /// A head byte — the kind, and the width of every field: 2, 4 or 8
    /// bytes, the least all of them fit — then the channel (two for a
    /// flip), `lo` and `hi`, little-endian.
    fn write(self, out: &mut Vec<u8>) {
        let (kind, chan, to, lo, hi) = match self {
            Record::Load { chan, lo, hi } => (Record::LOAD, chan, None, lo, hi),
            Record::Kept { chan, lo, hi } => (Record::KEPT, chan, None, lo, hi),
            Record::Flip { from, to, lo, hi } => (Record::FLIP, from, Some(to), lo, hi),
        };
        let chans = u64::from(chan.max(to.unwrap_or(0)));
        let fits = |&w: &usize| {
            w == 8 || chans >> (8 * w) == 0 && [lo, hi].iter().all(|&v| signed(v as u64, w) == v)
        };
        let w = [2, 4, 8].into_iter().find(fits).expect("eight bytes fit");
        out.push(kind | (w.trailing_zeros() as u8 - 1) << 2);
        let mut field = |v: u64| out.extend_from_slice(&v.to_le_bytes()[..w]);
        field(chan.into());
        to.into_iter().for_each(|to| field(to.into()));
        field(lo as u64);
        field(hi as u64);
    }
}

/// The `w`-byte little-endian field `bytes` starts with, zero-extended;
/// `bytes` steps past it.
fn read_field(bytes: &mut &[u8], w: usize) -> u64 {
    let (f, rest) = bytes.split_at(w);
    *bytes = rest;
    match w {
        1 => f[0].into(),
        2 => u16::from_le_bytes([f[0], f[1]]).into(),
        4 => u32::from_le_bytes([f[0], f[1], f[2], f[3]]).into(),
        _ => u64::from_le_bytes(f.try_into().expect("eight bytes")),
    }
}

/// A `w`-byte field read back as the signed value it was cut from.
fn signed(v: u64, w: usize) -> i64 {
    let unused = 64 - 8 * w as u32;
    ((v << unused) as i64) >> unused
}

/// A replicated state's log since the last sync, compact: each
/// [`Record`] a head byte and fields as narrow as its values allow
/// ([`Record::write`]) — 7 or 9 bytes on a chip narrower than 32 768
/// columns, where the [`SpanDelta`]s it expands to take 24 or 48. The
/// sync hands it over in a charged frame billed as those `SpanDelta`s
/// ([`SwitchLog::dense_len`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SwitchLog {
    records: Vec<u8>,
    /// How many `SpanDelta`s the records expand to.
    deltas: usize,
}

impl SwitchLog {
    fn push(&mut self, record: Record) {
        record.write(&mut self.records);
        self.deltas += record.deltas();
    }

    fn records(&self) -> impl Iterator<Item = Record> + Clone + '_ {
        let mut rest = &self.records[..];
        std::iter::from_fn(move || (!rest.is_empty()).then(|| Record::read(&mut rest)))
    }

    /// What a sync bills the log at: the `Vec<SpanDelta>` it expands to,
    /// encoded, as the 1997 implementation shipped it.
    fn dense_len(&self) -> usize {
        4 + SpanDelta::SIZE.expect("fixed-size record") * self.deltas
    }
}

/// Tag of the snapshot-exchange payloads.
const SNAPSHOT_TAG: u32 = 3;

/// Column bucket used for write-write conflict detection on the
/// full-resolution channel state.
const CONFLICT_BUCKET: i64 = 256;

/// The `(channel, column bucket)`s this rank wrote since the last sync,
/// marked in one table over the channels and buckets its log spans: a
/// few kilobytes whatever the log's length. A remote update that touches
/// one of them is dropped ([`ChannelState::sync`]). (A list of keys is as
/// long as the log — at the first sync the largest transient of a rank,
/// and whether it overlapped the peer decoding the broadcast decided the
/// net-wise peak heap.)
#[derive(Debug)]
struct Written {
    /// Channels `chans.0 ..= chans.1`, buckets `buckets.0 ..= buckets.1`;
    /// an empty range when nothing was written.
    chans: (u32, u32),
    buckets: (i64, i64),
    table: Grid,
}

impl Written {
    /// The buckets `d` writes.
    fn buckets(d: &SpanDelta) -> (i64, i64) {
        (d.lo / CONFLICT_BUCKET, d.hi / CONFLICT_BUCKET)
    }

    /// What `own` writes: one pass for the table's bounds, one to mark.
    /// A span whose last bucket precedes its first writes none.
    fn of(own: &SwitchLog) -> Self {
        let writes = own.records().flat_map(|rec| {
            let (first, second) = rec.halves();
            // Both halves of a kept pair write the same buckets.
            let second = second.filter(|_| !matches!(rec, Record::Kept { .. }));
            std::iter::once(first).chain(second).filter_map(|d| {
                let (lo, hi) = Written::buckets(&d);
                (lo <= hi).then_some((d.chan, lo, hi))
            })
        });
        let (mut c, mut b) = ((u32::MAX, 0), (i64::MAX, i64::MIN));
        for (chan, lo, hi) in writes.clone() {
            c = (c.0.min(chan), c.1.max(chan));
            b = (b.0.min(lo), b.1.max(hi));
        }
        let table = if c.0 > c.1 {
            Grid::new(0, 0)
        } else {
            let mut table = Grid::new((c.1 - c.0) as usize + 1, (b.1 - b.0) as usize + 1);
            for (chan, lo, hi) in writes {
                let row = &mut table[(chan - c.0) as usize];
                row[(lo - b.0) as usize..=(hi - b.0) as usize].fill(1);
            }
            table
        };
        Written {
            chans: c,
            buckets: b,
            table,
        }
    }

    /// Whether `d` touches a `(channel, bucket)` marked here.
    fn hits(&self, d: &SpanDelta) -> bool {
        let (c, b) = (self.chans, self.buckets);
        if !(c.0..=c.1).contains(&d.chan) {
            return false;
        }
        let row = &self.table[(d.chan - c.0) as usize];
        let k = Written::buckets(d);
        (k.0.max(b.0)..=k.1.min(b.1)).any(|k| row[(k - b.0) as usize] != 0)
    }
}

/// The modeled footprint of `nchannels` channels of `width` columns: the
/// 1997 structure at 32 B a column.
fn modeled_bytes(nchannels: usize, width: i64) -> u64 {
    nchannels as u64 * (width as u64) * 32
}

/// Column-resolution congestion over channels `chan0 ..= chan0 + n - 1`.
pub struct ChannelState {
    chan0: u32,
    width: i64,
    profiles: Vec<DensityProfile>,
    /// `Some` on a replicated state: the updates since the last sync.
    log: Option<SwitchLog>,
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
    /// of a state every rank holds: every loaded span is logged, so the
    /// loads are the first records [`optimize`] synchronizes.
    ///
    /// The model charges the state before `spans` runs; the host allocates
    /// its profiles only after `spans` returns, so they never share the
    /// heap with what a Connect pass frees inside it (the work nets).
    pub(crate) fn from_spans<'s>(
        (chan0, nchannels, width): (u32, usize, i64),
        replicated: bool,
        extra_ops: u64,
        comm: &mut Comm,
        spans: impl FnOnce(&mut Comm) -> &'s [Span],
    ) -> Self {
        comm.charge_alloc(modeled_bytes(nchannels, width));
        let spans = spans(comm);
        let mut chans = ChannelState::new(chan0, nchannels, width);
        comm.compute(cost::SPAN_APPLY * spans.len() as u64 + extra_ops);
        if replicated {
            let mut log = SwitchLog::default();
            for s in spans {
                let (chan, lo, hi) = (s.channel(), s.lo, s.hi);
                log.push(Record::Load { chan, lo, hi });
            }
            chans.log = Some(log);
        }
        let placed = |s: &Span| (chan_idx(chan0, nchannels, s.channel()), s.lo, s.hi, 1);
        DensityProfile::load_spans(&mut chans.profiles, spans.iter().map(placed));
        chans
    }

    /// Modeled memory footprint (for the per-node memory gate): the 1997
    /// structure at 32 B a column, which the virtual results are pinned
    /// to — not what [`DensityProfile`] allocates (4 B a column).
    pub fn modeled_bytes(&self) -> u64 {
        modeled_bytes(self.profiles.len(), self.width)
    }

    fn idx(&self, channel: u32) -> usize {
        chan_idx(self.chan0, self.profiles.len(), channel)
    }

    pub fn covers(&self, channel: u32) -> bool {
        channel >= self.chan0 && ((channel - self.chan0) as usize) < self.profiles.len()
    }

    /// Add (`sign = 1`) or remove (`sign = -1`) a span. Not logged.
    pub fn add_span(&mut self, span: &Span, sign: i32) {
        let i = self.idx(span.channel());
        self.profiles[i].add_span(span.lo, span.hi, sign as i64);
    }

    /// Move the switchable `span` to the other channel of its row, logged
    /// as one flip.
    fn flip(&mut self, span: &Span) {
        let mut moved = *span;
        moved.flip();
        self.add_span(span, -1);
        self.add_span(&moved, 1);
        let (from, to, lo, hi) = (span.channel(), moved.channel(), span.lo, span.hi);
        self.record(Record::Flip { from, to, lo, hi });
    }

    /// On a replicated state, log `record`.
    fn record(&mut self, record: Record) {
        if let Some(log) = &mut self.log {
            log.push(record);
        }
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

    /// Between two slices of a sweep, on a replicated state: allgather
    /// every rank's log and merge the remote ones, plus the
    /// full-resolution replicated-array refresh every sync pays. The logs
    /// travel compact in a charged frame, billed as the `SpanDelta`
    /// streams they expand to. Unless `exact`, a remote update overlapping
    /// a (channel, column bucket) this rank also wrote since the last sync
    /// is dropped.
    fn sync(&mut self, exact: bool, comm: &mut Comm) {
        let mine = std::mem::take(self.log.as_mut().expect("logging enabled"));
        if comm.size() == 1 {
            return; // nothing is replicated: the log is drained, that is all
        }
        let all = comm.allgather_charged(mine, SwitchLog::dense_len);
        let written = (!exact).then(|| Written::of(&all[comm.rank()]));
        for (r, log) in all.iter().enumerate() {
            if r != comm.rank() {
                self.merge_external(log, written.as_ref(), comm);
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

    /// Apply another rank's log (not logged): every `SpanDelta` it expands
    /// to, but those that hit `written`. Charges per-delta update work for
    /// each one kept plus a small fixed replicated-array touch. A kept
    /// pair is counted and not applied: `−1` then `+1` over one range
    /// leaves a profile as it was (its peak and peak count are functions
    /// of its columns), and both halves hit `written` or neither.
    fn merge_external(&mut self, log: &SwitchLog, written: Option<&Written>, comm: &mut Comm) {
        let kept = |d: &SpanDelta| written.is_none_or(|w| !w.hits(d));
        let mut merged = 0u64;
        for rec in log.records() {
            let (first, second) = rec.halves();
            if let Record::Kept { .. } = rec {
                merged += 2 * u64::from(kept(&first));
                continue;
            }
            for d in std::iter::once(first).chain(second).filter(kept) {
                merged += 1;
                let i = self.idx(d.chan);
                self.profiles[i].add_span(d.lo, d.hi, d.sign as i64);
            }
        }
        comm.compute(cost::MERGE_COL * merged + self.width as u64 / 8);
    }
}

/// Indices of the spans step 5 may flip.
fn switchable_candidates(spans: &[Span]) -> Vec<u32> {
    // Counted first, so the list is sized exactly.
    let count = spans.iter().filter(|s| s.switch_row().is_some()).count();
    let mut candidates = Vec::with_capacity(count);
    candidates.extend(
        spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.switch_row().map(|_| i as u32)),
    );
    candidates
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
    // `order` is `candidates` permuted, and a visit writes only its own
    // span's channel.
    gather(spans, order, |spans, i, span| {
        let row = span.switch_row().expect("candidate is switchable");
        let (lower, upper) = (row, row + 1);
        debug_assert!(
            chans.covers(lower) && chans.covers(upper),
            "rank must own both channels of a switchable row"
        );
        let channel = span.channel();
        let other = if channel == lower { upper } else { lower };
        let m_cur = chans.channel_max(channel);
        let m_other = chans.max_if_added(other, span.lo, span.hi);
        ops += 2 * cost::SWITCH_EVAL;
        if m_other < m_cur {
            flips += 1;
            chans.flip(&span);
            spans[i].flip();
        } else {
            // The remove / re-insert pair the optimizer historically emitted
            // for a span it scored but did not move: the replicated stream
            // (net-wise sync, §5) is billed and filtered as before, though
            // the sweep never mutates the profile for it.
            let (chan, lo, hi) = (channel, span.lo, span.hi);
            chans.record(Record::Kept { chan, lo, hi });
        }
    });
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
        (SWITCH_PASSES, sync_period),
        comm,
        || {
            // The draws of `shuffled_indices`, made on a copy of the
            // candidates themselves: no permutation is held beside the
            // order, which sets net-wise's heap peak.
            let mut order = candidates.clone();
            pgr_geom::shuffle(&mut order, rng);
            order
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
    use pgr_mpi::MachineModel;
    use std::collections::HashSet;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    fn span(channel: u32, lo: i64, hi: i64, switch_row: Option<u32>) -> Span {
        Span::new(NetId(0), channel, lo, hi, switch_row)
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
        assert_eq!(spans[0].channel(), 2);
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
        assert_eq!(spans[0].channel(), 2);
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
            // Each span in the lower channel of its row, rows 1 and 2.
            let spans: Vec<Span> = (0..20)
                .map(|i| {
                    let row = 1 + (i % 2) as u32;
                    span(row, (i * 3) % 40, (i * 3) % 40 + 20, Some(row))
                })
                .collect();
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
        assert_eq!(spans[0].channel(), 1);
    }

    /// The log `chans` holds, drained.
    fn take_log(chans: &mut ChannelState) -> SwitchLog {
        std::mem::take(chans.log.as_mut().expect("logging enabled"))
    }

    /// Every `SpanDelta` of `log`, in stream order.
    fn expand(log: &SwitchLog) -> impl Iterator<Item = SpanDelta> + '_ {
        log.records().flat_map(|rec| {
            let (first, second) = rec.halves();
            std::iter::once(first).chain(second)
        })
    }

    fn delta(chan: u32, lo: i64, hi: i64, sign: i32) -> SpanDelta {
        SpanDelta { chan, lo, hi, sign }
    }

    #[test]
    fn delta_log_replays_remotely() {
        let loads = [span(1, 2, 9, Some(0)), span(2, 0, 31, None)];
        let mut a = ChannelState::from_spans((0, 3, 32), true, 0, &mut comm(), |_| &loads);
        a.flip(&loads[0]);
        a.record(Record::Kept {
            chan: 2,
            lo: 0,
            hi: 31,
        });
        let log = take_log(&mut a);
        let expanded: Vec<SpanDelta> = expand(&log).collect();
        let stream = [
            delta(1, 2, 9, 1),
            delta(2, 0, 31, 1),
            delta(1, 2, 9, -1),
            delta(0, 2, 9, 1),
            delta(2, 0, 31, -1),
            delta(2, 0, 31, 1),
        ];
        assert_eq!(expanded, stream, "record for record, the 1997 stream");
        assert_eq!(log.dense_len(), stream.to_vec().to_bytes().len());

        let mut b = ChannelState::new(0, 3, 32);
        b.merge_external(&log, None, &mut comm());
        for c in 0..3 {
            assert_eq!(a.channel_max(c), b.channel_max(c), "channel {c}");
            assert_eq!(a.counts(c), b.counts(c), "channel {c}");
        }
        assert_eq!(take_log(&mut a), SwitchLog::default(), "drained");
    }

    /// Every field width, extremes included: each record reads back as
    /// it was written, and the log counts the deltas they expand to.
    #[test]
    fn switch_log_records_roundtrip() {
        let mut log = SwitchLog::default();
        let records = [
            Record::Load {
                chan: 0,
                lo: -3,
                hi: 1 << 40,
            },
            Record::Kept {
                chan: u32::MAX,
                lo: i64::MIN,
                hi: i64::MAX,
            },
            Record::Flip {
                from: 7,
                to: 6,
                lo: i64::MAX,
                hi: i64::MIN,
            },
            Record::Flip {
                from: 0,
                to: 1,
                lo: 5,
                hi: 4,
            },
        ];
        for rec in records {
            log.push(rec);
        }
        assert!(
            log.records().eq(records),
            "{:?}",
            log.records().collect::<Vec<_>>()
        );
        assert_eq!(log.deltas, 7);
        assert_eq!(log.dense_len(), 4 + 24 * 7, "billed as seven SpanDeltas");
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
            ref_comm.compute(cost::SPAN_APPLY * spans.len() as u64 + extra_ops);
            let mut ref_log = Vec::new();
            for s in &spans {
                reference.add_span(s, 1);
                ref_log.push(delta(s.channel(), s.lo, s.hi, 1));
            }

            assert_eq!(built.densities(), reference.densities());
            for c in 2..6 {
                assert_eq!(built.counts(c), reference.counts(c), "channel {c}");
            }
            let log = built
                .log
                .as_ref()
                .map(|log| expand(log).collect::<Vec<_>>());
            assert_eq!(
                log,
                replicated.then_some(ref_log),
                "replicated = {replicated}"
            );
            assert_eq!(
                built.log.as_ref().map(|log| log.deltas),
                replicated.then_some(200)
            );
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
            ch.log = Some(SwitchLog::default()); // compare sweep streams only
            let order: Vec<u32> = (0..spans.len() as u32).collect();
            (ch, spans, order)
        };

        let (mut ch_inc, mut sp_inc, order) = build();
        let flips_inc = optimize_slice(&mut ch_inc, &mut sp_inc, &order, &mut comm());
        let log_inc: Vec<SpanDelta> = expand(&take_log(&mut ch_inc)).collect();

        // Reference: the pre-incremental algorithm, via the public API.
        // The replicated stream: each span's removal, then its re-add.
        let (mut ch_ref, mut sp_ref, order) = build();
        let (mut flips_ref, mut log_ref) = (0, Vec::new());
        for &i in &order {
            let s = sp_ref[i as usize];
            let row = s.switch_row().unwrap();
            let (lower, upper) = (row, row + 1);
            ch_ref.add_span(&s, -1);
            log_ref.push(delta(s.channel(), s.lo, s.hi, -1));
            let m_lower = ch_ref.max_if_added(lower, s.lo, s.hi);
            let m_upper = ch_ref.max_if_added(upper, s.lo, s.hi);
            let target = if s.channel() == lower {
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
            if target != s.channel() {
                flips_ref += 1;
                sp_ref[i as usize].flip();
            }
            ch_ref.add_span(&sp_ref[i as usize], 1);
            log_ref.push(delta(target, s.lo, s.hi, 1));
        }

        assert_eq!(flips_inc, flips_ref);
        assert_eq!(sp_inc, sp_ref);
        assert_eq!(ch_inc.densities(), ch_ref.densities());
        assert_eq!(log_inc, log_ref, "replicated delta stream must not change");
        assert!(flips_inc > 0, "instance must exercise the flip path");
    }

    #[test]
    fn gathered_sweep_matches_a_per_index_loop() {
        // `optimize_slice` copies each block of the order before scoring
        // it; a loop that reads each span as it visits it must decide the
        // same, over more than three blocks of a shuffled order.
        let mut rng = rng_from_seed(0x6A7E);
        let spans: Vec<Span> = (0..3 * crate::route::GATHER + 13)
            .map(|_| {
                let row = rng.gen_range(0..3u32);
                let lo = rng.gen_range(0..50i64);
                let chan = row + rng.gen_range(0..2u32);
                span(chan, lo, lo + rng.gen_range(0..14i64), Some(row))
            })
            .collect();
        let order = pgr_geom::shuffled_indices(spans.len(), &mut rng);
        let load = |spans: &[Span]| {
            let mut ch = ChannelState::new(0, 4, 64);
            spans.iter().for_each(|s| ch.add_span(s, 1));
            ch
        };

        let (mut ch_got, mut got) = (load(&spans), spans.clone());
        let flips_got = optimize_slice(&mut ch_got, &mut got, &order, &mut comm());

        let (mut ch_want, mut want) = (load(&spans), spans);
        let mut flips_want = 0;
        for &i in &order {
            let s = want[i as usize];
            let row = s.switch_row().unwrap();
            let other = if s.channel() == row { row + 1 } else { row };
            if ch_want.max_if_added(other, s.lo, s.hi) < ch_want.channel_max(s.channel()) {
                flips_want += 1;
                ch_want.flip(&s);
                want[i as usize].flip();
            }
        }

        assert!(flips_got > 0, "instance must flip in its first sweep");
        assert_eq!(flips_got, flips_want);
        assert_eq!(got, want, "every span's channel");
        for c in 0..4 {
            assert_eq!(ch_got.channel_max(c), ch_want.channel_max(c), "channel {c}");
        }
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

    /// What `own` wrote.
    fn written_by(own: &[SpanDelta]) -> Written {
        // A load writes the buckets of any update over its range.
        let mut log = SwitchLog::default();
        own.iter().for_each(|d| {
            let (chan, lo, hi) = (d.chan, d.lo, d.hi);
            log.push(Record::Load { chan, lo, hi });
        });
        Written::of(&log)
    }

    /// The old sync's filter: drop from the `remote` ranks' deltas those
    /// that hit what `own` wrote.
    fn drop_conflicts(remote: &mut [Vec<SpanDelta>], own: &[SpanDelta]) {
        let written = written_by(own);
        remote
            .iter_mut()
            .for_each(|deltas| deltas.retain(|d| !written.hits(d)));
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

    /// The sync as it was: every rank's expanded `SpanDelta`s in a plain
    /// allgather, [`drop_conflicts`], then each remote stream applied
    /// delta by delta.
    fn reference_sync(
        chans: &mut ChannelState,
        mine: Vec<SpanDelta>,
        exact: bool,
        comm: &mut Comm,
    ) {
        let mut all = comm.allgather(mine);
        if !exact {
            let own = std::mem::take(&mut all[comm.rank()]);
            drop_conflicts(&mut all, &own);
        }
        for (r, deltas) in all.iter().enumerate() {
            if r != comm.rank() {
                comm.compute(cost::MERGE_COL * deltas.len() as u64 + chans.width as u64 / 8);
                for d in deltas {
                    let i = chans.idx(d.chan);
                    chans.profiles[i].add_span(d.lo, d.hi, d.sign as i64);
                }
            }
        }
        chans.exchange_snapshot(comm);
        comm.compute(cost::MERGE_COL * chans.width as u64 * chans.profiles.len() as u64 / 8);
    }

    const DIFF_CHANNELS: u32 = 4;
    const DIFF_WIDTH: i64 = 700;

    /// Rank `rank`'s records of sync period `period` in case `case`:
    /// loads, kept pairs and flips between adjacent channels, columns
    /// reaching below 0 and past the width.
    fn seeded_records(case: u64, rank: usize, period: u64) -> Vec<Record> {
        let mut rng = rng_from_seed(case * 1_000 + rank as u64 * 100 + period);
        (0..rng.gen_range(0..40usize))
            .map(|_| {
                let chan = rng.gen_range(0..DIFF_CHANNELS);
                let lo = rng.gen_range(-60..DIFF_WIDTH + 20);
                let hi = lo + rng.gen_range(0..400i64);
                match rng.gen_range(0..3u32) {
                    0 => Record::Load { chan, lo, hi },
                    1 => Record::Kept { chan, lo, hi },
                    _ if chan == 0 => Record::Flip {
                        from: 0,
                        to: 1,
                        lo,
                        hi,
                    },
                    _ => Record::Flip {
                        from: chan,
                        to: chan - 1,
                        lo,
                        hi,
                    },
                }
            })
            .collect()
    }

    const PERIODS: u64 = 4;

    /// Every period's records applied to this rank's state as the router
    /// writes them, then synchronized: compact (`compact`) or through
    /// [`reference_sync`]. Returns each profile's columns, peak and peak
    /// count.
    fn run_periods(case: u64, exact: bool, compact: bool, comm: &mut Comm) -> Vec<String> {
        let mut chans = ChannelState::new(0, DIFF_CHANNELS as usize, DIFF_WIDTH);
        chans.log = compact.then(SwitchLog::default);
        for period in 0..PERIODS {
            let mut mine = Vec::new();
            for rec in seeded_records(case, comm.rank(), period) {
                mine.extend(std::iter::once(rec.halves().0).chain(rec.halves().1));
                match rec {
                    Record::Load { chan, lo, hi } => {
                        chans.add_span(&span(chan, lo, hi, None), 1);
                        chans.record(rec);
                    }
                    Record::Kept { .. } => chans.record(rec),
                    Record::Flip { from, to, lo, hi } => {
                        chans.flip(&span(from, lo, hi, Some(from.min(to))));
                    }
                }
            }
            if compact {
                chans.sync(exact, comm);
            } else {
                reference_sync(&mut chans, mine, exact, comm);
            }
        }
        chans.profiles.iter().map(|p| format!("{p:?}")).collect()
    }

    #[test]
    fn compact_sync_matches_the_span_delta_sync() {
        let machine = MachineModel::sparc_center_1000();
        let mut split_flips = 0;
        for size in [2, 3] {
            for exact in [false, true] {
                for case in 0..12 {
                    let run = |compact: bool| {
                        pgr_mpi::run(size, machine, move |comm| {
                            run_periods(case, exact, compact, comm)
                        })
                    };
                    let (old, new) = (run(false), run(true));
                    let what = format!("P={size} exact={exact} case {case}");
                    assert_eq!(old.results, new.results, "{what}: columns, peak, npeak");
                    for (o, n) in old.stats.iter().zip(&new.stats) {
                        assert_eq!(o.time.to_bits(), n.time.to_bits(), "{what}: clock");
                        assert_eq!(o.bytes_sent, n.bytes_sent, "{what}: billed bytes");
                    }
                    assert_eq!(old.stats, new.stats, "{what}");
                }
            }
        }
        // The cases hold flips whose two halves are filtered apart.
        for case in 0..12 {
            for period in 0..PERIODS {
                let own = seeded_records(case, 0, period);
                let own: Vec<SpanDelta> = own
                    .iter()
                    .flat_map(|r| std::iter::once(r.halves().0).chain(r.halves().1))
                    .collect();
                let written = written_by(&own);
                for rec in seeded_records(case, 1, period) {
                    if let (first, Some(second)) = rec.halves() {
                        split_flips += usize::from(written.hits(&first) != written.hits(&second));
                    }
                }
            }
        }
        assert!(split_flips > 0, "no flip had its halves filtered apart");
    }
}
