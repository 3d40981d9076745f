//! Shared working state of the routing pipeline.
//!
//! The five TWGR steps communicate through a handful of small value
//! types: connection **nodes** (pins, partition-boundary fake pins, and
//! assigned feedthroughs), Steiner-tree **segments** with an L-shape
//! orientation, final horizontal **spans** in channels, and the
//! feedthrough **plan** (per-row, per-grid-column demand with the cell
//! shifts it induces). All of them serialize with [`pgr_mpi::Wire`] so the
//! parallel algorithms can ship them between ranks unchanged.

use crate::config::FT_WIDTH;
use pgr_circuit::model::MAX_CHANNEL_COLUMNS;
use pgr_circuit::{NetId, MAX_PINS, MAX_ROWS};
use pgr_mpi::wire::{Reader, Wire, WireError};

/// Which channels a node may attach a same-row connection to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelPref {
    /// Only the channel below the node's row (a Bottom-side pin).
    Lower,
    /// Only the channel above the node's row (a Top-side pin).
    Upper,
    /// Either channel (an equivalent pin, a feedthrough, or a fake pin).
    Either,
}

impl Wire for ChannelPref {
    const SIZE: Option<usize> = Some(1);
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ChannelPref::Lower => 0,
            ChannelPref::Upper => 1,
            ChannelPref::Either => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(ChannelPref::Lower),
            1 => Ok(ChannelPref::Upper),
            2 => Ok(ChannelPref::Either),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// What a connection node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A real pin (index into the circuit's pin table).
    Pin(u32),
    /// A fake pin introduced at a partition boundary (§4): not attached
    /// to any cell, so it never shifts with feedthrough insertion.
    Fake,
    /// An assigned feedthrough: vertically crosses its row, reachable
    /// from both adjacent channels.
    Feedthrough,
    /// A Steiner junction introduced by MST refinement (an extension
    /// over the paper's plain MST approximation): a wire junction, not
    /// a cell terminal — it shifts with the routing grid like a fake
    /// pin but, as an ordinary tree endpoint, demands no feedthrough of
    /// its own.
    Steiner,
}

impl Wire for NodeKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeKind::Pin(p) => {
                out.push(0);
                p.encode(out);
            }
            NodeKind::Fake => out.push(1),
            NodeKind::Feedthrough => out.push(2),
            NodeKind::Steiner => out.push(3),
        }
    }
    fn wire_len(&self) -> usize {
        match self {
            NodeKind::Pin(_) => 5,
            _ => 1,
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(NodeKind::Pin(u32::decode(r)?)),
            1 => Ok(NodeKind::Fake),
            2 => Ok(NodeKind::Feedthrough),
            3 => Ok(NodeKind::Steiner),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A connection node: a point on a row that a net must reach.
///
/// 12 bytes: the column, the row, and one word that packs the kind tag
/// (top 2 bits), a pin's id (the middle 28 bits, zero for the other
/// kinds) and the channel preference (low 2 bits), so the word orders
/// as `sort_key`'s last three fields do. A pin id must stay below
/// [`pgr_circuit::MAX_PINS`] (2^28), which circuit validation checks.
/// The column is 32 bits: every column of a validated circuit's route
/// is below 2^31 (`MAX_ROUTED_COLUMN`), so the field holds it; it is
/// read as an `i64` through [`Node::x`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Absolute column. For pin nodes this is updated after feedthrough
    /// insertion shifts cells ([`Node::set_x`]); fake pins keep their
    /// original column.
    x: i32,
    /// Global row index.
    pub row: u32,
    bits: u32,
}

const PIN_SHIFT: u32 = 2;
const TAG_SHIFT: u32 = 30;
const PIN_MASK: u32 = MAX_PINS as u32 - 1;
const _: () = assert!(MAX_PINS == 1 << (TAG_SHIFT - PIN_SHIFT));

/// The largest column a route of a validated circuit reaches. A core is
/// at most `MAX_CHANNEL_COLUMNS / 2` columns wide (`check_core`: it has
/// two channels at least). Its at most `MAX_PINS` pins make at most
/// `2 · MAX_PINS` tree segments, each crossing a row at most once, so a
/// row gains at most that many feedthroughs of `FT_WIDTH` columns. Every
/// node lies in the core, shifted right by its row's feedthroughs at
/// most.
const MAX_ROUTED_COLUMN: i64 = MAX_CHANNEL_COLUMNS as i64 / 2 + 2 * MAX_PINS as i64 * FT_WIDTH;
const _: () = assert!(MAX_ROUTED_COLUMN <= i32::MAX as i64);

/// `x` as a node's column field.
///
/// # Panics
/// Panics if `x` does not fit 32 bits, which no route of a validated
/// circuit reaches (`MAX_ROUTED_COLUMN`).
fn column(x: i64) -> i32 {
    i32::try_from(x).unwrap_or_else(|_| panic!("column {x} does not fit a node"))
}

impl Node {
    /// A node of `kind` at column `x` of `row`.
    ///
    /// # Panics
    /// Panics if `x` does not fit the node's 32-bit column.
    pub fn new(x: i64, row: u32, kind: NodeKind, pref: ChannelPref) -> Self {
        let (tag, pin) = match kind {
            NodeKind::Pin(p) => (0, p),
            NodeKind::Fake => (1, 0),
            NodeKind::Feedthrough => (2, 0),
            NodeKind::Steiner => (3, 0),
        };
        debug_assert!(pin <= PIN_MASK, "pin id {pin} does not fit a node");
        let pref = match pref {
            ChannelPref::Lower => 0,
            ChannelPref::Upper => 1,
            ChannelPref::Either => 2,
        };
        let bits = tag << TAG_SHIFT | (pin & PIN_MASK) << PIN_SHIFT | pref;
        Node {
            x: column(x),
            row,
            bits,
        }
    }

    /// Absolute column.
    pub fn x(&self) -> i64 {
        i64::from(self.x)
    }

    /// Move the node to column `x` (step 3's shift).
    ///
    /// # Panics
    /// Panics if `x` does not fit the node's 32-bit column.
    pub fn set_x(&mut self, x: i64) {
        self.x = column(x);
    }

    pub fn pin(pin: u32, x: i64, row: u32, pref: ChannelPref) -> Self {
        Node::new(x, row, NodeKind::Pin(pin), pref)
    }

    pub fn fake(x: i64, row: u32) -> Self {
        Node::new(x, row, NodeKind::Fake, ChannelPref::Either)
    }

    pub fn feedthrough(x: i64, row: u32) -> Self {
        Node::new(x, row, NodeKind::Feedthrough, ChannelPref::Either)
    }

    pub fn steiner(x: i64, row: u32) -> Self {
        Node::new(x, row, NodeKind::Steiner, ChannelPref::Either)
    }

    pub fn kind(&self) -> NodeKind {
        match self.bits >> TAG_SHIFT {
            0 => NodeKind::Pin(self.bits >> PIN_SHIFT & PIN_MASK),
            1 => NodeKind::Fake,
            2 => NodeKind::Feedthrough,
            _ => NodeKind::Steiner,
        }
    }

    pub fn pref(&self) -> ChannelPref {
        match self.bits & 3 {
            0 => ChannelPref::Lower,
            1 => ChannelPref::Upper,
            _ => ChannelPref::Either,
        }
    }

    /// Total order used to canonicalize node lists, so a net connects
    /// identically no matter which rank assembled its nodes or in what
    /// order fragments arrived: row, column, kind tag, pin id, channel
    /// preference tag.
    pub fn sort_key(&self) -> (u32, i64, u8, u32, u8) {
        let b = self.bits;
        let (tag, pin) = ((b >> TAG_SHIFT) as u8, b >> PIN_SHIFT & PIN_MASK);
        (self.row, self.x(), tag, pin, (b & 3) as u8)
    }

    pub fn switchable(&self) -> bool {
        self.pref() == ChannelPref::Either
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("x", &self.x)
            .field("row", &self.row)
            .field("kind", &self.kind())
            .field("pref", &self.pref())
            .finish()
    }
}

/// In the bytes of the 64-bit column the node had: `x` as an `i64`.
impl Wire for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        self.x().encode(out);
        self.row.encode(out);
        self.kind().encode(out);
        self.pref().encode(out);
    }
    fn wire_len(&self) -> usize {
        13 + self.kind().wire_len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (x, row) = (wire_column(i64::decode(r)?)?, u32::decode(r)?);
        let kind = NodeKind::decode(r)?;
        if let NodeKind::Pin(p) = kind {
            if p > PIN_MASK {
                let (index, len) = (p as u64, MAX_PINS as u64);
                return Err(WireError::OutOfRange { index, len });
            }
        }
        Ok(Node::new(x.into(), row, kind, ChannelPref::decode(r)?))
    }
}

/// A column as a node or a crossing carries it on the wire, an `i64`,
/// as their 32-bit field; one outside the field is refused, named by its
/// place among the field's 2^32 columns from `i32::MIN`.
pub(crate) fn wire_column(x: i64) -> Result<i32, WireError> {
    i32::try_from(x).map_err(|_| WireError::OutOfRange {
        index: x.wrapping_sub(i64::from(i32::MIN)) as u64,
        len: 1 << 32,
    })
}

/// L-shape orientation of a cross-row segment: where the vertical run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Vertical at the lower node's column; horizontal in the channel
    /// just below the upper node's row.
    VertAtLower,
    /// Vertical at the upper node's column; horizontal in the channel
    /// just above the lower node's row.
    VertAtUpper,
}

/// A Steiner-tree segment: one MST edge of a net, normalized so
/// `lower.row <= upper.row`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub net: NetId,
    pub lower: Node,
    pub upper: Node,
}

impl Segment {
    pub fn new(net: NetId, a: Node, b: Node) -> Self {
        if a.row <= b.row {
            Segment {
                net,
                lower: a,
                upper: b,
            }
        } else {
            Segment {
                net,
                lower: b,
                upper: a,
            }
        }
    }

    /// Rows where this segment needs a feedthrough: every row strictly
    /// between the endpoints, plus a *fake-pin* endpoint's own row — a
    /// fake pin marks where the net passes through towards the
    /// neighboring partition, so the wire crosses that row too. For
    /// whole-net segments (no fake endpoints) these are exactly the rows
    /// the edge crosses; across a split, the pieces' demand
    /// rows exactly tile the original edge's crossed rows, keeping the
    /// per-row feedthrough profile (and hence cell shifting) identical
    /// to the serial router's.
    pub fn demand_rows(&self) -> std::ops::Range<u32> {
        let start = self.lower.row + u32::from(!matches!(self.lower.kind(), NodeKind::Fake));
        let end = self.upper.row + u32::from(matches!(self.upper.kind(), NodeKind::Fake));
        start..end
    }

    pub fn is_cross_row(&self) -> bool {
        self.lower.row != self.upper.row
    }

    /// Column of the vertical run under `orient`.
    pub fn vertical_x(&self, orient: Orientation) -> i64 {
        match orient {
            Orientation::VertAtLower => self.lower.x(),
            Orientation::VertAtUpper => self.upper.x(),
        }
    }

    /// Channel of the horizontal run under `orient` (for cross-row
    /// segments). Channel `c` lies below row `c`.
    pub fn horizontal_channel(&self, orient: Orientation) -> u32 {
        debug_assert!(self.is_cross_row());
        match orient {
            Orientation::VertAtLower => self.upper.row, // just below upper row
            Orientation::VertAtUpper => self.lower.row + 1, // just above lower row
        }
    }

    /// Inclusive horizontal extent.
    pub fn x_span(&self) -> (i64, i64) {
        let (a, b) = (self.lower.x(), self.upper.x());
        (a.min(b), a.max(b))
    }

    /// Default channel of a same-row segment (estimation before step 5):
    /// honor a fixed pin side if one exists, otherwise the lower channel.
    pub fn same_row_channel(&self) -> u32 {
        debug_assert!(!self.is_cross_row());
        let row = self.lower.row;
        match (self.lower.pref(), self.upper.pref()) {
            (ChannelPref::Upper, _) | (_, ChannelPref::Upper) => row + 1,
            _ => row,
        }
    }
}

impl Wire for Segment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.lower.encode(out);
        self.upper.encode(out);
    }
    fn wire_len(&self) -> usize {
        4 + self.lower.wire_len() + self.upper.wire_len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Segment {
            net: NetId(u32::decode(r)?),
            lower: Node::decode(r)?,
            upper: Node::decode(r)?,
        })
    }
}

/// A final horizontal wire span in a channel.
///
/// 24 bytes: the net, the inclusive column range, and one word that packs
/// the channel (top 30 bits), whether the span is switchable (bit 1) and
/// which channel of its row a switchable span sits in (bit 0: set for the
/// upper one). A switchable span's row is always its channel or the one
/// below it, so the word names it without a second field. A channel must
/// stay at most [`pgr_circuit::MAX_ROWS`] (2^30 − 1), which circuit
/// validation checks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub net: NetId,
    bits: u32,
    /// Inclusive column range.
    pub lo: i64,
    pub hi: i64,
}

const CHANNEL_SHIFT: u32 = 2;
const SWITCHABLE: u32 = 0b10;
const UPPER: u32 = 0b01;
const MAX_CHANNEL: u32 = u32::MAX >> CHANNEL_SHIFT;
const _: () = assert!(MAX_ROWS == MAX_CHANNEL as usize);

/// Where `channel` sits against `row`: 0 for the channel below it, 1 for
/// the one above, anything else for neither.
fn row_offset(channel: u32, row: u32) -> u64 {
    u64::from(channel).wrapping_sub(u64::from(row))
}

impl Span {
    /// A span of `net` over `[lo, hi]` in `channel`; `switch_row` is
    /// `Some(row)` if it may sit in channel `row` or `row + 1` (a
    /// switchable same-row connection), and `channel` must be one of them.
    pub fn new(net: NetId, channel: u32, lo: i64, hi: i64, switch_row: Option<u32>) -> Self {
        debug_assert!(
            channel <= MAX_CHANNEL,
            "channel {channel} does not fit a span"
        );
        let flags = match switch_row {
            None => 0,
            Some(row) => {
                let side = row_offset(channel, row);
                debug_assert!(
                    side <= 1,
                    "channel {channel} is not beside switch row {row}"
                );
                SWITCHABLE | if side == 0 { 0 } else { UPPER }
            }
        };
        let bits = channel << CHANNEL_SHIFT | flags;
        Span { net, bits, lo, hi }
    }

    /// Global channel index currently holding the span.
    pub fn channel(&self) -> u32 {
        self.bits >> CHANNEL_SHIFT
    }

    /// `Some(row)` if this span may sit in channel `row` or `row + 1`.
    pub fn switch_row(&self) -> Option<u32> {
        (self.bits & SWITCHABLE != 0).then(|| self.channel() - (self.bits & UPPER))
    }

    /// Move a switchable span to the other channel of its row.
    pub fn flip(&mut self) {
        debug_assert!(self.bits & SWITCHABLE != 0, "only a switchable span flips");
        // One channel and the side bit, down from the upper or up from the lower.
        let step = (1 << CHANNEL_SHIFT) | UPPER;
        self.bits = if self.bits & UPPER != 0 {
            self.bits - step
        } else {
            self.bits + step
        };
    }

    pub fn width(&self) -> u64 {
        (self.hi - self.lo).max(0) as u64
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("net", &self.net)
            .field("channel", &self.channel())
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .field("switch_row", &self.switch_row())
            .finish()
    }
}

impl Wire for Span {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.channel().encode(out);
        self.lo.encode(out);
        self.hi.encode(out);
        self.switch_row().encode(out);
    }
    fn wire_len(&self) -> usize {
        24 + self.switch_row().wire_len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (net, channel) = (NetId(u32::decode(r)?), u32::decode(r)?);
        let (lo, hi) = (i64::decode(r)?, i64::decode(r)?);
        let switch_row = Option::<u32>::decode(r)?;
        if channel > MAX_CHANNEL {
            let (index, len) = (channel as u64, MAX_CHANNEL as u64 + 1);
            return Err(WireError::OutOfRange { index, len });
        }
        if let Some(row) = switch_row {
            let index = row_offset(channel, row);
            if index > 1 {
                return Err(WireError::OutOfRange { index, len: 2 });
            }
        }
        Ok(Span::new(net, channel, lo, hi, switch_row))
    }
}

/// The net fragments a rank routes, in one flat store as `CircuitStore`
/// keeps pins: net `nets[i]` connects `nodes[start[i]..]` up to the next
/// net's start. From step 3 on every slice is in canonical
/// [`Node::sort_key`] order without duplicates, and Connect reads it as
/// it stands; before, a whole net's pins keep netlist order (step 1's
/// MST breaks ties by it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkNets {
    nets: Vec<NetId>,
    start: Vec<u32>,
    nodes: Vec<Node>,
}

impl WorkNets {
    pub fn with_capacity(nets: usize, nodes: usize) -> Self {
        let start = Vec::with_capacity(nets);
        let (nets, nodes) = (Vec::with_capacity(nets), Vec::with_capacity(nodes));
        WorkNets { nets, start, nodes }
    }

    pub fn len(&self) -> usize {
        self.nets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let end = self
            .start
            .get(i + 1)
            .map_or(self.nodes.len(), |&e| e as usize);
        self.start[i] as usize..end
    }

    pub fn iter(&self) -> impl Iterator<Item = (NetId, &[Node])> {
        (0..self.len()).map(|i| (self.nets[i], &self.nodes[self.range(i)]))
    }

    /// The nodes of the last net pushed.
    pub fn last(&self) -> &[Node] {
        &self.nodes[self.start.last().map_or(0, |&s| s as usize)..]
    }

    pub fn push(&mut self, net: NetId, nodes: impl IntoIterator<Item = Node>) {
        self.nets.push(net);
        self.start.push(self.nodes.len() as u32);
        self.nodes.extend(nodes);
    }

    /// Add `nodes` to the last net pushed, then make its slice canonical.
    pub(crate) fn extend_last(&mut self, nodes: impl IntoIterator<Item = Node>) {
        self.nodes.extend(nodes);
        let s = self.start.last().map_or(0, |&s| s as usize);
        let n = canonicalize(&mut self.nodes[s..]);
        self.nodes.truncate(s + n);
    }

    /// The store of `nets` holding the `(net, node)` pairs `pairs` yields
    /// (twice: a count, then the copy), every net made canonical.
    pub(crate) fn group<I>(nets: Vec<NetId>, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (NetId, Node)>,
    {
        let fill = |sink: &mut FtSink<'_>| pairs().for_each(|(n, nd)| sink.put(n, nd));
        let mut store = scatter(nets, pairs().map(|p| p.0), fill);
        // Canonicalize each net and close the gap its duplicates leave.
        let mut w = 0;
        for i in 0..store.len() {
            let range = store.range(i);
            let n = canonicalize(&mut store.nodes[range.clone()]);
            store.nodes.copy_within(range.start..range.start + n, w);
            store.start[i] = w as u32;
            w += n;
        }
        store.nodes.truncate(w);
        store
    }

    /// Step 3's feedthrough attach: every net's own nodes
    /// move by `shift` (which must keep each row's order) and merge with
    /// the feedthroughs `fill` puts into its [`FtSink`]. `ft_nets` names
    /// each feedthrough's net; a net's feedthroughs must come in canonical
    /// order, as [`assign`] emits them. A fixed handful of allocations,
    /// however many nets.
    ///
    /// Memory: the store grows in place by the feedthroughs it gains (one
    /// `reserve_exact`); no second copy of the nodes is ever live. Each
    /// net's own nodes move right to the tail of the net's new slice, the
    /// last net first, and the feedthroughs fill the head.
    ///
    /// [`assign`]: crate::route::feedthrough::assign
    pub fn attach(
        &mut self,
        shift: impl Fn(&mut Node),
        ft_nets: impl Iterator<Item = NetId>,
        fill: impl FnOnce(&mut FtSink<'_>),
    ) {
        let slots = NetSlots::indexing(&self.nets);
        let mut next = vec![0u32; self.len()];
        ft_nets.for_each(|net| next[slot(&slots, net)] += 1);
        let (len, added) = (self.nodes.len(), next.iter().sum::<u32>() as usize);
        self.nodes.reserve_exact(added);
        self.nodes.resize(len + added, Node::fake(0, 0));
        // Net `i`'s own nodes move right by the feedthroughs of nets
        // `0 ..= i`; its new slice opens its own feedthrough count earlier.
        let (mut end, mut moved) = (len, added);
        for (start, at) in self.start.iter_mut().zip(&mut next).rev() {
            let begin = *start as usize;
            self.nodes.copy_within(begin..end, begin + moved);
            moved -= *at as usize;
            *start = (begin + moved) as u32;
            *at = *start;
            end = begin;
        }
        let mut sink = FtSink {
            slots: &slots,
            next,
            store: std::mem::take(self),
        };
        fill(&mut sink);
        let FtSink { next, store, .. } = sink;
        *self = store;
        // Each net's feedthroughs end at `next`, where its own nodes begin.
        let own_len = |(i, &at): (usize, &u32)| self.range(i).end - at as usize;
        let longest = next.iter().enumerate().map(own_len).max();
        let mut own = Vec::with_capacity(longest.unwrap_or(0));
        for (i, &at) in next.iter().enumerate() {
            let range = self.range(i);
            let fts = at as usize - range.start;
            let slice = &mut self.nodes[range];
            slice[fts..].iter_mut().for_each(&shift);
            slice[fts..].sort_unstable_by_key(Node::sort_key);
            if fts > 0 {
                debug_assert!(slice[..fts].is_sorted_by_key(Node::sort_key));
                own.clear();
                own.extend_from_slice(&slice[fts..]);
                merge_from_back(slice, fts, &own);
            }
        }
    }
}

/// A store of `nets` whose net `i` holds the nodes `fill` puts for it, in
/// the order put (`nets_put` names each one's net).
fn scatter(
    nets: Vec<NetId>,
    nets_put: impl Iterator<Item = NetId>,
    fill: impl FnOnce(&mut FtSink<'_>),
) -> WorkNets {
    let slots = NetSlots::indexing(&nets);
    let mut count = vec![0u32; nets.len()];
    nets_put.for_each(|net| count[slot(&slots, net)] += 1);
    let (mut start, mut total) = (Vec::with_capacity(nets.len()), 0);
    for &n in &count {
        start.push(total);
        total += n;
    }
    let nodes = vec![Node::fake(0, 0); total as usize];
    let store = WorkNets { nets, start, nodes };
    let mut sink = FtSink {
        slots: &slots,
        next: store.start.clone(),
        store,
    };
    fill(&mut sink);
    sink.store
}

/// Where [`WorkNets::attach`]'s `fill` puts feedthroughs: each at its
/// net's next free place in the store being built.
pub struct FtSink<'a> {
    slots: &'a NetSlots,
    next: Vec<u32>,
    store: WorkNets,
}

impl FtSink<'_> {
    pub fn put(&mut self, net: NetId, node: Node) {
        let at = &mut self.next[slot(self.slots, net)];
        self.store.nodes[*at as usize] = node;
        *at += 1;
    }
}

fn slot(slots: &NetSlots, net: NetId) -> usize {
    let slot = slots.get(net);
    slot.expect("feedthrough for a net this rank does not own") as usize
}

/// Sort `nodes` canonically and move the distinct ones to the front;
/// returns how many there are.
fn canonicalize(nodes: &mut [Node]) -> usize {
    nodes.sort_unstable_by_key(Node::sort_key);
    let mut n = 0;
    for i in 0..nodes.len() {
        if n == 0 || nodes[i] != nodes[n - 1] {
            nodes[n] = nodes[i];
            n += 1;
        }
    }
    n
}

/// Merge the sorted runs `slice[..head]` and `tail` into `slice`, from
/// the back: `tail[j]` lands at `head + j` or later, past every unread
/// node of the first run.
fn merge_from_back(slice: &mut [Node], mut head: usize, tail: &[Node]) {
    for j in (0..tail.len()).rev() {
        while head > 0 && slice[head - 1].sort_key() > tail[j].sort_key() {
            slice[head + j] = slice[head - 1];
            head -= 1;
        }
        slice[head + j] = tail[j];
    }
}

/// In the bytes of the per-net records the store replaced: a `u32` net
/// count, then per net a `u32` id, a `u32` length and the nodes.
impl Wire for WorkNets {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        (self.len() as u32).encode(out);
        for (net, nodes) in self.iter() {
            (net.0, nodes.len() as u32).encode(out);
            nodes.iter().for_each(|n| n.encode(out));
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // A node takes 14 bytes or more: a corrupt count cannot OOM.
        let mut store = WorkNets::with_capacity(0, r.remaining() / 14);
        for _ in 0..u32::decode(r)? {
            let (net, len) = <(u32, u32)>::decode(r)?;
            store.push(NetId(net), []);
            for _ in 0..len {
                store.nodes.push(Node::decode(r)?);
            }
        }
        Ok(store)
    }
    /// 14 bytes a node, 4 more a pin.
    fn wire_len(&self) -> usize {
        let pins = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind(), NodeKind::Pin(_)));
        4 + 8 * self.len() + 14 * self.nodes.len() + 4 * pins.count()
    }
}

/// A `rows × cols` table of counts in one row-major buffer (the demand
/// grid, its prefix sums, the coarse delta logs); `grid[r]` is row `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    cells: Vec<i64>,
}

impl Grid {
    /// An all-zero grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        let cells = vec![0; rows * cols];
        Grid { rows, cols, cells }
    }

    /// A grid holding `rows`, which must be equally long.
    #[cfg(test)]
    pub(crate) fn from_rows<R: AsRef<[i64]>>(rows: &[R]) -> Self {
        let mut grid = Grid::new(rows.len(), rows.first().map_or(0, |r| r.as_ref().len()));
        for (r, row) in rows.iter().enumerate() {
            grid[r].copy_from_slice(row.as_ref());
        }
        grid
    }

    /// `(rows, cols)` — the one dimension check of every merge.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The bytes the grid takes on the wire dense, as the nested vectors
    /// it replaced did — a u32 row count, then per row a u32 length and
    /// the values: what a coarse sync is billed per grid.
    pub fn wire_len(&self) -> usize {
        4 + self.rows * (4 + self.cols * 8)
    }

    /// Every cell, row after row.
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }
}

impl std::ops::Index<usize> for Grid {
    type Output = [i64];
    fn index(&self, r: usize) -> &[i64] {
        &self.cells[r * self.cols..(r + 1) * self.cols]
    }
}

impl std::ops::IndexMut<usize> for Grid {
    fn index_mut(&mut self, r: usize) -> &mut [i64] {
        &mut self.cells[r * self.cols..(r + 1) * self.cols]
    }
}

/// Where each net's record sits in a work list, indexed by [`NetId`]
/// (small dense integers: a flat table does what a hash map would).
#[derive(Default)]
pub(crate) struct NetSlots(Vec<Option<u32>>);

impl NetSlots {
    /// The slot of `net`: `None` until assigned.
    pub(crate) fn of(&mut self, net: NetId) -> &mut Option<u32> {
        if net.index() >= self.0.len() {
            self.0.resize(net.index() + 1, None);
        }
        &mut self.0[net.index()]
    }

    /// The table that puts each of `nets` at its index in the list, sized
    /// once.
    pub(crate) fn indexing(nets: &[NetId]) -> Self {
        let len = nets.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut slots = NetSlots(vec![None; len]);
        for (i, net) in nets.iter().enumerate() {
            slots.0[net.index()] = Some(i as u32);
        }
        slots
    }

    /// The slot of `net`, if it was assigned one.
    pub(crate) fn get(&self, net: NetId) -> Option<u32> {
        self.0.get(net.index()).copied().flatten()
    }
}

#[cfg(test)]
impl WorkNets {
    /// Whether every vector of the store holds exactly what it reserved.
    pub(crate) fn is_exactly_sized(&self) -> bool {
        let (nets, start, nodes) = (&self.nets, &self.start, &self.nodes);
        nets.capacity() == nets.len()
            && start.capacity() == start.len()
            && nodes.capacity() == nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(x: i64, row: u32) -> Node {
        Node::fake(x, row)
    }

    #[test]
    fn segment_normalizes_row_order() {
        let s = Segment::new(NetId(0), node(5, 3), node(2, 1));
        assert_eq!(s.lower.row, 1);
        assert_eq!(s.upper.row, 3);
    }

    #[test]
    fn orientation_geometry() {
        let s = Segment::new(NetId(0), node(2, 1), node(8, 4));
        assert_eq!(s.vertical_x(Orientation::VertAtLower), 2);
        assert_eq!(s.vertical_x(Orientation::VertAtUpper), 8);
        assert_eq!(s.horizontal_channel(Orientation::VertAtLower), 4);
        assert_eq!(s.horizontal_channel(Orientation::VertAtUpper), 2);
        assert_eq!(s.x_span(), (2, 8));
    }

    #[test]
    fn adjacent_rows_have_one_shared_channel() {
        let s = Segment::new(NetId(0), node(2, 1), node(8, 2));
        // Both orientations use the single channel between rows 1 and 2.
        assert_eq!(s.horizontal_channel(Orientation::VertAtLower), 2);
        assert_eq!(s.horizontal_channel(Orientation::VertAtUpper), 2);
    }

    #[test]
    fn same_row_channel_honors_fixed_sides() {
        let mut a = node(0, 3);
        let mut b = node(5, 3);
        let s = Segment::new(NetId(0), a, b);
        assert_eq!(s.same_row_channel(), 3, "either+either defaults to lower");

        a = Node::new(0, 3, NodeKind::Fake, ChannelPref::Upper);
        let s = Segment::new(NetId(0), a, b);
        assert_eq!(s.same_row_channel(), 4);

        a = Node::new(0, 3, NodeKind::Fake, ChannelPref::Lower);
        b = Node::new(5, 3, NodeKind::Fake, ChannelPref::Lower);
        let s = Segment::new(NetId(0), a, b);
        assert_eq!(s.same_row_channel(), 3);
    }

    #[test]
    fn a_node_is_12_bytes_and_a_segment_28() {
        use crate::route::feedthrough::Crossing;
        assert_eq!(std::mem::size_of::<Node>(), 12);
        assert_eq!(std::mem::size_of::<Segment>(), 28);
        assert_eq!(std::mem::size_of::<Span>(), 24);
        assert_eq!(std::mem::size_of::<Crossing>(), 12);
        assert_eq!(std::mem::size_of::<(u32, Node)>(), 16);
    }

    /// The packed span reads back and encodes as its five fields would: a
    /// written-out encoder of the fields (little-endian net, channel, `lo`
    /// and `hi`, then the switch row as an option) for a fixed span, a
    /// switchable one in the lower and in the upper channel of its row,
    /// at channels 0 and 2^30 − 1; a flip moves a switchable span to the
    /// other channel and back.
    #[test]
    fn span_fields_and_wire_bytes_match_a_written_out_encoder() {
        fn reference(net: u32, channel: u32, lo: i64, hi: i64, row: Option<u32>) -> Vec<u8> {
            let mut out = [net.to_le_bytes(), channel.to_le_bytes()].concat();
            out.extend([lo.to_le_bytes(), hi.to_le_bytes()].concat());
            match row {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    out.extend(r.to_le_bytes());
                }
            }
            out
        }
        let top = MAX_ROWS as u32;
        for (channel, row) in [
            (0, None),
            (top, None),
            (0, Some(0)),
            (top, Some(top)),
            (1, Some(0)),
            (top, Some(top - 1)),
        ] {
            let (net, lo, hi) = (u32::MAX - channel % 7, i64::MIN + 3, i64::MAX - 5);
            let mut sp = Span::new(NetId(net), channel, lo, hi, row);
            assert_eq!(
                (sp.net, sp.channel(), sp.lo, sp.hi),
                (NetId(net), channel, lo, hi)
            );
            assert_eq!(sp.switch_row(), row, "channel {channel}");
            let bytes = reference(net, channel, lo, hi, row);
            assert_eq!(sp.to_bytes(), bytes, "channel {channel}, row {row:?}");
            assert_eq!(sp.wire_len(), bytes.len());
            assert_eq!(Span::from_bytes(&bytes).unwrap(), sp);
            if let Some(r) = row {
                let other = if channel == r { r + 1 } else { r };
                if other <= top {
                    let moved = Span::new(NetId(net), other, lo, hi, row);
                    sp.flip();
                    assert_eq!(sp, moved, "flip of channel {channel}, row {r}");
                    sp.flip();
                    assert_eq!(sp.channel(), channel);
                }
            }
        }
        // A channel past the limit, or one not beside its switch row, is
        // refused on decode, not wrapped.
        for (channel, row) in [
            (top + 1, None),
            (u32::MAX, Some(u32::MAX)),
            (2, Some(0)),
            (0, Some(1)),
            (0, Some(u32::MAX)),
        ] {
            assert!(
                matches!(
                    Span::from_bytes(&reference(1, channel, 0, 1, row)),
                    Err(WireError::OutOfRange { .. })
                ),
                "channel {channel}, row {row:?}"
            );
        }
    }

    /// The packed node reads back, orders and encodes as its four fields
    /// would: a written-out encoder of the fields (little-endian 64-bit
    /// `x` and `row`, the kind's tag with a pin's id, the preference's
    /// tag) for every kind × preference, pin ids 0 and 2^28 − 1, at
    /// column 0 and at the largest and smallest columns the field holds.
    #[test]
    fn node_fields_and_wire_bytes_match_a_written_out_encoder() {
        fn reference(x: i64, row: u32, kind: NodeKind, pref: ChannelPref) -> Vec<u8> {
            let mut out = [x.to_le_bytes().to_vec(), row.to_le_bytes().to_vec()].concat();
            match kind {
                NodeKind::Pin(p) => {
                    out.push(0);
                    out.extend_from_slice(&p.to_le_bytes());
                }
                NodeKind::Fake => out.push(1),
                NodeKind::Feedthrough => out.push(2),
                NodeKind::Steiner => out.push(3),
            }
            out.push(match pref {
                ChannelPref::Lower => 0,
                ChannelPref::Upper => 1,
                ChannelPref::Either => 2,
            });
            out
        }
        let top = MAX_PINS as u32 - 1;
        let kinds = [
            NodeKind::Pin(0),
            NodeKind::Pin(top),
            NodeKind::Fake,
            NodeKind::Feedthrough,
            NodeKind::Steiner,
        ];
        let prefs = [ChannelPref::Lower, ChannelPref::Upper, ChannelPref::Either];
        let mut keys = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            for (j, &pref) in prefs.iter().enumerate() {
                let x = [0, i32::MAX.into(), i32::MIN.into()][(i + j) % 3];
                let row = (i * 3 + j) as u32;
                let n = Node::new(x, row, kind, pref);
                assert_eq!((n.x(), n.row, n.kind(), n.pref()), (x, row, kind, pref));
                let bytes = reference(x, row, kind, pref);
                assert_eq!(n.to_bytes(), bytes, "{n:?}");
                assert_eq!(n.wire_len(), bytes.len());
                assert_eq!(Node::from_bytes(&bytes).unwrap(), n);
                let pin = if let NodeKind::Pin(p) = kind { p } else { 0 };
                let tag = [0, 0, 1, 2, 3][i];
                assert_eq!(n.sort_key(), (row, x, tag, pin, j as u8));
                keys.push((tag, pin, j as u8, n.bits));
            }
        }
        // The packed word orders as the key's last three fields.
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0].3 < w[1].3));
        // A pin id past the limit, or a column outside the field, is
        // refused on decode, not wrapped.
        let over = reference(0, 0, NodeKind::Pin(top + 1), ChannelPref::Lower);
        assert!(matches!(
            Node::from_bytes(&over),
            Err(WireError::OutOfRange { .. })
        ));
        let (max, min) = (i64::from(i32::MAX), i64::from(i32::MIN));
        for x in [max + 1, min - 1, i64::MAX, i64::MIN] {
            let bytes = reference(x, 0, NodeKind::Fake, ChannelPref::Either);
            assert!(
                matches!(Node::from_bytes(&bytes), Err(WireError::OutOfRange { index, len })
                    if index >= len && len == 1 << 32),
                "column {x}"
            );
        }
    }

    /// A node's 32-bit column holds every column a validated circuit's
    /// route reaches, and a column past the field is refused, not
    /// wrapped.
    #[test]
    fn a_node_column_holds_the_largest_routed_column() {
        let mut n = Node::fake(MAX_ROUTED_COLUMN, 0);
        assert_eq!(n.x(), MAX_ROUTED_COLUMN);
        n.set_x(0);
        assert_eq!(n.x(), 0);
        let over = std::panic::catch_unwind(|| Node::fake(i64::from(i32::MAX) + 1, 0));
        assert!(over.is_err(), "a column past the field panics");
        let shifted = std::panic::catch_unwind(move || n.set_x(i64::from(i32::MIN) - 1));
        assert!(shifted.is_err(), "a shift past the field panics");
    }

    #[test]
    fn wire_roundtrips() {
        let n = Node::pin(7, -3, 2, ChannelPref::Upper);
        assert_eq!(Node::from_bytes(&n.to_bytes()).unwrap(), n);
        let s = Segment::new(NetId(9), node(1, 0), Node::feedthrough(4, 2));
        assert_eq!(Segment::from_bytes(&s.to_bytes()).unwrap(), s);
        let sp = Span::new(NetId(1), 3, -2, 9, Some(2));
        assert_eq!(Span::from_bytes(&sp.to_bytes()).unwrap(), sp);
        let mut w = WorkNets::default();
        w.push(NetId(4), [n, Node::fake(0, 0)]);
        w.push(NetId(2), []);
        w.push(NetId(9), [Node::feedthrough(3, 1)]);
        let bytes = w.to_bytes();
        assert_eq!(WorkNets::from_bytes(&bytes).unwrap(), w);
        // The bytes of the per-net records the store replaced, reserved
        // once.
        let records = vec![
            (4u32, vec![n, Node::fake(0, 0)]),
            (2, vec![]),
            (9, vec![Node::feedthrough(3, 1)]),
        ];
        assert_eq!(bytes, records.to_bytes());
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn group_canonicalizes_each_net_and_keeps_the_given_net_order() {
        let (a, b, c) = (node(1, 0), node(5, 1), node(9, 1));
        let pairs = [(7, c), (7, a), (3, b), (7, a), (7, b)].map(|(n, nd)| (NetId(n), nd));
        let works = WorkNets::group(vec![NetId(7), NetId(3)], || pairs.iter().copied());
        let got: Vec<_> = works.iter().map(|(n, s)| (n, s.to_vec())).collect();
        assert_eq!(got, [(NetId(7), vec![a, b, c]), (NetId(3), vec![b])]);
        assert_eq!(works.nodes.len(), 4, "duplicates close up");
    }

    #[test]
    fn attach_merges_shifted_nodes_with_feedthroughs_in_canonical_order() {
        let mut works = WorkNets::default();
        works.push(NetId(0), [node(9, 2), node(4, 0), node(2, 2)]);
        works.push(NetId(5), []);
        works.push(NetId(1), [node(3, 1)]);
        let fts = [
            (NetId(0), Node::feedthrough(1, 1)),
            (NetId(1), Node::feedthrough(0, 0)),
            (NetId(0), Node::feedthrough(7, 1)),
            (NetId(0), Node::feedthrough(3, 2)),
            (NetId(5), Node::feedthrough(6, 2)),
        ];
        // Rows 1 and up shift right by 10.
        let shift = |nd: &mut Node| nd.set_x(nd.x() + 10 * i64::from(nd.row >= 1));
        works.attach(shift, fts.iter().map(|f| f.0), |sink| {
            fts.iter().for_each(|&(net, nd)| sink.put(net, nd))
        });
        let got: Vec<_> = works.iter().map(|(n, s)| (n, s.to_vec())).collect();
        let ft = Node::feedthrough;
        assert_eq!(
            got,
            [
                (
                    NetId(0),
                    vec![
                        node(4, 0),
                        ft(1, 1),
                        ft(7, 1),
                        ft(3, 2),
                        node(12, 2),
                        node(19, 2)
                    ]
                ),
                (NetId(5), vec![ft(6, 2)]),
                (NetId(1), vec![ft(0, 0), node(13, 1)]),
            ]
        );
        assert_eq!(works.nodes.capacity(), 9, "one exactly sized allocation");
    }

    /// Seeded values of every type a typed frame carries, each billed
    /// exactly what its encoding would take: empty ones, every node kind
    /// and channel preference, switchable spans and not.
    #[test]
    fn every_typed_frame_value_is_billed_its_encoded_length() {
        use crate::route::feedthrough::Crossing;
        use pgr_mpi::{BudgetBreach, BudgetKind};
        fn billed<T: Wire>(v: &T) {
            assert_eq!(
                v.wire_len(),
                v.to_bytes().len(),
                "{}",
                std::any::type_name::<T>()
            );
        }
        let mut state = 0x5EED_u64;
        let mut next = move |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        for n in [0, 1, 2, 17, 300] {
            let mut node = || {
                let (x, row) = (next(5000) as i64 - 100, next(90) as u32);
                let pref = [ChannelPref::Lower, ChannelPref::Upper, ChannelPref::Either];
                let kind = [
                    NodeKind::Pin(next(1 << 20) as u32),
                    NodeKind::Fake,
                    NodeKind::Feedthrough,
                    NodeKind::Steiner,
                ];
                Node::new(x, row, kind[next(4) as usize], pref[next(3) as usize])
            };
            let nodes: Vec<Node> = (0..n).map(|_| node()).collect();
            let mut works = WorkNets::default();
            for (k, chunk) in nodes.chunks(5).enumerate() {
                works.push(NetId(k as u32 * 3), chunk.iter().copied());
            }
            let segments: Vec<Segment> = nodes
                .windows(2)
                .map(|w| Segment {
                    net: NetId(w[0].row),
                    lower: w[0],
                    upper: w[1],
                })
                .collect();
            let spans: Vec<Span> = nodes
                .iter()
                .map(|nd| {
                    let switch_row = nd.switchable().then_some(nd.row);
                    Span::new(NetId(nd.row), nd.row, nd.x(), nd.x() + 40, switch_row)
                })
                .collect();
            let crossings: Vec<Crossing> = nodes
                .iter()
                .map(|nd| Crossing {
                    net: NetId(nd.row),
                    row: nd.row,
                    x: nd.x,
                })
                .collect();
            let placed: Vec<(u32, Node)> = nodes.iter().map(|&nd| (nd.row, nd)).collect();
            let counts: Vec<i64> = nodes.iter().map(Node::x).collect();
            billed(&works);
            billed(&segments);
            billed(&spans);
            billed(&crossings);
            billed(&placed);
            billed(&counts);
            // Buckets, as an all-to-all ships them.
            billed(&vec![segments.clone(), Vec::new()]);
            billed(&(n as u64));
            billed(&(n as i64 - 7));
        }
        billed(&());
        for breach in [
            None,
            Some(BudgetBreach {
                kind: BudgetKind::RankBytes,
                limit: 1.5,
                observed: 2.0,
            }),
        ] {
            billed(&breach);
        }
    }

    #[test]
    fn span_width() {
        assert_eq!(Span::new(NetId(0), 0, 3, 10, None).width(), 7);
        assert_eq!(Span::new(NetId(0), 0, 3, 3, None).width(), 0);
    }

    /// The dense encoding [`Grid::wire_len`] measures — the reference the
    /// billed size is pinned to; only the tests encode a grid this way.
    impl Wire for Grid {
        fn wire_len(&self) -> usize {
            Grid::wire_len(self)
        }
        fn encode(&self, out: &mut Vec<u8>) {
            out.reserve(self.wire_len());
            (self.rows as u32).encode(out);
            for r in 0..self.rows {
                (self.cols as u32).encode(out);
                self[r].iter().for_each(|v| v.encode(out));
            }
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            let rows = u32::decode(r)? as usize;
            let (mut expected, mut cells) = (0, Vec::new());
            for row in 0..rows {
                let got = u32::decode(r)? as usize;
                // Both the reservation and `take` are bounded by what the frame
                // holds: a corrupt length cannot OOM the decoder.
                if row == 0 {
                    cells.reserve((rows * got).min(r.remaining() / 8));
                    expected = got;
                } else if got != expected {
                    return Err(WireError::Ragged { expected, got });
                }
                let row = r.take(got * 8)?.chunks_exact(8);
                cells.extend(row.map(|b| i64::from_le_bytes(b.try_into().expect("exact chunk"))));
            }
            let cols = expected;
            Ok(Grid { rows, cols, cells })
        }
    }

    /// Seeded `rows × cols` counts as the nested vectors [`Grid`] replaced.
    fn nested(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        let mut rng = pgr_geom::rng::rng_from_seed((rows * 1000 + cols) as u64);
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-9i64..10)).collect())
            .collect()
    }

    #[test]
    fn grid_wire_bytes_are_the_nested_vectors_bytes() {
        // 81 / 80 × 270 is avq.small's coarse shape (channels / rows ×
        // grid columns at `grid_w` 8).
        for (rows, cols) in [(0, 0), (1, 1), (1, 17), (23, 1), (81, 270), (80, 270)] {
            let nested = nested(rows, cols);
            let grid = Grid::from_rows(&nested);
            assert_eq!(grid.shape(), (rows, cols));
            assert_eq!(grid.to_bytes(), nested.to_bytes(), "{rows} × {cols}");
            assert_eq!(grid.wire_len(), nested.to_bytes().len());
            assert_eq!(Grid::from_bytes(&nested.to_bytes()).unwrap(), grid);
            for (r, row) in nested.iter().enumerate() {
                assert_eq!(&grid[r], &row[..]);
            }
            assert_eq!(grid.cells(), nested.concat());
            assert_eq!(
                Grid::new(rows, cols).to_bytes().len(),
                nested.to_bytes().len()
            );
        }
    }

    #[test]
    fn grid_decode_rejects_ragged_truncated_and_over_long_input() {
        for (rows, expected, got) in [
            (vec![vec![1i64, 2, 3], vec![4, 5]], 3, 2),
            (vec![vec![1], vec![4, 5], vec![6]], 1, 2),
            (vec![vec![], vec![7]], 0, 1),
        ] {
            assert_eq!(
                Grid::from_bytes(&rows.to_bytes()),
                Err(WireError::Ragged { expected, got })
            );
        }
        let whole = Grid::from_rows(&[[1i64, 2], [3, 4]]).to_bytes();
        assert!(matches!(
            Grid::from_bytes(&whole[..whole.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut trailing = whole.clone();
        trailing.push(0);
        assert_eq!(
            Grid::from_bytes(&trailing),
            Err(WireError::TrailingBytes(1))
        );
        // A row length the frame cannot hold is refused before anything
        // is allocated for it.
        let mut huge = 1u32.to_bytes();
        u32::MAX.encode(&mut huge);
        assert!(matches!(
            Grid::from_bytes(&huge),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn net_slots_grow_on_demand_and_last_write_wins() {
        let mut slots = NetSlots::default();
        assert_eq!(*slots.of(NetId(40)), None);
        *slots.of(NetId(40)) = Some(3);
        *slots.of(NetId(2)) = Some(0);
        *slots.of(NetId(40)) = Some(5);
        assert_eq!(*slots.of(NetId(40)), Some(5));
        assert_eq!(*slots.of(NetId(2)), Some(0));
        assert_eq!(*slots.of(NetId(39)), None);
        assert_eq!(*slots.of(NetId(41)), None);
    }
}
