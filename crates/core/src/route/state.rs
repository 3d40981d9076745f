//! Shared working state of the routing pipeline.
//!
//! The five TWGR steps communicate through a handful of small value
//! types: connection **nodes** (pins, partition-boundary fake pins, and
//! assigned feedthroughs), Steiner-tree **segments** with an L-shape
//! orientation, final horizontal **spans** in channels, and the
//! feedthrough **plan** (per-row, per-grid-column demand with the cell
//! shifts it induces). All of them serialize with [`pgr_mpi::Wire`] so the
//! parallel algorithms can ship them between ranks unchanged.

use pgr_circuit::NetId;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Absolute column. For pin nodes this is updated after feedthrough
    /// insertion shifts cells; fake pins keep their original column.
    pub x: i64,
    /// Global row index.
    pub row: u32,
    pub kind: NodeKind,
    pub pref: ChannelPref,
}

impl Node {
    pub fn pin(pin: u32, x: i64, row: u32, pref: ChannelPref) -> Self {
        Node {
            x,
            row,
            kind: NodeKind::Pin(pin),
            pref,
        }
    }

    /// Total order used to canonicalize node lists, so a net connects
    /// identically no matter which rank assembled its nodes or in what
    /// order fragments arrived.
    pub fn sort_key(&self) -> (u32, i64, u8, u32, u8) {
        let (ktag, pid) = match self.kind {
            NodeKind::Pin(p) => (0u8, p),
            NodeKind::Fake => (1, 0),
            NodeKind::Feedthrough => (2, 0),
            NodeKind::Steiner => (3, 0),
        };
        let ptag = match self.pref {
            ChannelPref::Lower => 0u8,
            ChannelPref::Upper => 1,
            ChannelPref::Either => 2,
        };
        (self.row, self.x, ktag, pid, ptag)
    }

    pub fn fake(x: i64, row: u32) -> Self {
        Node {
            x,
            row,
            kind: NodeKind::Fake,
            pref: ChannelPref::Either,
        }
    }

    pub fn feedthrough(x: i64, row: u32) -> Self {
        Node {
            x,
            row,
            kind: NodeKind::Feedthrough,
            pref: ChannelPref::Either,
        }
    }

    pub fn steiner(x: i64, row: u32) -> Self {
        Node {
            x,
            row,
            kind: NodeKind::Steiner,
            pref: ChannelPref::Either,
        }
    }

    pub fn switchable(&self) -> bool {
        self.pref == ChannelPref::Either
    }
}

impl Wire for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        self.x.encode(out);
        self.row.encode(out);
        self.kind.encode(out);
        self.pref.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Node {
            x: i64::decode(r)?,
            row: u32::decode(r)?,
            kind: NodeKind::decode(r)?,
            pref: ChannelPref::decode(r)?,
        })
    }
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

impl Wire for Orientation {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Orientation::VertAtLower => 0,
            Orientation::VertAtUpper => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(Orientation::VertAtLower),
            1 => Ok(Orientation::VertAtUpper),
            t => Err(WireError::BadTag(t)),
        }
    }
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
        let start = self.lower.row + u32::from(!matches!(self.lower.kind, NodeKind::Fake));
        let end = self.upper.row + u32::from(matches!(self.upper.kind, NodeKind::Fake));
        start..end
    }

    pub fn is_cross_row(&self) -> bool {
        self.lower.row != self.upper.row
    }

    /// Column of the vertical run under `orient`.
    pub fn vertical_x(&self, orient: Orientation) -> i64 {
        match orient {
            Orientation::VertAtLower => self.lower.x,
            Orientation::VertAtUpper => self.upper.x,
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
        (
            self.lower.x.min(self.upper.x),
            self.lower.x.max(self.upper.x),
        )
    }

    /// Default channel of a same-row segment (estimation before step 5):
    /// honor a fixed pin side if one exists, otherwise the lower channel.
    pub fn same_row_channel(&self) -> u32 {
        debug_assert!(!self.is_cross_row());
        let row = self.lower.row;
        match (self.lower.pref, self.upper.pref) {
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Segment {
            net: NetId(u32::decode(r)?),
            lower: Node::decode(r)?,
            upper: Node::decode(r)?,
        })
    }
}

/// A final horizontal wire span in a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub net: NetId,
    /// Global channel index currently holding the span.
    pub channel: u32,
    /// Inclusive column range.
    pub lo: i64,
    pub hi: i64,
    /// `Some(row)` if this span may sit in channel `row` or `row + 1`
    /// (a switchable same-row connection).
    pub switch_row: Option<u32>,
}

impl Wire for Span {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.channel.encode(out);
        self.lo.encode(out);
        self.hi.encode(out);
        self.switch_row.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Span {
            net: NetId(u32::decode(r)?),
            channel: u32::decode(r)?,
            lo: i64::decode(r)?,
            hi: i64::decode(r)?,
            switch_row: Option::<u32>::decode(r)?,
        })
    }
}

impl Span {
    pub fn width(&self) -> u64 {
        (self.hi - self.lo).max(0) as u64
    }
}

/// A net fragment to be routed by one rank: the nodes a sub-net must
/// connect (for the serial router: the whole net's pins).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkNet {
    pub net: NetId,
    pub nodes: Vec<Node>,
}

impl Wire for WorkNet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.nodes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WorkNet {
            net: NetId(u32::decode(r)?),
            nodes: Vec::<Node>::decode(r)?,
        })
    }
}

/// A `rows × cols` table of counts in one row-major buffer (the demand
/// grid, its prefix sums, the coarse delta logs); `grid[r]` is row `r`.
/// On the wire it is what the nested vectors it replaced were — a u32
/// row count, then per row a u32 length and the values: no frame resized.
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
    pub fn from_rows<R: AsRef<[i64]>>(rows: &[R]) -> Self {
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

impl Wire for Grid {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(4 + self.rows * (4 + self.cols * 8));
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

        a.pref = ChannelPref::Upper;
        let s = Segment::new(NetId(0), a, b);
        assert_eq!(s.same_row_channel(), 4);

        a.pref = ChannelPref::Lower;
        b.pref = ChannelPref::Lower;
        let s = Segment::new(NetId(0), a, b);
        assert_eq!(s.same_row_channel(), 3);
    }

    #[test]
    fn wire_roundtrips() {
        let n = Node::pin(7, -3, 2, ChannelPref::Upper);
        assert_eq!(Node::from_bytes(&n.to_bytes()).unwrap(), n);
        let s = Segment::new(NetId(9), node(1, 0), Node::feedthrough(4, 2));
        assert_eq!(Segment::from_bytes(&s.to_bytes()).unwrap(), s);
        let sp = Span {
            net: NetId(1),
            channel: 3,
            lo: -2,
            hi: 9,
            switch_row: Some(2),
        };
        assert_eq!(Span::from_bytes(&sp.to_bytes()).unwrap(), sp);
        let w = WorkNet {
            net: NetId(4),
            nodes: vec![n, Node::fake(0, 0)],
        };
        assert_eq!(WorkNet::from_bytes(&w.to_bytes()).unwrap(), w);
    }

    #[test]
    fn span_width() {
        let sp = Span {
            net: NetId(0),
            channel: 0,
            lo: 3,
            hi: 10,
            switch_row: None,
        };
        assert_eq!(sp.width(), 7);
        let pt = Span {
            net: NetId(0),
            channel: 0,
            lo: 3,
            hi: 3,
            switch_row: None,
        };
        assert_eq!(pt.width(), 0);
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
