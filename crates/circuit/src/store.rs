//! Columnar (SoA) circuit storage.
//!
//! The circuit's interior is a set of flat columns rather than an
//! array-of-structs: one `Vec` per pin/cell/net attribute, net→pin
//! membership as a single shared `pin_index` arena addressed by per-net
//! `(start, len)` ranges, and all net names interned into one byte arena.
//! The per-net hot loops (Steiner construction, coarse evaluation, final
//! connection) sweep these columns sequentially instead of chasing a
//! pointer per net, which is the memory-bandwidth wall that caps scaling
//! past the paper's ~25k-net circuits.
//!
//! Nets are additionally grouped into fixed-size chunks
//! ([`NET_CHUNK_SIZE`]), each summarized by its member range and pin
//! total ([`ChunkSummary`]), so a sweep over every net walks the columns
//! one cache-sized run at a time.
//!
//! The store is *immutable after finalization*: routers never mutate it
//! (feedthrough insertion and cell shifting live in router-owned state),
//! so one store can back any number of concurrent routing runs without
//! synchronization.

use crate::ids::{CellId, NetId, PinId, RowId};
use crate::model::PinSide;

/// Nets per chunk. Chosen so a chunk's column slices (~degree ≈ 3 pins
/// per net) stay comfortably inside L2 while keeping per-chunk summary
/// overhead negligible even at a million nets (~1k summaries).
pub const NET_CHUNK_SIZE: usize = 1024;

/// Sentinel net id for a pin that has not been wired to a net yet.
pub(crate) const UNWIRED: NetId = NetId(u32::MAX);

pub(crate) const FLAG_TOP: u8 = 1;
pub(crate) const FLAG_EQUIVALENT: u8 = 2;

pub(crate) fn pack_flags(side: PinSide, equivalent: bool) -> u8 {
    (matches!(side, PinSide::Top) as u8) * FLAG_TOP + (equivalent as u8) * FLAG_EQUIVALENT
}

/// Summary of one fixed-size run of nets, precomputed at finalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// First net of the chunk; members are `first_net .. first_net + len`.
    pub first_net: NetId,
    /// Number of member nets (`NET_CHUNK_SIZE` except the last chunk).
    pub len: u32,
    /// Total pin count over member nets.
    pub pins: u32,
}

impl ChunkSummary {
    /// The member net ids, in order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        let first = self.first_net.0;
        (first..first + self.len).map(NetId)
    }
}

/// The columnar interior of a [`crate::Circuit`].
///
/// Fields are crate-visible: construction goes through the raw `push_*`
/// API plus [`CircuitStore::finalize`] (used by the builder and the text
/// parser), and the model's validation tests corrupt columns directly.
/// External crates only ever see the accessor surface on `Circuit`.
#[derive(Debug, Clone, Default)]
pub struct CircuitStore {
    // --- Pin columns (index = PinId). ---
    pub(crate) pin_cell: Vec<CellId>,
    pub(crate) pin_net: Vec<NetId>,
    pub(crate) pin_offset: Vec<u32>,
    /// Packed `FLAG_TOP` / `FLAG_EQUIVALENT` bits.
    pub(crate) pin_flags: Vec<u8>,

    // --- Cell columns (index = CellId). ---
    pub(crate) cell_row: Vec<RowId>,
    pub(crate) cell_x: Vec<i64>,
    pub(crate) cell_width: Vec<u32>,
    /// cell→pin membership arena: pins of cell `c` are
    /// `cell_pin_index[cell_pin_start[c] .. cell_pin_start[c + 1]]`,
    /// in pin-id order. Derived at finalization.
    pub(crate) cell_pin_start: Vec<u32>,
    pub(crate) cell_pin_index: Vec<PinId>,

    // --- Row→cell membership arena, cells in left-to-right order. ---
    pub(crate) row_cell_start: Vec<u32>,
    pub(crate) row_cell_index: Vec<CellId>,

    // --- Net columns (index = NetId). ---
    /// net→pin membership arena: pins of net `n` are
    /// `pin_index[net_pin_start[n] .. net_pin_start[n + 1]]`.
    pub(crate) net_pin_start: Vec<u32>,
    pub(crate) pin_index: Vec<PinId>,
    /// Interned names: net `n`'s name is the arena byte range
    /// `net_name_start[n] .. net_name_start[n + 1]`.
    pub(crate) net_name_start: Vec<u32>,
    pub(crate) name_arena: String,

    // --- Chunk summaries, derived at finalization. ---
    pub(crate) chunks: Vec<ChunkSummary>,
}

impl CircuitStore {
    pub fn new() -> Self {
        let mut s = CircuitStore::default();
        s.net_pin_start.push(0);
        s.net_name_start.push(0);
        s
    }

    pub fn num_pins(&self) -> usize {
        self.pin_cell.len()
    }

    pub fn num_cells(&self) -> usize {
        self.cell_row.len()
    }

    pub fn num_nets(&self) -> usize {
        self.net_pin_start.len() - 1
    }

    pub fn num_rows(&self) -> usize {
        self.row_cell_start.len().saturating_sub(1)
    }

    // --- Raw construction (builder + parser). ---

    pub(crate) fn push_cell(&mut self, row: RowId, x: i64, width: u32) -> CellId {
        let id = CellId::from_index(self.cell_row.len());
        self.cell_row.push(row);
        self.cell_x.push(x);
        self.cell_width.push(width);
        id
    }

    pub(crate) fn push_pin(
        &mut self,
        cell: CellId,
        offset: u32,
        side: PinSide,
        equivalent: bool,
    ) -> PinId {
        let id = PinId::from_index(self.pin_cell.len());
        self.pin_cell.push(cell);
        self.pin_net.push(UNWIRED);
        self.pin_offset.push(offset);
        self.pin_flags.push(pack_flags(side, equivalent));
        id
    }

    /// Append a net over previously pushed pins, wiring each member pin's
    /// net column. Membership lands in the shared `pin_index` arena; the
    /// name lands in the name arena.
    pub(crate) fn push_net(&mut self, name: &str, pins: &[PinId]) -> NetId {
        let id = NetId::from_index(self.num_nets());
        for &p in pins {
            self.pin_net[p.index()] = id;
        }
        self.pin_index.extend_from_slice(pins);
        self.net_pin_start.push(self.pin_index.len() as u32);
        self.name_arena.push_str(name);
        self.net_name_start.push(self.name_arena.len() as u32);
        id
    }

    /// Drop every pin never wired to a net, compacting pin ids. Cells may
    /// legitimately carry unused pin sites; the routed circuit does not.
    pub(crate) fn drop_unwired_pins(&mut self) {
        if self.pin_net.iter().all(|&n| n != UNWIRED) {
            return;
        }
        let mut remap: Vec<Option<PinId>> = vec![None; self.num_pins()];
        let mut kept = 0usize;
        // Two-cursor in-place compaction over four columns at once; an
        // iterator form would need split borrows on every column.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.num_pins() {
            if self.pin_net[i] != UNWIRED {
                remap[i] = Some(PinId::from_index(kept));
                self.pin_cell[kept] = self.pin_cell[i];
                self.pin_net[kept] = self.pin_net[i];
                self.pin_offset[kept] = self.pin_offset[i];
                self.pin_flags[kept] = self.pin_flags[i];
                kept += 1;
            }
        }
        self.pin_cell.truncate(kept);
        self.pin_net.truncate(kept);
        self.pin_offset.truncate(kept);
        self.pin_flags.truncate(kept);
        for p in &mut self.pin_index {
            *p = remap[p.index()].expect("net pin was wired");
        }
    }

    /// Derive the membership arenas (row→cell sorted left-to-right,
    /// cell→pin in pin-id order) and the per-chunk summaries. Must be
    /// called exactly once, after all pushes.
    pub(crate) fn finalize(&mut self, num_rows: usize) {
        // Row→cell: counting sort by row (stable in cell-id order), then
        // a stable sort by x within each row. Builders append cells in
        // packed x order, so the sort is a no-op there; the text parser
        // may declare cells out of order.
        let mut row_counts = vec![0u32; num_rows + 1];
        for &r in &self.cell_row {
            if r.index() < num_rows {
                row_counts[r.index() + 1] += 1;
            }
        }
        for i in 1..row_counts.len() {
            row_counts[i] += row_counts[i - 1];
        }
        self.row_cell_start = row_counts;
        self.row_cell_index = vec![CellId(0); self.num_cells().min(u32::MAX as usize)];
        let mut cursor: Vec<u32> = self.row_cell_start[..num_rows].to_vec();
        // Cells referencing nonexistent rows are dropped here; validation
        // reports them from the dangling cell_row column.
        let mut placed = 0usize;
        for (i, &r) in self.cell_row.iter().enumerate() {
            if r.index() < num_rows {
                self.row_cell_index[cursor[r.index()] as usize] = CellId::from_index(i);
                cursor[r.index()] += 1;
                placed += 1;
            }
        }
        self.row_cell_index.truncate(placed);
        for r in 0..num_rows {
            let seg = self.row_cell_start[r] as usize..self.row_cell_start[r + 1] as usize;
            self.row_cell_index[seg].sort_by_key(|&c| self.cell_x[c.index()]);
        }

        // Cell→pin: counting sort by owning cell; pin-id order within a
        // cell matches the old per-cell push order exactly.
        let cells = self.num_cells();
        let mut cell_counts = vec![0u32; cells + 1];
        for &c in &self.pin_cell {
            if c.index() < cells {
                cell_counts[c.index() + 1] += 1;
            }
        }
        for i in 1..cell_counts.len() {
            cell_counts[i] += cell_counts[i - 1];
        }
        self.cell_pin_start = cell_counts;
        self.cell_pin_index = vec![PinId(0); self.num_pins()];
        let mut cursor: Vec<u32> = self.cell_pin_start[..cells].to_vec();
        let mut placed = 0usize;
        for (i, &c) in self.pin_cell.iter().enumerate() {
            if c.index() < cells {
                self.cell_pin_index[cursor[c.index()] as usize] = PinId::from_index(i);
                cursor[c.index()] += 1;
                placed += 1;
            }
        }
        self.cell_pin_index.truncate(placed);

        self.rebuild_chunks();
    }

    /// Recompute the chunk summaries from the net columns: a chunk's
    /// pin total is the span of its nets in the `pin_index` arena.
    pub(crate) fn rebuild_chunks(&mut self) {
        let n = self.num_nets();
        let start = &self.net_pin_start;
        self.chunks = (0..n)
            .step_by(NET_CHUNK_SIZE)
            .map(|first| {
                let end = n.min(first + NET_CHUNK_SIZE);
                ChunkSummary {
                    first_net: NetId::from_index(first),
                    len: (end - first) as u32,
                    pins: start[end] - start[first],
                }
            })
            .collect();
    }

    // --- Column accessors. ---

    #[inline]
    pub(crate) fn net_pins(&self, net: NetId) -> &[PinId] {
        let lo = self.net_pin_start[net.index()] as usize;
        let hi = self.net_pin_start[net.index() + 1] as usize;
        &self.pin_index[lo..hi]
    }

    #[inline]
    pub(crate) fn net_name(&self, net: NetId) -> &str {
        let lo = self.net_name_start[net.index()] as usize;
        let hi = self.net_name_start[net.index() + 1] as usize;
        &self.name_arena[lo..hi]
    }

    #[inline]
    pub(crate) fn net_degree(&self, net: NetId) -> usize {
        (self.net_pin_start[net.index() + 1] - self.net_pin_start[net.index()]) as usize
    }

    #[inline]
    pub(crate) fn pin_side(&self, pin: PinId) -> PinSide {
        if self.pin_flags[pin.index()] & FLAG_TOP != 0 {
            PinSide::Top
        } else {
            PinSide::Bottom
        }
    }

    #[inline]
    pub(crate) fn pin_equivalent(&self, pin: PinId) -> bool {
        self.pin_flags[pin.index()] & FLAG_EQUIVALENT != 0
    }

    #[inline]
    pub(crate) fn cell_pins(&self, cell: CellId) -> &[PinId] {
        let lo = self.cell_pin_start[cell.index()] as usize;
        let hi = self.cell_pin_start[cell.index() + 1] as usize;
        &self.cell_pin_index[lo..hi]
    }

    #[inline]
    pub(crate) fn row_cells(&self, row: RowId) -> &[CellId] {
        let lo = self.row_cell_start[row.index()] as usize;
        let hi = self.row_cell_start[row.index() + 1] as usize;
        &self.row_cell_index[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_store() -> CircuitStore {
        let mut s = CircuitStore::new();
        let c0 = s.push_cell(RowId(0), 0, 4);
        let c1 = s.push_cell(RowId(1), 2, 4);
        let p0 = s.push_pin(c0, 1, PinSide::Top, true);
        let p1 = s.push_pin(c1, 0, PinSide::Bottom, false);
        let p2 = s.push_pin(c0, 3, PinSide::Top, false);
        let p3 = s.push_pin(c1, 2, PinSide::Top, true);
        s.push_net("a", &[p0, p1]);
        s.push_net("b", &[p2, p3]);
        s.finalize(2);
        s
    }

    #[test]
    fn arenas_are_shared_and_contiguous() {
        let s = demo_store();
        assert_eq!(s.pin_index.len(), 4, "one shared arena, no per-net vecs");
        assert_eq!(s.net_pins(NetId(0)), &[PinId(0), PinId(1)]);
        assert_eq!(s.net_pins(NetId(1)), &[PinId(2), PinId(3)]);
        assert_eq!(s.name_arena, "ab", "names interned into one arena");
        assert_eq!(s.net_name(NetId(0)), "a");
        assert_eq!(s.net_name(NetId(1)), "b");
    }

    #[test]
    fn flags_pack_side_and_equivalence() {
        let s = demo_store();
        assert_eq!(s.pin_side(PinId(0)), PinSide::Top);
        assert!(s.pin_equivalent(PinId(0)));
        assert_eq!(s.pin_side(PinId(1)), PinSide::Bottom);
        assert!(!s.pin_equivalent(PinId(1)));
    }

    #[test]
    fn membership_arenas_derive_from_columns() {
        let s = demo_store();
        assert_eq!(s.cell_pins(CellId(0)), &[PinId(0), PinId(2)]);
        assert_eq!(s.cell_pins(CellId(1)), &[PinId(1), PinId(3)]);
        assert_eq!(s.row_cells(RowId(0)), &[CellId(0)]);
        assert_eq!(s.row_cells(RowId(1)), &[CellId(1)]);
    }

    #[test]
    fn drop_unwired_compacts_and_remaps() {
        let mut s = CircuitStore::new();
        let c0 = s.push_cell(RowId(0), 0, 8);
        let _unused = s.push_pin(c0, 0, PinSide::Top, false);
        let p1 = s.push_pin(c0, 1, PinSide::Top, false);
        let p2 = s.push_pin(c0, 2, PinSide::Bottom, true);
        s.push_net("n", &[p1, p2]);
        s.drop_unwired_pins();
        s.finalize(1);
        assert_eq!(s.num_pins(), 2);
        assert_eq!(s.net_pins(NetId(0)), &[PinId(0), PinId(1)]);
        assert_eq!(s.pin_offset, vec![1, 2]);
        assert!(s.pin_equivalent(PinId(1)));
    }

    #[test]
    fn chunk_summaries_cover_members() {
        let s = demo_store();
        assert_eq!(s.chunks.len(), 1);
        let ch = s.chunks[0];
        assert_eq!(ch.len, 2);
        assert_eq!(ch.pins, 4);
        assert_eq!(ch.net_ids().collect::<Vec<_>>(), vec![NetId(0), NetId(1)]);
    }

    #[test]
    fn chunking_splits_at_fixed_size() {
        let mut s = CircuitStore::new();
        let c0 = s.push_cell(RowId(0), 0, 4);
        let c1 = s.push_cell(RowId(0), 4, 4);
        for i in 0..(NET_CHUNK_SIZE + 5) {
            let a = s.push_pin(c0, 0, PinSide::Top, false);
            let b = s.push_pin(c1, 1, PinSide::Bottom, false);
            s.push_net(&format!("n{i}"), &[a, b]);
        }
        s.finalize(1);
        assert_eq!(s.chunks.len(), 2);
        assert_eq!(s.chunks[0].len as usize, NET_CHUNK_SIZE);
        assert_eq!(s.chunks[1].len, 5);
        assert_eq!(s.chunks[1].first_net, NetId(NET_CHUNK_SIZE as u32));
    }
}
