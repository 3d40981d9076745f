//! The immutable circuit description.
//!
//! The `Circuit` is the *input* to routing: initial cell placement, pin
//! offsets, and net membership. Routers never mutate it — feedthrough
//! insertion and cell shifting happen in router-owned placement state, so
//! one `Circuit` can be routed many times (serially and at several rank
//! counts) for the scaled-quality comparisons in the paper's tables.
//!
//! Storage is columnar ([`crate::store::CircuitStore`]): flat SoA columns
//! per attribute, shared membership arenas instead of per-net/per-cell
//! `Vec`s, and interned net names. [`Net`], [`Cell`], and [`Row`] are
//! borrowed *views* assembled from the columns on access; [`Pin`] is a
//! plain `Copy` record.

use crate::ids::{CellId, NetId, PinId, RowId};
use crate::store::{ChunkSummary, CircuitStore};
use pgr_geom::{BBox, Point};
use std::fmt;

/// Which side of the cell a pin sits on. The channel directly reachable
/// from a pin is the channel below the row for `Bottom` pins and above for
/// `Top` pins; *equivalent* pins exist on both sides and may use either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinSide {
    Bottom,
    Top,
}

/// A pin: a fixed terminal on a cell, member of exactly one net.
/// Assembled from the pin columns on access; plain `Copy` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub id: PinId,
    pub cell: CellId,
    pub net: NetId,
    /// Columns from the owning cell's left edge.
    pub offset: u32,
    pub side: PinSide,
    /// `true` if an electrically equivalent pin exists on the opposite
    /// side of the cell, making same-row connections through this pin
    /// *switchable* between the channels above and below the row.
    pub equivalent: bool,
}

/// A standard cell: a fixed-height block placed in one row. A borrowed
/// view over the cell columns; `pins` aliases the shared cell→pin arena.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'c> {
    pub id: CellId,
    pub row: RowId,
    /// Initial left edge in routing columns (before feedthrough insertion).
    pub x: i64,
    /// Width in routing columns.
    pub width: u32,
    pub pins: &'c [PinId],
}

/// A row of cells, ordered left-to-right. A borrowed view over the shared
/// row→cell arena.
#[derive(Debug, Clone, Copy)]
pub struct Row<'c> {
    pub id: RowId,
    pub cells: &'c [CellId],
}

/// A net: the set of pins to be connected. A borrowed view: `pins`
/// aliases the shared net→pin arena, `name` the interned name arena —
/// no per-net allocations exist anywhere.
#[derive(Debug, Clone, Copy)]
pub struct Net<'c> {
    pub id: NetId,
    pub name: &'c str,
    pub pins: &'c [PinId],
}

impl Net<'_> {
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

/// A complete row-based standard-cell circuit over columnar storage.
#[derive(Debug, Clone)]
pub struct Circuit {
    pub name: String,
    /// Core width in routing columns (all cells fit in `0..width`).
    pub width: i64,
    pub(crate) num_rows: usize,
    pub(crate) store: CircuitStore,
}

impl Circuit {
    /// Assemble a circuit from a finalized store. Crate-internal: the
    /// builder and the text parser construct stores; everyone else
    /// consumes accessors.
    pub(crate) fn from_store(
        name: String,
        width: i64,
        num_rows: usize,
        store: CircuitStore,
    ) -> Self {
        Circuit {
            name,
            width,
            num_rows,
            store,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_cells(&self) -> usize {
        self.store.num_cells()
    }

    pub fn num_pins(&self) -> usize {
        self.store.num_pins()
    }

    pub fn num_nets(&self) -> usize {
        self.store.num_nets()
    }

    /// Number of routing channels: one below each row plus one above the
    /// top row. Channel `c` lies below row `c`; channel `r + 1` lies above
    /// row `r`.
    pub fn num_channels(&self) -> usize {
        self.num_rows + 1
    }

    // --- Pin accessors. ---

    /// The full pin record, assembled from the columns.
    #[inline]
    pub fn pin(&self, pin: PinId) -> Pin {
        Pin {
            id: pin,
            cell: self.store.pin_cell[pin.index()],
            net: self.store.pin_net[pin.index()],
            offset: self.store.pin_offset[pin.index()],
            side: self.store.pin_side(pin),
            equivalent: self.store.pin_equivalent(pin),
        }
    }

    /// All pins, in id order.
    pub fn pins(&self) -> impl Iterator<Item = Pin> + '_ {
        (0..self.num_pins()).map(|i| self.pin(PinId::from_index(i)))
    }

    #[inline]
    pub fn pin_cell(&self, pin: PinId) -> CellId {
        self.store.pin_cell[pin.index()]
    }

    #[inline]
    pub fn pin_net(&self, pin: PinId) -> NetId {
        self.store.pin_net[pin.index()]
    }

    #[inline]
    pub fn pin_offset(&self, pin: PinId) -> u32 {
        self.store.pin_offset[pin.index()]
    }

    #[inline]
    pub fn pin_side(&self, pin: PinId) -> PinSide {
        self.store.pin_side(pin)
    }

    #[inline]
    pub fn pin_equivalent(&self, pin: PinId) -> bool {
        self.store.pin_equivalent(pin)
    }

    /// Initial absolute x of a pin (cell left edge + offset).
    #[inline]
    pub fn pin_x(&self, pin: PinId) -> i64 {
        let cell = self.store.pin_cell[pin.index()];
        self.store.cell_x[cell.index()] + self.store.pin_offset[pin.index()] as i64
    }

    /// Row of a pin.
    #[inline]
    pub fn pin_row(&self, pin: PinId) -> RowId {
        self.store.cell_row[self.store.pin_cell[pin.index()].index()]
    }

    /// Initial lattice position of a pin: `(column, row index)`.
    #[inline]
    pub fn pin_point(&self, pin: PinId) -> Point {
        Point::new(self.pin_x(pin), self.pin_row(pin).0 as i64)
    }

    /// Batch [`Circuit::pin_point`]: append the initial positions of
    /// `pins` to `out` in order. One pass over the pin columns — the
    /// per-net hot loops use this instead of a call per pin.
    pub fn pin_points_into(&self, pins: &[PinId], out: &mut Vec<Point>) {
        out.reserve(pins.len());
        for &p in pins {
            let cell = self.store.pin_cell[p.index()].index();
            out.push(Point::new(
                self.store.cell_x[cell] + self.store.pin_offset[p.index()] as i64,
                self.store.cell_row[cell].0 as i64,
            ));
        }
    }

    // --- Cell and row accessors. ---

    /// Borrowed view of one cell.
    #[inline]
    pub fn cell(&self, cell: CellId) -> Cell<'_> {
        Cell {
            id: cell,
            row: self.store.cell_row[cell.index()],
            x: self.store.cell_x[cell.index()],
            width: self.store.cell_width[cell.index()],
            pins: self.store.cell_pins(cell),
        }
    }

    /// All cells, in id order.
    pub fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        (0..self.num_cells()).map(|i| self.cell(CellId::from_index(i)))
    }

    /// The cells of `row`, left-to-right.
    #[inline]
    pub fn row_cells(&self, row: RowId) -> &[CellId] {
        self.store.row_cells(row)
    }

    /// All rows, bottom to top.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.num_rows).map(|i| {
            let id = RowId::from_index(i);
            Row {
                id,
                cells: self.store.row_cells(id),
            }
        })
    }

    // --- Net accessors. ---

    /// Borrowed view of one net.
    #[inline]
    pub fn net(&self, net: NetId) -> Net<'_> {
        Net {
            id: net,
            name: self.store.net_name(net),
            pins: self.store.net_pins(net),
        }
    }

    /// All nets, in id order.
    pub fn nets(&self) -> impl Iterator<Item = Net<'_>> {
        (0..self.num_nets()).map(|i| self.net(NetId::from_index(i)))
    }

    /// The member pins of `net` — a slice of the shared arena.
    #[inline]
    pub fn net_pins(&self, net: NetId) -> &[PinId] {
        self.store.net_pins(net)
    }

    /// The interned name of `net`.
    #[inline]
    pub fn net_name(&self, net: NetId) -> &str {
        self.store.net_name(net)
    }

    #[inline]
    pub fn net_degree(&self, net: NetId) -> usize {
        self.store.net_degree(net)
    }

    /// Bounding box of a net's initial pin positions.
    pub fn net_bbox(&self, net: NetId) -> BBox {
        BBox::from_points(self.net_pins(net).iter().map(|&p| self.pin_point(p)))
    }

    /// Iterate the nets in fixed-size chunks with precomputed summaries
    /// (member range, pin total). Chunks partition the net id space in
    /// order, so `for chunk { for net in chunk.net_ids() }` visits every
    /// net exactly once, in id order.
    pub fn nets_chunks(&self) -> impl Iterator<Item = &ChunkSummary> {
        self.store.chunks.iter()
    }

    /// Verify internal consistency. Generators and the parser call this;
    /// routers may assume it holds.
    ///
    /// Linear in rows + cells + pins. Each membership list (row→cell,
    /// cell→pin, net→pin) is walked once, and the walk checks that every
    /// id it lists claims the list's owner — so "listed anywhere", a mark
    /// the walk sets, is "listed in its owner's list" by the time the
    /// per-element loops ask. For the same reason a pin met twice among
    /// the nets was met twice in one net: that is the duplicate check.
    pub fn validate(&self) -> Result<(), ModelError> {
        check_pin_count(self.num_pins())?;
        check_row_count(self.num_rows)?;
        check_core(self.width, self.num_rows)?;
        let s = &self.store;
        let mut cell_listed = vec![false; self.num_cells()];
        for i in 0..self.num_rows {
            let row_id = RowId::from_index(i);
            let mut edge = i64::MIN;
            for &cid in s.row_cells(row_id) {
                if cid.index() >= self.num_cells() {
                    return Err(ModelError::Dangling(format!("{cid} in {row_id}")));
                }
                if s.cell_row[cid.index()].index() != i {
                    return Err(ModelError::Inconsistent(format!(
                        "{cid} listed in row {i} but claims {}",
                        s.cell_row[cid.index()]
                    )));
                }
                cell_listed[cid.index()] = true;
                let x = s.cell_x[cid.index()];
                if x < edge {
                    return Err(ModelError::Overlap(format!(
                        "{cid} at x={x} overlaps previous cell in {row_id}"
                    )));
                }
                // Past the overlap check only a row's first cell can start
                // left of the core.
                if x < 0 {
                    return Err(ModelError::OutOfCore(format!("{cid} starts at {x} < 0")));
                }
                edge = x + s.cell_width[cid.index()] as i64;
                if edge > self.width {
                    return Err(ModelError::OutOfCore(format!(
                        "{cid} ends at {edge} > core width {}",
                        self.width
                    )));
                }
            }
        }
        // Per pin: listed on a cell, listed in a net.
        const ON_CELL: u8 = 1;
        const IN_NET: u8 = 2;
        let mut pin_listed = vec![0u8; self.num_pins()];
        for (i, &in_row) in cell_listed.iter().enumerate() {
            let cell_id = CellId::from_index(i);
            if s.cell_row[i].index() >= self.num_rows {
                return Err(ModelError::Dangling(format!(
                    "{cell_id} in nonexistent {}",
                    s.cell_row[i]
                )));
            }
            if !in_row {
                return Err(ModelError::Inconsistent(format!(
                    "{cell_id} not listed in its row"
                )));
            }
            for &pid in s.cell_pins(cell_id) {
                if pid.index() >= self.num_pins() {
                    return Err(ModelError::Dangling(format!("{pid} on {cell_id}")));
                }
                if s.pin_cell[pid.index()] != cell_id {
                    return Err(ModelError::Inconsistent(format!(
                        "{pid} listed on {cell_id} but claims {}",
                        s.pin_cell[pid.index()]
                    )));
                }
                pin_listed[pid.index()] |= ON_CELL;
                if s.pin_offset[pid.index()] >= s.cell_width[i] {
                    return Err(ModelError::OutOfCore(format!(
                        "{pid} offset {} outside {cell_id} width {}",
                        s.pin_offset[pid.index()],
                        s.cell_width[i]
                    )));
                }
            }
        }
        for i in 0..self.num_nets() {
            let net_id = NetId::from_index(i);
            let pins = s.net_pins(net_id);
            if pins.len() < 2 {
                return Err(ModelError::DegenerateNet(format!(
                    "{net_id} ({}) has {} pin(s)",
                    s.net_name(net_id),
                    pins.len()
                )));
            }
            for &pid in pins {
                if pid.index() >= self.num_pins() {
                    return Err(ModelError::Dangling(format!("{pid} in {net_id}")));
                }
                if s.pin_net[pid.index()] != net_id {
                    return Err(ModelError::Inconsistent(format!(
                        "{pid} listed in {net_id} but claims {}",
                        s.pin_net[pid.index()]
                    )));
                }
                if pin_listed[pid.index()] & IN_NET != 0 {
                    return Err(ModelError::DuplicatePin(format!(
                        "{pid} appears twice in {net_id} ({})",
                        s.net_name(net_id)
                    )));
                }
                pin_listed[pid.index()] |= IN_NET;
            }
        }
        for (i, &listed) in pin_listed.iter().enumerate() {
            let pin_id = PinId::from_index(i);
            let net = s.pin_net[i];
            if net.index() >= self.num_nets() {
                return Err(ModelError::Dangling(format!(
                    "{pin_id} on nonexistent {net}"
                )));
            }
            if listed & IN_NET == 0 {
                return Err(ModelError::Inconsistent(format!(
                    "{pin_id} not listed in its {net}"
                )));
            }
            if listed & ON_CELL == 0 {
                return Err(ModelError::Inconsistent(format!(
                    "{pin_id} not listed on its {}",
                    s.pin_cell[i]
                )));
            }
        }
        Ok(())
    }

    /// Summary statistics (the numbers Table 1 of the paper reports).
    pub fn stats(&self) -> CircuitStats {
        let max_net_degree = (0..self.num_nets())
            .map(|i| self.net_degree(NetId::from_index(i)))
            .max()
            .unwrap_or(0);
        let switchable_pins = self
            .store
            .pin_flags
            .iter()
            .filter(|&&f| f & crate::store::FLAG_EQUIVALENT != 0)
            .count();
        CircuitStats {
            name: self.name.clone(),
            rows: self.num_rows,
            cells: self.num_cells(),
            pins: self.num_pins(),
            nets: self.num_nets(),
            width: self.width,
            max_net_degree,
            switchable_pins,
        }
    }

    /// Rough memory footprint of routing this circuit on one node, in
    /// bytes. Used to emulate the Intel Paragon's 32 MB/node limit from
    /// Table 5 (serial runs of the two largest circuits do not fit).
    ///
    /// The estimate models the dominant serial-router allocations: the
    /// circuit itself, per-pin segment/node/span records (several live
    /// copies through the pipeline, hence the heavy per-pin constant),
    /// per-net trees, and the per-channel density profiles over the full
    /// core width.
    pub fn estimated_routing_bytes(&self) -> u64 {
        let cells = self.num_cells() as u64 * 96;
        let pins = self.num_pins() as u64 * 144;
        let nets = self.num_nets() as u64 * 160;
        let profiles = (self.num_channels() as u64) * (self.width.max(1) as u64) * 40;
        cells + pins + nets + profiles
    }
}

/// Table-1-style statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    pub name: String,
    pub rows: usize,
    pub cells: usize,
    pub pins: usize,
    pub nets: usize,
    pub width: i64,
    pub max_net_degree: usize,
    pub switchable_pins: usize,
}

/// Pins a circuit may hold: the router packs a pin's id into 28 bits of
/// a connection node.
pub const MAX_PINS: usize = 1 << 28;

fn check_pin_count(pins: usize) -> Result<(), ModelError> {
    if pins > MAX_PINS {
        return Err(ModelError::TooLarge(format!(
            "{pins} pins, at most {MAX_PINS}"
        )));
    }
    Ok(())
}

/// Rows a circuit may hold: the router packs a channel's index (channel
/// `c` lies below row `c`, so they run `0 ..= rows`) into 30 bits of a
/// span.
pub const MAX_ROWS: usize = (1 << 30) - 1;

fn check_row_count(rows: usize) -> Result<(), ModelError> {
    if rows > MAX_ROWS {
        return Err(ModelError::TooLarge(format!(
            "{rows} rows, at most {MAX_ROWS}"
        )));
    }
    Ok(())
}

/// Channel columns a core may have, `(rows + 1) × width`: the router
/// holds a density column per channel column and a coarse cell per
/// `GRID_W` of them, and [`Circuit::estimated_routing_bytes`] models each
/// channel column at 40 B. At the bound that is 10 GiB modeled, and the
/// router's own 4-byte columns take 1 GiB (DESIGN.md §4c).
pub const MAX_CHANNEL_COLUMNS: u64 = 1 << 28;

/// A core needs a column and a row: the router sizes its grids and
/// density profiles by both, so it may not have more channel columns
/// than [`MAX_CHANNEL_COLUMNS`] either.
fn check_core(width: i64, rows: usize) -> Result<(), ModelError> {
    if width < 1 || rows < 1 {
        return Err(ModelError::EmptyCore(format!(
            "width {width}, {rows} row(s)"
        )));
    }
    let channels = rows as u64 + 1;
    if channels.saturating_mul(width as u64) > MAX_CHANNEL_COLUMNS {
        return Err(ModelError::TooLarge(format!(
            "{channels} channels of {width} columns, at most {MAX_CHANNEL_COLUMNS} channel columns"
        )));
    }
    Ok(())
}

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    BadId(String),
    Dangling(String),
    Inconsistent(String),
    Overlap(String),
    OutOfCore(String),
    DegenerateNet(String),
    DuplicatePin(String),
    TooLarge(String),
    EmptyCore(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadId(s) => write!(f, "id out of order: {s}"),
            ModelError::Dangling(s) => write!(f, "dangling reference: {s}"),
            ModelError::Inconsistent(s) => write!(f, "inconsistent cross-reference: {s}"),
            ModelError::Overlap(s) => write!(f, "cell overlap: {s}"),
            ModelError::OutOfCore(s) => write!(f, "outside core: {s}"),
            ModelError::DegenerateNet(s) => write!(f, "degenerate net: {s}"),
            ModelError::DuplicatePin(s) => write!(f, "duplicate pin in net: {s}"),
            ModelError::TooLarge(s) => write!(f, "circuit too large: {s}"),
            ModelError::EmptyCore(s) => write!(f, "empty core: {s}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`Circuit::validate`] as it was before the marks: each membership
    /// check scans the owner's list. What the linear form must return,
    /// error and message, on every circuit whose core is not empty.
    pub(crate) fn validate(c: &Circuit) -> Result<(), ModelError> {
        check_pin_count(c.num_pins())?;
        check_row_count(c.num_rows)?;
        let s = &c.store;
        for i in 0..c.num_rows {
            let row_id = RowId::from_index(i);
            let mut edge = i64::MIN;
            for &cid in s.row_cells(row_id) {
                if cid.index() >= c.num_cells() {
                    return Err(ModelError::Dangling(format!("{cid} in {row_id}")));
                }
                if s.cell_row[cid.index()].index() != i {
                    return Err(ModelError::Inconsistent(format!(
                        "{cid} listed in row {i} but claims {}",
                        s.cell_row[cid.index()]
                    )));
                }
                let x = s.cell_x[cid.index()];
                if x < edge {
                    return Err(ModelError::Overlap(format!(
                        "{cid} at x={x} overlaps previous cell in {row_id}"
                    )));
                }
                edge = x + s.cell_width[cid.index()] as i64;
                if edge > c.width {
                    return Err(ModelError::OutOfCore(format!(
                        "{cid} ends at {edge} > core width {}",
                        c.width
                    )));
                }
            }
        }
        for i in 0..c.num_cells() {
            let cell_id = CellId::from_index(i);
            if s.cell_row[i].index() >= c.num_rows {
                return Err(ModelError::Dangling(format!(
                    "{cell_id} in nonexistent {}",
                    s.cell_row[i]
                )));
            }
            if !s.row_cells(s.cell_row[i]).contains(&cell_id) {
                return Err(ModelError::Inconsistent(format!(
                    "{cell_id} not listed in its row"
                )));
            }
            for &pid in s.cell_pins(cell_id) {
                if pid.index() >= c.num_pins() {
                    return Err(ModelError::Dangling(format!("{pid} on {cell_id}")));
                }
                if s.pin_cell[pid.index()] != cell_id {
                    return Err(ModelError::Inconsistent(format!(
                        "{pid} listed on {cell_id} but claims {}",
                        s.pin_cell[pid.index()]
                    )));
                }
                if s.pin_offset[pid.index()] >= s.cell_width[i] {
                    return Err(ModelError::OutOfCore(format!(
                        "{pid} offset {} outside {cell_id} width {}",
                        s.pin_offset[pid.index()],
                        s.cell_width[i]
                    )));
                }
            }
        }
        for i in 0..c.num_nets() {
            let net_id = NetId::from_index(i);
            let pins = s.net_pins(net_id);
            if pins.len() < 2 {
                return Err(ModelError::DegenerateNet(format!(
                    "{net_id} ({}) has {} pin(s)",
                    s.net_name(net_id),
                    pins.len()
                )));
            }
            for (k, &pid) in pins.iter().enumerate() {
                if pid.index() >= c.num_pins() {
                    return Err(ModelError::Dangling(format!("{pid} in {net_id}")));
                }
                if s.pin_net[pid.index()] != net_id {
                    return Err(ModelError::Inconsistent(format!(
                        "{pid} listed in {net_id} but claims {}",
                        s.pin_net[pid.index()]
                    )));
                }
                if pins[..k].contains(&pid) {
                    return Err(ModelError::DuplicatePin(format!(
                        "{pid} appears twice in {net_id} ({})",
                        s.net_name(net_id)
                    )));
                }
            }
        }
        for i in 0..c.num_pins() {
            let pin_id = PinId::from_index(i);
            let net = s.pin_net[i];
            if net.index() >= c.num_nets() {
                return Err(ModelError::Dangling(format!(
                    "{pin_id} on nonexistent {net}"
                )));
            }
            if !s.net_pins(net).contains(&pin_id) {
                return Err(ModelError::Inconsistent(format!(
                    "{pin_id} not listed in its {net}"
                )));
            }
            let cell = s.pin_cell[i];
            if cell.index() >= c.num_cells() || !s.cell_pins(cell).contains(&pin_id) {
                return Err(ModelError::Inconsistent(format!(
                    "{pin_id} not listed on its {cell}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::format::{from_text, FormatError};

    fn tiny() -> Circuit {
        // 2 rows, 2 cells per row, one net across rows, one within a row.
        let mut b = CircuitBuilder::new("tiny", 2, 32);
        let c00 = b.add_cell(RowId(0), 4);
        let c01 = b.add_cell(RowId(0), 4);
        let c10 = b.add_cell(RowId(1), 4);
        let c11 = b.add_cell(RowId(1), 4);
        let p0 = b.add_pin(c00, 1, PinSide::Top, true);
        let p1 = b.add_pin(c10, 2, PinSide::Bottom, false);
        let p2 = b.add_pin(c01, 0, PinSide::Top, true);
        let p3 = b.add_pin(c11, 3, PinSide::Top, true);
        b.add_net("a", vec![p0, p1]);
        b.add_net("b", vec![p2, p3]);
        b.finish().expect("tiny circuit is valid")
    }

    #[test]
    fn more_pins_than_a_node_can_name_is_a_model_error() {
        assert_eq!(check_pin_count(MAX_PINS), Ok(()));
        let err = check_pin_count(MAX_PINS + 1).unwrap_err();
        assert!(matches!(err, ModelError::TooLarge(_)), "{err}");
    }

    #[test]
    fn more_rows_than_a_span_can_name_is_a_model_error() {
        assert_eq!(check_row_count(MAX_ROWS), Ok(()));
        let err = check_row_count(MAX_ROWS + 1).unwrap_err();
        assert!(matches!(err, ModelError::TooLarge(_)), "{err}");
    }

    #[test]
    fn tiny_is_valid_and_counts_match() {
        let c = tiny();
        let s = c.stats();
        assert_eq!((s.rows, s.cells, s.pins, s.nets), (2, 4, 4, 2));
        assert_eq!(s.max_net_degree, 2);
        assert_eq!(c.num_channels(), 3);
    }

    #[test]
    fn pin_positions_are_absolute() {
        let c = tiny();
        // First cell of row 0 is at x=0, pin offset 1.
        assert_eq!(c.pin_x(PinId(0)), 1);
        assert_eq!(c.pin_row(PinId(0)), RowId(0));
        // Second cell of row 0 starts after the first (width 4).
        assert_eq!(c.pin_x(PinId(2)), 4);
    }

    #[test]
    fn net_bbox_spans_pins() {
        let c = tiny();
        let bb = c.net_bbox(NetId(0));
        // Pins: (x=1, row 0) and (x=2, row 1).
        assert!(bb.contains(Point::new(1, 0)));
        assert!(bb.contains(Point::new(2, 1)));
        assert!(!bb.contains(Point::new(6, 1)));
    }

    #[test]
    fn views_alias_the_shared_arenas() {
        let c = tiny();
        let net = c.net(NetId(0));
        assert_eq!(net.name, "a");
        assert_eq!(net.degree(), 2);
        assert_eq!(net.pins, c.net_pins(NetId(0)));
        let cell = c.cell(CellId(0));
        assert_eq!((cell.row, cell.x, cell.width), (RowId(0), 0, 4));
        assert_eq!(cell.pins, &[PinId(0)]);
        let row: Vec<_> = c.rows().map(|r| r.cells.len()).collect();
        assert_eq!(row, vec![2, 2]);
    }

    #[test]
    fn pin_points_into_matches_pin_point() {
        let c = tiny();
        let pins: Vec<PinId> = (0..c.num_pins()).map(PinId::from_index).collect();
        let mut batch = Vec::new();
        c.pin_points_into(&pins, &mut batch);
        for (i, &p) in pins.iter().enumerate() {
            assert_eq!(batch[i], c.pin_point(p));
        }
    }

    #[test]
    fn validate_rejects_single_pin_net() {
        let mut c = tiny();
        // Shrink net 0's arena range to one pin.
        c.store.net_pin_start[1] = c.store.net_pin_start[0] + 1;
        assert!(matches!(c.validate(), Err(ModelError::DegenerateNet(_))));
    }

    #[test]
    fn validate_rejects_cross_reference_break() {
        let mut c = tiny();
        c.store.pin_net[0] = NetId(1); // net 1 doesn't list pin 0
        assert!(matches!(c.validate(), Err(ModelError::Inconsistent(_))));
    }

    #[test]
    fn validate_rejects_overlapping_cells() {
        let mut c = tiny();
        c.store.cell_x[1] = 0; // collides with cell 0 (row order no longer monotone)
        assert!(matches!(c.validate(), Err(ModelError::Overlap(_))));
    }

    #[test]
    fn validate_rejects_pin_offset_outside_cell() {
        let mut c = tiny();
        c.store.pin_offset[0] = 100;
        assert!(matches!(c.validate(), Err(ModelError::OutOfCore(_))));
    }

    /// A row's first cell starting left of the core is outside it, in a
    /// corrupted store and in a text: routed, its pins would sit left of
    /// the chip. The overlap check still comes first for the others.
    #[test]
    fn validate_rejects_a_cell_left_of_the_core() {
        let mut c = tiny();
        c.store.cell_x[2] = -5;
        let err = ModelError::OutOfCore("c2 starts at -5 < 0".into());
        assert_eq!(c.validate(), Err(err));
        let mut c = tiny();
        c.store.cell_x[1] = -5;
        assert!(matches!(c.validate(), Err(ModelError::Overlap(_))));
        let text = |x: i64| {
            format!(
                "pgr-circuit v1\nname left\nwidth 100\nrows 1\ncell 0 {x} 10\n\
                 pin 0 0 T 0\npin 0 9 B 0\nnet n 0 1\n"
            )
        };
        for x in [-5, -1, -1_099_511_627_000] {
            let err = from_text(&text(x)).unwrap_err();
            let left = matches!(&err, FormatError::Invalid(ModelError::OutOfCore(m))
                if m == &format!("c0 starts at {x} < 0"));
            assert!(left, "cell at {x}: {err}");
        }
        assert!(from_text(&text(0)).is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_pin_in_net() {
        let mut c = tiny();
        // Make net 0 list pin 0 twice (overwrite its second arena slot).
        let lo = c.store.net_pin_start[0] as usize;
        c.store.pin_index[lo + 1] = c.store.pin_index[lo];
        assert!(matches!(c.validate(), Err(ModelError::DuplicatePin(_))));
    }

    /// `validate` and the reference agree on `c`, error and message.
    fn verdict(c: &Circuit) -> Result<(), ModelError> {
        let got = c.validate();
        assert_eq!(got, reference::validate(c));
        got
    }

    /// A row list that no longer holds its row's last cell: the scan of
    /// the row's cells is a mark set by the row walk.
    #[test]
    fn a_cell_missing_from_its_row_is_reported_as_the_reference_does() {
        let mut c = tiny();
        c.store.row_cell_start[2] -= 1;
        c.store.row_cell_index.pop();
        let err = verdict(&c).unwrap_err();
        assert_eq!(
            err,
            ModelError::Inconsistent("c3 not listed in its row".into())
        );
    }

    /// A net listing its first pin twice: the scan of the net's earlier
    /// pins is a mark set by the net walk.
    #[test]
    fn a_pin_twice_in_a_net_is_reported_as_the_reference_does() {
        let mut c = tiny();
        let lo = c.store.net_pin_start[1] as usize;
        c.store.pin_index[lo + 1] = c.store.pin_index[lo];
        // Pin 3 is now in no net; the duplicate comes first.
        let err = verdict(&c).unwrap_err();
        assert_eq!(
            err,
            ModelError::DuplicatePin("p2 appears twice in n1 (b)".into())
        );
    }

    /// A three-pin net whose list loses its last pin: the scan of the
    /// pin's net is a mark set by the net walk.
    #[test]
    fn a_pin_missing_from_its_net_is_reported_as_the_reference_does() {
        let mut b = CircuitBuilder::new("three", 1, 32);
        let cells = [b.add_cell(RowId(0), 4), b.add_cell(RowId(0), 4)];
        let p: Vec<_> = (0..5)
            .map(|k| b.add_pin(cells[k % 2], k as u32 % 4, PinSide::Top, false))
            .collect();
        b.add_net("a", vec![p[0], p[1]]);
        b.add_net("b", vec![p[2], p[3], p[4]]);
        let mut c = b.finish().expect("valid");
        c.store.net_pin_start[2] -= 1;
        c.store.pin_index.pop();
        let err = verdict(&c).unwrap_err();
        assert_eq!(
            err,
            ModelError::Inconsistent("p4 not listed in its n1".into())
        );
    }

    /// A cell list that no longer holds the last cell's last pin: the
    /// scan of the pin's cell is a mark set by the cell walk.
    #[test]
    fn a_pin_missing_from_its_cell_is_reported_as_the_reference_does() {
        let mut c = tiny();
        let cells = c.num_cells();
        c.store.cell_pin_start[cells] -= 1;
        c.store.cell_pin_index.pop();
        let err = verdict(&c).unwrap_err();
        assert_eq!(
            err,
            ModelError::Inconsistent("p3 not listed on its c3".into())
        );
    }

    /// The earlier corruptions of this module give the reference's
    /// verdict too.
    #[test]
    fn every_corruption_here_gets_the_reference_verdict() {
        let corruptions: [fn(&mut Circuit); 6] = [
            |_| {},
            |c| c.store.net_pin_start[1] = c.store.net_pin_start[0] + 1,
            |c| c.store.pin_net[0] = NetId(1),
            |c| c.store.cell_x[1] = 0,
            |c| c.store.pin_offset[0] = 100,
            |c| c.store.pin_cell[0] = CellId(9),
        ];
        for corrupt in corruptions {
            let mut c = tiny();
            corrupt(&mut c);
            let _ = verdict(&c);
        }
    }

    #[test]
    fn the_builder_refuses_an_empty_core() {
        let err = CircuitBuilder::new("flat", 0, 10).finish().unwrap_err();
        assert!(matches!(err, ModelError::EmptyCore(_)), "{err}");
    }

    /// The bound is checked before any routing store exists, from the
    /// width and row count alone: nothing here allocates near it.
    #[test]
    fn a_core_past_the_channel_column_bound_is_too_large() {
        let too_large = |width, rows| {
            let err = check_core(width, rows).unwrap_err();
            assert!(matches!(err, ModelError::TooLarge(_)), "{err}");
        };
        let bound = MAX_CHANNEL_COLUMNS as i64;
        assert_eq!(check_core(bound / 2, 1), Ok(()));
        too_large(bound / 2 + 1, 1);
        assert_eq!(check_core(1, bound as usize - 1), Ok(()));
        too_large(1, bound as usize);
        assert_eq!(check_core(1 << 10, (1 << 18) - 1), Ok(()));
        too_large(1 << 10, 1 << 18);
        too_large(1 << 40, 1);
        too_large(i64::MAX, MAX_ROWS);
        let err = CircuitBuilder::new("wide", 1, bound / 2 + 1)
            .finish()
            .unwrap_err();
        assert!(matches!(err, ModelError::TooLarge(_)), "{err}");
    }

    #[test]
    fn memory_estimate_scales_with_size() {
        let c = tiny();
        let small = c.estimated_routing_bytes();
        assert!(small > 0);
        let mut big = c.clone();
        big.width *= 100;
        assert!(big.estimated_routing_bytes() > small);
    }
}
