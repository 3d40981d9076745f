//! Incremental circuit construction with validation at `finish()`.
//!
//! Cells are appended to rows left-to-right and packed automatically; the
//! builder keeps id assignment dense so routers can index entity columns
//! directly. Everything lands straight in the columnar
//! [`crate::store::CircuitStore`] — there is no intermediate
//! array-of-structs representation.

use crate::ids::{CellId, NetId, PinId, RowId};
use crate::model::{Circuit, ModelError, PinSide};
use crate::store::CircuitStore;

/// Builder for [`Circuit`].
///
/// ```
/// use pgr_circuit::{CircuitBuilder, PinSide, RowId};
/// let mut b = CircuitBuilder::new("demo", 2, 100);
/// let c0 = b.add_cell(RowId(0), 8);
/// let c1 = b.add_cell(RowId(1), 8);
/// let p0 = b.add_pin(c0, 2, PinSide::Top, true);
/// let p1 = b.add_pin(c1, 4, PinSide::Bottom, false);
/// b.add_net("clk", vec![p0, p1]);
/// let circuit = b.finish().unwrap();
/// assert_eq!(circuit.num_nets(), 1);
/// assert_eq!(circuit.num_channels(), 3);
/// ```
pub struct CircuitBuilder {
    name: String,
    width: i64,
    num_rows: usize,
    store: CircuitStore,
    /// Next free x per row (cells are packed edge to edge).
    cursor: Vec<i64>,
}

impl CircuitBuilder {
    /// A builder for a circuit with `num_rows` rows and a core `width`
    /// columns wide.
    pub fn new(name: impl Into<String>, num_rows: usize, width: i64) -> Self {
        CircuitBuilder {
            name: name.into(),
            width,
            num_rows,
            store: CircuitStore::new(),
            cursor: vec![0; num_rows],
        }
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Append a cell of `width` columns to `row`, packed after the previous
    /// cell. Panics if the row would overflow the core width — generators
    /// are expected to size the core first.
    pub fn add_cell(&mut self, row: RowId, width: u32) -> CellId {
        let x = self.cursor[row.index()];
        assert!(
            x + width as i64 <= self.width,
            "row {row} overflows core width {} (cursor {x}, cell width {width})",
            self.width
        );
        let id = self.store.push_cell(row, x, width);
        self.cursor[row.index()] = x + width as i64;
        id
    }

    /// Add a pin to `cell` at `offset` columns from its left edge.
    /// The pin is not yet on a net; [`CircuitBuilder::add_net`] wires it.
    pub fn add_pin(&mut self, cell: CellId, offset: u32, side: PinSide, equivalent: bool) -> PinId {
        self.store.push_pin(cell, offset, side, equivalent)
    }

    /// Create a net over previously added pins. Empty or duplicate-pin
    /// nets are accepted here and rejected with a structured error at
    /// [`CircuitBuilder::finish`].
    pub fn add_net(&mut self, name: impl Into<String>, pins: Vec<PinId>) -> NetId {
        let name = name.into();
        self.store.push_net(&name, &pins)
    }

    /// Validate and produce the circuit. Pins never wired to a net are
    /// dropped (cells may legitimately have unused pin sites). Nets with
    /// fewer than two pins fail with [`ModelError::DegenerateNet`]; a pin
    /// listed twice in one net fails with [`ModelError::DuplicatePin`].
    pub fn finish(mut self) -> Result<Circuit, ModelError> {
        self.store.drop_unwired_pins();
        self.store.finalize(self.num_rows);
        let circuit = Circuit::from_store(self.name, self.width, self.num_rows, self.store);
        circuit.validate()?;
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_cells_left_to_right() {
        let mut b = CircuitBuilder::new("t", 1, 100);
        let a = b.add_cell(RowId(0), 10);
        let c = b.add_cell(RowId(0), 5);
        let pa = b.add_pin(a, 0, PinSide::Top, false);
        let pc = b.add_pin(c, 4, PinSide::Top, false);
        b.add_net("n", vec![pa, pc]);
        let circuit = b.finish().unwrap();
        assert_eq!(circuit.cell(CellId(0)).x, 0);
        assert_eq!(circuit.cell(CellId(1)).x, 10);
        assert_eq!(circuit.pin_x(PinId(1)), 14);
    }

    #[test]
    #[should_panic(expected = "overflows core width")]
    fn overflow_panics() {
        let mut b = CircuitBuilder::new("t", 1, 8);
        b.add_cell(RowId(0), 5);
        b.add_cell(RowId(0), 5);
    }

    #[test]
    fn unwired_pins_are_dropped_and_ids_compacted() {
        let mut b = CircuitBuilder::new("t", 1, 100);
        let a = b.add_cell(RowId(0), 10);
        let _unused = b.add_pin(a, 0, PinSide::Top, false);
        let p1 = b.add_pin(a, 1, PinSide::Top, false);
        let p2 = b.add_pin(a, 2, PinSide::Bottom, false);
        b.add_net("n", vec![p1, p2]);
        let circuit = b.finish().unwrap();
        assert_eq!(circuit.num_pins(), 2);
        assert_eq!(circuit.pin(PinId(0)).offset, 1);
        assert_eq!(circuit.cell(CellId(0)).pins.len(), 2);
        circuit.validate().unwrap();
    }

    #[test]
    fn duplicate_pin_in_one_net_is_rejected() {
        let mut b = CircuitBuilder::new("t", 1, 100);
        let a = b.add_cell(RowId(0), 10);
        let p0 = b.add_pin(a, 0, PinSide::Top, false);
        let p1 = b.add_pin(a, 1, PinSide::Bottom, false);
        b.add_net("dup", vec![p0, p1, p0]);
        match b.finish() {
            Err(ModelError::DuplicatePin(msg)) => {
                assert!(msg.contains("dup"), "error names the net: {msg}")
            }
            other => panic!("expected DuplicatePin, got {other:?}"),
        }
    }

    #[test]
    fn zero_pin_net_is_rejected() {
        let mut b = CircuitBuilder::new("t", 1, 100);
        let a = b.add_cell(RowId(0), 10);
        let p0 = b.add_pin(a, 0, PinSide::Top, false);
        let p1 = b.add_pin(a, 1, PinSide::Bottom, false);
        b.add_net("ok", vec![p0, p1]);
        b.add_net("empty", vec![]);
        match b.finish() {
            Err(ModelError::DegenerateNet(msg)) => {
                assert!(msg.contains("0 pin"), "error reports the count: {msg}")
            }
            other => panic!("expected DegenerateNet, got {other:?}"),
        }
    }
}
