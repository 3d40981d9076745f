//! Standard-cell circuit model for the parallel global router.
//!
//! A circuit in the row-based (TimberWolfSC) design style consists of four
//! components — rows, cells, pins, and nets (§3 of the paper):
//!
//! * a **row** is an ordered set of cells sharing a y position, with a
//!   routing **channel** above and below it;
//! * a **cell** occupies a horizontal extent within its row and carries
//!   pins at fixed offsets;
//! * a **pin** belongs to exactly one cell and exactly one net; a pin may
//!   be *electrically equivalent* to a mirror pin on the opposite side of
//!   the cell, which lets the router choose the channel above or below
//!   (a "switchable" connection);
//! * a **net** is the set of pins that must be electrically connected.
//!
//! This crate owns the immutable input description: the model itself
//! ([`model`]) over columnar SoA storage ([`store`]), a builder with
//! validation ([`builder`]), deterministic
//! synthetic generators ([`mod@generate`]) including MCNC-benchmark-shaped
//! instances ([`mcnc`]), a plain-text interchange format ([`mod@format`]), and
//! contiguous row partitions ([`partition`]) used by the parallel
//! algorithms.

pub mod builder;
pub mod format;
pub mod generate;
pub mod ids;
pub mod mcnc;
pub mod model;
pub mod partition;
pub mod scenarios;
pub mod store;

pub use builder::CircuitBuilder;
pub use generate::{generate, GeneratorConfig};
pub use ids::{CellId, NetId, PinId, RowId};
pub use model::{Cell, Circuit, CircuitStats, Net, Pin, PinSide, Row, MAX_PINS, MAX_ROWS};
pub use partition::RowPartition;
pub use scenarios::{ScenarioFamily, ScenarioSpec};
pub use store::{ChunkSummary, NET_CHUNK_SIZE};
