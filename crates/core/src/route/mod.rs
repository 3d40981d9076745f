//! The five-step TWGR routing pipeline (§2 of the paper).
//!
//! 1. [`steiner`] — approximate Steiner tree per net from its MST;
//! 2. [`coarse`] — coarse global routing: L-shape selection on a grid,
//!    random segment order, density + feedthrough cost;
//! 3. [`feedthrough`] — feedthrough insertion (rows grow, cells shift)
//!    and per-row assignment of crossings to feedthroughs;
//! 4. [`connect`] — final connection: adjacency-limited MST over pins
//!    and feedthroughs;
//! 5. [`switchable`] — switchable net segments flipped between the
//!    channels above/below their row to minimize peak density.
//!
//! [`serial::try_route_serial`] chains them; the [`crate::parallel`]
//! algorithms re-use the same pieces across ranks.

pub mod coarse;
pub mod connect;
pub mod feedthrough;
pub mod serial;
pub mod state;
pub mod steiner;
pub mod switchable;

pub use serial::try_route_serial;
pub use state::{ChannelPref, Node, NodeKind, Orientation, Segment, Span, WorkNet};

/// Iterations between budget polls inside the optional refinement
/// sweeps (coarse improvement, switchable optimization): small enough
/// to shed promptly, large enough to keep the poll off the hot path.
pub const SHED_CHUNK: usize = 256;

/// Chunk length for a budgeted refinement sweep over `n` items: caps at
/// [`SHED_CHUNK`], but never fewer than eight polls per sweep (floor 16),
/// so small workloads — whose whole sweep fits inside one `SHED_CHUNK` —
/// still get mid-sweep shed opportunities. Deterministic in `n`.
pub fn shed_chunk_len(n: usize) -> usize {
    SHED_CHUNK.min((n / 8).max(16))
}
