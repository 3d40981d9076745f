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
fn shed_chunk_len(n: usize) -> usize {
    SHED_CHUNK.min((n / 8).max(16))
}

/// One *optional* refinement sweep over `order` (a coarse improvement
/// pass, a switchable pass): `step` does the work of one slice and
/// returns how much it changed; the sum comes back. Under an armed
/// budget the sweep runs in chunks with a shed poll between them (and
/// one after the last, so an overrun inside the final chunk registers as
/// a shed — not as a hard breach at the next phase boundary), dropping
/// the remaining iterations when the phase overruns. Unbudgeted runs
/// take the single-call path — bit-identical (virtual clock included)
/// to the pre-budget code.
pub(crate) fn shed_sweep(
    order: &[u32],
    comm: &mut pgr_mpi::Comm,
    mut step: impl FnMut(&[u32], &mut pgr_mpi::Comm) -> usize,
) -> usize {
    if !comm.budget_limited() {
        return step(order, comm);
    }
    let mut changed = 0;
    for chunk in order.chunks(shed_chunk_len(order.len())) {
        if comm.budget_poll_shed() {
            return changed;
        }
        changed += step(chunk, comm);
    }
    if !order.is_empty() {
        comm.budget_poll_shed();
    }
    changed
}
