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
//! algorithms run the same step bodies (`serial::RouteState`, the state
//! every driver embeds) across ranks: this module owns every step's
//! loop, body and state format (replication of the two congestion states
//! included), `crate::parallel` partition and exchange.

pub mod coarse;
pub mod connect;
pub mod feedthrough;
pub mod serial;
pub mod state;
pub mod steiner;
pub mod switchable;

pub use serial::try_route_serial;
pub use state::{ChannelPref, Node, NodeKind, Orientation, Segment, Span, WorkNet};

/// Position of `channel` in a congestion state over channels
/// `chan0 ..= chan0 + n - 1` (coarse or full-resolution).
fn chan_idx(chan0: u32, n: usize, channel: u32) -> usize {
    let i = channel.checked_sub(chan0).expect("channel below range") as usize;
    assert!(i < n, "channel {channel} above range");
    i
}

/// Iterations between budget polls inside the optional refinement
/// sweeps (coarse improvement, switchable optimization): small enough
/// to shed promptly, large enough to keep the poll off the hot path.
pub const SHED_CHUNK: usize = 256;

/// How a local (serial, row-wise, hybrid) refinement sweep over `n`
/// items is sliced: `(slice length, rounds)` for [`shed_sweep`]. One
/// slice spanning everything when unbudgeted — a single `step` call even
/// for `n = 0`, bit-identical (virtual clock and trace included) to the
/// pre-budget code. Under an armed budget, chunks of [`SHED_CHUNK`] but
/// never fewer than eight polls per sweep (floor 16), so small workloads —
/// whose whole sweep fits inside one `SHED_CHUNK` — still get mid-sweep
/// shed opportunities. Deterministic in `n`.
fn local_slices(n: usize, comm: &pgr_mpi::Comm) -> (usize, usize) {
    if !comm.budget_limited() {
        return (n, 1);
    }
    let len = SHED_CHUNK.min((n / 8).max(16));
    (len, n.div_ceil(len))
}

/// One *optional* refinement sweep over `order` (a coarse improvement
/// pass, a switchable pass) of the congestion `state`, cut into `rounds`
/// slices of `slice` items (slices past the end of `order` are empty):
/// `step` does the work of one slice and returns how much it changed;
/// the sum comes back. `between` runs after every slice — a replicated
/// state's sync ([`refine`]).
///
/// A shed poll precedes every slice and one follows the last, so an
/// overrun inside the final slice registers as a shed — not as a hard
/// breach at the next phase boundary. Once the phase overruns, the
/// remaining slices skip `step` only: `between` still runs every round,
/// because the peers committed to its collectives — a rank that walks
/// away deadlocks the world. The polls are local and free when no
/// budget is armed.
fn shed_sweep<S>(
    state: &mut S,
    order: &[u32],
    (slice, rounds): (usize, usize),
    comm: &mut pgr_mpi::Comm,
    mut step: impl FnMut(&mut S, &[u32], &mut pgr_mpi::Comm) -> usize,
    mut between: impl FnMut(&mut S, &mut pgr_mpi::Comm),
) -> usize {
    let n = order.len();
    let mut changed = 0;
    for r in 0..rounds {
        if !comm.budget_poll_shed() {
            let chunk = &order[(r * slice).min(n)..((r + 1) * slice).min(n)];
            changed += step(state, chunk, comm);
        }
        between(state, comm);
    }
    if rounds > 0 {
        comm.budget_poll_shed();
    }
    changed
}

/// The refinement driver of steps 2 and 5: up to `passes` [`shed_sweep`]s
/// of `state`, each over a fresh random `order`, until one changes
/// nothing; returns the total change. A local state (no `sync_period`) is
/// sliced by [`local_slices`]; a replicated one (§5) runs `sync` every
/// `sync_period` decisions — as many rounds as the busiest rank needs, with
/// empty slices once a rank's own items run out — until no rank changes any.
fn refine<S>(
    state: &mut S,
    (passes, sync_period): (usize, Option<usize>),
    comm: &mut pgr_mpi::Comm,
    mut order: impl FnMut() -> Vec<u32>,
    mut step: impl FnMut(&mut S, &[u32], &mut pgr_mpi::Comm) -> usize,
    mut sync: impl FnMut(&mut S, &mut pgr_mpi::Comm),
) -> usize {
    let mut total = 0;
    for _ in 0..passes {
        let order = order();
        let slices = match sync_period.map(|sp| sp.max(1)) {
            Some(sp) => {
                let rounds = comm.allreduce(order.len().div_ceil(sp) as u64, u64::max);
                (sp, rounds as usize)
            }
            None => local_slices(order.len(), comm),
        };
        let changed = shed_sweep(state, &order, slices, comm, &mut step, |state, comm| {
            if sync_period.is_some() {
                sync(state, comm);
            }
        });
        total += changed;
        let anywhere = match sync_period {
            Some(_) => comm.allreduce(changed as u64, |a, b| a + b),
            None => changed as u64,
        };
        if anywhere == 0 {
            break;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_mpi::{Comm, MachineModel, ResourceBudget};

    #[derive(Debug, PartialEq)]
    enum Call {
        Step(usize),
        Between,
    }

    /// One virtual second per charged op.
    fn comm() -> Comm {
        Comm::solo(MachineModel {
            sec_per_op: 1.0,
            ..MachineModel::ideal()
        })
    }

    /// Run a sweep whose every step charges a second of work, logging
    /// the calls it makes.
    fn logged(order: &[u32], slices: (usize, usize), comm: &mut Comm) -> (Vec<Call>, usize) {
        let mut log = Vec::new();
        let changed = shed_sweep(
            &mut log,
            order,
            slices,
            comm,
            |log, chunk, comm| {
                log.push(Call::Step(chunk.len()));
                comm.compute(1);
                chunk.len()
            },
            |log, _| log.push(Call::Between),
        );
        (log, changed)
    }

    #[test]
    fn unbudgeted_local_sweep_is_one_step_even_when_empty() {
        let mut comm = comm();
        for n in [0usize, 5] {
            let order: Vec<u32> = (0..n as u32).collect();
            let (log, changed) = logged(&order, local_slices(n, &comm), &mut comm);
            assert_eq!(log, [Call::Step(n), Call::Between]);
            assert_eq!(changed, n);
        }
    }

    #[test]
    fn rounds_past_the_end_get_empty_slices() {
        let mut comm = comm();
        let (log, changed) = logged(&[7, 8, 9, 10, 11], (4, 3), &mut comm);
        use Call::{Between as B, Step as S};
        assert_eq!(log, [S(4), B, S(1), B, S(0), B]);
        assert_eq!(changed, 5);
    }

    #[test]
    fn a_shed_skips_the_steps_but_never_the_hook() {
        let mut comm = comm();
        comm.set_budget(ResourceBudget {
            max_phase_seconds: Some(1.5),
            ..ResourceBudget::unlimited()
        });
        let order: Vec<u32> = (0..40).collect();
        assert_eq!(local_slices(40, &comm), (16, 3), "armed: shed chunks");
        // Two one-second steps overrun the 1.5 s phase limit: the third
        // poll sheds, and every later round still runs its hook.
        let (log, changed) = logged(&order, (8, 5), &mut comm);
        use Call::{Between as B, Step as S};
        assert_eq!(log, [S(8), B, S(8), B, B, B, B]);
        assert_eq!(changed, 16);
        assert!(comm.budget_shed_agree());
    }
}
