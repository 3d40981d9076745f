//! A modeled transfer is indistinguishable from the zero-filled frame it
//! replaces in every account the simulation keeps: the same exchange,
//! once with `send_bytes(vec![0; N])` and once with `send_modeled(N)`,
//! yields bit-identical stats, traces, comm matrix, critical path and
//! budget verdicts. Only the host's work differs.

use pgr_mpi::{
    build_profile, run_instrumented, Comm, InstrumentConfig, MachineModel, Phase, PhaseControl,
    ResourceBudget, TraceEventKind,
};

const SHIP: u32 = 1;
const BACK: u32 = 2;
const SIZES: [usize; 5] = [0, 1, 8, 4096, 1 << 20];

fn ship(comm: &mut Comm, dst: usize, tag: u32, n: usize, modeled: bool) {
    if modeled {
        comm.send_modeled(dst, tag, n);
    } else {
        comm.send_bytes(dst, tag, vec![0; n]);
    }
}

fn take(comm: &mut Comm, src: usize, tag: u32, modeled: bool) -> usize {
    if modeled {
        comm.recv_modeled(src, tag)
    } else {
        comm.recv_bytes(src, tag).len()
    }
}

/// Rank 0 ships `n` bytes to each peer and gets `n` back from each, with
/// rank-dependent compute in between so the receives wait unevenly;
/// every rank holds what it received as modeled memory, and the phase
/// boundary that follows is where a byte cap bites.
fn exchange(comm: &mut Comm, n: usize, modeled: bool, cap: Option<u64>) -> (usize, PhaseControl) {
    comm.set_budget(ResourceBudget {
        max_rank_bytes: cap,
        ..ResourceBudget::unlimited()
    });
    assert_eq!(comm.boundary(Phase::Setup, || None), PhaseControl::Continue);
    let (rank, size) = (comm.rank(), comm.size());
    let mut got = 0;
    if rank == 0 {
        for dst in 1..size {
            ship(comm, dst, SHIP, n, modeled);
        }
        comm.compute(2_000);
        for src in 1..size {
            got += take(comm, src, BACK, modeled);
        }
    } else {
        comm.compute(700 * rank as u64);
        got += take(comm, 0, SHIP, modeled);
        ship(comm, 0, BACK, n, modeled);
    }
    comm.charge_alloc(got as u64);
    (got, comm.boundary(Phase::Steiner, || None))
}

#[test]
fn modeled_transfer_matches_the_zero_filled_frame_in_every_account() {
    let machine = MachineModel::sparc_center_1000();
    for n in SIZES {
        let run_as = |modeled: bool, cap: Option<u64>| {
            run_instrumented(3, machine, InstrumentConfig::full(), move |comm| {
                exchange(comm, n, modeled, cap)
            })
        };
        let (real, real_traces, real_metrics) = run_as(false, None);
        let (modeled, modeled_traces, modeled_metrics) = run_as(true, None);
        assert_eq!(real.results, modeled.results, "N={n}: sizes received");
        assert_eq!(real.results[0].0, 2 * n, "N={n}");
        // Clock to the bit, messages, bytes (per destination too), peak
        // modeled memory, phases.
        assert_eq!(real.stats, modeled.stats, "N={n}: rank stats");
        assert_eq!(real.stats[0].bytes_to, vec![0, n as u64, n as u64]);
        // Every event — the Send/Recv pairs with their bytes, sequence
        // numbers and stamps among them.
        assert_eq!(real_traces, modeled_traces, "N={n}: traces");
        let sends = modeled_traces[0]
            .events
            .iter()
            .filter(
                |e| matches!(e.kind, TraceEventKind::Send { bytes, tag: SHIP, .. } if bytes == n),
            )
            .count();
        assert_eq!(sends, 2, "N={n}: rank 0's sends are traced at full size");
        assert_eq!(real_metrics, modeled_metrics, "N={n}: metrics");
        let (real_profile, modeled_profile) = (
            build_profile(&real_traces, &machine),
            build_profile(&modeled_traces, &machine),
        );
        assert!(
            real_profile.warnings.is_empty(),
            "{:?}",
            real_profile.warnings
        );
        assert_eq!(real_profile, modeled_profile, "N={n}: critical path");

        // A cap the received bytes breach: the same structured verdict,
        // from the same rank, with the same payload.
        let cap = Some((n as u64).saturating_sub(1));
        let (real, ..) = run_as(false, cap);
        let (modeled, ..) = run_as(true, cap);
        assert_eq!(real.results, modeled.results, "N={n}: budget verdict");
        assert_eq!(real.stats, modeled.stats, "N={n}: budgeted stats");
        let breached = matches!(real.results[0].1, PhaseControl::BudgetExceeded { .. });
        assert_eq!(breached, n > 0, "N={n}: {:?}", real.results[0].1);
    }
}
