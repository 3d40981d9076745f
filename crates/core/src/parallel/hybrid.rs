//! The hybrid pin partition algorithm (§6).
//!
//! Identical to the row-wise algorithm through coarse routing and
//! feedthrough assignment — rows, cells, and pins are partitioned
//! row-wise and fake pins keep sub-nets connected. The difference is the
//! final connection: "instead of letting each processor connect the pins
//! of a net in adjacent rows for the subnets, we let one processor do it
//! for each whole net." Sub-net fragments travel to the net's owner,
//! which builds one MST over the union — eliminating the redundant
//! tracks independent fragment connection can create (Figure 3). The
//! resulting spans are dealt back to the ranks owning their channels for
//! switchable optimization.
//!
//! The paper's verdict, which the benchmarks reproduce: best quality
//! (≈2 % track degradation), at slightly lower speedups than row-wise
//! because of the extra fragment/span exchange.

use crate::engine::{Phase, Pipeline, RouteCtx};
use crate::metrics::RoutingResult;
use crate::parallel::common::{group_nodes, sync_boundaries};
use crate::parallel::rowwise::RowWisePipeline;
use crate::route::connect::connect_all;
use crate::route::state::{Span, WorkNets};
use crate::route::switchable::ChannelState;
use pgr_circuit::{NetId, RowId};
use pgr_mpi::Comm;

/// Ship every net fragment of `works` to the net's owner, one store per
/// owner, and merge what each owner receives into whole nets in id order
/// (whatever order the fragments arrive in).
pub(crate) fn gather_at_owners(works: WorkNets, owners: &[u32], comm: &mut Comm) -> WorkNets {
    let owner = |net: NetId| owners[net.index()] as usize;
    let mut sizes = vec![(0, 0); comm.size()];
    for (net, nodes) in works.iter() {
        let (nets, len) = sizes[owner(net)];
        sizes[owner(net)] = (nets + 1, len + nodes.len());
    }
    let mut work_out: Vec<_> = sizes
        .iter()
        .map(|&(n, len)| WorkNets::with_capacity(n, len))
        .collect();
    for (net, nodes) in works.iter() {
        work_out[owner(net)].push(net, nodes.iter().copied());
    }
    drop(works);
    let fragments = comm.alltoall(work_out);
    let nets = || fragments.iter().flat_map(WorkNets::iter);
    group_nodes(
        || nets().flat_map(|(net, n)| n.iter().map(move |&nd| (net, nd))),
        true,
    )
}

/// The hybrid pipeline: steps 1–3 are exactly the row-wise flow (the
/// embedded [`RowWisePipeline`]'s passes, fake pins and all); connection
/// is per whole net. Driven by [`crate::engine::drive`] through
/// [`Algorithm::Hybrid`](crate::parallel::Algorithm); phase boundaries
/// are recovery checkpoints (see [`crate::engine::drive`]).
#[derive(Default)]
pub(crate) struct HybridPipeline {
    rowwise: RowWisePipeline,
}

impl Pipeline for HybridPipeline {
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let (owners, st) = (&self.rowwise.owners, &mut self.rowwise.st);
        match phase {
            // Step 4 (the hybrid difference): ship each net's fragment to
            // the net's owner, merge, and connect the whole net there.
            Phase::Connect => {
                let merged = gather_at_owners(std::mem::take(&mut st.works), owners, comm);
                let (all_spans, wirelength) = connect_all(&merged, true, comm);
                st.wirelength = wirelength;

                // Deal spans back to channel owners: switchable spans
                // follow their row (the owner covers both candidate
                // channels); fixed spans follow their channel (the top
                // channel belongs to the last rank).
                let mut span_out: Vec<Vec<Span>> = vec![Vec::new(); ctx.size];
                for s in all_spans {
                    let dest = match s.switch_row {
                        Some(r) => ctx.rows.owner(RowId(r)),
                        None => {
                            if s.channel as usize == ctx.circuit.num_rows() {
                                ctx.size - 1
                            } else {
                                ctx.rows.owner(RowId(s.channel))
                            }
                        }
                    };
                    span_out[dest].push(s);
                }
                // Arrival order is deterministic (alltoall delivers in
                // sender-rank order, each sender's list is
                // deterministic), and at P = 1 it is exactly the serial
                // span order.
                st.spans = comm.alltoall(span_out).into_iter().flatten().collect();
            }

            // Step 5 on the local rows, against the channel state of the
            // spans dealt back, boundary-synchronized first.
            Phase::Switchable => {
                let (row0, nrows) = ctx.band();
                let shape = (row0, nrows + 1, st.chip_width);
                let mut chans = ChannelState::from_spans(shape, false, 0, comm, |_| &st.spans);
                sync_boundaries(&mut chans, &ctx.rows, comm);
                st.chans = Some(chans);
                st.switchable(ctx, comm);
            }

            _ => self.rowwise.pass(phase, ctx, comm),
        }
    }

    fn snapshot(&self, at: Phase) -> Option<Vec<u8>> {
        self.rowwise.snapshot(at)
    }

    fn restore(&mut self, at: Phase, payloads: &[Vec<u8>], ctx: &mut RouteCtx<'_>) {
        self.rowwise.restore(at, payloads, ctx);
    }

    fn take_result(&mut self) -> Option<RoutingResult> {
        self.rowwise.take_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::parallel::{Algorithm, PartitionKind};
    use crate::route::try_route_serial;
    use pgr_circuit::{generate, Circuit, GeneratorConfig};
    use pgr_mpi::{run, MachineModel};

    fn small() -> Circuit {
        generate(&GeneratorConfig::small("hybrid-test", 31))
    }

    fn run_hybrid(circuit: &Circuit, cfg: &RouterConfig, procs: usize) -> (RoutingResult, f64) {
        let report = run(procs, MachineModel::sparc_center_1000(), |comm| {
            Algorithm::Hybrid
                .try_route(circuit, cfg, PartitionKind::PinWeight, comm)
                .unwrap()
        });
        let result = report
            .results
            .iter()
            .flatten()
            .next()
            .expect("rank 0 result")
            .clone();
        (result, report.makespan())
    }

    #[test]
    fn multi_rank_quality_close_to_serial() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        for procs in [2, 4] {
            let (par, _) = run_hybrid(&c, &cfg, procs);
            let scaled = par.scaled_tracks(&serial);
            // Small circuits are noisy: different rank-local random orders
            // can even beat the serial run slightly.
            assert!((0.85..1.25).contains(&scaled), "P={procs}: scaled {scaled}");
        }
    }

    #[test]
    fn hybrid_beats_rowwise_quality_on_average() {
        // The paper's headline (§6): whole-net connection removes the
        // redundant tracks of independent fragment connection. Compare
        // total tracks across seeds at 4 ranks.
        let mut hybrid_total = 0i64;
        let mut rowwise_total = 0i64;
        for seed in 0..3 {
            let c = generate(&GeneratorConfig::small("hb-cmp", 100 + seed));
            let cfg = RouterConfig::with_seed(seed);
            let (h, _) = run_hybrid(&c, &cfg, 4);
            let r = run(4, MachineModel::sparc_center_1000(), |comm| {
                Algorithm::RowWise
                    .try_route(&c, &cfg, PartitionKind::PinWeight, comm)
                    .unwrap()
            });
            let r = r.results.iter().flatten().next().unwrap().clone();
            hybrid_total += h.track_count();
            rowwise_total += r.track_count();
        }
        // Tiny test circuits give the two algorithms near-identical track
        // counts; allow noise. The real separation is asserted by the
        // full-size Table 2 vs Table 4 benchmarks.
        assert!(
            hybrid_total <= rowwise_total + rowwise_total / 20,
            "hybrid ({hybrid_total}) must not clearly lose to row-wise ({rowwise_total})"
        );
    }

    #[test]
    fn single_rank_matches_serial_exactly() {
        let c = small();
        let cfg = RouterConfig::with_seed(9);
        let serial = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        let (par, _) = run_hybrid(&c, &cfg, 1);
        assert_eq!(par, serial, "P=1 hybrid is the serial algorithm");
    }

    #[test]
    fn deterministic() {
        let c = small();
        let cfg = RouterConfig::with_seed(2);
        let a = run_hybrid(&c, &cfg, 3);
        let b = run_hybrid(&c, &cfg, 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn speedup_grows_with_ranks() {
        let c = small();
        let cfg = RouterConfig::with_seed(3);
        let (_, t1) = run_hybrid(&c, &cfg, 1);
        let (_, t4) = run_hybrid(&c, &cfg, 4);
        assert!(t4 < t1);
        assert!(
            t1 / t4 > 1.3,
            "simulated hybrid speedup too low: {}",
            t1 / t4
        );
    }
}
