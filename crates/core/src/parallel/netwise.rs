//! The net-wise pin partition algorithm (§5).
//!
//! Nets (and their pins) are dealt to ranks by one of the §5 heuristics
//! and the partition never changes. Every rank keeps a *replicated* copy
//! of the global coarse grid and channel state, makes decisions for its
//! own nets against that copy, and periodically synchronizes: "since all
//! processors could contribute feedthrough and track density estimation
//! to the same coarse global routing grid, we need to synchronize the
//! information of each grid point periodically."
//!
//! Between synchronizations every rank works on *stale* state — two
//! ranks can push switchable segments into the same channel before
//! either sees the other's move. That staleness is the algorithm's
//! documented quality problem, and the synchronization traffic (all
//! processors share all channels) is its documented runtime problem
//! (§7.2): quality degradation with poor speedups.

use crate::engine::{Phase, Pipeline, RouteCtx};
use crate::metrics::{names, record_ft_plan, RoutingResult};
use crate::parallel::common::{
    distribute, merge_steiner_payloads, steiner_snapshot, PORTABLE_HORIZON,
};
use crate::parallel::partition::partition_nets;
use crate::route::feedthrough::{assign, Crossing, FtPlan};
use crate::route::serial::{register_steiner_nodes, RouteState};
use crate::route::state::{Node, Segment};
use crate::route::steiner::{build_segments_with, whole_net};
use pgr_circuit::{NetId, RowId};
use pgr_mpi::Comm;

/// Where an owned net's Steiner segments come from.
enum SegmentSource<'a> {
    /// The Steiner pass builds them (and polls the budget as it goes).
    Build(&'a mut Comm),
    /// A resume takes them from the failed world's checkpoint table.
    Checkpoint(&'a [Option<Vec<Segment>>]),
}

/// Pipeline state carried between the net-wise passes. Driven by
/// [`crate::engine::drive`] through
/// [`Algorithm::NetWise`](crate::parallel::Algorithm). Phase boundaries
/// are recovery checkpoints (see [`crate::engine::drive`]): a
/// rank killed there holds no result, the survivors re-deal the nets over
/// the shrunken world, and the logical rank 0 — the lowest surviving
/// physical rank — takes over the master roles (snapshot hub, final
/// assembly).
#[derive(Default)]
pub(crate) struct NetWisePipeline {
    /// Owned nets with their Steiner segments, retained (only when a
    /// checkpoint store is attached) for the portable phase-boundary
    /// snapshot. Net-wise nets are never split, so these are the same
    /// segments as `segments`, grouped per net.
    ckpt: Vec<(u32, Vec<Segment>)>,
    owners: Vec<u32>,
    /// Owned whole nets against replicated whole-chip congestion state.
    st: RouteState,
}

impl NetWisePipeline {
    /// Deal the nets and walk the owned ones in net-id order: the work
    /// record of every multi-pin net (`whole_net` and the Steiner-junction
    /// registration are pure), its segments from `source`, and with `keep`
    /// the per-net copy the portable snapshot deposits. The one loop of
    /// the Steiner pass and of its resume, so a resumed run cannot drift
    /// from a fresh one.
    fn build_owned(&mut self, ctx: &RouteCtx<'_>, keep: bool, mut source: SegmentSource<'_>) {
        let (circuit, cfg) = (ctx.circuit, ctx.cfg);
        self.owners = partition_nets(circuit, ctx.kind, &ctx.rows, ctx.size, cfg.pin_weight_beta);
        for net in circuit.nets_chunks().flat_map(|c| c.net_ids()) {
            let i = net.index();
            if self.owners[i] as usize != ctx.rank {
                continue;
            }
            // Mandatory work: a latched breach stops local building; the
            // engine aborts at the next boundary.
            if let SegmentSource::Build(comm) = &mut source {
                if comm.budget_poll_abort() {
                    break;
                }
            }
            let mut w = whole_net(circuit, net);
            if w.nodes.len() < 2 {
                continue;
            }
            let segs = match &mut source {
                SegmentSource::Build(comm) => build_segments_with(&w, cfg.steiner_refine, comm),
                SegmentSource::Checkpoint(by_net) => by_net[i]
                    .clone()
                    .expect("every multi-pin net was checkpointed by its dead-world owner"),
            };
            if cfg.steiner_refine {
                register_steiner_nodes(&mut w, &segs);
            }
            if keep {
                self.ckpt.push((i as u32, segs.clone()));
            }
            self.st.segments.extend(segs);
            self.st.works.push(w);
        }
    }
}

/// Step 3's assignment over a net partition: crossings go to the rank
/// owning their row ("each processor has to own a copy of all the
/// segments which cross its rows"), assignments come back to the net
/// owner.
fn assign_exchanged(
    plan: &FtPlan,
    crossings: Vec<Crossing>,
    owners: &[u32],
    ctx: &RouteCtx<'_>,
    comm: &mut Comm,
) -> Vec<(NetId, Node)> {
    let mut cross_out: Vec<Vec<Crossing>> = vec![Vec::new(); ctx.size];
    for c in crossings {
        cross_out[ctx.rows.owner(RowId(c.row))].push(c);
    }
    let my_crossings: Vec<Crossing> = comm.alltoall(cross_out).into_iter().flatten().collect();
    let assigned = assign(plan, &my_crossings, comm);
    // The plan is replicated (every rank covers all rows): record it once
    // so the merged histogram still covers the chip exactly once.
    if ctx.rank == 0 {
        record_ft_plan(plan, comm);
    }
    let mut ft_out: Vec<Vec<(u32, Node)>> = vec![Vec::new(); ctx.size];
    for (net, node) in assigned {
        ft_out[owners[net.index()] as usize].push((net.0, node));
    }
    let ft_in = comm.alltoall(ft_out).into_iter().flatten();
    ft_in.map(|(n, nd)| (NetId(n), nd)).collect()
}

impl Pipeline for NetWisePipeline {
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let (circuit, cfg) = (ctx.circuit, ctx.cfg);
        let all_rows = (0, circuit.num_rows());
        match phase {
            // Replicated front end: every rank builds whole-circuit
            // structures.
            Phase::Setup => distribute(circuit, true, comm),

            // Step 1: Steiner trees for owned (whole) nets.
            Phase::Steiner => {
                let keep = comm.checkpointing();
                self.build_owned(ctx, keep, SegmentSource::Build(comm));
                comm.metric_add(names::NETS_OWNED, self.st.works.len() as u64);
                comm.metric_add(names::SEGMENTS_OWNED, self.st.segments.len() as u64);
                comm.metric_add(names::ROWS_OWNED, ctx.nrows() as u64);
            }

            // Step 2 against a replicated global grid, which synchronizes
            // itself every `sync_period` decisions. The replicated copy
            // is kept coarser than the serial grid to bound the per-rank
            // state and the all-channel synchronization volume.
            Phase::Coarse => {
                let grid_w = if ctx.size > 1 {
                    cfg.grid_w * cfg.netwise_grid_factor.max(1)
                } else {
                    cfg.grid_w
                };
                self.st.coarse_route(all_rows, grid_w, true, ctx, comm);
            }

            // Step 3: the demand grid is now consistent on every rank;
            // the insertion bookkeeping is replicated (not parallelized).
            Phase::Feedthrough => {
                let owners = &self.owners;
                self.st
                    .feedthroughs(circuit.num_cells(), ctx, comm, |plan, crossings, comm| {
                        assign_exchanged(plan, crossings, owners, ctx, comm)
                    });
            }

            // Step 4: owned nets against the replicated channel state.
            Phase::Connect => self.st.connect(all_rows, true, true, comm),

            // Step 5 on owned nets against the replicated state, which
            // synchronizes itself. There is no full baseline exchange:
            // the stale views between syncs are the interference the
            // paper blames for the quality loss.
            Phase::Switchable => self.st.switchable(ctx, comm),

            // The feedthrough plan is replicated: every rank's total
            // already counts the whole chip, so only rank 0 contributes
            // it to the gather reduction (the partitioned algorithms sum
            // disjoint per-band totals there instead).
            Phase::Assemble => {
                let plan = self.st.plan.as_ref().expect("feedthrough pass ran");
                let feedthroughs = if ctx.rank == 0 { plan.total() } else { 0 };
                self.st.gather_result(circuit, feedthroughs, comm);
            }
        }
    }

    fn snapshot(&self, at: Phase) -> Option<Vec<u8>> {
        steiner_snapshot(at, &self.ckpt)
    }

    fn restore(&mut self, at: Phase, payloads: &[Vec<u8>], ctx: &mut RouteCtx<'_>) {
        if at.index() != PORTABLE_HORIZON {
            return; // resuming at Steiner: default state, setup re-runs
        }
        // Nets are whole here: the skipped Steiner pass's own walk, fed the
        // checkpointed segments (retained: this attempt re-deposits them).
        let by_net = merge_steiner_payloads(payloads, ctx.circuit.num_nets());
        self.build_owned(ctx, true, SegmentSource::Checkpoint(&by_net));
    }

    fn take_result(&mut self) -> Option<RoutingResult> {
        self.st.result.take()
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
        generate(&GeneratorConfig::small("netwise-test", 21))
    }

    fn run_netwise(
        circuit: &Circuit,
        cfg: &RouterConfig,
        procs: usize,
        kind: PartitionKind,
    ) -> (RoutingResult, f64) {
        let report = run(procs, MachineModel::sparc_center_1000(), |comm| {
            Algorithm::NetWise
                .try_route(circuit, cfg, kind, comm)
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
    fn single_rank_matches_serial_exactly() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        let (par, _) = run_netwise(&c, &cfg, 1, PartitionKind::PinWeight);
        assert_eq!(par, serial, "P=1 net-wise is the serial algorithm");
    }

    #[test]
    fn multi_rank_routes_with_degradation() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        for procs in [2, 4] {
            let (par, _) = run_netwise(&c, &cfg, procs, PartitionKind::PinWeight);
            let scaled = par.scaled_tracks(&serial);
            assert!((0.85..1.5).contains(&scaled), "P={procs}: scaled {scaled}");
            assert!(par.span_count() > 0);
        }
    }

    #[test]
    fn all_partitions_work_in_parallel() {
        let c = small();
        let cfg = RouterConfig::with_seed(2);
        for kind in PartitionKind::ALL {
            let (par, _) = run_netwise(&c, &cfg, 3, kind);
            assert!(par.track_count() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn sync_period_trades_communication_for_staleness() {
        let c = small();
        let tight = RouterConfig {
            seed: 4,
            sync_period: 8,
            ..Default::default()
        };
        let loose = RouterConfig {
            seed: 4,
            sync_period: 4096,
            ..Default::default()
        };
        let run_with = |cfg: &RouterConfig| {
            run(4, MachineModel::sparc_center_1000(), |comm| {
                Algorithm::NetWise
                    .try_route(&c, cfg, PartitionKind::PinWeight, comm)
                    .unwrap()
            })
        };
        let rep_tight = run_with(&tight);
        let rep_loose = run_with(&loose);
        // Distribution and the final gather are a fixed floor; the sync
        // traffic on top must grow clearly with the frequency.
        let bytes = |rep: &pgr_mpi::RunReport<Option<RoutingResult>>| -> u64 {
            rep.stats.iter().map(|s| s.bytes_sent).sum()
        };
        assert!(
            bytes(&rep_tight) as f64 > 1.2 * bytes(&rep_loose) as f64,
            "frequent sync moves more data: {} vs {}",
            bytes(&rep_tight),
            bytes(&rep_loose)
        );
        let tracks = |rep: &pgr_mpi::RunReport<Option<RoutingResult>>| {
            rep.results.iter().flatten().next().unwrap().track_count()
        };
        // Quality stays in the same ballpark either way on a small
        // circuit (the degradation driver is the coarse replicated grid).
        let (qt, ql) = (tracks(&rep_tight), tracks(&rep_loose));
        assert!((qt - ql).abs() * 10 < ql, "{qt} vs {ql}");
    }

    #[test]
    fn deterministic() {
        let c = small();
        let cfg = RouterConfig::with_seed(6);
        let a = run_netwise(&c, &cfg, 3, PartitionKind::Center);
        let b = run_netwise(&c, &cfg, 3, PartitionKind::Center);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn memory_is_replicated() {
        let c = small();
        let cfg = RouterConfig::with_seed(1);
        let four = run(4, MachineModel::sparc_center_1000(), |comm| {
            Algorithm::NetWise
                .try_route(&c, &cfg, PartitionKind::PinWeight, comm)
                .unwrap()
        });
        let est = c.estimated_routing_bytes();
        for s in &four.stats {
            assert!(s.peak_mem >= est, "rank {} holds the whole circuit", s.rank);
        }
    }
}
