//! The serial TWGR driver: steps 1–5 end to end.
//!
//! This is the baseline every parallel algorithm is scaled against
//! (Tables 2–5 report parallel quality and runtime relative to this run).
//! It executes under a [`Comm`] — normally [`Comm::solo`] — so the same
//! virtual-time accounting used by the parallel drivers produces the
//! serial runtime.

use crate::config::RouterConfig;
use crate::cost;
use crate::engine::{self, Phase, Pipeline, RouteCtx, RouteError};
use crate::metrics::{names, record_ft_plan, record_quality, RoutingResult};
use crate::parallel::partition::PartitionKind;
use crate::route::coarse::CoarseState;
use crate::route::connect::connect_all;
use crate::route::feedthrough::{assign, Crossing, FtPlan};
use crate::route::state::{NetSlots, Node, NodeKind, Orientation, Segment, Span, WorkNet};
use crate::route::steiner::{build_segments_with, whole_net};
use crate::route::switchable::{optimize, ChannelState};
use pgr_circuit::{Circuit, NetId};
use pgr_mpi::Comm;

/// Vertical-crossing requests implied by the chosen L orientations.
/// Uses [`Segment::demand_rows`], so fake-pin endpoints (partition
/// boundaries) request the feedthrough the net's pass-through needs.
pub fn crossings_of(segments: &[Segment], orients: &[Orientation]) -> Vec<Crossing> {
    let mut out = Vec::new();
    for (seg, &orient) in segments.iter().zip(orients) {
        let x = seg.vertical_x(orient);
        for row in seg.demand_rows() {
            out.push(Crossing {
                net: seg.net,
                row,
                x,
            });
        }
    }
    out
}

/// Shift every pin and fake-pin node of `works` whose row lies in
/// `plan`'s range to its post-insertion column. Feedthrough nodes are
/// created in post-insertion coordinates already and stay put.
///
/// Fake pins are "not attached to any cells" (§4) — no cell drags them —
/// but their column marks the net's vertical at a partition boundary, so
/// they must track the routing grid exactly like the feedthroughs that
/// continue the same vertical on the rows below/above; otherwise every
/// boundary crossing would manufacture a spurious horizontal jog as long
/// as the row's cumulative feedthrough shift.
fn shift_pins(works: &mut [WorkNet], plan: &FtPlan) {
    let lo = plan.row0();
    let hi = lo + plan.num_rows() as u32;
    for w in works {
        for node in &mut w.nodes {
            if matches!(
                node.kind,
                NodeKind::Pin(_) | NodeKind::Fake | NodeKind::Steiner
            ) && node.row >= lo
                && node.row < hi
            {
                node.x = plan.shifted_x(node.row, node.x);
            }
        }
    }
}

/// Add any Steiner junctions appearing in `segs` to the work net's node
/// list — junctions are connection points of the net exactly like pins
/// and feedthroughs, so step 4's MST must see them. (The row-partitioned
/// algorithms get this for free: their node lists are assembled from
/// segment endpoints.)
pub fn register_steiner_nodes(work: &mut WorkNet, segs: &[Segment]) {
    for s in segs {
        for nd in [s.lower, s.upper] {
            if matches!(nd.kind, NodeKind::Steiner) {
                work.nodes.push(nd);
            }
        }
    }
    work.nodes.sort_unstable_by_key(|n| n.sort_key());
    work.nodes.dedup();
}

/// Attach assigned feedthrough nodes to their nets' work records.
fn attach_feedthroughs(works: &mut [WorkNet], ft_nodes: Vec<(NetId, Node)>) {
    let mut slots = NetSlots::default();
    for (i, w) in works.iter().enumerate() {
        *slots.of(w.net) = Some(i as u32);
    }
    for (net, node) in ft_nodes {
        let i = slots
            .of(net)
            .expect("feedthrough for a net this rank does not own");
        works[i as usize].nodes.push(node);
    }
}

/// Run the full serial router on a one-rank communicator.
///
/// This is [`engine::drive`] over a [`SerialPipeline`] — the same
/// driver, phase boundaries, budget gate and verify-on-shed epilogue as
/// the parallel algorithms, so a serial run's phase marks, metric
/// windows and virtual account are those of a P = 1 parallel run. An
/// armed [`pgr_mpi::ResourceBudget`] breach comes back as a structured
/// [`RouteError::BudgetExceeded`] instead of a panic, and a run that shed
/// optional passes under time pressure completes with a
/// [`crate::verify::check`] proof (its violations counter stays zero).
pub fn try_route_serial(
    circuit: &Circuit,
    cfg: &RouterConfig,
    comm: &mut Comm,
) -> Result<RoutingResult, RouteError> {
    engine::drive::<SerialPipeline>(circuit, cfg, PartitionKind::PinWeight, comm)
        .map(|result| result.expect("the serial pipeline always assembles a result"))
}

/// The routing state every driver carries between its passes, and the
/// communication-free body of steps 2–5 — each written once, so at P = 1
/// all four drivers charge the same virtual seconds by construction.
/// The methods take the values their callees take (a row range, a grid
/// width, `replicated`, `whole_nets`, a cell count), never the
/// [`Algorithm`](crate::parallel::Algorithm): what differs between the
/// drivers — distribution, the exchanges, boundary sync — stays in the
/// pipeline that embeds this state.
#[derive(Default)]
pub(crate) struct RouteState {
    /// This rank's nets (whole, or row-band sub-nets), with feedthroughs
    /// attached once step 3 ran.
    pub(crate) works: Vec<WorkNet>,
    /// The Steiner segments steps 2 and 3 route.
    pub(crate) segments: Vec<Segment>,
    orients: Vec<Orientation>,
    coarse: Option<CoarseState>,
    pub(crate) plan: Option<FtPlan>,
    /// Chip width after feedthrough insertion: the widest local row until
    /// a row-partitioned driver all-reduces it.
    pub(crate) chip_width: i64,
    pub(crate) chans: Option<ChannelState>,
    /// Step 4's product, refined in place by step 5.
    pub(crate) spans: Vec<Span>,
    pub(crate) wirelength: u64,
    pub(crate) result: Option<RoutingResult>,
}

impl RouteState {
    /// Step 2: coarse global routing of `segments` on a grid of `grid_w`
    /// columns a cell over `nrows` rows from `row0`; `replicated` makes
    /// the grid one copy of a state every rank holds (§5).
    pub(crate) fn coarse_route(
        &mut self,
        (row0, nrows): (u32, usize),
        grid_w: i64,
        replicated: bool,
        ctx: &mut RouteCtx<'_>,
        comm: &mut Comm,
    ) {
        let mut coarse = CoarseState::charged(row0, nrows, ctx.circuit.width, grid_w, comm);
        if replicated {
            coarse = coarse.replicated();
        }
        self.orients = coarse.route(&self.segments, ctx.cfg, &mut ctx.rng, comm);
        self.coarse = Some(coarse);
    }

    /// Step 3: the insertion plan from the coarse demand (shifting `cells`
    /// cells) and the crossings the chosen orientations request of it;
    /// `assign` turns those into this rank's nets' feedthroughs — locally
    /// ([`assign_recorded`]) or through the driver's exchanges; then the
    /// nodes move to their post-insertion columns, the feedthroughs are
    /// attached and the local chip width is taken.
    pub(crate) fn feedthroughs(
        &mut self,
        cells: usize,
        ctx: &RouteCtx<'_>,
        comm: &mut Comm,
        assign: impl FnOnce(&FtPlan, Vec<Crossing>, &mut Comm) -> Vec<(NetId, Node)>,
    ) {
        let coarse = self.coarse.take().expect("coarse pass ran");
        let plan = self.plan.insert(coarse.into_plan(ctx.cfg.ft_width));
        comm.compute(cost::FT_INSERT_CELL * cells as u64);
        let ft_nodes = assign(plan, crossings_of(&self.segments, &self.orients), comm);
        shift_pins(&mut self.works, plan);
        attach_feedthroughs(&mut self.works, ft_nodes);
        self.chip_width = ctx.circuit.width + plan.max_growth();
    }

    /// Step 4: connect `works` into the channels of `nrows` rows from
    /// `row0`. `whole_nets` asserts every net spans (row-band fragments
    /// may be forests: their components meet through fake pins on other
    /// ranks); `replicated` as in step 2.
    pub(crate) fn connect(
        &mut self,
        (row0, nrows): (u32, usize),
        replicated: bool,
        whole_nets: bool,
        comm: &mut Comm,
    ) {
        let shape = (row0, nrows + 1, self.chip_width);
        let chans = ChannelState::from_spans(shape, replicated, 0, comm, |comm| {
            (self.spans, self.wirelength) = connect_all(&self.works, whole_nets, comm);
            &self.spans
        });
        self.chans = Some(chans);
    }

    /// Step 5: switchable-segment optimization of `spans` against `chans`.
    pub(crate) fn switchable(&mut self, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let chans = self.chans.as_mut().expect("channel state was built");
        let flips = optimize(chans, &mut self.spans, ctx.cfg, &mut ctx.rng, comm);
        comm.metric_add(names::SEGMENTS_FLIPPED, flips as u64);
    }

    /// Back end of a parallel run: gather every rank's spans and scalar
    /// tallies at rank 0 — which then holds the whole chip's `spans`,
    /// `wirelength` and `chans` — and assemble the global result there
    /// (`result` stays `None` elsewhere). `feedthroughs` is this rank's
    /// share of the chip total.
    pub(crate) fn gather_result(&mut self, circuit: &Circuit, feedthroughs: u64, comm: &mut Comm) {
        comm.trace_mark("gather_result");
        self.chans = None; // this rank's channels are spent: free them first
        let wirelength = comm.reduce(0, self.wirelength, |a, b| a + b);
        let feedthroughs = comm.reduce(0, feedthroughs, |a, b| a + b);
        let Some(all_spans) = comm.gather(0, std::mem::take(&mut self.spans)) else {
            return; // non-roots are done
        };
        self.spans = all_spans.into_iter().flatten().collect();
        self.wirelength = wirelength.expect("rank 0 holds the reduction");
        let shape = (0, circuit.num_rows() + 1, self.chip_width);
        let emit_ops = cost::SETUP_ITEM * circuit.num_nets() as u64;
        let chans = ChannelState::from_spans(shape, false, emit_ops, comm, |_| &self.spans);
        self.chans = Some(chans);
        let feedthroughs = feedthroughs.expect("rank 0 holds the reduction");
        self.emit(circuit, feedthroughs, comm);
    }

    /// Assemble the global result from the whole chip's `chans`.
    fn emit(&mut self, circuit: &Circuit, feedthroughs: u64, comm: &mut Comm) {
        let result = RoutingResult {
            circuit: circuit.name.clone(),
            channel_density: self.chans.as_ref().expect("connect pass ran").densities(),
            chip_width: self.chip_width,
            rows: circuit.num_rows(),
            wirelength: self.wirelength,
            feedthroughs,
            spans: std::mem::take(&mut self.spans),
        };
        record_quality(&result, comm);
        self.result = Some(result);
    }
}

/// Step 3's assignment where the rank that routed a crossing owns its
/// row and its net (serial, row bands): assign locally, and record the
/// plan's feedthroughs-per-row histogram.
pub(crate) fn assign_recorded(
    plan: &FtPlan,
    crossings: Vec<Crossing>,
    comm: &mut Comm,
) -> Vec<(NetId, Node)> {
    let ft_nodes = assign(plan, &crossings, comm);
    record_ft_plan(plan, comm);
    ft_nodes
}

/// The serial pipeline: the shared [`RouteState`] over whole nets and all
/// rows. Crate-visible so the engine's bounded-recovery fallback
/// ([`engine::drive`]) can run the same pipeline to complete a degraded
/// parallel run serially.
#[derive(Default)]
pub(crate) struct SerialPipeline {
    st: RouteState,
}

impl Pipeline for SerialPipeline {
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let (circuit, cfg, st) = (ctx.circuit, ctx.cfg, &mut self.st);
        let all_rows = (0, circuit.num_rows());
        match phase {
            // Front end: build the routing data structures.
            Phase::Setup => {
                let entities =
                    (circuit.num_pins() + circuit.num_cells() + circuit.num_nets()) as u64;
                comm.compute(cost::SETUP_ITEM * entities);
                comm.charge_alloc(circuit.estimated_routing_bytes());
            }

            // Step 1: approximate Steiner trees.
            Phase::Steiner => {
                // Chunked sweep over the columnar store: chunks partition
                // the net id space in order, so the work list is identical
                // to a flat 0..n loop while touching one chunk's columns
                // at a time.
                st.works = Vec::with_capacity(circuit.num_nets());
                for chunk in circuit.nets_chunks() {
                    st.works
                        .extend(chunk.net_ids().map(|n| whole_net(circuit, n)));
                }
                st.segments = Vec::with_capacity(circuit.num_pins());
                for w in &mut st.works {
                    // Mandatory work: a latched breach stops further
                    // local building; the engine turns it into a
                    // structured abort at the next phase boundary.
                    if comm.budget_poll_abort() {
                        break;
                    }
                    let segs = build_segments_with(w, cfg.steiner_refine, comm);
                    if cfg.steiner_refine {
                        register_steiner_nodes(w, &segs);
                    }
                    st.segments.extend(segs);
                }
                comm.metric_add(names::SEGMENTS, st.segments.len() as u64);
            }

            Phase::Coarse => st.coarse_route(all_rows, cfg.grid_w, false, ctx, comm),
            Phase::Feedthrough => st.feedthroughs(circuit.num_cells(), ctx, comm, assign_recorded),
            Phase::Connect => st.connect(all_rows, false, true, comm),
            Phase::Switchable => st.switchable(ctx, comm),

            // Back end: emit the solution (nothing to gather — step 5's
            // channel state is already the whole chip's).
            Phase::Assemble => {
                comm.compute(cost::SETUP_ITEM * circuit.num_nets() as u64);
                let feedthroughs = st.plan.as_ref().expect("feedthrough pass ran").total();
                st.emit(circuit, feedthroughs, comm);
            }
        }
    }

    fn take_result(&mut self) -> Option<RoutingResult> {
        self.st.result.take()
    }
}

/// The work nets Connect receives: the serial pipeline run up to and
/// including the feedthrough pass.
#[cfg(test)]
pub(crate) fn works_after_feedthrough(circuit: &Circuit, cfg: &RouterConfig) -> Vec<WorkNet> {
    let mut comm = Comm::solo(pgr_mpi::MachineModel::ideal());
    let mut ctx = RouteCtx::new(circuit, cfg, PartitionKind::PinWeight, (1, 0));
    let mut pipe = SerialPipeline::default();
    for phase in [
        Phase::Setup,
        Phase::Steiner,
        Phase::Coarse,
        Phase::Feedthrough,
    ] {
        pipe.pass(phase, &mut ctx, &mut comm);
    }
    pipe.st.works
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::MachineModel;

    fn small() -> Circuit {
        generate(&GeneratorConfig::small("serial-test", 42))
    }

    #[test]
    fn serial_route_produces_sane_result() {
        let c = small();
        let mut comm = Comm::solo(MachineModel::ideal());
        let r = try_route_serial(&c, &RouterConfig::with_seed(7), &mut comm).unwrap();
        assert_eq!(r.channel_density.len(), c.num_rows() + 1);
        assert!(r.track_count() > 0, "routing a real circuit uses tracks");
        assert!(r.chip_width >= c.width, "feedthroughs only grow the chip");
        assert!(r.wirelength > 0);
        assert!(r.span_count() > 0);
        assert!(r.area() > 0);
    }

    #[test]
    fn serial_route_is_deterministic() {
        let c = small();
        let cfg = RouterConfig::with_seed(9);
        let a = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        let b = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_routings_same_circuit() {
        let c = small();
        let a = try_route_serial(
            &c,
            &RouterConfig::with_seed(1),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        let b = try_route_serial(
            &c,
            &RouterConfig::with_seed(2),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        // Random orders differ; quality should be in the same ballpark
        // (TWGR's key property: solution quality is order-independent).
        assert!(a.track_count() > 0 && b.track_count() > 0);
        let ratio = a.track_count() as f64 / b.track_count() as f64;
        assert!((0.9..=1.1).contains(&ratio), "order independence: {ratio}");
    }

    #[test]
    fn virtual_time_accrues() {
        let c = small();
        let mut comm = Comm::solo(MachineModel::sparc_center_1000());
        try_route_serial(&c, &RouterConfig::default(), &mut comm).unwrap();
        assert!(comm.now() > 0.0);
        assert!(comm.peak_mem() > 0);
    }

    #[test]
    fn more_passes_never_worse_tracks_on_average() {
        // Not a strict theorem per instance, but across a few seeds the
        // extra improvement passes must not systematically hurt.
        let c = small();
        let mut tracks_1 = 0i64;
        let mut tracks_4 = 0i64;
        for seed in 0..3 {
            let short = RouterConfig {
                seed,
                coarse_passes: 1,
                switch_passes: 1,
                ..Default::default()
            };
            let long = RouterConfig {
                seed,
                coarse_passes: 4,
                switch_passes: 4,
                ..Default::default()
            };
            tracks_1 += try_route_serial(&c, &short, &mut Comm::solo(MachineModel::ideal()))
                .unwrap()
                .track_count();
            tracks_4 += try_route_serial(&c, &long, &mut Comm::solo(MachineModel::ideal()))
                .unwrap()
                .track_count();
        }
        assert!(
            tracks_4 <= tracks_1,
            "passes help: {tracks_4} vs {tracks_1}"
        );
    }

    #[test]
    fn switchable_pins_matter() {
        // A circuit with no equivalent pins has no switchable segments:
        // step 5 is a no-op and density is typically worse.
        let mut cfg_many = GeneratorConfig::small("eq", 3);
        cfg_many.equivalent_fraction = 0.9;
        let mut cfg_none = cfg_many.clone();
        cfg_none.name = "noeq".into();
        cfg_none.equivalent_fraction = 0.0;
        let many = try_route_serial(
            &generate(&cfg_many),
            &RouterConfig::with_seed(5),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        let none = try_route_serial(
            &generate(&cfg_none),
            &RouterConfig::with_seed(5),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        // Same seed, same sizes: the switchable-rich circuit routes with
        // no more tracks (usually strictly fewer).
        assert!(many.track_count() <= none.track_count() + none.track_count() / 10);
    }

    #[test]
    fn crossings_match_orientations() {
        use crate::route::state::ChannelPref;
        let a = Node::pin(0, 2, 0, ChannelPref::Either);
        let b = Node::pin(1, 10, 3, ChannelPref::Either);
        let seg = Segment::new(NetId(0), a, b);
        let cr = crossings_of(&[seg], &[Orientation::VertAtUpper]);
        assert_eq!(cr.len(), 2);
        assert!(cr.iter().all(|c| c.x == 10));
        assert_eq!(cr[0].row, 1);
        assert_eq!(cr[1].row, 2);

        // Fake endpoints (partition boundaries) additionally demand their
        // own rows: the pieces of a split edge tile the whole crossing.
        let piece = Segment::new(NetId(0), Node::fake(2, 0), Node::fake(2, 3));
        let cr = crossings_of(&[piece], &[Orientation::VertAtLower]);
        assert_eq!(
            cr.iter().map(|c| c.row).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn attach_feedthroughs_matches_the_hash_map_reference() {
        use std::collections::HashMap;
        // The hashed lookup the slot table replaced.
        fn reference(works: &mut [WorkNet], ft_nodes: Vec<(NetId, Node)>) {
            let index: HashMap<NetId, usize> =
                works.iter().enumerate().map(|(i, w)| (w.net, i)).collect();
            for (net, node) in ft_nodes {
                works[index[&net]].nodes.push(node);
            }
        }
        // Non-contiguous, unsorted net ids; several feedthroughs a net,
        // interleaved; one net without any.
        let nets = [907u32, 3, 41, 40, 100_000, 0];
        let works: Vec<WorkNet> = nets
            .iter()
            .map(|&n| WorkNet {
                net: NetId(n),
                nodes: vec![Node::fake(n as i64, 1)],
            })
            .collect();
        let mut rng = pgr_geom::rng::rng_from_seed(0xA77A);
        let ft_nodes: Vec<(NetId, Node)> = (0..64)
            .map(|i| {
                let net = nets[rng.gen_range(0..nets.len() - 1)];
                (NetId(net), Node::feedthrough(i, rng.gen_range(0..9u32)))
            })
            .collect();
        let (mut dense, mut hashed) = (works.clone(), works);
        attach_feedthroughs(&mut dense, ft_nodes.clone());
        reference(&mut hashed, ft_nodes);
        assert_eq!(dense, hashed);
        assert_eq!(dense[5].nodes.len(), 1, "net 0 got no feedthrough");
        assert_eq!(dense.iter().map(|w| w.nodes.len()).sum::<usize>(), 6 + 64);
    }

    #[test]
    #[should_panic(expected = "feedthrough for a net this rank does not own")]
    fn attaching_to_an_unknown_net_panics() {
        let mut works = vec![WorkNet {
            net: NetId(7),
            nodes: Vec::new(),
        }];
        attach_feedthroughs(&mut works, vec![(NetId(6), Node::feedthrough(0, 0))]);
    }
}
