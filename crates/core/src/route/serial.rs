//! The serial TWGR driver: steps 1–5 end to end.
//!
//! This is the baseline every parallel algorithm is scaled against
//! (Tables 2–5 report parallel quality and runtime relative to this run).
//! It executes under a [`Comm`] — normally [`Comm::solo`] — so the same
//! virtual-time accounting used by the parallel drivers produces the
//! serial runtime.

use crate::config::{RouterConfig, GRID_W};
use crate::cost;
use crate::engine::{self, Phase, Pipeline, RouteCtx, RouteError};
use crate::metrics::{names, record_ft_plan, record_quality, RoutingResult};
use crate::parallel::common::join;
use crate::parallel::partition::PartitionKind;
use crate::route::coarse::CoarseState;
use crate::route::connect::connect_all;
use crate::route::feedthrough::{assign, Crossing, FtPlan};
use crate::route::state::{Node, NodeKind, Orientation, Segment, Span, WorkNets};
use crate::route::steiner::{build_segments_with, pin_nodes, SteinerScratch};
use crate::route::switchable::{optimize, ChannelState};
use pgr_circuit::{Circuit, NetId};
use pgr_mpi::Comm;

/// Vertical-crossing requests implied by the chosen L orientations, in
/// segment order, made as they are walked: step 3 walks them once rather
/// than store 12 B a crossing. Uses [`Segment::demand_rows`], so
/// fake-pin endpoints (partition boundaries) request the feedthrough the
/// net's pass-through needs.
pub fn crossings_of<'a>(
    segments: &'a [Segment],
    orients: &'a [Orientation],
) -> impl Iterator<Item = Crossing> + 'a {
    segments.iter().zip(orients).flat_map(|(seg, &orient)| {
        let net = seg.net;
        let x = i32::try_from(seg.vertical_x(orient)).expect("a node's column fits 32 bits");
        seg.demand_rows().map(move |row| Crossing { net, row, x })
    })
}

/// Move a pin, fake-pin or Steiner node whose row lies in `plan`'s range
/// to its post-insertion column. Feedthrough nodes are created in
/// post-insertion coordinates already and stay put. The shift is
/// strictly increasing in `x` within a row, so it keeps a row's order.
///
/// Fake pins are "not attached to any cells" (§4) — no cell drags them —
/// but their column marks the net's vertical at a partition boundary, so
/// they must track the routing grid exactly like the feedthroughs that
/// continue the same vertical on the rows below/above; otherwise every
/// boundary crossing would manufacture a spurious horizontal jog as long
/// as the row's cumulative feedthrough shift.
fn shift_pin(plan: &FtPlan, node: &mut Node) {
    let rows = plan.row0()..plan.row0() + plan.num_rows() as u32;
    if !matches!(node.kind(), NodeKind::Feedthrough) && rows.contains(&node.row) {
        node.set_x(plan.shifted_x(node.row, node.x()));
    }
}

/// Add any Steiner junctions appearing in `segs` to the last net of
/// `works` — junctions are connection points of the net exactly like
/// pins and feedthroughs, so step 4's MST must see them. (The
/// row-partitioned algorithms get this for free: their node lists are
/// assembled from segment endpoints.)
fn register_steiner_nodes(works: &mut WorkNets, segs: &[Segment]) {
    let ends = segs.iter().flat_map(|s| [s.lower, s.upper]);
    works.extend_last(ends.filter(|nd| matches!(nd.kind(), NodeKind::Steiner)));
}

/// Where step 1's Steiner segments come from.
pub(crate) enum SegmentSource<'a> {
    /// The Steiner pass builds them (and polls the budget as it goes).
    Build(&'a mut Comm),
    /// A resume takes them from the failed world's checkpoint table,
    /// indexed by net.
    Checkpoint(&'a [Option<Vec<Segment>>]),
}

/// This rank's feedthroughs, as step 3's exchange leaves them.
pub(crate) enum Feedthroughs {
    /// This rank assigns its own crossings: it owns their rows and their
    /// nets (serial, row bands).
    Local,
    /// Feedthroughs the rows' owners assigned, `(net, node)` in arrival
    /// order — one part a sender rank, each in the sender's [`assign`]
    /// order (net-wise).
    Received(Vec<Vec<(u32, Node)>>),
}

/// Step 3's attach: `works`' own nodes shifted by `plan`, merged in place
/// with `fts` assigned here from the crossings of `segments` under
/// `orients`, or as received. A segment's net gains one feedthrough per
/// row it demands, so the crossings are walked once, by `assign`.
fn attach_feedthroughs(
    works: &mut WorkNets,
    (plan, (segments, orients)): (&FtPlan, (&[Segment], &[Orientation])),
    fts: Feedthroughs,
    comm: &mut Comm,
) {
    let shift = |node: &mut Node| shift_pin(plan, node);
    let mut attach = comm.start_timer();
    match fts {
        Feedthroughs::Local => {
            let per_row = |s: &Segment| std::iter::repeat_n(s.net, s.demand_rows().len());
            works.attach(shift, segments.iter().flat_map(per_row), |sink| {
                let timer = comm.start_timer();
                let crossings = crossings_of(segments, orients);
                assign(plan, crossings, comm, |net, nd| sink.put(net, nd));
                comm.stop_timer(names::FT_ASSIGN, timer);
                // `ft.attach` is the rest: it starts later by `assign`'s time.
                if let (Some(attach), Some(timer)) = (&mut attach, timer) {
                    *attach += timer.elapsed();
                }
            });
        }
        Feedthroughs::Received(parts) => {
            let fts = || parts.iter().flatten();
            works.attach(shift, fts().map(|&(net, _)| NetId(net)), |sink| {
                fts().for_each(|&(net, nd)| sink.put(NetId(net), nd))
            });
        }
    }
    comm.stop_timer(names::FT_ATTACH, attach);
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
/// communication-free body of steps 1–5 — each written once, so at P = 1
/// all four drivers charge the same virtual seconds by construction.
/// The methods take the values their callees take (an owner filter, a
/// row range, a grid width, `replicated`, `whole_nets`, a cell count),
/// never the [`Algorithm`](crate::parallel::Algorithm): what differs
/// between the drivers — distribution, the exchanges (step 1's dealing of
/// split segments among them), boundary sync — stays in the pipeline that
/// embeds this state.
#[derive(Default)]
pub(crate) struct RouteState {
    /// This rank's nets (whole, or row-band sub-nets), with feedthroughs
    /// attached once step 3 ran. Connect is its last reader: step 4 takes
    /// the store and frees it as soon as `connect_all` returns, before the
    /// channel profiles are allocated.
    pub(crate) works: WorkNets,
    /// The Steiner segments steps 2 and 3 route, and step 2's orientation
    /// of each. Step 3's attach is their last reader: both are freed as it
    /// returns, so neither is live in Connect.
    pub(crate) segments: Vec<Segment>,
    orients: Vec<Orientation>,
    coarse: Option<CoarseState>,
    /// Step 3's plan total, the feedthroughs inserted in this rank's rows
    /// (every row, if the plan is replicated): Assemble's one read of the
    /// plan, which step 3 frees as it returns.
    pub(crate) ft_total: u64,
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
    /// Step 1: the Steiner trees of the multi-pin nets `owned` accepts
    /// (by net index), walked in net-id order — each net's pin nodes into
    /// `works`, its segments from `source` into `segments`, and under
    /// refinement its Steiner junctions into `works` too. Both stores are
    /// reserved first, exactly when refinement is off. A resume feeds the
    /// checkpointed segments through this same walk, so it cannot drift
    /// from a fresh run.
    pub(crate) fn steiner(
        &mut self,
        ctx: &RouteCtx<'_>,
        owned: impl Fn(usize) -> bool,
        mut source: SegmentSource<'_>,
    ) {
        let (circuit, refine) = (ctx.circuit, ctx.cfg.steiner_refine);
        // Chunk by chunk over the columnar store: net-id order.
        let net_ids = || circuit.nets_chunks().flat_map(|c| c.net_ids());
        let (nets, pins) = net_ids()
            .filter(|net| owned(net.index()))
            .map(|net| circuit.net_degree(net))
            .filter(|&degree| degree >= 2)
            .fold((0, 0), |(nets, pins), degree| (nets + 1, pins + degree));
        self.works = WorkNets::with_capacity(nets, pins);
        self.segments = Vec::with_capacity(pins - nets);
        let mut scratch = SteinerScratch::default();
        for net in net_ids().filter(|net| owned(net.index())) {
            // Mandatory work: a latched breach stops local building; the
            // engine turns it into a structured abort at the next phase
            // boundary (a pipeline's exchange still runs first).
            if let SegmentSource::Build(comm) = &mut source {
                if comm.budget_poll_abort() {
                    break;
                }
            }
            if circuit.net_degree(net) < 2 {
                continue;
            }
            let (works, segments) = (&mut self.works, &mut self.segments);
            works.push(net, pin_nodes(circuit, net, &mut scratch.points));
            let first = segments.len();
            match &mut source {
                SegmentSource::Build(comm) => {
                    build_segments_with(net, works.last(), refine, comm, &mut scratch, segments)
                }
                SegmentSource::Checkpoint(by_net) => segments.extend_from_slice(
                    by_net[net.index()]
                        .as_ref()
                        .expect("every multi-pin net was checkpointed by its dead-world owner"),
                ),
            }
            if refine {
                register_steiner_nodes(works, &segments[first..]);
            }
        }
    }

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
    /// `exchange` makes those this rank's nets' feedthroughs — to assign
    /// here ([`local_feedthroughs`]) or assigned through the driver's
    /// exchanges; then the store grows in place with every node at its
    /// post-insertion column and the feedthroughs attached, and the local
    /// chip width and the plan's total are taken; the plan is freed as
    /// this returns. A local attach is the last read of `segments`
    /// and `orients`, a received one does not read them: both are freed
    /// before the store grows if the feedthroughs were received, and
    /// before this returns otherwise (a row-wise checkpoint keeps its own
    /// copy of the unsplit segments).
    pub(crate) fn feedthroughs(
        &mut self,
        cells: usize,
        ctx: &RouteCtx<'_>,
        comm: &mut Comm,
        exchange: impl FnOnce(&FtPlan, (&[Segment], &[Orientation]), &mut Comm) -> Feedthroughs,
    ) {
        let coarse = self.coarse.take().expect("coarse pass ran");
        let plan = coarse.into_plan();
        comm.compute(cost::FT_INSERT_CELL * cells as u64);
        let fts = exchange(&plan, (&self.segments, &self.orients), comm);
        if matches!(fts, Feedthroughs::Received(_)) {
            // A net-wise rank's attach would otherwise hold them beside the
            // grown store while a faster rank starts Connect.
            (self.segments, self.orients) = (Vec::new(), Vec::new());
        }
        let routed = (&self.segments[..], &self.orients[..]);
        attach_feedthroughs(&mut self.works, (&plan, routed), fts, comm);
        (self.segments, self.orients) = (Vec::new(), Vec::new());
        self.chip_width = ctx.circuit.width + plan.max_growth();
        self.ft_total = plan.total();
    }

    /// Step 4: connect `works` into the channels of `nrows` rows from
    /// `row0`. `whole_nets` asserts every net spans (row-band fragments
    /// may be forests: their components meet through fake pins on other
    /// ranks); `replicated` as in step 2.
    ///
    /// Memory, in host order: the channel state's modeled bytes are charged
    /// first (the connect loop's budget polls see them); `works` moves into
    /// the Connect closure and is freed when `connect_all` returns, so the
    /// host allocates the profiles only once the store is gone — the store,
    /// the spans and the profiles are never live at once.
    pub(crate) fn connect(
        &mut self,
        (row0, nrows): (u32, usize),
        replicated: bool,
        whole_nets: bool,
        comm: &mut Comm,
    ) {
        let shape = (row0, nrows + 1, self.chip_width);
        let works = std::mem::take(&mut self.works);
        let mut load = None;
        let chans = ChannelState::from_spans(shape, replicated, 0, comm, |comm| {
            (self.spans, self.wirelength) = connect_all(&works, whole_nets, comm);
            drop(works);
            load = comm.start_timer();
            &self.spans
        });
        comm.stop_timer(names::CONNECT_LOAD, load);
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
        let wirelength = comm.reduce(self.wirelength, |a, b| a + b);
        let feedthroughs = comm.reduce(feedthroughs, |a, b| a + b);
        let Some(all_spans) = comm.gather(std::mem::take(&mut self.spans)) else {
            return; // non-roots are done
        };
        // The root's own spans come first, its peers' in rank order.
        self.spans = join(all_spans);
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

/// Step 3's exchange where the rank that routed a crossing owns its row
/// and its net (serial, row bands): nothing moves — the crossings are
/// assigned here — and the plan's feedthroughs-per-row histogram is
/// recorded.
pub(crate) fn local_feedthroughs(
    plan: &FtPlan,
    _: (&[Segment], &[Orientation]),
    comm: &mut Comm,
) -> Feedthroughs {
    record_ft_plan(plan, comm);
    Feedthroughs::Local
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
        let (circuit, st) = (ctx.circuit, &mut self.st);
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
                st.steiner(ctx, |_| true, SegmentSource::Build(comm));
                comm.metric_add(names::SEGMENTS, st.segments.len() as u64);
            }

            Phase::Coarse => st.coarse_route(all_rows, GRID_W, false, ctx, comm),
            Phase::Feedthrough => {
                st.feedthroughs(circuit.num_cells(), ctx, comm, local_feedthroughs)
            }
            Phase::Connect => st.connect(all_rows, false, true, comm),
            Phase::Switchable => st.switchable(ctx, comm),

            // Back end: emit the solution (nothing to gather — step 5's
            // channel state is already the whole chip's).
            Phase::Assemble => {
                comm.compute(cost::SETUP_ITEM * circuit.num_nets() as u64);
                st.emit(circuit, st.ft_total, comm);
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
pub(crate) fn works_after_feedthrough(circuit: &Circuit, cfg: &RouterConfig) -> WorkNets {
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
    use crate::parallel::common::SteinerRecords;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::{MachineModel, Snapshot};

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
        let cr: Vec<_> = crossings_of(&[seg], &[Orientation::VertAtUpper]).collect();
        assert_eq!(cr.len(), 2);
        assert!(cr.iter().all(|c| c.x == 10));
        assert_eq!(cr[0].row, 1);
        assert_eq!(cr[1].row, 2);

        // Fake endpoints (partition boundaries) additionally demand their
        // own rows: the pieces of a split edge tile the whole crossing.
        let piece = Segment::new(NetId(0), Node::fake(2, 0), Node::fake(2, 3));
        let cr: Vec<_> = crossings_of(&[piece], &[Orientation::VertAtLower]).collect();
        assert_eq!(
            cr.iter().map(|c| c.row).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    /// Step 3 as it was, per net: the own nodes shifted, the feedthroughs
    /// of the comparison-sort assignment pushed through a hashed net
    /// lookup, then the list sorted (Connect's sort, before the store
    /// kept the order).
    fn push_then_sort(
        pre: &WorkNets,
        plan: &FtPlan,
        crossings: &[Crossing],
    ) -> Vec<(NetId, Vec<Node>)> {
        use std::collections::HashMap;
        let mut nets: Vec<(NetId, Vec<Node>)> = pre
            .iter()
            .map(|(net, nodes)| {
                let mut nodes = nodes.to_vec();
                nodes.iter_mut().for_each(|nd| shift_pin(plan, nd));
                (net, nodes)
            })
            .collect();
        let index: HashMap<NetId, usize> = nets.iter().enumerate().map(|(i, w)| (w.0, i)).collect();
        for (net, node) in crate::route::feedthrough::reference_assign(plan, crossings) {
            nets[index[&net]].1.push(node);
        }
        for (_, nodes) in &mut nets {
            nodes.sort_unstable_by_key(Node::sort_key);
        }
        nets
    }

    fn listed(works: &WorkNets) -> Vec<(NetId, Vec<Node>)> {
        works
            .iter()
            .map(|(net, nodes)| (net, nodes.to_vec()))
            .collect()
    }

    /// Every net's slice strictly increases in `sort_key`: canonical and
    /// free of duplicates.
    fn assert_canonical(works: &WorkNets) {
        for (net, nodes) in works.iter() {
            let keys: Vec<_> = nodes.iter().map(Node::sort_key).collect();
            assert!(keys.windows(2).all(|k| k[0] < k[1]), "net {net}: {nodes:?}");
        }
    }

    #[test]
    fn attach_feedthroughs_matches_the_hash_map_reference() {
        // Non-contiguous, unsorted net ids, each with pins out of order;
        // several crossings a net, interleaved, some past the last grid
        // column; one net without any.
        let nets = [907u32, 3, 41, 40, 100_000, 0];
        let mut rng = pgr_geom::rng::rng_from_seed(0xA77A);
        let mut works = WorkNets::default();
        for &n in &nets {
            let pin = |i: u32, rng: &mut pgr_geom::rng::SmallRng| {
                let pref = crate::route::state::ChannelPref::Either;
                Node::pin(n + i, rng.gen_range(0..40i64), rng.gen_range(0..9u32), pref)
            };
            works.push(NetId(n), [pin(1, &mut rng), pin(0, &mut rng)]);
        }
        // Segments of one to three rows with pin or fake-pin ends (a
        // fake end demands its own row too), verticals either end.
        let segments: Vec<Segment> = (0..24)
            .map(|_| {
                let net = NetId(nets[rng.gen_range(0..nets.len() - 1)]);
                let (x, lo) = (rng.gen_range(0..40i64), rng.gen_range(0..8u32));
                let hi = rng.gen_range(lo + 1..(lo + 4).min(9));
                let pref = crate::route::state::ChannelPref::Either;
                let mut end = |row| match rng.gen_bool(0.5) {
                    true => Node::fake(x, row),
                    false => Node::pin(0, x, row, pref),
                };
                let (lower, upper) = (end(lo), end(hi));
                Segment { net, lower, upper }
            })
            .collect();
        let orients = [Orientation::VertAtLower, Orientation::VertAtUpper].repeat(12);
        let crossings: Vec<Crossing> = crossings_of(&segments, &orients).collect();
        assert!(
            crossings.len() > segments.len(),
            "some segments demand rows"
        );
        let (grid_w, gcols) = (8, 4);
        let mut demand = crate::route::state::Grid::new(9, gcols);
        for c in &crossings {
            demand[c.row as usize][((i64::from(c.x) / grid_w) as usize).min(gcols - 1)] += 1;
        }
        let plan = FtPlan::new(0, demand, grid_w, 2);
        let pre = works.clone();
        let mut comm = Comm::solo(MachineModel::ideal());
        let local = (&plan, (&segments[..], &orients[..]));
        attach_feedthroughs(&mut works, local, Feedthroughs::Local, &mut comm);
        assert_eq!(listed(&works), push_then_sort(&pre, &plan, &crossings));
        assert_canonical(&works);
        assert_eq!(
            works.iter().nth(5).unwrap().1.len(),
            2,
            "net 0 got no feedthrough"
        );
        let total = 12 + crossings.len();
        assert_eq!(works.iter().map(|w| w.1.len()).sum::<usize>(), total);
    }

    #[test]
    #[should_panic(expected = "feedthrough for a net this rank does not own")]
    fn attaching_to_an_unknown_net_panics() {
        let mut works = WorkNets::default();
        works.push(NetId(7), []);
        let plan = FtPlan::new(0, crate::route::state::Grid::new(1, 1), 8, 2);
        let fts = Feedthroughs::Received(vec![vec![(6, Node::feedthrough(0, 0))]]);
        let none = (&plan, (&[][..], &[][..]));
        attach_feedthroughs(
            &mut works,
            none,
            fts,
            &mut Comm::solo(MachineModel::ideal()),
        );
    }

    /// Run `pipe` through step 3 on `ctx`'s rank and check the store step
    /// 3 left: every net canonical, and what step 3 used to build.
    fn check_step3<P: crate::engine::Pipeline>(
        pipe: &mut P,
        st: fn(&mut P) -> &mut RouteState,
        ctx: &mut RouteCtx<'_>,
        comm: &mut Comm,
    ) {
        for phase in [Phase::Setup, Phase::Steiner, Phase::Coarse] {
            pipe.pass(phase, ctx, comm);
        }
        let s = st(pipe);
        let crossings: Vec<_> = crossings_of(&s.segments, &s.orients).collect();
        let pre = s.works.clone();
        let demand = s.coarse.as_ref().expect("coarse pass ran").demand().clone();
        let plan = FtPlan::new(ctx.band().0, demand, GRID_W, crate::config::FT_WIDTH);
        assert!(!crossings.is_empty());
        pipe.pass(Phase::Feedthrough, ctx, comm);
        let s = st(pipe);
        assert_eq!(listed(&s.works), push_then_sort(&pre, &plan, &crossings));
        assert_canonical(&s.works);
    }

    #[test]
    fn step3_leaves_every_net_canonical_at_p1_on_a_row_band_and_at_the_hybrids_owners() {
        use crate::parallel::rowwise::RowWisePipeline;
        let c = small();
        for refine in [false, true] {
            let cfg = RouterConfig {
                steiner_refine: refine,
                ..RouterConfig::with_seed(3)
            };
            let mut comm = Comm::solo(MachineModel::ideal());
            let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (1, 0));
            check_step3(
                &mut SerialPipeline::default(),
                |p| &mut p.st,
                &mut ctx,
                &mut comm,
            );

            pgr_mpi::run(2, MachineModel::ideal(), |comm| {
                let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (2, comm.rank()));
                let mut pipe = RowWisePipeline::default();
                check_step3(&mut pipe, |p| &mut p.st, &mut ctx, comm);
                // The hybrid's Connect: every fragment of a net gathered
                // at the rank that connects it, against "concatenate,
                // sort, deduplicate", nets in (step-1 owner, id) order.
                let all = comm.allgather(pipe.st.works.clone());
                let beta = crate::config::CONNECT_PIN_WEIGHT_BETA;
                let connects =
                    crate::parallel::partition::partition_nets(&c, ctx.kind, &ctx.rows, 2, beta);
                let merged = crate::parallel::hybrid::gather_at_owners(
                    std::mem::take(&mut pipe.st.works),
                    &connects,
                    &pipe.owners,
                    comm,
                );
                let mut want: Vec<(NetId, Vec<Node>)> = Vec::new();
                let mut ids: Vec<usize> = (0..c.num_nets()).collect();
                ids.sort_by_key(|&id| pipe.owners[id]);
                for id in ids {
                    let net = NetId::from_index(id);
                    let parts: Vec<&[Node]> = all
                        .iter()
                        .flat_map(|w| w.iter())
                        .filter(|&(n, _)| n == net)
                        .map(|(_, nodes)| nodes)
                        .collect();
                    if connects[id] as usize == comm.rank() && !parts.is_empty() {
                        let mut nodes = parts.concat();
                        nodes.sort_unstable_by_key(Node::sort_key);
                        nodes.dedup();
                        want.push((net, nodes));
                    }
                }
                assert_eq!(listed(&merged), want);
                assert_canonical(&merged);
            });
        }
    }

    /// Rank `rank`'s context over a world of `size` ranks, and which nets
    /// the pin-weight partition deals it.
    fn dealt<'a>(
        c: &'a Circuit,
        cfg: &'a RouterConfig,
        (size, rank): (usize, usize),
    ) -> (RouteCtx<'a>, Vec<bool>) {
        use crate::parallel::partition::partition_nets;
        let ctx = RouteCtx::new(c, cfg, PartitionKind::PinWeight, (size, rank));
        let owners = partition_nets(c, ctx.kind, &ctx.rows, size, cfg.pin_weight_beta);
        (ctx, owners.iter().map(|&o| o as usize == rank).collect())
    }

    /// Every rank's step 1 on `c` over a world of `size` ranks.
    fn steiner_per_rank(c: &Circuit, cfg: &RouterConfig, size: usize) -> Vec<RouteState> {
        let build = |rank| {
            let ((ctx, mine), mut st) = (dealt(c, cfg, (size, rank)), RouteState::default());
            let mut comm = Comm::solo(MachineModel::ideal());
            st.steiner(&ctx, |i| mine[i], SegmentSource::Build(&mut comm));
            st
        };
        (0..size).map(build).collect()
    }

    /// Run `pipe` through Connect on `ctx`'s rank and check that each
    /// store is freed by the pass that reads it last: `segments` and
    /// `orients` by step 3's attach, `works` by step 4. Returns the
    /// portable snapshot taken where the engine takes it, entering Coarse,
    /// and the one the pipeline would give for that boundary after Connect.
    fn check_lifetimes<P: crate::engine::Pipeline>(
        pipe: &mut P,
        st: fn(&mut P) -> &mut RouteState,
        ctx: &mut RouteCtx<'_>,
        comm: &mut Comm,
    ) -> (Option<SteinerRecords>, Option<SteinerRecords>) {
        for phase in [Phase::Setup, Phase::Steiner] {
            pipe.pass(phase, ctx, comm);
        }
        let entering_coarse = records(pipe.snapshot(Phase::Coarse));
        let s = st(pipe);
        assert!(!s.segments.is_empty());
        for phase in [Phase::Coarse, Phase::Feedthrough] {
            pipe.pass(phase, ctx, comm);
        }
        let s = st(pipe);
        assert!(!s.works.is_empty());
        assert_eq!(s.segments.capacity(), 0, "segments outlive step 3");
        assert_eq!(s.orients.capacity(), 0, "orientations outlive step 3");
        pipe.pass(Phase::Connect, ctx, comm);
        let s = st(pipe);
        assert!(!s.spans.is_empty());
        assert!(
            s.works.is_empty() && s.works.is_exactly_sized(),
            "works outlive step 4"
        );
        (entering_coarse, records(pipe.snapshot(Phase::Coarse)))
    }

    /// The Steiner records a snapshot entering Coarse holds.
    fn records(snapshot: Option<Snapshot>) -> Option<SteinerRecords> {
        snapshot.map(|s| s.get::<SteinerRecords>().expect("Steiner records").clone())
    }

    #[test]
    fn each_store_is_freed_by_its_last_reader_in_every_driver() {
        use crate::parallel::common::steiner_snapshot;
        use crate::parallel::netwise::NetWisePipeline;
        use crate::parallel::rowwise::RowWisePipeline;
        use pgr_mpi::{run_instrumented, CheckpointStore, InstrumentConfig};
        let c = small();
        for refine in [false, true] {
            let cfg = RouterConfig {
                steiner_refine: refine,
                ..RouterConfig::with_seed(6)
            };
            let mut comm = Comm::solo(MachineModel::ideal());
            let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (1, 0));
            let mut serial = SerialPipeline::default();
            check_lifetimes(&mut serial, |p| &mut p.st, &mut ctx, &mut comm);

            // Under a checkpoint store, so row-wise keeps its unsplit copy.
            let built = steiner_per_rank(&c, &cfg, 2);
            let instr = InstrumentConfig {
                checkpoints: Some(std::sync::Arc::new(CheckpointStore::new())),
                ..InstrumentConfig::off()
            };
            run_instrumented(2, MachineModel::ideal(), instr, |comm| {
                assert!(comm.checkpointing());
                let rank = comm.rank();
                let at = format!("refine {refine}, rank {rank}");
                let want = records(steiner_snapshot(Phase::Coarse, &built[rank].segments));
                assert!(want.as_ref().is_some_and(|w| !w.is_empty()), "{at}");

                let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (2, rank));
                let mut rowwise = RowWisePipeline::default();
                let (entering, after) =
                    check_lifetimes(&mut rowwise, |p| &mut p.st, &mut ctx, comm);
                assert_eq!(entering, want, "row-wise, {at}");
                assert_eq!(after, want, "row-wise keeps its own copy, {at}");

                let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (2, rank));
                let mut netwise = NetWisePipeline::default();
                let (entering, _) = check_lifetimes(&mut netwise, |p| &mut p.st, &mut ctx, comm);
                assert_eq!(entering, want, "net-wise, {at}");
            });
        }
    }

    /// Run `pipe` through every phase on `ctx`'s rank and check that step
    /// 3 kept only its plan's total: the coarse state whose demand made the
    /// plan is gone, and `ft_total` is the demand's sum. Returns that total
    /// and the result, if this rank assembled one.
    fn check_ft_total<P: crate::engine::Pipeline>(
        pipe: &mut P,
        st: fn(&mut P) -> &mut RouteState,
        ctx: &mut RouteCtx<'_>,
        comm: &mut Comm,
    ) -> (u64, Option<RoutingResult>) {
        for phase in [Phase::Setup, Phase::Steiner, Phase::Coarse] {
            pipe.pass(phase, ctx, comm);
        }
        let demand = st(pipe).coarse.as_ref().expect("coarse pass ran").demand();
        let total = demand.cells().iter().sum::<i64>() as u64;
        assert!(total > 0);
        pipe.pass(Phase::Feedthrough, ctx, comm);
        let s = st(pipe);
        assert!(s.coarse.is_none(), "the demand grid outlives step 3");
        assert_eq!(s.ft_total, total);
        for phase in [Phase::Connect, Phase::Switchable, Phase::Assemble] {
            pipe.pass(phase, ctx, comm);
        }
        (total, pipe.take_result())
    }

    #[test]
    fn step3_keeps_only_the_plans_total_and_every_driver_assembles_it() {
        use crate::parallel::netwise::NetWisePipeline;
        use crate::parallel::rowwise::RowWisePipeline;
        let (c, cfg) = (small(), RouterConfig::with_seed(5));
        let mut comm = Comm::solo(MachineModel::ideal());
        let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (1, 0));
        let mut serial = SerialPipeline::default();
        let (total, result) = check_ft_total(&mut serial, |p| &mut p.st, &mut ctx, &mut comm);
        assert_eq!(result.expect("serial assembles").feedthroughs, total);

        pgr_mpi::run(2, MachineModel::ideal(), |comm| {
            let rank = comm.rank();
            // Row bands: the result holds the sum of the bands' totals.
            let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (2, rank));
            let mut rowwise = RowWisePipeline::default();
            let (band, result) = check_ft_total(&mut rowwise, |p| &mut p.st, &mut ctx, comm);
            let chip = comm.allreduce(band, |a, b| a + b);
            assert_eq!(result.map(|r| r.feedthroughs), (rank == 0).then_some(chip));
            // A replicated plan: every rank's total is the chip's, counted once.
            let mut ctx = RouteCtx::new(&c, &cfg, PartitionKind::PinWeight, (2, rank));
            let mut netwise = NetWisePipeline::default();
            let (all, result) = check_ft_total(&mut netwise, |p| &mut p.st, &mut ctx, comm);
            assert_eq!(comm.allreduce(all, u64::max), comm.allreduce(all, u64::min));
            assert_eq!(result.map(|r| r.feedthroughs), (rank == 0).then_some(all));
        });
    }

    #[test]
    fn steiner_from_the_checkpoint_matches_steiner_built() {
        use crate::parallel::common::{merge_steiner_payloads, steiner_snapshot};
        let c = small();
        for refine in [false, true] {
            let cfg = RouterConfig {
                steiner_refine: refine,
                ..RouterConfig::with_seed(4)
            };
            for size in 1..=3 {
                let built = steiner_per_rank(&c, &cfg, size);
                let payloads: Vec<Snapshot> = (built.iter())
                    .map(|st| steiner_snapshot(Phase::Coarse, &st.segments).unwrap())
                    .collect();
                let by_net = merge_steiner_payloads(&payloads, c.num_nets());
                for (rank, want) in built.iter().enumerate() {
                    let (ctx, mine) = dealt(&c, &cfg, (size, rank));
                    let mut st = RouteState::default();
                    st.steiner(&ctx, |i| mine[i], SegmentSource::Checkpoint(&by_net));
                    let at = format!("refine {refine}, P={size}, rank {rank}");
                    assert!(!st.segments.is_empty(), "{at}");
                    assert_eq!(st.works, want.works, "{at}");
                    assert_eq!(st.segments, want.segments, "{at}");
                    // Reserved exactly: refinement adds junctions to both.
                    for st in [&st, want].iter().filter(|_| !refine) {
                        assert!(st.works.is_exactly_sized(), "{at}");
                        assert_eq!(st.segments.capacity(), st.segments.len(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn steiner_snapshot_is_the_per_net_table_the_steiner_pass_kept() {
        use crate::parallel::common::steiner_snapshot;
        use crate::route::steiner::{build_segments_with, pin_nodes, SteinerScratch};
        let c = small();
        for refine in [false, true] {
            let cfg = RouterConfig {
                steiner_refine: refine,
                ..RouterConfig::with_seed(8)
            };
            for (rank, st) in steiner_per_rank(&c, &cfg, 2).iter().enumerate() {
                // The checkpoint table a parallel Steiner pass kept beside
                // its segments: every owned multi-pin net in id order with
                // a copy of the segments built for it.
                let (_, mine) = dealt(&c, &cfg, (2, rank));
                let mut comm = Comm::solo(MachineModel::ideal());
                let mut scratch = SteinerScratch::default();
                let mut table: SteinerRecords = Vec::new();
                for i in (0..c.num_nets()).filter(|&i| mine[i]) {
                    let net = NetId::from_index(i);
                    let nodes: Vec<Node> = pin_nodes(&c, net, &mut Vec::new()).collect();
                    if nodes.len() < 2 {
                        continue;
                    }
                    let mut segs = Vec::new();
                    build_segments_with(net, &nodes, refine, &mut comm, &mut scratch, &mut segs);
                    table.push((i as u32, segs));
                }
                assert!(table.len() > 1);
                let snapshot = steiner_snapshot(Phase::Coarse, &st.segments);
                let at = format!("refine {refine}, rank {rank}");
                assert_eq!(records(snapshot), Some(table), "{at}");
            }
        }
        let stateless = steiner_snapshot(Phase::Steiner, &[]).expect("portable");
        assert_eq!(stateless.get::<()>(), Some(&()), "nothing to restore");
        assert!(steiner_snapshot(Phase::Connect, &[]).is_none());
    }
}
