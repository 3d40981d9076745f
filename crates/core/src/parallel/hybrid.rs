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
use crate::parallel::common::{buckets, sync_boundaries};
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
    merge_fragments(&comm.alltoall(work_out))
}

/// One store of the nets `fragments` hold, in id order, each the union of
/// its fragments' nodes made canonical. Every fragment slice is canonical
/// already, so a net one store holds is copied as it stands and only a
/// net several hold is sorted; a net without nodes gets no record.
pub(crate) fn merge_fragments(fragments: &[WorkNets]) -> WorkNets {
    // A counting sort of the non-empty slices by net id: net `i`'s are
    // `pieces[at[i]..at[i + 1]]`, in store order.
    let all = || (fragments.iter().flat_map(WorkNets::iter)).filter(|(_, s)| !s.is_empty());
    let mut at = vec![0u32; all().map(|(net, _)| net.index() + 2).max().unwrap_or(1)];
    all().for_each(|(net, _)| at[net.index() + 1] += 1);
    for i in 1..at.len() {
        at[i] += at[i - 1];
    }
    let (mut next, mut pieces) = (at.clone(), vec![&[][..]; all().count()]);
    for (net, nodes) in all() {
        pieces[next[net.index()] as usize] = nodes;
        next[net.index()] += 1;
    }
    let nets = at.windows(2).filter(|w| w[0] < w[1]).count();
    let mut store = WorkNets::with_capacity(nets, pieces.iter().map(|p| p.len()).sum());
    for (i, w) in at.windows(2).enumerate() {
        if let Some((first, rest)) = pieces[w[0] as usize..w[1] as usize].split_first() {
            store.push(NetId(i as u32), first.iter().copied());
            if !rest.is_empty() {
                store.extend_last(rest.iter().copied().flatten().copied());
            }
        }
    }
    store
}

/// `spans` dealt to the `size` ranks `dest` names, each rank's list in
/// the order given and sized exactly: a count, then the copy.
pub(crate) fn deal_spans(
    spans: &[Span],
    size: usize,
    dest: impl Fn(&Span) -> usize,
) -> Vec<Vec<Span>> {
    let mut out = buckets(size, spans.iter().map(&dest));
    spans.iter().for_each(|s| out[dest(s)].push(*s));
    out
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
                // Freed before the dealing, where the heap peaks.
                drop(merged);
                st.wirelength = wirelength;

                // Deal spans back to channel owners: switchable spans
                // follow their row (the owner covers both candidate
                // channels); fixed spans follow their channel (the top
                // channel belongs to the last rank).
                let span_out = deal_spans(&all_spans, ctx.size, |s| match s.switch_row {
                    Some(r) => ctx.rows.owner(RowId(r)),
                    None if s.channel as usize == ctx.circuit.num_rows() => ctx.size - 1,
                    None => ctx.rows.owner(RowId(s.channel)),
                });
                drop(all_spans);
                // Arrival order is deterministic (alltoall delivers in
                // sender-rank order, each sender's list is
                // deterministic), and at P = 1 it is exactly the serial
                // span order.
                st.spans = comm.alltoall(span_out).concat();
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
    use crate::route::state::Node;
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

    fn listed(works: &WorkNets) -> Vec<(NetId, Vec<Node>)> {
        works.iter().map(|(n, s)| (n, s.to_vec())).collect()
    }

    /// `procs` random fragment stores as the owners receive them: each
    /// store's nets in shuffled (not id) order, every slice canonical,
    /// nets split across stores with shared nodes, empty slices, and
    /// some stores empty.
    fn fragment_stores(procs: usize, seed: u64) -> Vec<WorkNets> {
        let mut rng = pgr_geom::rng::rng_from_seed(seed);
        let nets = [907u32, 3, 41, 40, 100_000, 0, 12];
        (0..procs)
            .map(|_| {
                let mut store = WorkNets::default();
                if rng.gen_bool(0.2) {
                    return store;
                }
                let mut order = nets;
                order.sort_by_cached_key(|_| rng.next_u64());
                for net in order {
                    if rng.gen_bool(0.4) {
                        continue;
                    }
                    let n = rng.gen_range(0..5usize);
                    let mut nodes: Vec<Node> = (0..n)
                        .map(|_| Node::fake(rng.gen_range(0..4i64), rng.gen_range(0..3u32)))
                        .collect();
                    nodes.sort_unstable_by_key(Node::sort_key);
                    nodes.dedup();
                    store.push(NetId(net), nodes);
                }
                store
            })
            .collect()
    }

    #[test]
    fn merge_fragments_matches_concatenate_sort_dedup() {
        for procs in 1..=4 {
            for seed in 0..40 {
                let stores = fragment_stores(procs, seed);
                // The reference: every net's slices concatenated in store
                // order, then sorted and deduplicated; nets in id order,
                // a net without nodes dropped.
                let mut ids: Vec<NetId> =
                    stores.iter().flat_map(|s| s.iter().map(|w| w.0)).collect();
                ids.sort_unstable();
                ids.dedup();
                let want: Vec<(NetId, Vec<Node>)> = ids
                    .into_iter()
                    .map(|net| {
                        let all = stores.iter().flat_map(WorkNets::iter);
                        let mut nodes: Vec<Node> = all
                            .filter(|w| w.0 == net)
                            .flat_map(|w| w.1.iter().copied())
                            .collect();
                        nodes.sort_unstable_by_key(Node::sort_key);
                        nodes.dedup();
                        (net, nodes)
                    })
                    .filter(|w| !w.1.is_empty())
                    .collect();
                assert_eq!(
                    listed(&merge_fragments(&stores)),
                    want,
                    "P={procs} seed {seed}"
                );
            }
        }
        assert!(merge_fragments(&[]).is_empty());
        assert!(merge_fragments(&[WorkNets::default(), WorkNets::default()]).is_empty());
    }

    #[test]
    fn deal_spans_matches_the_push_loop_and_sizes_each_bucket_exactly() {
        let mut rng = pgr_geom::rng::rng_from_seed(0xDEA1);
        for size in 1..=4 {
            let spans: Vec<Span> = (0..200)
                .map(|i| Span {
                    net: NetId(i),
                    channel: rng.gen_range(0..9u32),
                    lo: rng.gen_range(0..50i64),
                    hi: rng.gen_range(50..99i64),
                    switch_row: rng.gen_bool(0.5).then(|| rng.gen_range(0..8u32)),
                })
                .collect();
            let dest = |s: &Span| (s.channel + s.switch_row.unwrap_or(0)) as usize % size;
            let mut want: Vec<Vec<Span>> = vec![Vec::new(); size];
            for s in &spans {
                want[dest(s)].push(*s);
            }
            let dealt = deal_spans(&spans, size, dest);
            assert_eq!(dealt, want, "size {size}");
            assert!(dealt.iter().all(|b| b.capacity() == b.len()));
        }
        assert_eq!(deal_spans(&[], 3, |_| 0), vec![Vec::<Span>::new(); 3]);
    }
}
