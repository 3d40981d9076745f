//! The hybrid pin partition algorithm (§6).
//!
//! Identical to the row-wise algorithm through coarse routing and
//! feedthrough assignment — rows, cells, and pins are partitioned
//! row-wise and fake pins keep sub-nets connected. The difference is the
//! final connection: "instead of letting each processor connect the pins
//! of a net in adjacent rows for the subnets, we let one processor do it
//! for each whole net." Sub-net fragments travel to the rank that
//! connects the net, which builds one MST over the union — eliminating
//! the redundant tracks independent fragment connection can create
//! (Figure 3). That rank comes from a net partition of its own, balanced
//! for Connect (`CONNECT_PIN_WEIGHT_BETA`); step 1 keeps the paper's map.
//! The resulting spans are dealt back to the ranks owning their channels
//! for switchable optimization, in the order step 1's map gives them.
//!
//! The paper's verdict, which the benchmarks reproduce: best quality
//! (≈2 % track degradation), at slightly lower speedups than row-wise
//! because of the extra fragment/span exchange.

use crate::config::CONNECT_PIN_WEIGHT_BETA;
use crate::engine::{Phase, Pipeline, RouteCtx};
use crate::metrics::{names, RoutingResult};
use crate::parallel::common::{buckets, merge_by, sync_boundaries};
use crate::parallel::partition::partition_nets;
use crate::parallel::rowwise::RowWisePipeline;
use crate::route::connect::connect_all;
use crate::route::state::{Span, WorkNets};
use crate::route::switchable::ChannelState;
use pgr_circuit::{NetId, RowId};
use pgr_mpi::{Comm, Snapshot};

/// Ship every net fragment of `works` to the rank `connects` names for
/// its net, one store per rank, and merge what each rank receives into
/// whole nets in the order [`merge_fragments`] gives them under step 1's
/// map `owners` (whatever order the fragments arrive in).
pub(crate) fn gather_at_owners(
    works: WorkNets,
    connects: &[u32],
    owners: &[u32],
    comm: &mut Comm,
) -> WorkNets {
    let to = |net: NetId| connects[net.index()] as usize;
    let mut sizes = vec![(0, 0); comm.size()];
    for (net, nodes) in works.iter() {
        let (nets, len) = sizes[to(net)];
        sizes[to(net)] = (nets + 1, len + nodes.len());
    }
    let mut work_out: Vec<_> = sizes
        .iter()
        .map(|&(n, len)| WorkNets::with_capacity(n, len))
        .collect();
    for (net, nodes) in works.iter() {
        work_out[to(net)].push(net, nodes.iter().copied());
    }
    drop(works);
    merge_fragments(&comm.alltoall(work_out), |net| owners[net.index()])
}

/// One store of the nets `fragments` hold, grouped by `group` of their
/// id (group 0 first) and in id order within a group, each the union of
/// its fragments' nodes made canonical. Every fragment slice is canonical
/// already, so a net one store holds is copied as it stands and only a
/// net several hold is sorted; a net without nodes gets no record.
pub(crate) fn merge_fragments(fragments: &[WorkNets], group: impl Fn(NetId) -> u32) -> WorkNets {
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
    let held = || {
        (0..at.len() - 1)
            .filter(|&i| at[i] < at[i + 1])
            .map(NetId::from_index)
    };
    let groups = held().map(|net| group(net) + 1).max().unwrap_or(0);
    let mut store = WorkNets::with_capacity(held().count(), pieces.iter().map(|p| p.len()).sum());
    for g in 0..groups {
        for net in held().filter(|&net| group(net) == g) {
            let (i, j) = (at[net.index()] as usize, at[net.index() + 1] as usize);
            let (first, rest) = pieces[i..j].split_first().expect("a held net");
            store.push(net, first.iter().copied());
            if !rest.is_empty() {
                store.extend_last(rest.iter().copied().flatten().copied());
            }
        }
    }
    store
}

/// `spans` dealt to the `size` ranks `dest` names, each rank's list in
/// the order given and sized exactly. Rank `keep`'s list is `spans`
/// itself, what the others get counted and copied out of it first: the
/// dealing never holds a second copy of what stays.
pub(crate) fn deal_spans(
    mut spans: Vec<Span>,
    size: usize,
    keep: usize,
    dest: impl Fn(&Span) -> usize,
) -> Vec<Vec<Span>> {
    let mut out = buckets(size, spans.iter().map(&dest).filter(|&d| d != keep));
    for s in &spans {
        let d = dest(s);
        if d != keep {
            out[d].push(*s);
        }
    }
    spans.retain(|s| dest(s) == keep);
    spans.shrink_to_fit();
    out[keep] = spans;
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
            // the rank that connects it, merge, and connect the whole net
            // there. Connect has a map of its own (`CONNECT_PIN_WEIGHT_BETA`):
            // step 1's map balances quadratic MST work, which leaves one
            // rank with most of Connect's nodes.
            Phase::Connect => {
                let timer = comm.start_timer();
                let beta = CONNECT_PIN_WEIGHT_BETA;
                let connects = partition_nets(ctx.circuit, ctx.kind, &ctx.rows, ctx.size, beta);
                let works = std::mem::take(&mut st.works);
                let merged = gather_at_owners(works, &connects, owners, comm);
                drop(connects);
                comm.stop_timer(names::HYBRID_GATHER, timer);
                let (all_spans, wirelength) = connect_all(&merged, true, comm);
                // Freed before the dealing.
                drop(merged);
                st.wirelength = wirelength;

                // Deal spans back to channel owners: switchable spans
                // follow their row (the owner covers both candidate
                // channels); fixed spans follow their channel (the top
                // channel belongs to the last rank).
                let timer = comm.start_timer();
                let span_out =
                    deal_spans(all_spans, ctx.size, ctx.rank, |s| match s.switch_row() {
                        Some(r) => ctx.rows.owner(RowId(r)),
                        None if s.channel() as usize == ctx.circuit.num_rows() => ctx.size - 1,
                        None => ctx.rows.owner(RowId(s.channel())),
                    });
                // Every arrival holds its nets grouped by step-1 owner, in
                // id order within a group (the merged store's order), so
                // merging them on (step-1 owner, net id) gives switchable
                // the order step 1's map alone would deliver: the senders
                // in rank order, each in net-id order — at P = 1 exactly
                // the serial span order.
                let arrivals = comm.alltoall(span_out);
                st.spans = merge_by(arrivals, |s| (owners[s.net.index()], s.net));
                comm.stop_timer(names::HYBRID_DEAL, timer);
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

    fn snapshot(&self, at: Phase) -> Option<Snapshot> {
        self.rowwise.snapshot(at)
    }

    fn restore(&mut self, at: Phase, payloads: &[Snapshot], ctx: &mut RouteCtx<'_>) {
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
                    listed(&merge_fragments(&stores, |_| 0)),
                    want,
                    "P={procs} seed {seed}"
                );
                // Grouped: the same nets, group by group, in id order
                // within one.
                let group = |net: NetId| net.0 % 3;
                let mut grouped = want.clone();
                grouped.sort_by_key(|w| (group(w.0), w.0));
                assert_eq!(listed(&merge_fragments(&stores, group)), grouped);
            }
        }
        assert!(merge_fragments(&[], |_| 0).is_empty());
        let empty = [WorkNets::default(), WorkNets::default()];
        assert!(merge_fragments(&empty, |_| 0).is_empty());
    }

    /// Switchable's input order, restored: `procs` seeded arrivals (some
    /// empty), each holding its nets' spans grouped by step-1 owner and in
    /// id order within a group, as the dealing sends them, merge into a
    /// stable sort of the arrivals end to end on (owner, net), in one
    /// exactly sized buffer.
    #[test]
    fn merged_arrivals_equal_a_stable_sort_of_their_concatenation() {
        let mut rng = pgr_geom::rng::rng_from_seed(0x0DE2);
        for procs in 1..=4 {
            for seed in 0..30 {
                let owners: Vec<u32> = (0..60).map(|_| rng.gen_range(0..procs as u32)).collect();
                let key = |s: &Span| (owners[s.net.index()], s.net);
                let arrivals: Vec<Vec<Span>> = (0..procs)
                    .map(|_| {
                        if rng.gen_bool(0.25) {
                            return Vec::new();
                        }
                        // Each net connected on one rank; here some nets
                        // on several, so equal keys meet across arrivals.
                        let mut spans: Vec<Span> = (0..rng.gen_range(0..40))
                            .map(|i| {
                                Span::new(NetId(rng.gen_range(0..60)), i, seed, seed + 1, None)
                            })
                            .collect();
                        spans.sort_by_key(key);
                        spans
                    })
                    .collect();
                let mut want = arrivals.concat();
                want.sort_by_key(key);
                let got = merge_by(arrivals, key);
                assert_eq!(got, want, "P={procs} seed {seed}");
                assert_eq!(got.capacity(), got.len());
            }
        }
        assert!(merge_by(Vec::<Vec<Span>>::new(), |s| s.net).is_empty());
        assert!(merge_by(vec![Vec::<Span>::new(); 3], |s| s.net).is_empty());
    }

    #[test]
    fn deal_spans_matches_the_push_loop_and_sizes_each_bucket_exactly() {
        let mut rng = pgr_geom::rng::rng_from_seed(0xDEA1);
        for size in 1..=4 {
            let spans: Vec<Span> = (0..200)
                .map(|i| {
                    let channel = rng.gen_range(1..9u32);
                    let (lo, hi) = (rng.gen_range(0..50i64), rng.gen_range(50..99i64));
                    let switch_row = rng.gen_bool(0.5).then(|| channel - rng.gen_range(0..2u32));
                    Span::new(NetId(i), channel, lo, hi, switch_row)
                })
                .collect();
            let dest = |s: &Span| (s.channel() + s.switch_row().unwrap_or(0)) as usize % size;
            let mut want: Vec<Vec<Span>> = vec![Vec::new(); size];
            for s in &spans {
                want[dest(s)].push(*s);
            }
            for keep in 0..size {
                let dealt = deal_spans(spans.clone(), size, keep, dest);
                assert_eq!(dealt, want, "size {size}, keeping {keep}");
                assert!(dealt.iter().all(|b| b.capacity() == b.len()));
            }
        }
        assert_eq!(
            deal_spans(Vec::new(), 3, 1, |_| 0),
            vec![Vec::<Span>::new(); 3]
        );
    }
}
