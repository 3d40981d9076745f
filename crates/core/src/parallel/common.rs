//! Plumbing shared by the three parallel algorithms.
//!
//! Circuit distribution, Steiner-segment splitting at partition
//! boundaries with fake-pin insertion (§4, Figure 2), sub-net assembly
//! from received fragments, the boundary-channel exchange, and the
//! portable phase-boundary checkpoint payloads all three pipelines
//! deposit for [`crate::engine::drive`]'s resume path.

use crate::cost;
use crate::engine::Phase;
use crate::route::state::{NetSlots, Node, Segment, WorkNets};
use crate::route::switchable::ChannelState;
use pgr_circuit::{Circuit, NetId, RowPartition};
use pgr_mpi::{Comm, Snapshot};

/// User-space message tags.
pub mod tag {
    /// Rank 0 → others: circuit distribution payload.
    pub const DISTRIBUTE: u32 = 1;
    /// Boundary-channel count exchange (row-wise/hybrid step-5 sync).
    pub const BOUNDARY: u32 = 2;
}

/// Model the serial front end plus circuit distribution.
///
/// Rank 0 plays the master that loaded the netlist: it charges the full
/// build cost and ships every other rank its share (a modeled transfer
/// — ranks read the actual circuit from shared memory, but the
/// simulated machine pays for the real volume an MPI implementation
/// would move). With `replicated`, every rank additionally
/// charges the full structure-build cost (the net-wise algorithm keeps
/// whole-circuit state everywhere).
pub fn distribute(circuit: &Circuit, replicated: bool, comm: &mut Comm) {
    let entities = (circuit.num_pins() + circuit.num_cells() + circuit.num_nets()) as u64;
    let bytes = circuit.estimated_routing_bytes();
    let size = comm.size();
    // What one rank holds — and so what rank 0 ships to each peer.
    let local_bytes = if replicated {
        bytes
    } else {
        bytes / size as u64
    };
    comm.trace_mark(if replicated {
        "distribute:replicated"
    } else {
        "distribute:partitioned"
    });
    if comm.rank() == 0 {
        comm.compute(cost::SETUP_ITEM * entities);
        for dst in 1..size {
            comm.send_modeled(dst, tag::DISTRIBUTE, local_bytes as usize);
        }
    } else {
        comm.recv_modeled(0, tag::DISTRIBUTE);
        let local_entities = if replicated {
            entities
        } else {
            entities / size as u64
        };
        comm.compute(cost::SETUP_ITEM * local_entities);
    }
    comm.charge_alloc(local_bytes);
}

/// Split one Steiner segment at row-partition boundaries, inserting fake
/// pins (§4): "if a segment crosses the boundary of a partition, then we
/// add a fake pin at the crossing point." The vertical course is assumed
/// at the lower endpoint's column (the position step 2's L shapes pivot
/// around), so both sides of every cut share one column and the cut
/// itself needs no horizontal wire.
///
/// Yields `(owner_part, piece)` pairs, bottom part first; each piece lies
/// entirely within one part's rows.
pub fn split_segment<'a>(
    seg: &Segment,
    rows: &'a RowPartition,
) -> impl Iterator<Item = (usize, Segment)> + 'a {
    let seg = *seg;
    let p_lo = rows.owner(pgr_circuit::RowId(seg.lower.row));
    let p_hi = rows.owner(pgr_circuit::RowId(seg.upper.row));
    // The bottom piece starts at the lower endpoint, the top one ends at
    // the upper; every cut is a pair of fake pins at the lower's column.
    let cut = move |row: usize| Node::fake(seg.lower.x(), row as u32);
    (p_lo..=p_hi).map(move |p| {
        let (first, last) = (rows.start(p), rows.end(p) - 1);
        let lower = if p > p_lo { cut(first) } else { seg.lower };
        let upper = if p < p_hi { cut(last) } else { seg.upper };
        (p, Segment::new(seg.net, lower, upper))
    })
}

/// One empty vector per rank, each sized exactly for the items `dests`
/// sends it: an exchange counts its items, then places them.
pub(crate) fn buckets<T>(size: usize, dests: impl Iterator<Item = usize>) -> Vec<Vec<T>> {
    let mut counts = vec![0; size];
    dests.for_each(|d| counts[d] += 1);
    counts.into_iter().map(Vec::with_capacity).collect()
}

/// `parts` end to end, in order, in the buffer of the longest part grown
/// once to the total: a `concat` holds every part and the whole at once,
/// this the whole and the other parts.
pub(crate) fn join<T: Copy>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    let Some(k) = (0..parts.len()).max_by_key(|&i| parts[i].len()) else {
        return Vec::new();
    };
    let mut out = std::mem::take(&mut parts[k]);
    let longest = out.len();
    out.reserve_exact(parts.iter().map(Vec::len).sum());
    for (i, part) in parts.iter().enumerate() {
        if i == k {
            // The parts before the longest went in behind it.
            let front = out.len() - longest;
            out.rotate_right(front);
        } else {
            out.extend_from_slice(part);
        }
    }
    out
}

/// `parts` merged by `key`, each part already in `key` order, in the
/// buffer of the longest part grown once to the total: what a stable
/// sort of `parts` end to end would give (equal keys keep part order),
/// without the sort's scratch. The longest part stays at the head and
/// the merge writes from the back, taking the greatest unread item each
/// time: the write index never falls below the longest part's unread
/// ones, and the other parts are read by `pop`, so nothing else is
/// allocated.
pub fn merge_by<T: Copy, K: Ord>(mut parts: Vec<Vec<T>>, key: impl Fn(&T) -> K) -> Vec<T> {
    let Some(k) = (0..parts.len()).max_by_key(|&i| parts[i].len()) else {
        return Vec::new();
    };
    let mut out = std::mem::take(&mut parts[k]);
    let Some(&fill) = out.first() else {
        return out; // every part is empty
    };
    let (mut head, rest) = (out.len(), parts.iter().map(Vec::len).sum::<usize>());
    out.reserve_exact(rest);
    out.resize(head + rest, fill);
    for w in (0..out.len()).rev() {
        // The part whose last unread item has the greatest (key, part).
        let mut from = (head > 0).then(|| (key(&out[head - 1]), k));
        for (i, part) in parts.iter().enumerate() {
            if let Some(last) = part.last() {
                let theirs = (key(last), i);
                if from.as_ref().is_none_or(|best| theirs > *best) {
                    from = Some(theirs);
                }
            }
        }
        out[w] = match from.expect("an item is left for every slot") {
            (_, i) if i == k => {
                head -= 1;
                out[head]
            }
            (_, i) => parts[i].pop().expect("its last item"),
        };
    }
    out
}

/// Group the `(net, node)` pairs `pairs` yields (on each of three
/// walks) into one store, every net's nodes sorted and deduplicated,
/// nets in order of first appearance.
pub(crate) fn group_nodes<I>(pairs: impl Fn() -> I) -> WorkNets
where
    I: Iterator<Item = (NetId, Node)>,
{
    let (mut seen, mut nets) = (NetSlots::default(), Vec::new());
    for (net, _) in pairs() {
        if seen.of(net).replace(0).is_none() {
            nets.push(net);
        }
    }
    WorkNets::group(nets, pairs)
}

/// Group a rank's received segments into per-net work records (net-id
/// order when the sender iterated nets in order).
pub fn assemble_works(segments: &[Segment]) -> WorkNets {
    let ends = || {
        segments
            .iter()
            .flat_map(|s| [(s.net, s.lower), (s.net, s.upper)])
    };
    group_nodes(ends)
}

/// The last phase boundary whose pipeline state is *portable* — restorable
/// on a world of any size. Entering [`Phase::Coarse`], the live state is
/// the per-net unsplit Steiner segments, pure functions of the circuit
/// and config alone; every later boundary's state (coarse grids, channel
/// occupancy, RNG cursors) is keyed to the dead world's partition and
/// rank-derived random streams, so it cannot seed a shrunken world.
pub const PORTABLE_HORIZON: usize = Phase::Coarse.index();

/// What a rank checkpoints entering [`Phase::Coarse`]: its owned nets'
/// unsplit Steiner segments, one `(net, segments)` record per net.
pub type SteinerRecords = Vec<(u32, Vec<Segment>)>;

/// A pipeline's portable checkpoint for the boundary entering `at`, or
/// `None` when the boundary is past the portable horizon (the engine
/// then records a metadata-only, non-restorable commit). `segments` are
/// the rank's owned multi-pin nets' *unsplit* Steiner segments in
/// ascending net-id order, as
/// [`RouteState::steiner`](crate::route::serial::RouteState) builds them;
/// the snapshot is them grouped per net, [`SteinerRecords`]. The
/// boundary entering [`Phase::Steiner`] itself is portable but stateless
/// (setup re-runs from the shared circuit), so its snapshot is `()`.
pub fn steiner_snapshot(at: Phase, segments: &[Segment]) -> Option<Snapshot> {
    match at.index() {
        i if i == Phase::Steiner.index() => Some(Snapshot::new(())),
        i if i == PORTABLE_HORIZON => {
            let by_net = segments.chunk_by(|a, b| a.net == b.net);
            let records: SteinerRecords = by_net.map(|run| (run[0].net.0, run.to_vec())).collect();
            Some(Snapshot::new(records))
        }
        _ => None,
    }
}

/// Merge every surviving rank's fetched checkpoint, each the
/// [`SteinerRecords`] its rank deposited entering [`Phase::Coarse`],
/// into one net-indexed table of unsplit Steiner segments. Each
/// multi-pin net was deposited by exactly one dead-world owner, so the
/// union covers every net once; nets absent everywhere (fewer than two
/// pins) stay `None`.
pub fn merge_steiner_payloads(payloads: &[Snapshot], num_nets: usize) -> Vec<Option<Vec<Segment>>> {
    let mut by_net: Vec<Option<Vec<Segment>>> = vec![None; num_nets];
    for payload in payloads {
        let records = payload.get::<SteinerRecords>();
        for (id, segs) in records.expect("a checkpoint entering coarse holds Steiner records") {
            by_net[*id as usize] = Some(segs.clone());
        }
    }
    by_net
}

/// Replay the Steiner-phase all-to-all *arrival order* of a fault-free
/// run on the current world, from checkpointed unsplit segments: pieces
/// arrive grouped by sending rank (ascending), each sender walks its
/// owned nets in ascending net-id order, and every segment splits at the
/// current row partition. This rebuilds `self.segments` bit-identically
/// to what the skipped Steiner pass would have produced — without
/// touching the network or the virtual clock.
pub fn replay_split_arrival(
    by_net: &[Option<Vec<Segment>>],
    owners: &[u32],
    rows: &RowPartition,
    size: usize,
    rank: usize,
) -> Vec<Segment> {
    let mut segments = Vec::new();
    for sender in 0..size {
        for (i, &owner) in owners.iter().enumerate() {
            if owner as usize != sender {
                continue;
            }
            let Some(segs) = &by_net[i] else { continue };
            for seg in segs {
                for (part, piece) in split_segment(seg, rows) {
                    if part == rank {
                        segments.push(piece);
                    }
                }
            }
        }
    }
    segments
}

/// Exchange boundary-channel counts with row-partition neighbors and
/// merge them as background (§4: "the track information in the shared
/// channel is synchronized between two adjacent processors").
///
/// `chans` must cover channels `rows.start(rank) ..= rows.end(rank)`.
pub fn sync_boundaries(chans: &mut ChannelState, rows: &RowPartition, comm: &mut Comm) {
    let rank = comm.rank();
    let lower_shared = rows.start(rank) as u32; // shared with rank - 1
    let upper_shared = rows.end(rank) as u32; // shared with rank + 1
    comm.trace_mark("sync_boundaries");
    // Eager sends first (never block), then receive.
    if rank > 0 {
        let counts = chans.counts(lower_shared);
        comm.send(rank - 1, tag::BOUNDARY, &counts);
    }
    if rank + 1 < comm.size() {
        let counts = chans.counts(upper_shared);
        comm.send(rank + 1, tag::BOUNDARY, &counts);
    }
    if rank > 0 {
        let theirs: Vec<i64> = comm.recv(rank - 1, tag::BOUNDARY);
        chans.merge_background(lower_shared, &theirs, comm);
    }
    if rank + 1 < comm.size() {
        let theirs: Vec<i64> = comm.recv(rank + 1, tag::BOUNDARY);
        chans.merge_background(upper_shared, &theirs, comm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::hybrid::merge_fragments;
    use crate::route::state::NodeKind;
    use pgr_circuit::NetId;

    fn fake(x: i64, row: u32) -> Node {
        Node::fake(x, row)
    }

    #[test]
    fn join_is_concat_in_the_longest_parts_buffer() {
        let cases: [&[&[u32]]; 5] = [
            &[],
            &[&[]],
            &[&[1], &[2, 3, 4], &[5, 6]],
            &[&[1, 2, 3], &[], &[4]],
            &[&[], &[1], &[2, 3], &[4, 5]],
        ];
        for parts in cases {
            let parts: Vec<Vec<u32>> = parts.iter().map(|p| p.to_vec()).collect();
            let joined = join(parts.clone());
            assert_eq!(joined, parts.concat(), "{parts:?}");
            assert_eq!(joined.capacity(), joined.len(), "grown once, exactly");
        }
    }

    #[test]
    fn split_within_one_part_is_identity() {
        let rows = RowPartition::uniform(8, 2); // 0..4, 4..8
        let seg = Segment::new(NetId(0), fake(3, 0), fake(9, 3));
        let pieces: Vec<_> = split_segment(&seg, &rows).collect();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0, 0);
        assert_eq!(pieces[0].1, seg);
    }

    #[test]
    fn split_across_one_boundary() {
        let rows = RowPartition::uniform(8, 2);
        let seg = Segment::new(NetId(0), fake(3, 1), fake(9, 6));
        let pieces: Vec<_> = split_segment(&seg, &rows).collect();
        assert_eq!(pieces.len(), 2);
        let (p0, s0) = &pieces[0];
        let (p1, s1) = &pieces[1];
        assert_eq!((*p0, *p1), (0, 1));
        // Bottom piece: (3,1) → fake(3,3). Top: fake(3,4) → (9,6).
        assert_eq!(s0.upper.row, 3);
        assert_eq!(s0.upper.x(), 3, "fake pin at the lower endpoint's column");
        assert!(matches!(s0.upper.kind(), NodeKind::Fake));
        assert_eq!(s1.lower.row, 4);
        assert_eq!(s1.lower.x(), 3);
        assert_eq!(s1.upper, seg.upper);
    }

    #[test]
    fn split_across_many_parts_produces_middle_pieces() {
        let rows = RowPartition::uniform(9, 3); // 0..3, 3..6, 6..9
        let seg = Segment::new(NetId(2), fake(5, 0), fake(20, 8));
        let pieces: Vec<_> = split_segment(&seg, &rows).collect();
        assert_eq!(pieces.len(), 3);
        let (p, mid) = &pieces[1];
        assert_eq!(*p, 1);
        assert_eq!((mid.lower.row, mid.upper.row), (3, 5));
        assert_eq!(mid.lower.x(), 5);
        assert_eq!(
            mid.upper.x(),
            5,
            "middle piece is a pure vertical at the cut column"
        );
        // Every piece stays within its part.
        for (p, s) in &pieces {
            assert_eq!(rows.owner(pgr_circuit::RowId(s.lower.row)), *p);
            assert_eq!(rows.owner(pgr_circuit::RowId(s.upper.row)), *p);
        }
    }

    #[test]
    fn split_endpoint_on_boundary_row() {
        let rows = RowPartition::uniform(8, 2);
        // Lower endpoint sits on part 0's top row.
        let seg = Segment::new(NetId(1), fake(2, 3), fake(7, 5));
        let pieces: Vec<_> = split_segment(&seg, &rows).collect();
        assert_eq!(pieces.len(), 2);
        // Bottom piece degenerates to a same-row stub carrying the pin.
        assert_eq!(pieces[0].1.lower.row, 3);
        assert_eq!(pieces[0].1.upper.row, 3);
    }

    #[test]
    fn assemble_groups_and_dedups() {
        let a = fake(1, 0);
        let b = fake(5, 1);
        let c = fake(9, 1);
        let segs = vec![
            Segment::new(NetId(3), a, b),
            Segment::new(NetId(3), b, c),
            Segment::new(NetId(7), a, c),
        ];
        let works: Vec<_> = assemble_works(&segs)
            .iter()
            .map(|(n, s)| (n, s.len()))
            .collect();
        assert_eq!(works, [(NetId(3), 3), (NetId(7), 2)], "b deduplicated");
    }

    #[test]
    fn assemble_empty() {
        assert!(assemble_works(&[]).is_empty());
    }

    #[test]
    fn group_nodes_matches_the_hash_map_reference() {
        use std::collections::HashMap;
        // The hashed grouping the slot table replaced, per-net vectors
        // pushed, then sorted and deduplicated.
        fn reference(parts: Vec<(NetId, Vec<Node>)>) -> Vec<(NetId, Vec<Node>)> {
            let mut works: Vec<(NetId, Vec<Node>)> = Vec::new();
            let mut index = HashMap::new();
            for (net, nodes) in parts {
                let &mut i = index.entry(net).or_insert_with(|| {
                    works.push((net, Vec::new()));
                    works.len() - 1
                });
                works[i].1.extend(nodes);
            }
            for (_, nodes) in &mut works {
                nodes.sort_unstable_by_key(|n| n.sort_key());
                nodes.dedup();
            }
            works
        }
        let listed = |works: WorkNets| -> Vec<(NetId, Vec<Node>)> {
            works.iter().map(|(n, s)| (n, s.to_vec())).collect()
        };
        // Non-contiguous, unsorted net ids, contributions interleaved and
        // overlapping (duplicates must collapse), some empty.
        let nets = [907u32, 3, 41, 40, 100_000, 0];
        let mut rng = pgr_geom::rng::rng_from_seed(0x6E0D);
        let parts: Vec<(NetId, Vec<Node>)> = (0..80)
            .map(|_| {
                let net = nets[rng.gen_range(0..nets.len())];
                let n = rng.gen_range(0..4usize);
                let nodes = (0..n)
                    .map(|_| fake(rng.gen_range(0..6i64), rng.gen_range(0..3u32)))
                    .collect();
                (NetId(net), nodes)
            })
            .collect();
        let each =
            || (parts.iter()).flat_map(|(net, nodes)| nodes.iter().map(move |&nd| (*net, nd)));
        let works = listed(group_nodes(each));
        // A net that contributes no node gets no record.
        let mut want = reference(parts.clone());
        want.retain(|w| !w.1.is_empty());
        assert_eq!(works, want);
        // Order is first appearance, not id order...
        let mut first_seen: Vec<NetId> = Vec::new();
        for (net, nodes) in &parts {
            if !nodes.is_empty() && !first_seen.contains(net) {
                first_seen.push(*net);
            }
        }
        assert_eq!(works.iter().map(|w| w.0).collect::<Vec<_>>(), first_seen);
        // The hybrid's owners merge such stores into id order: deal the
        // parts to three senders, each grouping its own (first
        // appearance, so not id order; nets split, nodes shared).
        let stores: Vec<WorkNets> = (0..3)
            .map(|sender| group_nodes(|| each().skip(sender).step_by(3)))
            .collect();
        want.sort_unstable_by_key(|w| w.0);
        assert_eq!(listed(merge_fragments(&stores, |_| 0)), want);
    }
}
