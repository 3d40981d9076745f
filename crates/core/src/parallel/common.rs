//! Plumbing shared by the three parallel algorithms.
//!
//! Circuit distribution, Steiner-segment splitting at partition
//! boundaries with fake-pin insertion (§4, Figure 2), sub-net assembly
//! from received fragments, the boundary-channel exchange, and the
//! portable phase-boundary checkpoint payloads all three pipelines
//! deposit for [`crate::engine::drive`]'s resume path.

use crate::cost;
use crate::engine::Phase;
use crate::route::state::{NetSlots, Node, Segment, WorkNet};
use crate::route::switchable::ChannelState;
use pgr_circuit::{Circuit, NetId, RowPartition};
use pgr_mpi::{Comm, Reader, Wire};

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
/// Returns `(owner_part, piece)` pairs; each piece lies entirely within
/// one part's rows.
pub fn split_segment(seg: &Segment, rows: &RowPartition) -> Vec<(usize, Segment)> {
    let p_lo = rows.owner(pgr_circuit::RowId(seg.lower.row));
    let p_hi = rows.owner(pgr_circuit::RowId(seg.upper.row));
    if p_lo == p_hi {
        return vec![(p_lo, *seg)];
    }
    let xcut = seg.lower.x;
    let mut out = Vec::with_capacity(p_hi - p_lo + 1);
    // Bottom piece: lower endpoint up to the top row of its part.
    out.push((
        p_lo,
        Segment::new(
            seg.net,
            seg.lower,
            Node::fake(xcut, rows.end(p_lo) as u32 - 1),
        ),
    ));
    // Middle pieces: fake pin to fake pin across whole parts.
    for p in p_lo + 1..p_hi {
        out.push((
            p,
            Segment::new(
                seg.net,
                Node::fake(xcut, rows.start(p) as u32),
                Node::fake(xcut, rows.end(p) as u32 - 1),
            ),
        ));
    }
    // Top piece: first row of the top part up to the upper endpoint.
    out.push((
        p_hi,
        Segment::new(
            seg.net,
            Node::fake(xcut, rows.start(p_hi) as u32),
            seg.upper,
        ),
    ));
    out
}

/// Group `(net, nodes)` contributions into one work record per net.
/// Nodes are sorted and deduplicated; the net order follows first
/// appearance.
pub(crate) fn group_nodes<N: IntoIterator<Item = Node>>(
    parts: impl IntoIterator<Item = (NetId, N)>,
) -> Vec<WorkNet> {
    let mut works: Vec<WorkNet> = Vec::new();
    let mut slots = NetSlots::default();
    for (net, nodes) in parts {
        let i = *slots.of(net).get_or_insert_with(|| {
            works.push(WorkNet {
                net,
                nodes: Vec::new(),
            });
            works.len() as u32 - 1
        });
        works[i as usize].nodes.extend(nodes);
    }
    for w in &mut works {
        w.nodes.sort_unstable_by_key(|n| n.sort_key());
        w.nodes.dedup();
    }
    works
}

/// Group a rank's received segments into per-net work records (net-id
/// order when the sender iterated nets in order).
pub fn assemble_works(segments: &[Segment]) -> Vec<WorkNet> {
    group_nodes(segments.iter().map(|s| (s.net, [s.lower, s.upper])))
}

/// The last phase boundary whose pipeline state is *portable* — restorable
/// on a world of any size. Entering [`Phase::Coarse`], the live state is
/// the per-net unsplit Steiner segments, pure functions of the circuit
/// and config alone; every later boundary's state (coarse grids, channel
/// occupancy, RNG cursors) is keyed to the dead world's partition and
/// rank-derived random streams, so it cannot seed a shrunken world.
pub const PORTABLE_HORIZON: usize = Phase::Coarse.index();

/// Encode a pipeline's portable checkpoint payload for the boundary
/// entering `at`, or `None` when the boundary is past the portable
/// horizon (the engine then records a metadata-only, non-restorable
/// commit). `ckpt` holds the rank's owned multi-pin nets in ascending
/// net-id order with their *unsplit* Steiner segments, retained by the
/// Steiner pass; the boundary entering [`Phase::Steiner`] itself is
/// portable but stateless (setup re-runs from the shared circuit), so
/// its payload is empty.
pub fn steiner_snapshot(at: Phase, ckpt: &Vec<(u32, Vec<Segment>)>) -> Option<Vec<u8>> {
    match at.index() {
        i if i == Phase::Steiner.index() => Some(Vec::new()),
        i if i == PORTABLE_HORIZON => Some(ckpt.to_bytes()),
        _ => None,
    }
}

/// Decode every surviving rank's fetched checkpoint payload into one
/// net-indexed table of unsplit Steiner segments. Each multi-pin net was
/// deposited by exactly one dead-world owner, so the union covers every
/// net once; nets absent everywhere (fewer than two pins) stay `None`.
/// Payloads already passed the store's CRC re-verification — a decode
/// failure here would be an encoding bug, not data corruption.
pub fn merge_steiner_payloads(payloads: &[Vec<u8>], num_nets: usize) -> Vec<Option<Vec<Segment>>> {
    let mut by_net: Vec<Option<Vec<Segment>>> = vec![None; num_nets];
    for payload in payloads {
        let decoded = Vec::<(u32, Vec<Segment>)>::decode(&mut Reader::new(payload))
            .expect("checkpoint payload passed its CRC stamp but failed to decode");
        for (id, segs) in decoded {
            by_net[id as usize] = Some(segs);
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
    use crate::route::state::NodeKind;
    use pgr_circuit::NetId;

    fn fake(x: i64, row: u32) -> Node {
        Node::fake(x, row)
    }

    #[test]
    fn split_within_one_part_is_identity() {
        let rows = RowPartition::uniform(8, 2); // 0..4, 4..8
        let seg = Segment::new(NetId(0), fake(3, 0), fake(9, 3));
        let pieces = split_segment(&seg, &rows);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0, 0);
        assert_eq!(pieces[0].1, seg);
    }

    #[test]
    fn split_across_one_boundary() {
        let rows = RowPartition::uniform(8, 2);
        let seg = Segment::new(NetId(0), fake(3, 1), fake(9, 6));
        let pieces = split_segment(&seg, &rows);
        assert_eq!(pieces.len(), 2);
        let (p0, s0) = &pieces[0];
        let (p1, s1) = &pieces[1];
        assert_eq!((*p0, *p1), (0, 1));
        // Bottom piece: (3,1) → fake(3,3). Top: fake(3,4) → (9,6).
        assert_eq!(s0.upper.row, 3);
        assert_eq!(s0.upper.x, 3, "fake pin at the lower endpoint's column");
        assert!(matches!(s0.upper.kind, NodeKind::Fake));
        assert_eq!(s1.lower.row, 4);
        assert_eq!(s1.lower.x, 3);
        assert_eq!(s1.upper, seg.upper);
    }

    #[test]
    fn split_across_many_parts_produces_middle_pieces() {
        let rows = RowPartition::uniform(9, 3); // 0..3, 3..6, 6..9
        let seg = Segment::new(NetId(2), fake(5, 0), fake(20, 8));
        let pieces = split_segment(&seg, &rows);
        assert_eq!(pieces.len(), 3);
        let (p, mid) = &pieces[1];
        assert_eq!(*p, 1);
        assert_eq!((mid.lower.row, mid.upper.row), (3, 5));
        assert_eq!(mid.lower.x, 5);
        assert_eq!(
            mid.upper.x, 5,
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
        let pieces = split_segment(&seg, &rows);
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
        let works = assemble_works(&segs);
        assert_eq!(works.len(), 2);
        assert_eq!(works[0].net, NetId(3));
        assert_eq!(works[0].nodes.len(), 3, "b deduplicated");
        assert_eq!(works[1].net, NetId(7));
        assert_eq!(works[1].nodes.len(), 2);
    }

    #[test]
    fn assemble_empty() {
        assert!(assemble_works(&[]).is_empty());
    }

    #[test]
    fn group_nodes_matches_the_hash_map_reference() {
        use std::collections::HashMap;
        // The hashed grouping the slot table replaced.
        fn reference(parts: Vec<(NetId, Vec<Node>)>) -> Vec<WorkNet> {
            let mut works: Vec<WorkNet> = Vec::new();
            let mut index = HashMap::new();
            for (net, nodes) in parts {
                let &mut i = index.entry(net).or_insert_with(|| {
                    works.push(WorkNet {
                        net,
                        nodes: Vec::new(),
                    });
                    works.len() - 1
                });
                works[i].nodes.extend(nodes);
            }
            for w in &mut works {
                w.nodes.sort_unstable_by_key(|n| n.sort_key());
                w.nodes.dedup();
            }
            works
        }
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
        let works = group_nodes(parts.clone());
        assert_eq!(works, reference(parts.clone()));
        // Order is first appearance, not id order.
        let mut first_seen: Vec<NetId> = Vec::new();
        for (net, _) in &parts {
            if !first_seen.contains(net) {
                first_seen.push(*net);
            }
        }
        assert_eq!(works.iter().map(|w| w.net).collect::<Vec<_>>(), first_seen);
    }
}
