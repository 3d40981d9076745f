//! Step 4: final net connection.
//!
//! "The fourth step connects the feedthroughs of each net with regular
//! pins of that net by building a minimum spanning tree from a complete
//! graph of the pins and feedthroughs in the adjacent rows." (§2)
//!
//! Each work net's nodes (pins at their post-insertion positions, any
//! partition-boundary fake pins, and the feedthroughs assigned in step 3)
//! are joined by an MST restricted to same-row and adjacent-row edges —
//! a wire can only live in the channel between the rows it connects.
//! Every MST edge materializes as at most one horizontal [`Span`]; the
//! vertical parts ride the feedthroughs and only contribute wirelength.

use crate::cost;
use crate::metrics::ROW_HEIGHT;
use crate::route::state::{ChannelPref, Node, Span, WorkNet};
use pgr_geom::{LimitedMstScratch, Point};
use pgr_mpi::Comm;

/// Reusable per-net scratch for [`connect_net_with`]: the sorted node
/// copy, the point/row views handed to the MST and the MST's own
/// buffers. One arena serves every net a rank connects — everything
/// grows to the largest net seen and stays allocated, so a net costs no
/// allocation once the arena is warm.
#[derive(Debug, Default)]
pub struct ConnectArena {
    nodes: Vec<Node>,
    points: Vec<Point>,
    rows: Vec<i64>,
    mst: LimitedMstScratch,
}

/// The Connect-phase loop every driver runs: connect each of `works` in
/// order through one shared [`ConnectArena`], returning all spans and the
/// summed wirelength. This is mandatory work, so a latched budget breach
/// stops it early (the engine aborts at the next phase boundary; any
/// collective the caller still owes its peers must run regardless).
/// `whole_nets` asserts that every net spans — true wherever a rank
/// connects complete nets rather than row-band fragments.
pub(crate) fn connect_all(
    works: &[WorkNet],
    whole_nets: bool,
    comm: &mut Comm,
) -> (Vec<Span>, u64) {
    let mut arena = ConnectArena::default();
    // A tree of n nodes has at most n - 1 edges and an edge at most one
    // span: sized once, the vector never moves, and it ends within a few
    // per cent of full (only zero-extent edges leave no span).
    let edges = works.iter().map(|w| w.nodes.len().saturating_sub(1)).sum();
    let (mut spans, mut wirelength) = (Vec::with_capacity(edges), 0);
    for w in works {
        if comm.budget_poll_abort() {
            break;
        }
        let (length, spanning) = connect_net_with(w, comm, &mut arena, &mut spans);
        debug_assert!(
            spanning || !whole_nets,
            "whole net {} must span after feedthrough assignment",
            w.net
        );
        wirelength += length;
    }
    (spans, wirelength)
}

/// Connect one work net: append its spans to `spans` and return its
/// wirelength and whether the restricted MST spanned all nodes. Whole
/// nets must span; a sub-net fragment may legitimately be a forest (its
/// components meet through fake pins on other ranks). Nodes must already
/// be at their post-insertion positions and include the net's assigned
/// feedthroughs. The scratch is caller-owned — the Connect-phase loops
/// pass one [`ConnectArena`] across all of their nets.
pub fn connect_net_with(
    work: &WorkNet,
    comm: &mut Comm,
    arena: &mut ConnectArena,
    spans: &mut Vec<Span>,
) -> (u64, bool) {
    let n = work.nodes.len();
    if n < 2 {
        return (0, true);
    }
    // Canonical node order: the result must not depend on which rank
    // assembled the node list or in what order fragments arrived.
    arena.nodes.clear();
    arena.nodes.extend_from_slice(&work.nodes);
    arena.nodes.sort_unstable_by_key(|nd| nd.sort_key());
    let nodes = &arena.nodes;

    // Charge the candidate-edge work of the 1997 scan the clock models:
    // every same-row pair plus every adjacent-row pair. The host looks at
    // fewer than 3n of them (`LimitedMstScratch::build`); the two are
    // allowed to differ. Nodes are sorted by row, so one run-length scan
    // yields the per-row counts.
    let mut cand: u64 = 0;
    let mut prev: Option<(u32, u64)> = None;
    let mut i = 0;
    while i < n {
        let row = nodes[i].row;
        let mut j = i + 1;
        while j < n && nodes[j].row == row {
            j += 1;
        }
        let cnt = (j - i) as u64;
        cand += cnt * cnt.saturating_sub(1) / 2;
        if let Some((prow, pcnt)) = prev {
            if prow + 1 == row {
                cand += pcnt * cnt;
            }
        }
        prev = Some((row, cnt));
        i = j;
    }
    comm.compute(cost::CONNECT_PAIR * cand + cost::MST_NODE * n as u64);

    arena.points.clear();
    arena
        .points
        .extend(nodes.iter().map(|nd| Point::new(nd.x, nd.row as i64)));
    arena.rows.clear();
    arena.rows.extend(nodes.iter().map(|nd| nd.row as i64));
    let (edges, spanning) = arena.mst.build(&arena.points, &arena.rows);

    let mut wirelength = 0u64;
    for e in edges {
        let a = &nodes[e.a as usize];
        let b = &nodes[e.b as usize];
        let (lo, hi) = (a.x.min(b.x), a.x.max(b.x));
        let drow = a.row.abs_diff(b.row);
        debug_assert!(drow <= 1, "adjacency-limited MST edge");
        wirelength += (hi - lo) as u64 + drow as u64 * ROW_HEIGHT as u64;

        if a.row == b.row {
            if lo == hi {
                continue; // coincident nodes: no horizontal wire
            }
            let row = a.row;
            let switchable = a.switchable() && b.switchable();
            let channel = if switchable {
                row // provisional: step 5 may flip it to row + 1
            } else if a.pref == ChannelPref::Upper || b.pref == ChannelPref::Upper {
                row + 1
            } else {
                row
            };
            spans.push(Span {
                net: work.net,
                channel,
                lo,
                hi,
                switch_row: switchable.then_some(row),
            });
        } else {
            // Adjacent rows: the wire lives in the single channel between
            // them (channel index = upper row). Zero horizontal extent
            // means a straight vertical hop.
            if lo == hi {
                continue;
            }
            let channel = a.row.max(b.row);
            spans.push(Span {
                net: work.net,
                channel,
                lo,
                hi,
                switch_row: None,
            });
        }
    }
    (wirelength, spanning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::state::{Node, NodeKind};
    use pgr_circuit::NetId;
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    /// One net's spans, wirelength and whether its tree spanned.
    struct Connection {
        spans: Vec<Span>,
        wirelength: u64,
        spanning: bool,
    }

    fn connect_in(work: &WorkNet, comm: &mut Comm, arena: &mut ConnectArena) -> Connection {
        let mut spans = Vec::new();
        let (wirelength, spanning) = connect_net_with(work, comm, arena, &mut spans);
        Connection {
            spans,
            wirelength,
            spanning,
        }
    }

    /// Connect `nodes` as one net on a fresh comm with fresh scratch.
    fn connect(nodes: Vec<Node>) -> Connection {
        connect_in(&work(nodes), &mut comm(), &mut ConnectArena::default())
    }

    fn work(nodes: Vec<Node>) -> WorkNet {
        WorkNet {
            net: NetId(1),
            nodes,
        }
    }

    #[test]
    fn trivial_nets() {
        let c = connect(vec![]);
        assert!(c.spans.is_empty() && c.spanning);
        let c = connect(vec![Node::fake(3, 1)]);
        assert!(c.spans.is_empty() && c.spanning);
    }

    #[test]
    fn same_row_pair_switchable() {
        let c = connect(vec![Node::fake(2, 3), Node::fake(9, 3)]);
        assert!(c.spanning);
        assert_eq!(c.spans.len(), 1);
        let s = &c.spans[0];
        assert_eq!((s.lo, s.hi), (2, 9));
        assert_eq!(s.channel, 3, "switchable defaults to the lower channel");
        assert_eq!(s.switch_row, Some(3));
        assert_eq!(c.wirelength, 7);
    }

    #[test]
    fn same_row_pair_with_fixed_upper_pin() {
        let mut a = Node::fake(2, 3);
        a.pref = ChannelPref::Upper;
        a.kind = NodeKind::Pin(0);
        let c = connect(vec![a, Node::fake(9, 3)]);
        let s = &c.spans[0];
        assert_eq!(s.channel, 4, "fixed top-side pin forces the upper channel");
        assert_eq!(s.switch_row, None);
    }

    #[test]
    fn adjacent_row_pair_uses_between_channel() {
        let c = connect(vec![Node::fake(2, 3), Node::fake(9, 4)]);
        let s = &c.spans[0];
        assert_eq!(s.channel, 4, "channel between rows 3 and 4");
        assert_eq!(s.switch_row, None);
        assert_eq!(c.wirelength, 7 + ROW_HEIGHT as u64);
    }

    #[test]
    fn vertical_hop_produces_no_span_but_counts_length() {
        let c = connect(vec![Node::fake(5, 1), Node::fake(5, 2)]);
        assert!(c.spans.is_empty());
        assert_eq!(c.wirelength, ROW_HEIGHT as u64);
        assert!(c.spanning);
    }

    #[test]
    fn feedthrough_chain_spans_rows() {
        // Pins on rows 0 and 3, feedthroughs on rows 1 and 2 (as step 3
        // would assign them for one vertical crossing).
        let nodes = vec![
            Node::pin(0, 4, 0, ChannelPref::Either),
            Node::feedthrough(4, 1),
            Node::feedthrough(4, 2),
            Node::pin(1, 10, 3, ChannelPref::Either),
        ];
        let c = connect(nodes);
        assert!(c.spanning);
        // Vertical hops 0-1, 1-2 are spanless; the 2-3 edge has dx=6.
        assert_eq!(c.spans.len(), 1);
        assert_eq!(c.spans[0].channel, 3);
        assert_eq!(c.wirelength, 3 * ROW_HEIGHT as u64 + 6);
    }

    #[test]
    fn fragment_forest_is_reported_not_fatal() {
        // Two clusters on rows 0 and 5: disconnected under adjacency
        // limits (a sub-net whose link lives on another rank).
        let nodes = vec![
            Node::fake(0, 0),
            Node::fake(4, 0),
            Node::fake(0, 5),
            Node::fake(4, 5),
        ];
        let c = connect(nodes);
        assert!(!c.spanning);
        assert_eq!(c.spans.len(), 2, "each cluster still connects internally");
    }

    #[test]
    fn reused_arena_matches_fresh_allocation() {
        // A dirty arena (left over from a bigger, unrelated net) must not
        // leak into the next net's connection or its ops charge.
        let big: Vec<Node> = (0..40)
            .map(|i| Node::fake((i * 13) % 97, (i % 6) as u32))
            .collect();
        let small: Vec<Node> = (0..7)
            .map(|i| Node::fake((i * 5) % 31, (i % 3) as u32))
            .collect();
        let mut arena = ConnectArena::default();
        connect_in(&work(big), &mut comm(), &mut arena);

        let mut fresh = comm();
        let want = connect_in(
            &work(small.clone()),
            &mut fresh,
            &mut ConnectArena::default(),
        );
        let mut reused = comm();
        let got = connect_in(&work(small), &mut reused, &mut arena);
        assert_eq!(got.spans, want.spans);
        assert_eq!(got.wirelength, want.wirelength);
        assert_eq!(got.spanning, want.spanning);
        assert_eq!(
            reused.now().to_bits(),
            fresh.now().to_bits(),
            "ops charge must be independent of arena history"
        );
    }

    #[test]
    fn connection_is_deterministic() {
        let nodes: Vec<Node> = (0..12)
            .map(|i| Node::fake((i * 7) % 23, (i % 4) as u32))
            .collect();
        let a = connect(nodes.clone());
        let b = connect(nodes);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.wirelength, b.wirelength);
    }

    /// Step 4 as it was before the kernel pruned its candidates, written
    /// out independently: every same-row and adjacent-row pair of the
    /// canonically ordered nodes (lower row first, then lower index),
    /// charged, sorted once by `(weight, a, b)` and run through one
    /// Kruskal pass, each accepted edge materialised on the spot.
    fn reference_connect(work: &WorkNet, comm: &mut Comm, spans: &mut Vec<Span>) -> u64 {
        let mut nodes = work.nodes.clone();
        let n = nodes.len();
        if n < 2 {
            return 0;
        }
        nodes.sort_unstable_by_key(Node::sort_key);
        let mut pairs = Vec::new();
        for (a, na) in nodes.iter().enumerate() {
            for (b, nb) in nodes.iter().enumerate() {
                if (na.row == nb.row && a < b) || na.row + 1 == nb.row {
                    pairs.push((na.x.abs_diff(nb.x) + (nb.row - na.row) as u64, a, b));
                }
            }
        }
        comm.compute(cost::CONNECT_PAIR * pairs.len() as u64 + cost::MST_NODE * n as u64);
        pairs.sort_unstable();
        let mut uf = pgr_geom::UnionFind::new(n);
        let mut wirelength = 0;
        for (_, a, b) in pairs {
            if !uf.union(a, b) {
                continue;
            }
            let (a, b) = (&nodes[a], &nodes[b]);
            let (lo, hi) = (a.x.min(b.x), a.x.max(b.x));
            wirelength += (hi - lo) as u64 + ((b.row - a.row) * ROW_HEIGHT as u32) as u64;
            if lo == hi {
                continue;
            }
            let either = |pref| a.pref == pref || b.pref == pref;
            let (channel, switch_row) = if a.row != b.row {
                (b.row, None)
            } else if a.switchable() && b.switchable() {
                (a.row, Some(a.row))
            } else {
                (a.row + either(ChannelPref::Upper) as u32, None)
            };
            spans.push(Span {
                net: work.net,
                channel,
                lo,
                hi,
                switch_row,
            });
        }
        wirelength
    }

    #[test]
    fn connect_all_equals_the_all_pairs_reference() {
        use crate::route::serial::works_after_feedthrough;
        use pgr_circuit::{generate, GeneratorConfig};

        let mut gen = GeneratorConfig::small("connect-freeze", 11);
        gen.clock_nets = vec![220];
        let circuit = generate(&gen);
        let mut works = works_after_feedthrough(&circuit, &crate::RouterConfig::with_seed(5));
        assert!(works.iter().any(|w| w.nodes.len() > 220), "the clock net");
        // Coincident nodes that differ in `pref` or `kind`: which of them
        // the tree attaches decides the channel of the span to the third
        // node, so these pin the tie rule, not just the tree's weight.
        let (upper, lower, either) = (ChannelPref::Upper, ChannelPref::Lower, ChannelPref::Either);
        for nodes in [
            vec![
                Node::pin(0, 5, 2, upper),
                Node::pin(1, 5, 2, either),
                Node::fake(9, 2),
            ],
            vec![
                Node::pin(0, 5, 2, either),
                Node::pin(1, 5, 2, upper),
                Node::fake(9, 2),
            ],
            vec![
                Node::pin(3, 5, 2, lower),
                Node::feedthrough(5, 2),
                Node::fake(1, 2),
            ],
            vec![
                Node::pin(0, 4, 1, upper),
                Node::feedthrough(4, 1),
                Node::steiner(4, 1),
                Node::feedthrough(4, 2),
                Node::pin(1, 4, 2, lower),
                Node::fake(7, 1),
                Node::fake(7, 2),
            ],
        ] {
            works.push(work(nodes));
        }

        let (mut got_comm, mut want_comm) = (comm(), comm());
        let (got_spans, got_length) = connect_all(&works, true, &mut got_comm);
        let mut want_spans = Vec::new();
        let mut want_length = 0;
        for w in &works {
            want_length += reference_connect(w, &mut want_comm, &mut want_spans);
        }
        let differs = got_spans.iter().zip(&want_spans).find(|(g, w)| g != w);
        assert_eq!(differs, None, "first span that differs");
        assert_eq!(got_spans.len(), want_spans.len());
        assert_eq!(got_length, want_length);
        assert_eq!(got_comm.now().to_bits(), want_comm.now().to_bits());
        let tail: Vec<_> = got_spans[got_spans.len() - 4..]
            .iter()
            .map(|s| (s.channel, s.switch_row))
            .collect();
        assert_eq!(
            tail,
            [(3, None), (2, Some(2)), (2, None), (2, None)],
            "the lowest sort key of a column is what the tree attaches"
        );
    }
}
