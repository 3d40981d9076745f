//! Step 1: approximate Steiner trees from minimum spanning trees.
//!
//! "In the first step, an approximate Steiner tree is built for each net
//! based on the minimum spanning tree of this net" (§2). We build the MST
//! of the net's pins in the rectilinear metric over the (column, row)
//! lattice; every MST edge becomes a [`Segment`] that the coarse router
//! later realizes as an L-shaped route. This matches TWGR's property that
//! solution quality does not depend on the order nets are processed: the
//! trees are independent per net.

use crate::cost;
use crate::route::state::{ChannelPref, Node, Segment};
use pgr_circuit::{Circuit, NetId, PinId, PinSide};
use pgr_geom::{mst_prim, Point};
use pgr_mpi::Comm;

/// Channel preference of a circuit pin.
pub fn pin_pref(circuit: &Circuit, pin: u32) -> ChannelPref {
    let pid = PinId(pin);
    if circuit.pin_equivalent(pid) {
        ChannelPref::Either
    } else {
        match circuit.pin_side(pid) {
            PinSide::Top => ChannelPref::Upper,
            PinSide::Bottom => ChannelPref::Lower,
        }
    }
}

/// Connection nodes of whole net `net`: its pins at their initial
/// positions, in netlist order (step 1's MST breaks ties by it).
/// Positions come from one batch column sweep ([`Circuit::pin_points_into`])
/// over the net's slice of the shared pin-index arena, into the
/// caller's `points` scratch.
pub fn pin_nodes<'a>(
    circuit: &'a Circuit,
    net: NetId,
    points: &'a mut Vec<Point>,
) -> impl ExactSizeIterator<Item = Node> + 'a {
    let pins = circuit.net_pins(net);
    points.clear();
    circuit.pin_points_into(pins, points);
    pins.iter()
        .zip(points.iter())
        .map(|(&pid, pt)| Node::pin(pid.0, pt.x, pt.y as u32, pin_pref(circuit, pid.0)))
}

/// Append the MST segments of net `net` over `nodes` to `out`, charging
/// MST cost; `points` is the caller's scratch. Rows are weighted like
/// columns on the coarse lattice, matching the grid TWGR estimates on.
///
/// `refine` first improves the MST with median Steiner junctions
/// (`RouterConfig::steiner_refine` — an extension beyond the paper's
/// plain MST approximation). Junctions
/// enter the segment graph as [`crate::route::state::NodeKind::Steiner`]
/// nodes: switchable, grid-tracking, feedthrough-free endpoints.
pub fn build_segments_with(
    net: NetId,
    nodes: &[Node],
    refine: bool,
    comm: &mut Comm,
    points: &mut Vec<Point>,
    out: &mut Vec<Segment>,
) {
    let n = nodes.len();
    if n < 2 {
        return;
    }
    comm.compute(cost::MST_PAIR * (n * n) as u64 + cost::MST_NODE * n as u64);
    points.clear();
    points.extend(nodes.iter().map(|nd| Point::new(nd.x, nd.row as i64)));
    let mst = mst_prim(points);
    if !refine {
        let segment =
            |e: &pgr_geom::MstEdge| Segment::new(net, nodes[e.a as usize], nodes[e.b as usize]);
        out.extend(mst.iter().map(segment));
        return;
    }
    comm.compute(cost::MST_NODE * n as u64); // elbow scan + rewrite
    let refined = pgr_geom::refine_mst(points, &mst);
    let node_at = |i: u32| -> Node {
        if (i as usize) < n {
            nodes[i as usize]
        } else {
            let p = refined.steiner_points[i as usize - n];
            Node::steiner(p.x, p.y as u32)
        }
    };
    let segment = |e: &pgr_geom::MstEdge| Segment::new(net, node_at(e.a), node_at(e.b));
    out.extend(refined.edges.iter().map(segment));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::state::NodeKind;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    /// The segments [`build_segments_with`] appends for `nodes`.
    fn segments(net: NetId, nodes: &[Node], refine: bool, comm: &mut Comm) -> Vec<Segment> {
        let mut out = Vec::new();
        build_segments_with(net, nodes, refine, comm, &mut Vec::new(), &mut out);
        out
    }

    /// Net `i`'s id and its pin nodes.
    fn whole_net(c: &Circuit, i: usize) -> (NetId, Vec<Node>) {
        let net = NetId::from_index(i);
        (net, pin_nodes(c, net, &mut Vec::new()).collect())
    }

    #[test]
    fn whole_net_nodes_match_pins() {
        let c = generate(&GeneratorConfig::small("t", 1));
        let (_, nodes) = whole_net(&c, 0);
        assert_eq!(nodes.len(), c.net_pins(NetId(0)).len());
        for (node, &pid) in nodes.iter().zip(c.net_pins(NetId(0))) {
            assert_eq!(node.x, c.pin_x(pid));
            assert_eq!(node.row as usize, c.pin_row(pid).index());
            assert!(matches!(node.kind, NodeKind::Pin(p) if p == pid.0));
        }
    }

    #[test]
    fn segments_form_a_spanning_tree() {
        let c = generate(&GeneratorConfig::small("t", 2));
        let mut cm = comm();
        for i in 0..c.num_nets() {
            let (net, nodes) = whole_net(&c, i);
            let segs = segments(net, &nodes, false, &mut cm);
            assert_eq!(segs.len(), nodes.len() - 1, "net {i}");
            // Tree connectivity over node positions.
            let mut uf = pgr_geom::UnionFind::new(nodes.len());
            let find_node = |nd: &Node| {
                nodes
                    .iter()
                    .position(|m| m == nd)
                    .expect("endpoint is a node")
            };
            for s in &segs {
                uf.union(find_node(&s.lower), find_node(&s.upper));
            }
            assert_eq!(uf.components(), 1, "net {i} spans");
        }
    }

    #[test]
    fn two_pin_net_yields_one_segment() {
        let c = generate(&GeneratorConfig::small("t", 3));
        let two = (0..c.num_nets())
            .find(|&i| c.net_degree(NetId::from_index(i)) == 2)
            .expect("some 2-pin net");
        let (net, nodes) = whole_net(&c, two);
        let segs = segments(net, &nodes, false, &mut comm());
        assert_eq!(segs.len(), 1);
        assert!(segs[0].lower.row <= segs[0].upper.row);
    }

    #[test]
    fn build_charges_quadratic_cost() {
        let c = generate(&GeneratorConfig::small("t", 4));
        let m = MachineModel::sparc_center_1000();
        let mut cm = Comm::solo(m);
        let (net, nodes) = whole_net(&c, 0);
        segments(net, &nodes, false, &mut cm);
        let d = nodes.len() as u64;
        let expect = m.compute_time(cost::MST_PAIR * d * d + cost::MST_NODE * d);
        assert!((cm.now() - expect).abs() < 1e-12);
    }

    #[test]
    fn refined_segments_are_shorter_and_still_span() {
        let c = generate(&GeneratorConfig::small("t", 6));
        let mut cm = comm();
        let total_len = |segs: &[Segment]| -> u64 {
            segs.iter()
                .map(|s| s.lower.x.abs_diff(s.upper.x) + (s.upper.row - s.lower.row) as u64)
                .sum()
        };
        let mut plain_total = 0u64;
        let mut refined_total = 0u64;
        for i in 0..c.num_nets() {
            let (net, nodes) = whole_net(&c, i);
            let plain = segments(net, &nodes, false, &mut cm);
            let refined = segments(net, &nodes, true, &mut cm);
            plain_total += total_len(&plain);
            refined_total += total_len(&refined);
            // Refinement keeps the tree property over nodes ∪ junctions.
            let mut nodes: Vec<Node> = refined.iter().flat_map(|s| [s.lower, s.upper]).collect();
            nodes.sort_unstable_by_key(|n| n.sort_key());
            nodes.dedup();
            assert_eq!(refined.len(), nodes.len() - 1, "net {i} stays a tree");
            let mut uf = pgr_geom::UnionFind::new(nodes.len());
            let find = |nd: &Node, nodes: &[Node]| nodes.iter().position(|m| m == nd).unwrap();
            for s in &refined {
                uf.union(find(&s.lower, &nodes), find(&s.upper, &nodes));
            }
            assert_eq!(uf.components(), 1, "net {i} spans");
            // Junction rows are within the chip.
            for s in &refined {
                assert!((s.upper.row as usize) < c.num_rows());
            }
        }
        assert!(
            refined_total < plain_total,
            "refinement shortens: {refined_total} vs {plain_total}"
        );
    }

    #[test]
    fn refined_serial_route_improves_wirelength() {
        use crate::route::try_route_serial;
        let c = generate(&GeneratorConfig::small("t", 7));
        let plain_cfg = crate::RouterConfig::with_seed(5);
        let refined_cfg = crate::RouterConfig {
            steiner_refine: true,
            ..plain_cfg.clone()
        };
        let plain = try_route_serial(&c, &plain_cfg, &mut comm()).unwrap();
        let refined = try_route_serial(&c, &refined_cfg, &mut comm()).unwrap();
        assert!(
            refined.wirelength < plain.wirelength,
            "{} vs {}",
            refined.wirelength,
            plain.wirelength
        );
        crate::verify::assert_verified(&c, &refined);
    }

    #[test]
    fn pin_pref_follows_equivalence_and_side() {
        let c = generate(&GeneratorConfig::small("t", 5));
        for (i, p) in c.pins().enumerate() {
            let pref = pin_pref(&c, i as u32);
            if p.equivalent {
                assert_eq!(pref, ChannelPref::Either);
            } else {
                match p.side {
                    PinSide::Top => assert_eq!(pref, ChannelPref::Upper),
                    PinSide::Bottom => assert_eq!(pref, ChannelPref::Lower),
                }
            }
        }
    }
}
