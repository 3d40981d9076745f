//! Storage-equivalence sweep for the columnar `CircuitStore`.
//!
//! The store is reached through two independent construction paths — the
//! incremental builder (generator) and the text-format parser — and both
//! must agree with each other and with first-principles recomputation on
//! every accessor the routers consume: pin positions, net membership
//! slices, names, and row-partition assignments. The sweep runs on all six
//! seeded MCNC clones so degree tails, clock nets, and equivalent-pin
//! fractions are all exercised.

use pgr_circuit::format::{from_text, to_text};
use pgr_circuit::mcnc::ALL;
use pgr_circuit::{Circuit, NetId, PinId, RowId, RowPartition, NET_CHUNK_SIZE};

fn clones() -> impl Iterator<Item = Circuit> {
    ALL.iter().map(|m| m.circuit_scaled(0.05))
}

#[test]
fn builder_and_parser_paths_agree_on_all_accessors() {
    for c in clones() {
        let c2 = from_text(&to_text(&c)).expect("roundtrip parses");
        assert_eq!(c.num_pins(), c2.num_pins(), "{}", c.name);
        assert_eq!(c.num_nets(), c2.num_nets(), "{}", c.name);
        assert_eq!(c.num_cells(), c2.num_cells(), "{}", c.name);
        for i in 0..c.num_pins() {
            let p = PinId::from_index(i);
            assert_eq!(c.pin_point(p), c2.pin_point(p), "{} pin {i}", c.name);
            assert_eq!(c.pin(p), c2.pin(p), "{} pin {i}", c.name);
        }
        for i in 0..c.num_nets() {
            let n = NetId::from_index(i);
            assert_eq!(c.net_pins(n), c2.net_pins(n), "{} net {i}", c.name);
            assert_eq!(c.net_name(n), c2.net_name(n), "{} net {i}", c.name);
        }
    }
}

#[test]
fn batch_pin_points_match_scalar_accessor_on_every_net() {
    for c in clones() {
        let mut points = Vec::new();
        for i in 0..c.num_nets() {
            let net = NetId::from_index(i);
            let pins = c.net_pins(net);
            points.clear();
            c.pin_points_into(pins, &mut points);
            assert_eq!(points.len(), pins.len());
            for (k, &p) in pins.iter().enumerate() {
                assert_eq!(points[k], c.pin_point(p), "{} net {i} pin {k}", c.name);
            }
        }
    }
}

#[test]
fn membership_arenas_invert_the_pin_columns() {
    // net_pins / cell pins / row cells are derived arenas; each must be
    // exactly the inverse of the corresponding pin/cell column.
    for c in clones() {
        for i in 0..c.num_nets() {
            let net = NetId::from_index(i);
            for &p in c.net_pins(net) {
                assert_eq!(c.pin_net(p), net, "{}", c.name);
            }
        }
        let arena_total: usize = (0..c.num_nets())
            .map(|i| c.net_pins(NetId::from_index(i)).len())
            .sum();
        assert_eq!(
            arena_total,
            c.num_pins(),
            "{}: every pin in one net",
            c.name
        );
        for row in c.rows() {
            let mut prev_x = i64::MIN;
            for &cid in row.cells {
                let cell = c.cell(cid);
                assert_eq!(cell.row, row.id, "{}", c.name);
                assert!(cell.x >= prev_x, "{}: row cells left-to-right", c.name);
                prev_x = cell.x;
            }
        }
    }
}

#[test]
fn partition_assignments_are_identical_across_paths() {
    for c in clones() {
        let c2 = from_text(&to_text(&c)).expect("roundtrip parses");
        for parts in [1usize, 3.min(c.num_rows())] {
            let a = RowPartition::balanced(&c, parts);
            let b = RowPartition::balanced(&c2, parts);
            assert_eq!(a, b, "{} at {parts} parts", c.name);
            for r in 0..c.num_rows() {
                assert_eq!(
                    a.owner(RowId(r as u32)),
                    b.owner(RowId(r as u32)),
                    "{} row {r}",
                    c.name
                );
            }
        }
    }
}

#[test]
fn chunk_summaries_cover_exactly_their_member_nets() {
    for c in clones() {
        let mut seen = vec![false; c.num_nets()];
        let mut total_pins = 0usize;
        for chunk in c.nets_chunks() {
            assert!(chunk.len as usize <= NET_CHUNK_SIZE);
            let mut pins = 0usize;
            for net in chunk.net_ids() {
                assert!(!seen[net.index()], "{}: net chunked once", c.name);
                seen[net.index()] = true;
                pins += c.net_degree(net);
            }
            assert_eq!(chunk.pins as usize, pins, "{}", c.name);
            total_pins += pins;
        }
        assert!(seen.iter().all(|&s| s), "{}: chunks cover all nets", c.name);
        assert_eq!(total_pins, c.num_pins(), "{}", c.name);
    }
}
