//! Degenerate and adversarial circuit shapes: the router must handle
//! them all without panicking and with verifiable solutions.

use pgr::circuit::{generate, CircuitBuilder, GeneratorConfig, PinSide, RowId};
use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, try_route_serial, verify, Algorithm, PartitionKind, RouterConfig,
};

fn cfg() -> RouterConfig {
    RouterConfig::with_seed(99)
}

#[test]
fn single_row_circuit_routes() {
    // Everything same-row: no feedthroughs, two channels.
    let mut b = CircuitBuilder::new("one-row", 1, 400);
    let mut pins = Vec::new();
    for _ in 0..40 {
        let cell = b.add_cell(RowId(0), 8);
        pins.push(b.add_pin(cell, 2, PinSide::Top, true));
        pins.push(b.add_pin(cell, 5, PinSide::Bottom, false));
    }
    for chunk in pins.chunks(4) {
        b.add_net("n", chunk.to_vec());
    }
    let c = b.finish().unwrap();
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    assert_eq!(r.feedthroughs, 0, "same-row nets never cross rows");
    assert_eq!(r.channel_density.len(), 2);
    assert!(r.track_count() > 0);
}

#[test]
fn two_row_circuit_routes_and_parallelizes() {
    let mut cfg_gen = GeneratorConfig::small("two-rows", 5);
    cfg_gen.rows = 2;
    cfg_gen.cells = 60;
    cfg_gen.nets = 40;
    cfg_gen.pins = 120;
    let c = generate(&cfg_gen);
    let serial = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &serial);
    for algo in Algorithm::ALL {
        let out = route_parallel_guarded(
            &c,
            &cfg(),
            algo,
            PartitionKind::PinWeight,
            2,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        verify::assert_verified(&c, out.result.as_ref().unwrap());
    }
}

#[test]
fn all_two_pin_nets() {
    let mut g = GeneratorConfig::small("two-pin", 6);
    g.pins = g.nets * 2; // exactly two pins per net
    let c = generate(&g);
    assert!(c.nets().all(|n| n.degree() == 2));
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
}

#[test]
fn one_giant_net_dominates() {
    // A single net holding a third of all pins.
    let mut g = GeneratorConfig::small("giant", 7);
    g.nets = 80;
    g.pins = 600;
    g.clock_nets = vec![200];
    let c = generate(&g);
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    for algo in Algorithm::ALL {
        let out = route_parallel_guarded(
            &c,
            &cfg(),
            algo,
            PartitionKind::PinWeight,
            4,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        verify::assert_verified(&c, out.result.as_ref().unwrap());
    }
}

#[test]
fn zero_equivalence_means_no_switchables_but_valid_routing() {
    let mut g = GeneratorConfig::small("rigid", 8);
    g.equivalent_fraction = 0.0;
    let c = generate(&g);
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    assert!(r
        .spans
        .iter()
        .all(|s| s.switch_row.is_none() || s.switch_row.is_some()));
    // Feedthrough endpoints still allow switchables; pins never do.
    // The full-equivalence circuit must have at least as many.
    let mut g2 = g.clone();
    g2.name = "flexible".into();
    g2.equivalent_fraction = 1.0;
    let c2 = generate(&g2);
    let r2 = try_route_serial(&c2, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    let count =
        |r: &pgr::router::RoutingResult| r.spans.iter().filter(|s| s.switch_row.is_some()).count();
    assert!(count(&r2) >= count(&r));
}

#[test]
fn zero_locality_global_nets() {
    let mut g = GeneratorConfig::small("global-nets", 9);
    g.locality = 0.0;
    let c = generate(&g);
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    assert!(r.feedthroughs > 0, "global nets must cross rows");
}

#[test]
fn steiner_refinement_verifies_on_every_algorithm() {
    let c = generate(&GeneratorConfig::small("steiner-par", 10));
    let mut rcfg = cfg();
    rcfg.steiner_refine = true;
    let serial = try_route_serial(&c, &rcfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &serial);
    for algo in Algorithm::ALL {
        let out = route_parallel_guarded(
            &c,
            &rcfg,
            algo,
            PartitionKind::PinWeight,
            3,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        verify::assert_verified(&c, out.result.as_ref().unwrap());
        // P=1 equivalence must hold with refinement too.
        let one = route_parallel_guarded(
            &c,
            &rcfg,
            algo,
            PartitionKind::PinWeight,
            1,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        assert_eq!(
            one.result.as_ref(),
            Ok(&serial),
            "{} refined P=1",
            algo.name()
        );
    }
}

#[test]
fn max_ranks_equals_rows() {
    let mut g = GeneratorConfig::small("tight-ranks", 11);
    g.rows = 6;
    g.cells = 120;
    let c = generate(&g);
    for algo in Algorithm::ALL {
        let out = route_parallel_guarded(
            &c,
            &cfg(),
            algo,
            PartitionKind::PinWeight,
            6,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        verify::assert_verified(&c, out.result.as_ref().unwrap());
    }
}

#[test]
fn wide_flat_circuit() {
    // Few rows, very wide: long horizontal spans dominate.
    let mut g = GeneratorConfig::small("flat", 12);
    g.rows = 3;
    g.cells = 600;
    g.nets = 200;
    g.pins = 700;
    let c = generate(&g);
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    let d = pgr::router::detailed::route_channels(&r);
    assert!(d.validate());
    assert!(d.track_count() as i64 <= r.track_count());
}

#[test]
fn tall_narrow_circuit() {
    // Many rows, few cells per row: feedthrough-heavy.
    let mut g = GeneratorConfig::small("tall", 13);
    g.rows = 30;
    g.cells = 150;
    g.nets = 90;
    g.pins = 300;
    g.locality = 0.3;
    let c = generate(&g);
    let r = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    verify::assert_verified(&c, &r);
    assert!(r.feedthroughs > 0);
    // Heavier feedthrough use per pin than a square circuit.
    assert!(r.chip_width > c.width);
}

#[test]
fn repeated_routing_of_the_same_instance_is_stable() {
    let c = generate(&GeneratorConfig::small("stable", 14));
    let first = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    for _ in 0..3 {
        let again = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
        assert_eq!(again, first);
    }
}
