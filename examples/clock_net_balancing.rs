//! Why the pin-number-weight partition exists (§5).
//!
//! avq.large carries clock line nets with thousands of pins while 99 %
//! of its nets are tiny. Building a net's approximate Steiner tree is
//! Θ(pins²), so whichever rank owns a giant net does quadratically more
//! step-1 work than everyone else — unless the partition weighs nets by
//! `pins^β` and deals the giants round-robin.
//!
//! This example partitions a clock-heavy circuit with all four §5
//! heuristics and prints each rank's pin count and Θ(d²) Steiner cost,
//! then shows the end-to-end effect on the hybrid algorithm's runtime.
//!
//! ```text
//! cargo run --release --example clock_net_balancing
//! ```

use pgr::circuit::mcnc::Mcnc;
use pgr::circuit::RowPartition;
use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
use pgr::router::parallel::partition::{partition_nets, pins_per_owner, steiner_cost_per_owner};
use pgr::router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

fn main() {
    let circuit = Mcnc::AvqLarge.circuit_scaled(0.25);
    let max_deg = circuit.nets().map(|n| n.degree()).max().unwrap();
    let small = circuit.nets().filter(|n| n.degree() <= 5).count();
    println!(
        "{}: {} nets, biggest has {} pins, {:.0} % of nets have ≤5 pins",
        circuit.name,
        circuit.num_nets(),
        max_deg,
        small as f64 / circuit.num_nets() as f64 * 100.0
    );

    let parts = 8;
    let rows = RowPartition::balanced(&circuit, parts);
    println!();
    println!(
        "{:<12} {:>28} {:>34}",
        "partition", "pins per rank (min..max)", "steiner d² cost per rank (max/min)"
    );
    for kind in PartitionKind::ALL {
        let owner = partition_nets(&circuit, kind, &rows, parts, 1.6);
        let pins = pins_per_owner(&circuit, &owner, parts);
        let costs = steiner_cost_per_owner(&circuit, &owner, parts);
        let imbalance =
            *costs.iter().max().unwrap() as f64 / (*costs.iter().min().unwrap()).max(1) as f64;
        println!(
            "{:<12} {:>12}..{:<14} {:>25.2}x",
            kind.name(),
            pins.iter().min().unwrap(),
            pins.iter().max().unwrap(),
            imbalance
        );
    }

    // End-to-end: the imbalance shows up as hybrid runtime.
    let cfg = RouterConfig::with_seed(1997);
    let machine = MachineModel::sparc_center_1000();
    let mut comm = Comm::solo(machine);
    let serial = try_route_serial(&circuit, &cfg, &mut comm).unwrap();
    let t_serial = comm.now();
    println!();
    println!("hybrid algorithm, 8 ranks:");
    println!(
        "{:<12} {:>9} {:>9} {:>10}",
        "partition", "time(s)", "speedup", "sc.tracks"
    );
    for kind in PartitionKind::ALL {
        let out = route_parallel_guarded(
            &circuit,
            &cfg,
            Algorithm::Hybrid,
            kind,
            parts,
            machine,
            InstrumentConfig::off(),
        );
        println!(
            "{:<12} {:>9.1} {:>9.2} {:>10.3}",
            kind.name(),
            out.time,
            t_serial / out.time,
            out.result.as_ref().unwrap().scaled_tracks(&serial)
        );
    }
    println!();
    println!("pin-number-weight keeps the clock nets from serializing step 1 (§5).");
}
