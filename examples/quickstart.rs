//! Quickstart: generate a small standard-cell circuit, route it with the
//! serial TWGR pipeline, and print the quality metrics the paper reports.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgr::circuit::{generate, GeneratorConfig};
use pgr::mpi::{Comm, MachineModel};
use pgr::router::{try_route_serial, RouterConfig};

fn main() {
    // A ~900-pin circuit with 8 cell rows. Fully deterministic per seed.
    let circuit = generate(&GeneratorConfig::small("quickstart", 42));
    let stats = circuit.stats();
    println!(
        "circuit '{}': {} rows, {} cells, {} nets, {} pins",
        stats.name, stats.rows, stats.cells, stats.nets, stats.pins
    );

    // Route serially on the simulated SparcCenter 1000; the communicator
    // tracks virtual time and modeled memory as it goes.
    let mut comm = Comm::solo(MachineModel::sparc_center_1000());
    let result = try_route_serial(&circuit, &RouterConfig::with_seed(7), &mut comm).unwrap();

    println!();
    println!("routing finished:");
    println!("  total tracks     : {}", result.track_count());
    println!("  chip area        : {}", result.area());
    println!("  wirelength       : {}", result.wirelength);
    println!("  feedthroughs     : {}", result.feedthroughs);
    println!("  horizontal spans : {}", result.span_count());
    println!("  simulated time   : {:.2} s", comm.now());
    println!(
        "  modeled memory   : {:.1} MB",
        comm.peak_mem() as f64 / (1 << 20) as f64
    );
    println!();
    println!("channel densities (bottom to top):");
    for (i, d) in result.channel_density.iter().enumerate() {
        println!(
            "  channel {i:>2}: {d:>4} {}",
            "#".repeat((*d as usize).min(60))
        );
    }
}
