//! Netlist file I/O: save a generated circuit to the plain-text v1
//! format, reload it, and confirm the reloaded circuit routes to exactly
//! the same solution — the workflow for pinning down and sharing a
//! routing test case.
//!
//! ```text
//! cargo run --release --example netlist_files [path]
//! ```

use pgr::circuit::format::{from_text, to_text};
use pgr::circuit::{generate, GeneratorConfig};
use pgr::mpi::{Comm, MachineModel};
use pgr::router::{try_route_serial, RouterConfig};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/pgr-demo.netlist".to_string());
    let circuit = generate(&GeneratorConfig::small("file-demo", 2024));

    let text = to_text(&circuit);
    std::fs::write(&path, &text).expect("write netlist");
    println!(
        "wrote {} ({} lines, {} bytes)",
        path,
        text.lines().count(),
        text.len()
    );

    let reloaded =
        from_text(&std::fs::read_to_string(&path).expect("read back")).expect("parse netlist");
    assert_eq!(
        circuit.stats(),
        reloaded.stats(),
        "stats survive the roundtrip"
    );

    let cfg = RouterConfig::with_seed(5);
    let a = try_route_serial(&circuit, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
    let b = try_route_serial(&reloaded, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
    assert_eq!(a, b, "identical circuits route identically");

    println!("reloaded circuit routes to the identical solution:");
    println!(
        "  tracks = {}, area = {}, wirelength = {}",
        b.track_count(),
        b.area(),
        b.wirelength
    );

    // Show the head of the file so the format is visible.
    println!();
    println!("file head:");
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    println!("  ...");
}
