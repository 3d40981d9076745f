//! The paper's motivating scenario (§1): "for contemporary designs
//! containing 100,000 cells and nets, global routers can easily take
//! several hours" — parallel processing cuts the turnaround.
//!
//! Routes an MCNC-class circuit with all three parallel algorithms at
//! 1–8 processors on the simulated SparcCenter 1000 and prints the
//! runtime / quality trade-off each algorithm offers.
//!
//! ```text
//! cargo run --release --example parallel_turnaround [scale]
//! ```
//!
//! `scale` defaults to 1.0 (the full-size biomed instance); pass e.g.
//! 0.25 for a quicker, smaller run.

use pgr::circuit::mcnc::Mcnc;
use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let circuit = if scale >= 1.0 {
        Mcnc::Biomed.circuit()
    } else {
        Mcnc::Biomed.circuit_scaled(scale)
    };
    let cfg = RouterConfig::with_seed(1997);
    let machine = MachineModel::sparc_center_1000();

    let mut comm = Comm::solo(machine);
    let serial = try_route_serial(&circuit, &cfg, &mut comm).unwrap();
    let t_serial = comm.now();
    println!(
        "serial baseline on {}: {} tracks, {:.1} s simulated",
        machine.name,
        serial.track_count(),
        t_serial
    );
    println!();
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>12}",
        "algorithm", "procs", "time(s)", "speedup", "tracks", "vs serial"
    );

    for algo in Algorithm::ALL {
        for procs in [2usize, 4, 8] {
            let procs = procs.min(circuit.num_rows());
            let out = route_parallel_guarded(
                &circuit,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                procs,
                machine,
                InstrumentConfig::off(),
            );
            println!(
                "{:<10} {:>6} {:>10.1} {:>10.2} {:>10} {:>11.1}%",
                algo.name(),
                procs,
                out.time,
                t_serial / out.time,
                out.result.as_ref().unwrap().track_count(),
                (out.result.as_ref().unwrap().scaled_tracks(&serial) - 1.0) * 100.0
            );
        }
        println!();
    }
    println!(
        "row-wise: fastest; hybrid: best quality; net-wise: both poor — the paper's §7 verdict."
    );
}
