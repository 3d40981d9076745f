//! Platform study: the same hybrid routing run on the paper's two
//! evaluation platforms (SparcCenter 1000 SMP and Intel Paragon DMP)
//! plus an idealized zero-cost network, showing how machine parameters
//! shape speedups — and how the Paragon's 32 MB/node memory cap rules
//! out serial runs of big designs while the row-partitioned parallel
//! algorithm still fits (Table 5's point).
//!
//! ```text
//! cargo run --release --example platform_study [scale]
//! ```

use pgr::circuit::mcnc::Mcnc;
use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let circuit = if scale >= 1.0 {
        Mcnc::AvqSmall.circuit()
    } else {
        Mcnc::AvqSmall.circuit_scaled(scale)
    };
    let cfg = RouterConfig::with_seed(1997);

    let mut ideal_net = MachineModel::sparc_center_1000();
    ideal_net.latency = 0.0;
    ideal_net.sec_per_byte = 0.0;
    ideal_net.send_overhead = 0.0;
    ideal_net.recv_overhead = 0.0;
    ideal_net.name = "zero-cost-net";

    for machine in [
        MachineModel::sparc_center_1000(),
        MachineModel::intel_paragon(),
        ideal_net,
    ] {
        let mut comm = Comm::solo(machine);
        let _serial = try_route_serial(&circuit, &cfg, &mut comm).unwrap();
        let t_serial = comm.now();
        let serial_fits = machine.fits_in_node(comm.peak_mem());
        println!("=== {} ===", machine.name);
        println!(
            "serial: {:.1} s, {:.1} MB modeled{}",
            t_serial,
            comm.peak_mem() as f64 / (1 << 20) as f64,
            if serial_fits {
                ""
            } else {
                "  ** exceeds node memory — infeasible on this platform **"
            }
        );
        println!(
            "{:>6} {:>10} {:>9} {:>14}",
            "procs", "time(s)", "speedup", "max rank mem"
        );
        for procs in [2usize, 4, 8, 16] {
            let procs = procs.min(circuit.num_rows());
            let out = route_parallel_guarded(
                &circuit,
                &cfg,
                Algorithm::Hybrid,
                PartitionKind::PinWeight,
                procs,
                machine,
                InstrumentConfig::off(),
            );
            println!(
                "{:>6} {:>10.1} {:>9.2} {:>11.1} MB{}",
                procs,
                out.time,
                t_serial / out.time,
                out.stats.iter().map(|s| s.peak_mem).max().unwrap() as f64 / (1 << 20) as f64,
                if out.fits_memory { "" } else { " (!)" }
            );
        }
        println!();
    }
    println!("serial tracks: {} — identical routing problem on every platform; only time and memory differ.", {
        let r = try_route_serial(&circuit, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        r.track_count()
    });
}
