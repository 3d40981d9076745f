//! `run_cell` is the one way the harness runs a route: whichever of the
//! four drivers, the cell takes its clock from the router config.

use pgr_bench::tables::run_cell;
use pgr_bench::SEED;
use pgr_circuit::mcnc::Mcnc;
use pgr_mpi::{ClockMode, InstrumentConfig, MachineModel, RunMeta};
use pgr_router::{Algorithm, PartitionKind, RouterConfig};

/// A caller who sets only `cfg.clock = Wall` used to get a wall-clocked
/// parallel run but a silently virtual-only serial run (the serial path
/// read the clock from the instrumentation bundle instead). Both arms
/// must measure host time, and measuring must not move the results or
/// the virtual account.
#[test]
fn serial_and_parallel_cells_take_their_clock_from_the_router_config() {
    let circuit = Mcnc::Primary2.circuit_scaled(0.05);
    let machine = MachineModel::sparc_center_1000();
    let virt_cfg = RouterConfig::with_seed(SEED);
    let wall_cfg = RouterConfig {
        clock: ClockMode::Wall,
        ..virt_cfg.clone()
    };
    let dir = std::env::temp_dir().join(format!("pgr-run-cell-{}", std::process::id()));
    for (algo, procs) in [(Algorithm::Serial, 1), (Algorithm::Hybrid, 2)] {
        let driver = (algo, PartitionKind::PinWeight, procs);
        let name = algo.name();
        // The instrumentation bundle says nothing about the clock.
        let instr = InstrumentConfig::metered();
        let run = RunMeta::new(&circuit.name, name, procs, machine.name, 0.05, SEED);
        let virt = run_cell(&circuit, &virt_cfg, driver, machine, instr.clone(), None);
        let emit = Some((dir.as_path(), name, run));
        let wall = run_cell(&circuit, &wall_cfg, driver, machine, instr, emit);
        assert_eq!(virt.wall_time, None, "{name}");
        let secs = wall.wall_time.expect("host seconds under cfg.clock = Wall");
        assert!(secs > 0.0 && secs.is_finite(), "{name}: {secs}");
        assert!(wall.stats.iter().all(|s| s.wall.is_some()), "{name}");
        assert_eq!(virt.result, wall.result, "{name}: results are clock-blind");
        assert_eq!(virt.time.to_bits(), wall.time.to_bits(), "{name}");
        // The artifacts say which clock the cell ran under.
        let stats = std::fs::read_to_string(dir.join(format!("{name}.stats.json"))).unwrap();
        assert!(stats.contains("\"clock\":\"wall\""), "{name}: {stats}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
