//! Every adversarial scenario family routes through every driver
//! without panicking, at P = 1 and P = 3 (clamped by row count), and
//! the results verify clean.

use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};
use pgr_mpi::{Comm, InstrumentConfig, MachineModel};
use pgr_router::{
    route_parallel_guarded, try_route_serial, verify, Algorithm, PartitionKind, RouterConfig,
};

#[test]
fn all_families_route_under_all_drivers() {
    let cfg = RouterConfig::default();
    for family in ScenarioFamily::ALL {
        let spec = ScenarioSpec::new(family, 0.25, 7);
        let circuit = spec.generate();
        circuit.validate().expect("valid scenario");

        let mut comm = Comm::solo(MachineModel::ideal());
        let serial = try_route_serial(&circuit, &cfg, &mut comm).unwrap();
        assert_eq!(
            verify::check(&circuit, &serial, &mut comm),
            0,
            "{family}: serial violations"
        );

        for algo in Algorithm::ALL {
            for procs in [1usize, 3] {
                let p = procs.min(circuit.num_rows());
                let out = route_parallel_guarded(
                    &circuit,
                    &cfg,
                    algo,
                    PartitionKind::PinWeight,
                    p,
                    MachineModel::ideal(),
                    InstrumentConfig::off(),
                );
                let mut check = Comm::solo(MachineModel::ideal());
                assert_eq!(
                    verify::check(&circuit, out.result.as_ref().unwrap(), &mut check),
                    0,
                    "{family}: {} P={p} violations",
                    algo.name()
                );
            }
        }
    }
}
