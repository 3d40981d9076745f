//! End-to-end integration: the serial pipeline on every benchmark
//! circuit shape, and the P = 1 equivalence of all three parallel
//! algorithms (each must degenerate to the serial algorithm exactly).

use pgr::circuit::mcnc::{Mcnc, ALL};
use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

const SCALE: f64 = 0.08;

#[test]
fn serial_routes_every_benchmark_shape() {
    for m in ALL {
        let c = m.circuit_scaled(SCALE);
        let r = try_route_serial(
            &c,
            &RouterConfig::with_seed(1997),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        assert_eq!(r.circuit, m.name());
        assert_eq!(r.channel_density.len(), c.num_rows() + 1, "{}", m.name());
        assert!(r.track_count() > 0, "{}", m.name());
        assert!(r.chip_width >= c.width, "{}", m.name());
        assert!(
            r.area() > 0 && r.wirelength > 0 && r.span_count() > 0,
            "{}",
            m.name()
        );
        assert!(r.channel_density.iter().all(|&d| d >= 0), "{}", m.name());
    }
}

#[test]
fn every_algorithm_at_one_rank_is_the_serial_algorithm() {
    for m in [Mcnc::Primary2, Mcnc::Industry3] {
        let c = m.circuit_scaled(SCALE);
        let cfg = RouterConfig::with_seed(7);
        let serial = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
        for algo in Algorithm::ALL {
            let out = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                1,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::off(),
            );
            assert_eq!(
                out.result.as_ref(),
                Ok(&serial),
                "{} at P=1 on {}",
                algo.name(),
                m.name()
            );
        }
    }
}

#[test]
fn serial_virtual_time_scales_with_circuit_size() {
    let small = Mcnc::Primary2.circuit_scaled(0.05);
    let large = Mcnc::Primary2.circuit_scaled(0.15);
    let cfg = RouterConfig::with_seed(1);
    let t = |c: &pgr::circuit::Circuit| {
        let mut comm = Comm::solo(MachineModel::sparc_center_1000());
        try_route_serial(c, &cfg, &mut comm).unwrap();
        comm.now()
    };
    assert!(
        t(&large) > 1.5 * t(&small),
        "virtual time grows with problem size"
    );
}

#[test]
fn serial_is_platform_independent_in_results() {
    // Machine models change time and memory, never routing decisions.
    let c = Mcnc::Biomed.circuit_scaled(SCALE);
    let cfg = RouterConfig::with_seed(11);
    let a = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::sparc_center_1000())).unwrap();
    let b = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::intel_paragon())).unwrap();
    let i = try_route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal())).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, i);
}

#[test]
fn parallel_results_are_platform_independent_too() {
    let c = Mcnc::Biomed.circuit_scaled(SCALE);
    let cfg = RouterConfig::with_seed(13);
    for algo in Algorithm::ALL {
        let smp = route_parallel_guarded(
            &c,
            &cfg,
            algo,
            PartitionKind::PinWeight,
            3,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        let dmp = route_parallel_guarded(
            &c,
            &cfg,
            algo,
            PartitionKind::PinWeight,
            3,
            MachineModel::intel_paragon(),
            InstrumentConfig::off(),
        );
        assert_eq!(
            smp.result,
            dmp.result,
            "{}: same decisions on both platforms",
            algo.name()
        );
        assert!(
            smp.time != dmp.time,
            "{}: but different simulated times",
            algo.name()
        );
    }
}

#[test]
fn quality_is_stable_across_seeds() {
    // TWGR's selling point: "the solution quality is independent of the
    // routing order of the nets". Different seeds shuffle every random
    // order; track counts must stay within a tight band.
    let c = Mcnc::Primary2.circuit_scaled(SCALE);
    let tracks: Vec<i64> = (0..4)
        .map(|seed| {
            try_route_serial(
                &c,
                &RouterConfig::with_seed(seed),
                &mut Comm::solo(MachineModel::ideal()),
            )
            .unwrap()
            .track_count()
        })
        .collect();
    let (lo, hi) = (tracks.iter().min().unwrap(), tracks.iter().max().unwrap());
    assert!(
        *hi as f64 <= *lo as f64 * 1.08,
        "order independence: {tracks:?}"
    );
}

#[test]
fn feedthroughs_grow_the_chip() {
    let c = Mcnc::Industry2.circuit_scaled(SCALE);
    let r = try_route_serial(
        &c,
        &RouterConfig::with_seed(3),
        &mut Comm::solo(MachineModel::ideal()),
    )
    .unwrap();
    assert!(r.feedthroughs > 0, "multi-row nets need feedthroughs");
    assert!(r.chip_width > c.width, "feedthrough cells widen rows");
    let growth = (r.chip_width - c.width) as u64;
    // Growth is bounded by the widest row's feedthrough load.
    assert!(
        growth <= r.feedthroughs * 2,
        "growth {growth} vs {} fts",
        r.feedthroughs
    );
}
