//! The strongest correctness property the parallel algorithms have:
//! at one rank, each of them must execute the serial algorithm *exactly*
//! — same spans, same densities, same wirelength, bit for bit — across
//! random circuits, seeds, and feature flags.
//!
//! Randomized but deterministic: inputs are drawn from the workspace's
//! own seeded [`SmallRng`](pgr::geom::rng::SmallRng), so every run
//! exercises the same cases and a failure names its seed.

use pgr::circuit::{generate, GeneratorConfig};
use pgr::geom::rng::rng_from_seed;
use pgr::mpi::{run_instrumented, InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

#[test]
fn one_rank_is_bit_identical_to_serial() {
    let mut rng = rng_from_seed(0xE901);
    for case in 0..8 {
        let circuit_seed = rng.gen_range(0u64..10_000);
        let router_seed = rng.gen_range(0u64..10_000);
        let refine = rng.gen_bool(0.5);
        let rows = rng.gen_range(3usize..10);
        let kind = PartitionKind::ALL[rng.gen_range(0usize..4)];

        let mut g = GeneratorConfig::small("equiv", circuit_seed);
        g.rows = rows;
        g.cells = rows * 14;
        g.nets = 60;
        g.pins = 200;
        let c = generate(&g);
        let cfg = RouterConfig {
            seed: router_seed,
            steiner_refine: refine,
            ..Default::default()
        };
        // The serial router runs through the same engine driver as the
        // parallel pipelines, so beyond the result a P=1 run must also
        // enter the same phases in the same order and open the same
        // metric windows.
        let machine = MachineModel::sparc_center_1000();
        let (serial, _, serial_metrics) =
            run_instrumented(1, machine, InstrumentConfig::metered(), |comm| {
                try_route_serial(&c, &cfg, comm)
            });
        let phase_names =
            |phases: &[(&'static str, f64)]| phases.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let window_names = |m: &pgr::mpi::RankMetrics| {
            m.windows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
        };
        for algo in Algorithm::ALL {
            let out = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                kind,
                1,
                machine,
                InstrumentConfig::metered(),
            );
            let ctx = format!(
                "case {case}: {} (refine={refine}, kind={}, circuit_seed={circuit_seed}, \
                 router_seed={router_seed})",
                algo.name(),
                kind.name()
            );
            assert_eq!(
                out.result, serial.results[0],
                "{ctx} diverged from serial at P=1"
            );
            assert_eq!(
                phase_names(&out.stats[0].phases),
                phase_names(&serial.stats[0].phases),
                "{ctx}: phase marks differ from serial"
            );
            assert_eq!(
                window_names(&out.metrics[0]),
                window_names(&serial_metrics[0]),
                "{ctx}: metric windows differ from serial"
            );
        }
    }
}

#[test]
fn multi_rank_solutions_always_verify() {
    let mut rng = rng_from_seed(0xE902);
    for case in 0..8 {
        let circuit_seed = rng.gen_range(0u64..10_000);
        let router_seed = rng.gen_range(0u64..10_000);
        let procs = rng.gen_range(2usize..5);
        let algo = Algorithm::ALL[rng.gen_range(0usize..3)];

        let c = generate(&GeneratorConfig::small("mverify", circuit_seed));
        let cfg = RouterConfig::with_seed(router_seed);
        let out = route_parallel_guarded(
            &c,
            &cfg,
            algo,
            PartitionKind::PinWeight,
            procs,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        let violations = pgr::router::verify::verify(&c, out.result.as_ref().unwrap());
        assert!(
            violations.is_empty(),
            "case {case}: {}@{procs} (circuit_seed={circuit_seed}): {violations:?}",
            algo.name()
        );
        assert!(out.result.as_ref().unwrap().track_count() > 0);
    }
}
