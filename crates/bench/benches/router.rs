//! Router-level benchmarks: the serial pipeline end to end and per step,
//! plus the three parallel algorithms on a scaled MCNC instance.
//!
//! These complement the `repro` binary: `repro` regenerates the paper's
//! tables in deterministic *virtual* time, while these measure the real
//! host cost of the implementation.

use pgr_bench::harness::{black_box, Harness};
use pgr_circuit::mcnc::Mcnc;
use pgr_circuit::{generate, Circuit, GeneratorConfig, NetId};
use pgr_geom::rng::rng_from_seed;
use pgr_mpi::{Comm, InstrumentConfig, MachineModel};
use pgr_router::route::coarse::CoarseState;
use pgr_router::route::connect::{connect_net_with, ConnectArena};
use pgr_router::route::steiner::{build_segments_with, whole_net};
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};

fn small_circuit() -> Circuit {
    generate(&GeneratorConfig::small("bench", 99))
}

fn bench_serial_pipeline(h: &mut Harness) {
    for &scale in &[0.05f64, 0.15] {
        let circuit = Mcnc::Biomed.circuit_scaled(scale);
        let cfg = RouterConfig::with_seed(1);
        h.bench(
            &format!("serial_route/biomed_{:.0}pct", scale * 100.0),
            |b| {
                b.iter(|| {
                    let mut comm = Comm::solo(MachineModel::ideal());
                    black_box(try_route_serial(&circuit, &cfg, &mut comm).unwrap())
                })
            },
        );
    }
}

fn bench_steps(h: &mut Harness) {
    let circuit = small_circuit();

    h.bench("step1_steiner_all_nets", |b| {
        let mut comm = Comm::solo(MachineModel::ideal());
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..circuit.num_nets() {
                let w = whole_net(&circuit, NetId::from_index(i));
                total += build_segments_with(&w, false, &mut comm).len();
            }
            black_box(total)
        })
    });

    // Pre-build segments once for the coarse bench.
    let segments: Vec<_> = (0..circuit.num_nets())
        .flat_map(|i| {
            let w = whole_net(&circuit, NetId::from_index(i));
            build_segments_with(&w, false, &mut Comm::solo(MachineModel::ideal()))
        })
        .collect();
    let cfg = RouterConfig::with_seed(1);
    h.bench("step2_coarse_route", |b| {
        b.iter(|| {
            let mut st = CoarseState::new(0, circuit.num_rows(), circuit.width, cfg.grid_w);
            let mut rng = rng_from_seed(2);
            black_box(st.route(
                &segments,
                &cfg,
                &mut rng,
                &mut Comm::solo(MachineModel::ideal()),
            ))
        })
    });

    h.bench("step4_connect_all_nets", |b| {
        let works: Vec<_> = (0..circuit.num_nets())
            .map(|i| whole_net(&circuit, NetId::from_index(i)))
            .collect();
        b.iter(|| {
            let mut spans = 0usize;
            let mut arena = ConnectArena::default();
            for w in &works {
                spans += connect_net_with(w, &mut Comm::solo(MachineModel::ideal()), &mut arena)
                    .spans
                    .len();
            }
            black_box(spans)
        })
    });
}

fn bench_parallel_algorithms(h: &mut Harness) {
    let circuit = Mcnc::Primary2.circuit_scaled(0.3);
    let cfg = RouterConfig::with_seed(1);
    for algo in Algorithm::ALL {
        h.bench(&format!("parallel_4ranks/{}", algo.name()), |b| {
            b.iter(|| {
                black_box(route_parallel_guarded(
                    &circuit,
                    &cfg,
                    algo,
                    PartitionKind::PinWeight,
                    4,
                    MachineModel::sparc_center_1000(),
                    InstrumentConfig::off(),
                ))
            })
        });
    }
}

fn bench_generation(h: &mut Harness) {
    h.bench("generate_small_circuit", |b| {
        b.iter(|| black_box(generate(&GeneratorConfig::small("g", 1))))
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_serial_pipeline(&mut h);
    bench_steps(&mut h);
    bench_parallel_algorithms(&mut h);
    bench_generation(&mut h);
    h.finish();
}
