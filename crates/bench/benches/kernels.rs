//! Micro-benchmarks of the computational kernels under the router:
//! rectilinear MSTs (step 1 and 4's dominant work), the lazy segment-tree
//! density profile (the structure every coarse/switchable decision
//! probes), union-find, the wire codec the ranks serialize with, the
//! frame checksum and the modeled transfer beside the real frame it
//! stands in for, and the columnar circuit store's per-net sweep paths.

use pgr_bench::harness::{black_box, Harness};
use pgr_geom::rng::{rng_from_seed, shuffled_indices};
use pgr_geom::{mst_adjacency_limited, mst_prim, DensityProfile, Point, UnionFind};
use pgr_mpi::Wire;

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0..2000), rng.gen_range(0..64)))
        .collect()
}

fn bench_mst(h: &mut Harness) {
    for &n in &[4usize, 32, 256, 2048] {
        let pts = random_points(n, 42);
        h.bench(&format!("mst_prim/{n}"), |b| {
            b.iter(|| mst_prim(black_box(&pts)))
        });
    }
    for &n in &[32usize, 256, 1024] {
        let pts = random_points(n, 43);
        let rows: Vec<i64> = pts.iter().map(|p| p.y).collect();
        h.bench(&format!("mst_adjacency_limited/{n}"), |b| {
            b.iter(|| mst_adjacency_limited(black_box(&pts), black_box(&rows)))
        });
    }
}

fn bench_profile(h: &mut Harness) {
    for &width in &[256usize, 4096] {
        h.bench(&format!("density_profile/add_remove/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(7);
            b.iter(|| {
                let lo = rng.gen_range(0..width as i64);
                let hi = (lo + rng.gen_range(1..200)).min(width as i64 - 1);
                p.add_span(lo, hi, 1);
                black_box(p.max());
                p.add_span(lo, hi, -1);
            })
        });
        h.bench(&format!("density_profile/max_if_added/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(8);
            for _ in 0..200 {
                let lo = rng.gen_range(0..width as i64);
                p.add_span(lo, (lo + 40).min(width as i64 - 1), 1);
            }
            b.iter(|| {
                let lo = rng.gen_range(0..width as i64);
                black_box(p.max_if_added(lo, (lo + 60).min(width as i64 - 1)))
            })
        });
        h.bench(&format!("density_profile/counts_into/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(9);
            for _ in 0..200 {
                let lo = rng.gen_range(0..width as i64);
                p.add_span(lo, (lo + 40).min(width as i64 - 1), 1);
            }
            let mut out = vec![0i64; width];
            b.iter(|| {
                p.counts_into(&mut out);
                black_box(out[width / 2])
            })
        });
    }
}

fn bench_coarse_eval(h: &mut Harness) {
    use pgr_circuit::NetId;
    use pgr_mpi::{Comm, MachineModel};
    use pgr_router::route::coarse::CoarseState;
    use pgr_router::route::state::{Node, Segment};
    use pgr_router::RouterConfig;

    for &n in &[64usize, 512] {
        let mut rng = rng_from_seed(0xC0A5);
        let segs: Vec<Segment> = (0..n)
            .map(|i| {
                let r1 = rng.gen_range(0..8u32);
                let r2 = rng.gen_range(0..8u32);
                let a = Node::fake(rng.gen_range(0..600i64), r1);
                let b = Node::fake(rng.gen_range(0..600i64), r2);
                Segment::new(NetId(i as u32), a, b)
            })
            .collect();
        let order: Vec<u32> = (0..segs.len() as u32).collect();
        let cfg = RouterConfig::default();
        h.bench(&format!("coarse_eval/improve_slice/{n}"), |b| {
            let mut comm = Comm::solo(MachineModel::ideal());
            let mut st = CoarseState::new(0, 9, 640, 8);
            let mut orients = st.init_random(&segs, &mut rng_from_seed(7), &mut comm);
            b.iter(|| black_box(st.improve_slice(&segs, &mut orients, &order, &cfg, &mut comm)))
        });
    }
}

fn bench_unionfind(h: &mut Harness) {
    h.bench("unionfind_1k_random_unions", |b| {
        let mut rng = rng_from_seed(3);
        let pairs: Vec<(usize, usize)> = (0..1000)
            .map(|_| (rng.gen_range(0..1000), rng.gen_range(0..1000)))
            .collect();
        b.iter(|| {
            let mut uf = UnionFind::new(1000);
            for &(x, y) in &pairs {
                uf.union(x, y);
            }
            black_box(uf.components())
        })
    });
}

fn bench_wire(h: &mut Harness) {
    let payload: Vec<(u32, i64, i64, Option<u32>)> = (0..1000)
        .map(|i| (i, i as i64 * 3, -(i as i64), (i % 3 == 0).then_some(i)))
        .collect();
    h.bench("wire_encode_1k_records", |b| {
        b.iter(|| black_box(payload.to_bytes()))
    });
    let bytes = payload.to_bytes();
    h.bench("wire_decode_1k_records", |b| {
        b.iter(|| black_box(Vec::<(u32, i64, i64, Option<u32>)>::from_bytes(&bytes).unwrap()))
    });
}

fn bench_crc32(h: &mut Harness) {
    use pgr_mpi::wire::crc32;

    // Every frame is hashed once on each side of the wire: a small
    // control message, a page, and a bulk payload.
    for &n in &[64usize, 4096, 1 << 20] {
        let mut rng = rng_from_seed(0xC3C);
        let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        h.bench(&format!("wire/crc32/{n}"), |b| {
            b.iter(|| black_box(crc32(black_box(&data))))
        });
    }
}

fn bench_modeled_transfer(h: &mut Harness) {
    use pgr_mpi::{Comm, MachineModel};

    // The same 256 KiB transfer (the net-wise snapshot's order of
    // magnitude) as a zero-filled real frame and as a modeled one, on a
    // solo communicator's self-delivery: send, both CRC passes, match.
    const N: usize = 256 * 1024;
    h.bench(&format!("mpi/send_modeled_vs_bytes/{N}/bytes"), |b| {
        let mut comm = Comm::solo(MachineModel::ideal());
        b.iter(|| {
            comm.send_bytes(0, 1, vec![0u8; N]);
            black_box(comm.recv_bytes(0, 1).len())
        })
    });
    h.bench(&format!("mpi/send_modeled_vs_bytes/{N}/modeled"), |b| {
        let mut comm = Comm::solo(MachineModel::ideal());
        b.iter(|| {
            comm.send_modeled(0, 1, N);
            black_box(comm.recv_modeled(0, 1))
        })
    });
}

fn bench_channel_router(h: &mut Harness) {
    use pgr_channel::{assign_tracks, merge_net_intervals, Interval};
    for &n in &[100usize, 2000] {
        let mut rng = rng_from_seed(17);
        let ivs: Vec<Interval> = (0..n)
            .map(|i| {
                let lo = rng.gen_range(0..3000i64);
                Interval::new((i % 200) as u32, lo, lo + rng.gen_range(1..150))
            })
            .collect();
        h.bench(&format!("left_edge_router/{n}"), |b| {
            b.iter(|| black_box(assign_tracks(&merge_net_intervals(&ivs))))
        });
    }
}

fn bench_critical_path(h: &mut Harness) {
    use pgr_mpi::{build_profile, run_instrumented, InstrumentConfig, MachineModel};

    // One instrumented ring run outside the timed loop; the kernel under
    // test is the profiler itself — matching, backward walk, blame.
    let machine = MachineModel::sparc_center_1000();
    let instr = InstrumentConfig::full();
    let (_, traces, _) = run_instrumented(4, machine, instr, |comm| {
        let p = comm.size();
        let me = comm.rank();
        for round in 0..200u64 {
            comm.compute(1_000 + (me as u64 + round) % 512);
            let next = (me + 1) % p;
            comm.send(next, 1, &round);
            comm.recv::<u64>((me + p - 1) % p, 1);
        }
    });
    h.bench("critical_path/extract", |b| {
        b.iter(|| black_box(build_profile(black_box(&traces), black_box(&machine))))
    });
}

fn bench_circuit_store(h: &mut Harness) {
    use pgr_circuit::mcnc::Mcnc;
    use pgr_circuit::NetId;

    // The columnar store's hot paths: sweeping every net's slice of the
    // shared pin-index arena, and resolving pin positions in batch from
    // the SoA columns — the access pattern of the Steiner/coarse loops.
    let c = Mcnc::Primary2.circuit_scaled(0.2);
    h.bench("circuit/net_pins_sweep", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for chunk in c.nets_chunks() {
                for net in chunk.net_ids() {
                    total += black_box(c.net_pins(net)).len();
                }
            }
            black_box(total)
        })
    });
    h.bench("circuit/pin_points_batch", |b| {
        let mut points = Vec::new();
        b.iter(|| {
            let mut sum = 0i64;
            for i in 0..c.num_nets() {
                let pins = c.net_pins(NetId::from_index(i));
                points.clear();
                c.pin_points_into(pins, &mut points);
                sum += points.iter().map(|p| p.x).sum::<i64>();
            }
            black_box(sum)
        })
    });
}

fn bench_scenarios(h: &mut Harness) {
    use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};

    // The adversarial workload generator: one representative per shape
    // class — the dense-degree-tail family, the giant-fanout family,
    // and a degenerate family. Each spec is deterministic, so the bench
    // measures pure generation cost.
    for family in [
        ScenarioFamily::CongestionStress,
        ScenarioFamily::ClockTree,
        ScenarioFamily::DuplicateGeometry,
    ] {
        let spec = ScenarioSpec::new(family, 0.25, 1997);
        h.bench(&format!("scenarios/generate/{}", family.name()), |b| {
            b.iter(|| black_box(spec.generate()))
        });
    }
}

fn bench_shuffle(h: &mut Harness) {
    h.bench("shuffle_10k", |b| {
        let mut rng = rng_from_seed(5);
        b.iter(|| black_box(shuffled_indices(10_000, &mut rng)))
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_mst(&mut h);
    bench_profile(&mut h);
    bench_coarse_eval(&mut h);
    bench_unionfind(&mut h);
    bench_wire(&mut h);
    bench_crc32(&mut h);
    bench_modeled_transfer(&mut h);
    bench_channel_router(&mut h);
    bench_circuit_store(&mut h);
    bench_scenarios(&mut h);
    bench_critical_path(&mut h);
    bench_shuffle(&mut h);
    h.finish();
}
