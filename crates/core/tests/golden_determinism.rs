//! Golden determinism pins for the phase-pipeline engine refactor.
//!
//! The fingerprints below were captured from the pre-engine drivers
//! (each algorithm hand-rolling its own checkpoint/trace/metric wiring).
//! They pin three facts the engine must preserve byte-for-byte:
//!
//! * a 1-rank parallel run of every algorithm equals the serial run;
//! * repeated P-rank runs are identical — results, virtual time, and
//!   per-rank stats;
//! * the concrete routing decisions (spans, densities, wirelength,
//!   feedthroughs) and the virtual clock match the pre-refactor values,
//!   so driving the pipelines through the shared engine is a pure
//!   refactor, not a behaviour change.

use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::{ClockMode, Comm, InstrumentConfig, MachineModel, RankMetrics, RankStats};
use pgr_obs::metrics::MetricsConfig;
use pgr_router::metrics::names;
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, GuardedOutcome, PartitionKind,
    RouterConfig, RoutingResult,
};

/// Serial result fingerprint and final virtual-clock bits on the
/// SparcCenter 1000 model.
const SERIAL_RESULT: u64 = 0x2dce55bf5935412c;
const SERIAL_CLOCK: u64 = 0x40165dd576f108a0;

/// `(procs, result fingerprint, makespan bits, stats fingerprint)` per
/// algorithm, captured before the engine refactor.
const GOLDEN: [(Algorithm, usize, u64, u64, u64); 6] = [
    (
        Algorithm::RowWise,
        1,
        0x2dce55bf5935412c,
        0x401775b36fb1dc5b,
        0xd5fb260c36aa29f9,
    ),
    (
        Algorithm::RowWise,
        3,
        0xd753b5d3fc2737c1,
        0x400a73550f2437dc,
        0x484abf9841c7af44,
    ),
    (
        Algorithm::NetWise,
        1,
        0x2dce55bf5935412c,
        0x401775b36fb1dc5c,
        0x00c69ba00435aef0,
    ),
    (
        Algorithm::NetWise,
        3,
        0x0b19591bf13d6d9d,
        0x4013035afb1d0ecb,
        0xeaf431c4d4ad2bd4,
    ),
    (
        Algorithm::Hybrid,
        1,
        0x2dce55bf5935412c,
        0x401775b36fb1dc5b,
        0x3701b955fce3b089,
    ),
    (
        Algorithm::Hybrid,
        3,
        0x07fe24ca1dbf877e,
        0x400a0c3d5fa5cf27,
        0x37b0087eadd42336,
    ),
];

fn golden_circuit() -> Circuit {
    generate(&GeneratorConfig::small("golden", 23))
}

fn cfg() -> RouterConfig {
    RouterConfig::with_seed(11)
}

fn route(c: &Circuit, algo: Algorithm, procs: usize) -> GuardedOutcome {
    route_parallel_guarded(
        c,
        &cfg(),
        algo,
        PartitionKind::PinWeight,
        procs,
        MachineModel::sparc_center_1000(),
        InstrumentConfig::off(),
    )
}

fn mix(h: &mut u64, v: u64) {
    // FNV-1a over 64-bit words.
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Order-sensitive hash over every field of the routed solution.
fn result_fingerprint(r: &RoutingResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, r.chip_width as u64);
    mix(&mut h, r.rows as u64);
    mix(&mut h, r.wirelength);
    mix(&mut h, r.feedthroughs);
    for &d in &r.channel_density {
        mix(&mut h, d as u64);
    }
    for s in &r.spans {
        mix(&mut h, s.net.0 as u64);
        mix(&mut h, s.channel as u64);
        mix(&mut h, s.lo as u64);
        mix(&mut h, s.hi as u64);
        mix(&mut h, s.switch_row.map(|r| r as u64 + 1).unwrap_or(0));
    }
    h
}

/// Hash over per-rank stats: clocks (bit-exact), work, traffic, phases.
fn stats_fingerprint(stats: &[RankStats]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in stats {
        mix(&mut h, s.rank as u64);
        mix(&mut h, s.time.to_bits());
        mix(&mut h, s.ops);
        mix(&mut h, s.msgs_sent);
        mix(&mut h, s.bytes_sent);
        mix(&mut h, s.peak_mem);
        for (name, secs) in &s.phases {
            for b in name.bytes() {
                mix(&mut h, b as u64);
            }
            mix(&mut h, secs.to_bits());
        }
    }
    h
}

#[test]
fn serial_run_matches_pre_refactor_fingerprint() {
    let c = golden_circuit();
    let mut comm = Comm::solo(MachineModel::sparc_center_1000());
    let serial = try_route_serial(&c, &cfg(), &mut comm).unwrap();
    assert_eq!(
        result_fingerprint(&serial),
        SERIAL_RESULT,
        "serial routing decisions changed"
    );
    assert_eq!(
        comm.now().to_bits(),
        SERIAL_CLOCK,
        "serial virtual clock changed"
    );
    // The same run as the guarded harness's fourth driver, traces and
    // metrics off and on (`procs` and the net partition are ignored).
    for instr in [InstrumentConfig::off(), InstrumentConfig::full()] {
        let out = route_parallel_guarded(
            &c,
            &cfg(),
            Algorithm::Serial,
            PartitionKind::Center,
            3,
            MachineModel::sparc_center_1000(),
            instr,
        );
        assert_eq!(out.result.as_ref(), Ok(&serial), "guarded serial result");
        assert_eq!(out.time.to_bits(), SERIAL_CLOCK, "guarded serial clock");
        assert_eq!(out.stats.len(), 1, "serial is one rank");
        // One rank has no partition to be imbalanced.
        let imbalance = |m: &RankMetrics| m.gauge(names::LOAD_IMBALANCE);
        assert!(out.metrics.iter().all(|m| imbalance(m).is_none()));
    }
}

#[test]
fn one_rank_parallel_runs_equal_the_serial_run() {
    let c = golden_circuit();
    let serial = try_route_serial(&c, &cfg(), &mut Comm::solo(MachineModel::ideal())).unwrap();
    for algo in Algorithm::ALL {
        let out = route(&c, algo, 1);
        assert_eq!(
            out.result.unwrap(),
            serial,
            "{}: P=1 must be the serial algorithm",
            algo.name()
        );
    }
}

#[test]
fn every_pipeline_matches_its_pre_refactor_fingerprints() {
    let c = golden_circuit();
    for (algo, procs, result_fp, time_bits, stats_fp) in GOLDEN {
        let out = route(&c, algo, procs);
        let name = algo.name();
        assert_eq!(
            result_fingerprint(out.result.as_ref().unwrap()),
            result_fp,
            "{name} P={procs}: routing decisions changed"
        );
        assert_eq!(
            out.time.to_bits(),
            time_bits,
            "{name} P={procs}: virtual makespan changed"
        );
        assert_eq!(
            stats_fingerprint(&out.stats),
            stats_fp,
            "{name} P={procs}: per-rank stats changed"
        );
    }
}

/// A rank's stats with the wall measurements removed — the only field a
/// wall-clock run is allowed to add.
fn strip_wall(stats: &[RankStats]) -> Vec<RankStats> {
    stats
        .iter()
        .cloned()
        .map(|mut s| {
            s.wall = None;
            s
        })
        .collect()
}

#[test]
fn clock_modes_agree_on_everything_but_wall_measurements() {
    let c = golden_circuit();

    // Serial driver under both clock strategies.
    let machine = MachineModel::sparc_center_1000;
    let mut virt_comm = Comm::solo_with(machine(), MetricsConfig::on(), ClockMode::Virtual);
    let virt = try_route_serial(&c, &cfg(), &mut virt_comm).unwrap();
    let mut wall_comm = Comm::solo_with(machine(), MetricsConfig::on(), ClockMode::Wall);
    let wall = try_route_serial(&c, &cfg(), &mut wall_comm).unwrap();
    assert_eq!(virt, wall, "serial: wall clock changed routing decisions");
    assert_eq!(
        virt_comm.now().to_bits(),
        wall_comm.now().to_bits(),
        "serial: wall clock perturbed the virtual account"
    );
    assert_eq!(
        virt_comm.metrics_snapshot(),
        wall_comm.metrics_snapshot(),
        "serial: wall clock perturbed the metric windows"
    );

    // Every parallel driver at P ∈ {1, 3}.
    for algo in Algorithm::ALL {
        for procs in [1usize, 3] {
            let name = algo.name();
            let run = |clock: ClockMode| {
                let cfg = RouterConfig { clock, ..cfg() };
                route_parallel_guarded(
                    &c,
                    &cfg,
                    algo,
                    PartitionKind::PinWeight,
                    procs,
                    machine(),
                    InstrumentConfig::metered(),
                )
            };
            let virt = run(ClockMode::Virtual);
            let wall = run(ClockMode::Wall);
            assert_eq!(
                virt.result, wall.result,
                "{name} P={procs}: wall clock changed routing decisions"
            );
            assert_eq!(
                virt.time.to_bits(),
                wall.time.to_bits(),
                "{name} P={procs}: wall clock perturbed the virtual makespan"
            );
            assert!(
                virt.stats.iter().all(|s| s.wall.is_none()),
                "{name} P={procs}: virtual mode must not carry wall stats"
            );
            assert!(
                wall.stats.iter().all(|s| s.wall.is_some()),
                "{name} P={procs}: wall mode must measure every rank"
            );
            assert_eq!(
                virt.stats,
                strip_wall(&wall.stats),
                "{name} P={procs}: wall clock perturbed the virtual stats"
            );
            assert_eq!(
                virt.metrics, wall.metrics,
                "{name} P={procs}: wall clock perturbed the metric windows"
            );
        }
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let c = golden_circuit();
    for algo in Algorithm::ALL {
        let a = route(&c, algo, 3);
        let b = route(&c, algo, 3);
        let name = algo.name();
        assert_eq!(a.result, b.result, "{name}: result");
        assert_eq!(a.time, b.time, "{name}: makespan");
        assert_eq!(a.stats, b.stats, "{name}: stats");
    }
}
