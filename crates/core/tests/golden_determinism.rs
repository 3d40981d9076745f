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

mod harness;

use harness::{
    cases, check, golden, grid, one_and_three, outcome, plain, with, Relation, Run, Setup,
};
use pgr_mpi::RankStats;
use pgr_router::metrics::names;
use pgr_router::{Algorithm, PartitionKind, RoutingResult};

// ------------------------------------------------------ absolute pins

/// Serial result fingerprint and final virtual-clock bits of the golden
/// circuit on the SparcCenter 1000 model.
const SERIAL_RESULT: u64 = 0x2dce55bf5935412c;
const SERIAL_CLOCK: u64 = 0x40165dd576f108a0;

/// `(driver, procs, result fingerprint, makespan bits, stats
/// fingerprint)` of the golden circuit.
#[rustfmt::skip]
const GOLDEN: [(Algorithm, usize, u64, u64, u64); 6] = [
    (Algorithm::RowWise, 1, 0x2dce55bf5935412c, 0x401775b36fb1dc5b, 0xd5fb260c36aa29f9),
    (Algorithm::RowWise, 3, 0xd753b5d3fc2737c1, 0x400a73550f2437dc, 0x484abf9841c7af44),
    (Algorithm::NetWise, 1, 0x2dce55bf5935412c, 0x401775b36fb1dc5c, 0x00c69ba00435aef0),
    (Algorithm::NetWise, 3, 0x0b19591bf13d6d9d, 0x4013035afb1d0ecb, 0xeaf431c4d4ad2bd4),
    (Algorithm::Hybrid, 1, 0x2dce55bf5935412c, 0x401775b36fb1dc5b, 0x3701b955fce3b089),
    (Algorithm::Hybrid, 3, 0x07fe24ca1dbf877e, 0x400a0c3d5fa5cf27, 0x37b0087eadd42336),
];

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
    let serial = outcome(&Run::plain(golden(Algorithm::Serial, 1)));
    let result = serial.result.as_ref().unwrap();
    assert_eq!(
        result_fingerprint(result),
        SERIAL_RESULT,
        "routing decisions"
    );
    assert_eq!(serial.time.to_bits(), SERIAL_CLOCK, "virtual clock");
    // The serial driver ignores `procs` and the net partition, and one
    // rank has no partition to be imbalanced.
    let kind = Some(PartitionKind::Center);
    let ignored = Run::new(golden(Algorithm::Serial, 3), Setup { kind, ..plain() });
    let out = outcome(&ignored);
    assert_eq!(out.result, serial.result, "{ignored}");
    assert_eq!(out.time.to_bits(), SERIAL_CLOCK, "{ignored}");
    assert_eq!(out.stats.len(), 1, "{ignored}: serial is one rank");
    assert!(out
        .metrics
        .iter()
        .all(|m| m.gauge(names::LOAD_IMBALANCE).is_none()));
    // Instrumentation off changes neither the result nor the clock.
    check(Relation::instrumented(vec![golden(Algorithm::Serial, 1)]));
}

#[test]
fn every_pipeline_matches_its_pre_refactor_fingerprints() {
    for (algo, procs, result_fp, time_bits, stats_fp) in GOLDEN {
        let cell = golden(algo, procs);
        let out = outcome(&Run::plain(cell));
        let result = out.result.as_ref().unwrap();
        assert_eq!(
            result_fingerprint(result),
            result_fp,
            "{cell}: routing decisions"
        );
        assert_eq!(out.time.to_bits(), time_bits, "{cell}: virtual makespan");
        assert_eq!(
            stats_fingerprint(&out.stats),
            stats_fp,
            "{cell}: per-rank stats"
        );
    }
}

#[test]
fn one_rank_parallel_runs_equal_the_serial_run() {
    let cells = grid([&cases().golden], &[1], &Algorithm::ALL);
    check(Relation::one_rank_is_serial(cells));
}

#[test]
fn clock_modes_agree_on_everything_but_wall_measurements() {
    check(Relation::wall_clock(one_and_three(&cases().golden)));
}

#[test]
fn repeated_runs_are_byte_identical() {
    let cells = grid([&cases().golden], &[3], &Algorithm::ALL);
    check(Relation::rerun(with(cells, plain())));
}
