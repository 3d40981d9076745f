//! Phase-window invariants over real routing runs.
//!
//! The engine opens a metric window at every phase boundary, so each
//! rank's shard carries per-phase slices of every counter and histogram.
//! Two contracts, per algorithm:
//!
//! * **Exact partition.** Window values sum (histograms: merge) exactly
//!   to the rank's cumulative totals — no record escapes phase scoping,
//!   none is double-counted.
//! * **Registry coverage.** Every window name is a registry phase, and
//!   all five TWGR phases (plus setup/assemble) appear on every rank.
//!
//! The same invariants must survive recovery: a kill schedule re-enters
//! phases, and the recovery counters land inside the window of the phase
//! whose boundary failed.

use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::{
    ChaosConfig, ChaosLayer, InstrumentConfig, MachineModel, MetricsConfig, Phase, RankMetrics,
    ReliabilityConfig,
};
use pgr_router::metrics::names;
use pgr_router::{route_parallel_guarded, Algorithm, GuardedOutcome, PartitionKind, RouterConfig};
use std::sync::Arc;

fn small(tag: &str) -> Circuit {
    generate(&GeneratorConfig::small(tag, 13))
}

fn metrics_on() -> InstrumentConfig {
    InstrumentConfig {
        metrics: MetricsConfig::on(),
        ..InstrumentConfig::off()
    }
}

fn route(
    circuit: &Circuit,
    algo: Algorithm,
    procs: usize,
    instr: InstrumentConfig,
) -> GuardedOutcome {
    route_parallel_guarded(
        circuit,
        &RouterConfig::with_seed(4),
        algo,
        PartitionKind::PinWeight,
        procs,
        MachineModel::sparc_center_1000(),
        instr,
    )
}

/// Every counter and histogram total must be exactly the sum/merge of
/// its per-window slices ([`RankMetrics::windows_partition_totals`]).
fn assert_windows_partition_totals(m: &RankMetrics, ctx: &str) {
    m.windows_partition_totals()
        .unwrap_or_else(|broken| panic!("{ctx}: {broken}"));
}

/// The checker is shown failing: a real shard doctored either way is
/// refused, and the error names the metric.
#[test]
fn doctored_shards_fail_the_partition_check_by_metric_name() {
    let out = route(
        &small("windows-doctored"),
        Algorithm::RowWise,
        3,
        metrics_on(),
    );
    let honest = &out.metrics[0];
    assert_eq!(honest.windows_partition_totals(), Ok(()));

    // A counter moved out of its window (recorded with no phase open).
    let mut escaped = honest.clone();
    let steiner = &mut escaped.windows[Phase::Steiner.index()];
    assert_eq!(steiner.0, Phase::Steiner.name());
    let held = steiner.1.counters.len();
    steiner.1.counters.retain(|(n, _)| n != names::NETS_OWNED);
    assert_eq!(steiner.1.counters.len(), held - 1, "steiner counts nets");
    let err = escaped.windows_partition_totals().unwrap_err();
    assert!(err.contains(names::NETS_OWNED), "{err}");

    // One observation moved to the next bucket in one window: count,
    // sum, min and max all still agree with the total.
    let mut skewed = honest.clone();
    let mut hists = skewed
        .windows
        .iter_mut()
        .flat_map(|(_, w)| &mut w.histograms);
    let (name, h) = hists.next().expect("a window holds a histogram");
    let full = h.buckets.iter().position(|&n| n > 0).expect("observed");
    h.buckets[full] -= 1;
    h.buckets[full + 1] += 1;
    let name = name.clone();
    let err = skewed.windows_partition_totals().unwrap_err();
    assert!(err.contains(&format!("histogram {name}")), "{err}");
}

fn assert_registry_coverage(m: &RankMetrics, ctx: &str) {
    for (name, _) in &m.windows {
        assert!(
            Phase::from_name(name).is_some(),
            "{ctx}: window {name} is not a registry phase"
        );
    }
    for phase in Phase::ALL {
        assert!(
            m.window(phase.name()).is_some(),
            "{ctx}: phase {phase} has no window"
        );
    }
}

#[test]
fn every_algorithm_emits_exactly_partitioned_phase_windows() {
    let c = small("windows");
    for algo in Algorithm::ALL {
        for procs in [1, 3] {
            let out = route(&c, algo, procs, metrics_on());
            for m in &out.metrics {
                let ctx = format!("{} P={procs} rank {}", algo.name(), m.rank);
                assert_registry_coverage(m, &ctx);
                assert_windows_partition_totals(m, &ctx);
            }
            // The instrumented TWGR phases carry their metrics in their
            // own windows (connect records no counters of its own).
            let merged = pgr_obs::merge_ranks(&out.metrics);
            for (phase, metric) in [
                (Phase::Steiner, names::NETS_OWNED),
                (Phase::Switchable, names::SEGMENTS_FLIPPED),
            ] {
                let w = merged.window(phase.name()).expect("window present");
                assert!(
                    w.counter(metric).is_some(),
                    "{} P={procs}: {metric} missing from the {phase} window",
                    algo.name()
                );
            }
            let ft = merged.window(Phase::Feedthrough.name()).unwrap();
            assert!(
                ft.histogram(names::FT_PER_ROW).is_some(),
                "{} P={procs}: feedthrough histogram is phase-scoped",
                algo.name()
            );
        }
    }
}

/// The step bodies are one body each (`route::serial::RouteState`), so at
/// P = 1 the drivers charge serial's virtual seconds bit for bit through
/// every phase they share with it: row-wise up to switchable, the hybrid
/// up to feedthrough (its own Connect ships fragments to itself), net-wise
/// wherever its replicated state does not slice a sweep at `sync_period`
/// (one `compute` per slice rounds differently from one per sweep — this
/// pins the default config's period). Assemble is excluded: the gather
/// re-applies every span, serial emits from the state it has.
#[test]
fn single_rank_drivers_charge_serials_phase_seconds_bit_for_bit() {
    use Phase::{Coarse, Connect, Feedthrough, Setup, Steiner, Switchable};
    let c = small("windows-p1");
    let phases_of = |algo| {
        let out = route(&c, algo, 1, InstrumentConfig::off());
        out.stats[0].phases.clone()
    };
    let serial = phases_of(Algorithm::Serial);
    assert_eq!(serial.len(), Phase::ALL.len(), "one entry a phase");
    let shared: [(Algorithm, &[Phase]); 3] = [
        (
            Algorithm::RowWise,
            &[Setup, Steiner, Coarse, Feedthrough, Connect, Switchable],
        ),
        (Algorithm::Hybrid, &[Setup, Steiner, Coarse, Feedthrough]),
        (Algorithm::NetWise, &[Setup, Steiner, Feedthrough, Connect]),
    ];
    for (algo, phases) in shared {
        let own = phases_of(algo);
        for phase in phases {
            let (name, seconds) = own[phase.index()];
            assert_eq!(name, phase.name());
            assert!(seconds > 0.0, "{} {phase}: charged nothing", algo.name());
            assert_eq!(
                seconds.to_bits(),
                serial[phase.index()].1.to_bits(),
                "{} P=1 {phase}: {seconds} vs serial {}",
                algo.name(),
                serial[phase.index()].1
            );
        }
    }
}

#[test]
fn recovery_counters_land_inside_a_phase_window() {
    let c = small("windows-kill");
    // Rank 3 dies entering the coarse phase; survivors re-enter earlier
    // phases, accumulating into the same windows.
    let mut cfg = ChaosConfig::messages_only(31);
    cfg.drop = 0.0;
    cfg.reorder = 0.0;
    cfg.duplicate = 0.0;
    cfg.delay = 0.0;
    cfg.kills = vec![(3, 2)];
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(cfg))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    for algo in Algorithm::ALL {
        let out = route(&c, algo, 4, instr.clone());
        let mut recoveries_in_windows = 0u64;
        for m in &out.metrics {
            let ctx = format!("{} rank {}", algo.name(), m.rank);
            assert_windows_partition_totals(m, &ctx);
            recoveries_in_windows += m
                .windows
                .iter()
                .filter_map(|(_, w)| w.counter(names::RECOVERY_EVENTS))
                .sum::<u64>();
        }
        assert!(
            recoveries_in_windows >= 1,
            "{}: recovery events are phase-scoped",
            algo.name()
        );
    }
}

/// Receive-side transport counters (acks, suppressed duplicates, parked
/// frames) are recorded when a frame *arrives*, which is host
/// scheduling — but into the window of the phase it was *sent* in, which
/// is not: the same seeded schedule must write the same dump every run.
#[test]
fn seeded_message_chaos_writes_the_same_dump_every_run() {
    let c = small("windows-chaos");
    let run = pgr_mpi::RunMeta::new(&c.name, "chaos", 4, "SparcCenter 1000", 1.0, 4);
    for algo in Algorithm::ALL {
        let dump = || {
            let instr = InstrumentConfig {
                metrics: MetricsConfig::on(),
                fault: Some(Arc::new(ChaosLayer::new(
                    ChaosConfig::messages_with_corruption(31),
                ))),
                reliability: ReliabilityConfig::on(),
                ..InstrumentConfig::off()
            };
            let out = route(&c, algo, 4, instr);
            for m in &out.metrics {
                let ctx = format!("{} under chaos, rank {}", algo.name(), m.rank);
                assert_windows_partition_totals(m, &ctx);
            }
            let acked = pgr_obs::merge_ranks(&out.metrics).counter(pgr_mpi::reliable::ACKS);
            assert!(acked.unwrap_or(0) > 0, "{}: the transport ran", algo.name());
            pgr_obs::metrics_json(&run, &out.metrics)
        };
        let first = dump();
        for _ in 0..3 {
            assert_eq!(dump(), first, "{}: dumps differ run to run", algo.name());
        }
    }
}
