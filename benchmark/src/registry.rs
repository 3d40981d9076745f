//! The benchmark's workloads and metrics: names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root says the same
//! thing to the driver; `tests/registry.rs` asserts the two are equal.

use crate::adapter::{Driver, InputKind};

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (≤ 200 characters).
    pub why: &'static str,
    pub input: InputKind,
    pub driver: Driver,
}

/// Closed loop, one route at a time. Two workloads share each code path
/// an optimisation is likely to touch, one that exercises it and one
/// that bypasses it: giant nets vs. small nets, transport vs. none,
/// payload messages vs. placeholder frames.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serial_avq_large",
        why: "paper's headline circuit, serial: baseline of every speedup; giant clock nets make Connect 55% of the work, transport does none",
        input: InputKind::AvqLarge,
        driver: Driver::Serial,
    },
    Workload {
        name: "serial_big_100k",
        why: "100k nets, 99.998% small, working set far beyond cache: coarse, feedthrough and per-net overhead dominate; a giant-net or small-instance win that costs small nets shows here",
        input: InputKind::Big100k,
        driver: Driver::Serial,
    },
    Workload {
        name: "hybrid_p2_avq_large",
        why: "paper's recommended algorithm at P=2: real payload messages (few, 8-16 MB per rank), about 30% of rank 0 in distribute + assemble",
        input: InputKind::AvqLarge,
        driver: Driver::HybridP2,
    },
    Workload {
        name: "netwise_p2_avq_half",
        why: "same transport used the other way at P=2: thousands of placeholder frames, sync dominates; transport does most of the work here, none in serial_*; half-scale avq.large (full takes 18 s a route)",
        input: InputKind::AvqLargeHalf,
        driver: Driver::NetWiseP2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Position of a workload's netlist among the distinct inputs: workloads
/// that share an input get the same generator seed,
/// `derive_seed(--seed, input_index)`.
pub fn input_index(input: InputKind) -> u64 {
    match input {
        InputKind::AvqLarge => 0,
        InputKind::Big100k => 1,
        InputKind::AvqLargeHalf => 2,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, per workload. All lower-is-better.
///
/// The two host times carry the widest bound the contract allows: on a
/// shared 2-vCPU host, back-to-back runs of one seed spread by 6–10 %,
/// and the spread must stay under a third of the bound. The three exact
/// metrics repeat bit for bit (the seed does not steer the router), so
/// their bounds only leave room for a deliberate, stated trade.
pub const END_TO_END: [Metric; 5] = [
    // Median host seconds of `from_text` on the workload's netlist text.
    e2e("setup_s", "s", 0.25),
    // Median host seconds of one route call, instrumentation off.
    e2e("route_s", "s", 0.25),
    // Peak live heap above the pre-route level during one route call.
    e2e("peak_heap_mb", "MB", 0.02),
    // `RoutingResult::track_count()` of the verified result.
    e2e("tracks", "tracks", 0.005),
    // Virtual makespan on the SparcCenter model: a fidelity guard (the
    // paper's runtime), not a host-performance target.
    e2e("virtual_s", "sim_s", 0.005),
];

/// Single layers (the crates), from the traced run. No bounds.
pub const PER_LAYER: [Metric; 63] = [
    // circuit
    lower("circuit.generate_s", "s"),
    lower("circuit.to_text_s", "s"),
    higher("circuit.from_text_mb_per_s", "MB/s"),
    lower("circuit.net_sweep_ns_per_pin", "ns"),
    lower("circuit.heap_mb", "MB"),
    // geom
    lower("geom.mst_prim.small_ns_per_net", "ns"),
    lower("geom.mst_adj.small_ns_per_net", "ns"),
    lower("geom.mst_prim.giant_ms", "ms"),
    lower("geom.mst_adj.giant_ms", "ms"),
    lower("geom.density.add_remove_ns", "ns"),
    lower("geom.density.max_if_added_ns", "ns"),
    lower("geom.shuffle_ns_per_item", "ns"),
    // core: route phases on the slowest rank
    lower("core.phase.setup.wall_s", "s"),
    lower("core.phase.steiner.wall_s", "s"),
    lower("core.phase.coarse.wall_s", "s"),
    lower("core.phase.feedthrough.wall_s", "s"),
    lower("core.phase.connect.wall_s", "s"),
    lower("core.phase.switchable.wall_s", "s"),
    lower("core.phase.assemble.wall_s", "s"),
    lower("core.phase.setup.virtual_s", "sim_s"),
    lower("core.phase.steiner.virtual_s", "sim_s"),
    lower("core.phase.coarse.virtual_s", "sim_s"),
    lower("core.phase.feedthrough.virtual_s", "sim_s"),
    lower("core.phase.connect.virtual_s", "sim_s"),
    lower("core.phase.switchable.virtual_s", "sim_s"),
    lower("core.phase.assemble.virtual_s", "sim_s"),
    lower("core.ops_charged", "count"),
    lower("core.host_ns_per_op", "ns"),
    lower("core.route_self_s", "s"),
    lower("core.segments", "count"),
    lower("core.result.wirelength", "count"),
    lower("core.result.feedthroughs", "count"),
    lower("core.result.spans", "count"),
    lower("core.result.chip_width", "count"),
    lower("core.verify.wall_s", "s"),
    // core: parallel drivers (1 on the serial workloads)
    lower("core.parallel.rank_wall_imbalance", "ratio"),
    lower("core.parallel.virtual_imbalance", "ratio"),
    lower("core.parallel.rank0_setup_assemble_share", "ratio"),
    higher("core.parallel.host_speedup", "ratio"),
    higher("core.parallel.virtual_speedup", "ratio"),
    // mpi: exact counts of the route (0 on the serial workloads)
    lower("mpi.msgs_sent", "count"),
    lower("mpi.bytes_sent", "B"),
    lower("mpi.max_rank_bytes_sent", "B"),
    lower("mpi.recv_wait_virtual_s", "sim_s"),
    lower("mpi.modeled_peak_mb", "MB"),
    // mpi: transport probes at P = 2, outside any route
    lower("mpi.probe.spawn_join_us", "us"),
    lower("mpi.probe.p2p_roundtrip_us", "us"),
    lower("mpi.probe.allgather_small_us", "us"),
    lower("mpi.probe.send_bytes_bulk_ns_per_byte", "ns/B"),
    lower("mpi.probe.reliable_bulk_ns_per_byte", "ns/B"),
    lower("mpi.probe.alltoall_bulk_ns_per_byte", "ns/B"),
    lower("mpi.probe.wire_encode_ns_per_record", "ns"),
    lower("mpi.probe.wire_decode_ns_per_record", "ns"),
    // mem: the counting allocator over the memory pass
    lower("mem.peak_heap_bytes", "B"),
    lower("mem.allocs", "count"),
    lower("mem.alloc_bytes", "B"),
    higher("mem.modeled_over_measured", "ratio"),
    // obs: what the program's own instrumentation costs
    lower("obs.trace_overhead_frac", "ratio"),
    lower("obs.full_trace_overhead_frac", "ratio"),
    lower("obs.metrics_json_ms", "ms"),
    lower("obs.metrics_json_kb", "kB"),
    // channel: off the route path today; the baseline for when it joins
    lower("channel.detailed_s", "s"),
    lower("channel.lea_tracks", "tracks"),
];

/// The phases of `pgr_obs::Phase::ALL`, by their dump names — the
/// `<p>` of `core.phase.<p>.wall_s`.
pub const PHASES: [&str; 7] = [
    "setup",
    "steiner",
    "coarse",
    "feedthrough",
    "connect",
    "switchable",
    "assemble",
];

pub fn phase_metric(phase: &str, suffix: &str) -> Option<&'static str> {
    let want = format!("core.phase.{phase}.{suffix}");
    PER_LAYER.iter().map(|m| m.name).find(|n| *n == want)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The driver's limits on `BENCHMARK.json`, applied to the registry at
/// start-up: charset and length of every name and unit, uniqueness, 2–8
/// workloads, ≤ 16 end-to-end and ≤ 128 per-layer metrics, bounds in
/// (0, 0.25], a `setup_s` in seconds.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, want 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, want 1 to 16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, want 1 to 128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for w in workloads {
        if !valid_name(w.name) {
            return Err(format!(
                "workload name '{}' is outside the allowed charset",
                w.name
            ));
        }
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload '{}': why must be one line of at most 200 characters",
                w.name
            ));
        }
        if !seen.insert(w.name) {
            return Err(format!("name '{}' is used twice", w.name));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_name(m.name) {
            return Err(format!(
                "metric name '{}' is outside the allowed charset",
                m.name
            ));
        }
        if !valid_unit(m.unit) {
            return Err(format!(
                "metric '{}': unit '{}' is outside the allowed charset",
                m.name, m.unit
            ));
        }
        if !seen.insert(m.name) {
            return Err(format!("name '{}' is used twice", m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            _ => {
                return Err(format!(
                    "end-to-end metric '{}' needs a bound in (0, 0.25]",
                    m.name
                ))
            }
        }
    }
    if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
        return Err(format!(
            "per-layer metric '{}' must not carry a bound",
            m.name
        ));
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
        _ => Err("one end-to-end metric must be setup_s, in s, lower-is-better".into()),
    }
}

/// `run_seconds` of `BENCHMARK.json`: how long the timed pass measures.
pub const RUN_SECONDS: f64 = 20.0;
