//! The only file of the benchmark that names router-crate items.
//!
//! Everything else in `benchmark/` speaks the plain types defined here,
//! so the refactors the ROADMAP plans (collapsing entry points, columnar
//! routing state, modeled transfers) touch this one file and the numbers
//! before and after them come from the same measuring code. It uses the
//! `Result`-returning entries (`try_route_serial`,
//! `route_parallel_guarded`, `run_instrumented`) and crate-root
//! re-exports plus the public `verify` / `detailed` / `metrics::names`
//! modules — nothing under `route::*` or `parallel::*`.
//!
//! No statistics here: functions do one unit of work and return what the
//! program's public report already says. The MPI probes are the one
//! exception — they time a loop *inside* rank 0, because the thread
//! spawn around it is a separate metric.

use pgr_circuit::format::{from_text, to_text};
use pgr_circuit::mcnc::Mcnc;
use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_geom::rng::rng_from_seed;
use pgr_geom::{mst_adjacency_limited, mst_prim, shuffled_indices, DensityProfile, Point};
use pgr_mpi::{
    run_instrumented, ClockMode, Comm, InstrumentConfig, MachineModel, RankMetrics, RankStats,
    ReliabilityConfig, Wire, RECV_WAIT_MICROS,
};
use pgr_obs::{metrics_json, RunMeta};
use pgr_router::metrics::names::SEGMENTS;
use pgr_router::{
    detailed, route_parallel_guarded, try_route_serial, verify, Algorithm, PartitionKind,
    RouterConfig, RoutingResult,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

pub use pgr_geom::derive_seed;
/// The repo's dependency-free JSON reader (`compare` and the registry
/// test read result files and `BENCHMARK.json` with it) and its string
/// escaper (the result file is written with it).
pub use pgr_obs::{json_escape, Json};

/// Ranks of the parallel workloads. Fixed at the host's core count: with
/// more ranks than cores the wall clock measures the scheduler.
pub const PROCS: usize = 2;

fn machine() -> MachineModel {
    MachineModel::sparc_center_1000()
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The three netlists the four workloads route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `Mcnc::AvqLarge`: 25 384 nets, 82 751 pins, 86 rows, clock nets of
    /// 2100 / 860 / 540 pins.
    AvqLarge,
    /// `Mcnc::AvqLarge.config_scaled(0.5)`: 12 695 nets, 41 376 pins, 43
    /// rows, clock nets of 1050 / 430 / 270 pins. Net-wise routing of the
    /// full circuit takes 18 s a call on the host — seven calls would
    /// not fit a run — and 1.7 s at half scale, with the same shape.
    AvqLargeHalf,
    /// The `repro big-circuit` shape at 100 000 nets: 113 rows, 351 500
    /// pins, clock nets 1000 / 500, locality 0.85.
    Big100k,
}

/// Nets of [`InputKind::Big100k`] at scale 1.
const BIG_NETS: f64 = 100_000.0;
/// Rows of the `repro big-circuit` shape at 200 000 nets; rows scale
/// with the square root of the net count (`tables::big_circuit`).
const BIG_ROWS_AT_200K: f64 = 160.0;

/// `pgr_bench::SEED`, the generator seed of `repro big-circuit`.
const BIG_SEED: u64 = 1997;

/// `seed: None` keeps the repo's own seeds: the MCNC clone's for the avq
/// inputs, `repro big-circuit`'s for the big one.
fn generator_config(kind: InputKind, seed: Option<u64>, scale: f64) -> GeneratorConfig {
    let avq = |scale: f64| {
        let cfg = if scale < 1.0 {
            Mcnc::AvqLarge.config_scaled(scale)
        } else {
            Mcnc::AvqLarge.config()
        };
        GeneratorConfig {
            seed: seed.unwrap_or(cfg.seed),
            ..cfg
        }
    };
    match kind {
        InputKind::AvqLarge => avq(scale),
        InputKind::AvqLargeHalf => avq(0.5 * scale),
        InputKind::Big100k => {
            let nets = ((BIG_NETS * scale).round() as usize).max(4_000);
            let rows =
                ((BIG_ROWS_AT_200K * (nets as f64 / 200_000.0).sqrt()).round() as usize).max(8);
            let clock_nets = vec![(nets / 100).max(64), (nets / 200).max(32)];
            let clock_pins: usize = clock_nets.iter().sum();
            GeneratorConfig {
                name: "big-synth".into(),
                rows,
                cells: nets.max(rows * 4),
                pins: nets * 3 + nets / 2 + clock_pins,
                nets,
                seed: seed.unwrap_or(BIG_SEED),
                cell_width: (4, 10),
                equivalent_fraction: 0.35,
                locality: 0.85,
                clock_nets,
            }
        }
    }
}

/// A circuit, either straight from the generator or parsed back from
/// netlist text. Only parsed circuits are routed: the program receives
/// the generated netlist text and nothing else.
pub struct Netlist(Circuit);

/// Size facts of a netlist, stamped into the result file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputFacts {
    pub nets: usize,
    pub pins: usize,
    pub cells: usize,
    pub rows: usize,
    pub width: i64,
}

pub fn generate_input(kind: InputKind, seed: Option<u64>, scale: f64) -> Netlist {
    Netlist(generate(&generator_config(kind, seed, scale)))
}

pub fn netlist_text(n: &Netlist) -> String {
    to_text(&n.0)
}

/// Appends four hex digits drawn from `seed` to every net name of a v1
/// netlist text (`net <name> <pin> …`). Names are the one part of a
/// netlist the router never reads, so the text differs with the seed —
/// the parser interns different strings — and the routing problem does
/// not. The byte count is the same for every seed.
pub fn salt_net_names(text: &str, seed: u64) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    for (i, line) in text.lines().enumerate() {
        match line
            .strip_prefix("net ")
            .and_then(|rest| rest.split_once(' '))
        {
            Some((name, pins)) => {
                let salt = derive_seed(seed, i as u64) & 0xffff;
                let _ = writeln!(out, "net {name}_{salt:04x} {pins}");
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// `pgr_circuit::format::from_text`: parse + validate into the columnar
/// store — what every `pgr route FILE` pays before routing.
pub fn parse_netlist(text: &str) -> Result<Netlist, String> {
    from_text(text).map(Netlist).map_err(|e| e.to_string())
}

impl Netlist {
    pub fn facts(&self) -> InputFacts {
        InputFacts {
            nets: self.0.num_nets(),
            pins: self.0.num_pins(),
            cells: self.0.num_cells(),
            rows: self.0.num_rows(),
            width: self.0.width,
        }
    }

    /// The per-net sweep every driver's Steiner loop does: chunk by
    /// chunk, `net_pins` then a batch `pin_points_into`. Returns a
    /// checksum of the visited points so the sweep cannot be elided.
    pub fn net_sweep(&self) -> i64 {
        let mut points: Vec<Point> = Vec::new();
        let mut sum = 0i64;
        for chunk in self.0.nets_chunks() {
            for net in chunk.net_ids() {
                points.clear();
                self.0.pin_points_into(self.0.net_pins(net), &mut points);
                for p in &points {
                    sum = sum.wrapping_add(p.x ^ p.y);
                }
            }
        }
        sum
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// How a workload drives the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `try_route_serial` under `run_instrumented(1, …)`.
    Serial,
    /// `Algorithm::Hybrid`, `PartitionKind::PinWeight`, [`PROCS`] ranks.
    HybridP2,
    /// `Algorithm::NetWise`, `PartitionKind::PinWeight`, [`PROCS`] ranks.
    NetWiseP2,
}

impl Driver {
    /// The parallel algorithm, or `None` for the serial router.
    fn algorithm(self) -> Option<Algorithm> {
        match self {
            Driver::Serial => None,
            Driver::HybridP2 => Some(Algorithm::Hybrid),
            Driver::NetWiseP2 => Some(Algorithm::NetWise),
        }
    }
}

/// What the program records about itself during a route call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `ClockMode::Virtual`, `InstrumentConfig::off()`: the timed and
    /// memory passes.
    Off,
    /// `ClockMode::Wall` + `InstrumentConfig::metered()`: the traced pass.
    Metered,
    /// `ClockMode::Wall` + `InstrumentConfig::full()`: event rings too.
    Full,
}

/// One phase of one rank, as `RankStats` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRun {
    pub name: &'static str,
    pub virtual_s: f64,
    /// Host seconds; `None` outside `ClockMode::Wall`.
    pub wall_s: Option<f64>,
}

/// One rank of one route call, as `RankStats` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRun {
    pub virtual_s: f64,
    pub ops: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// High-water mark of *modeled* memory (`charge_alloc`).
    pub modeled_peak_bytes: u64,
    /// Host seconds from the run's shared epoch to this rank's finish.
    pub wall_s: Option<f64>,
    pub phases: Vec<PhaseRun>,
}

/// A routed solution. Opaque; equality is `RoutingResult`'s (every span).
#[derive(Debug, Clone, PartialEq)]
pub struct Routed(RoutingResult);

impl Routed {
    pub fn tracks(&self) -> i64 {
        self.0.track_count()
    }
    pub fn wirelength(&self) -> u64 {
        self.0.wirelength
    }
    pub fn feedthroughs(&self) -> u64 {
        self.0.feedthroughs
    }
    pub fn spans(&self) -> usize {
        self.0.span_count()
    }
    pub fn chip_width(&self) -> i64 {
        self.0.chip_width
    }
}

/// Everything one route call returned.
pub struct RouteRun {
    pub routed: Routed,
    pub ranks: Vec<RankRun>,
    /// Σ over ranks of the `mpi.recv_wait_micros` counter, in virtual
    /// seconds (0 unless metrics were on).
    pub recv_wait_virtual_s: f64,
    /// Σ over ranks of the `route.segments` counter (0 unless metrics
    /// were on).
    pub segments: u64,
    meta: RunMeta,
    metrics: Vec<RankMetrics>,
}

impl RouteRun {
    /// `pgr_obs::metrics_json` of this run's shards — the `*.metrics.json`
    /// dump `--trace-out` runs write.
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.meta, &self.metrics)
    }
}

fn rank_run(s: &RankStats) -> RankRun {
    RankRun {
        virtual_s: s.time,
        ops: s.ops,
        msgs_sent: s.msgs_sent,
        bytes_sent: s.bytes_sent,
        modeled_peak_bytes: s.peak_mem,
        wall_s: s.wall.as_ref().map(|w| w.time),
        phases: s
            .phases
            .iter()
            .enumerate()
            .map(|(i, &(name, virtual_s))| PhaseRun {
                name,
                virtual_s,
                wall_s: s.wall.as_ref().map(|w| w.phases[i]),
            })
            .collect(),
    }
}

/// One route call. `Err` carries the program's structured error text; a
/// panic inside the program propagates (the caller catches it).
pub fn route(
    netlist: &Netlist,
    driver: Driver,
    seed: u64,
    observe: Observe,
) -> Result<RouteRun, String> {
    let (clock, instr) = match observe {
        Observe::Off => (ClockMode::Virtual, InstrumentConfig::off()),
        Observe::Metered => (ClockMode::Wall, InstrumentConfig::metered()),
        Observe::Full => (ClockMode::Wall, InstrumentConfig::full()),
    };
    let instr = InstrumentConfig { clock, ..instr };
    let cfg = RouterConfig {
        clock,
        ..RouterConfig::with_seed(seed)
    };
    let circuit = &netlist.0;
    let (result, stats, metrics) = match driver.algorithm() {
        None => {
            let (mut report, _traces, metrics) = run_instrumented(1, machine(), instr, |comm| {
                try_route_serial(circuit, &cfg, comm)
            });
            (report.results.remove(0), report.stats, metrics)
        }
        Some(algorithm) => {
            let out = route_parallel_guarded(
                circuit,
                &cfg,
                algorithm,
                PartitionKind::PinWeight,
                PROCS,
                machine(),
                instr,
            );
            (out.result, out.stats, out.metrics)
        }
    };
    let routed = Routed(result.map_err(|e| e.to_string())?);
    Ok(RouteRun {
        routed,
        ranks: stats.iter().map(rank_run).collect(),
        recv_wait_virtual_s: metrics
            .iter()
            .filter_map(|m| m.counter(RECV_WAIT_MICROS))
            .sum::<u64>() as f64
            * 1e-6,
        segments: metrics.iter().filter_map(|m| m.counter(SEGMENTS)).sum(),
        meta: RunMeta {
            circuit: circuit.name.clone(),
            algorithm: driver.algorithm().map_or("serial", Algorithm::name).into(),
            procs: stats.len(),
            machine: machine().name.into(),
            scale: 1.0,
            seed,
            degraded: false,
            clock: if clock == ClockMode::Wall {
                "wall".into()
            } else {
                "virtual".into()
            },
            scenario: String::new(),
            budget_degraded: false,
        },
        metrics,
    })
}

/// `verify::verify`: the independent re-check of a result against the
/// netlist it claims to route. Returns the violations, rendered.
pub fn verify_route(netlist: &Netlist, routed: &Routed) -> Vec<String> {
    verify::verify(&netlist.0, &routed.0)
        .iter()
        .map(|v| v.to_string())
        .collect()
}

/// `detailed::route_channels`: left-edge track assignment of every
/// channel. Returns the LEA track count, or `Err` if any channel shorts.
pub fn detailed_route(routed: &Routed) -> Result<usize, String> {
    let d = detailed::route_channels(&routed.0);
    if d.validate() {
        Ok(d.track_count())
    } else {
        Err("left-edge assignment put two nets on one track segment".into())
    }
}

// ---------------------------------------------------------------------
// Geometry probes: the leaf kernels, on this workload's own nets
// ---------------------------------------------------------------------

/// Nets of at most this many pins are "small" (99.9 % of every input).
const SMALL_NET_MAX_PINS: usize = 8;
/// Nets of more than this many pins are "giant" (the clock nets).
const GIANT_NET_ABOVE_PINS: usize = 256;
/// Small nets probed per pass (a prefix of the netlist's small nets).
const SMALL_NET_SAMPLE: usize = 20_000;
/// Spans fed to the density probes per pass (a prefix of the result's).
const DENSITY_SPAN_SAMPLE: usize = 20_000;

/// Pin positions of one net, and their rows as the adjacency-limited MST
/// wants them.
struct NetPoints {
    points: Vec<Point>,
    rows: Vec<i64>,
}

/// Kernel inputs drawn from one workload's netlist and verified result.
pub struct GeomInputs {
    small: Vec<NetPoints>,
    giant: Vec<NetPoints>,
    /// `(lo, hi)` of real routed spans.
    spans: Vec<(i64, i64)>,
    chip_width: usize,
}

impl GeomInputs {
    pub fn collect(netlist: &Netlist, routed: &Routed) -> GeomInputs {
        let c = &netlist.0;
        let mut small = Vec::new();
        let mut giant = Vec::new();
        for chunk in c.nets_chunks() {
            for net in chunk.net_ids() {
                let pins = c.net_pins(net);
                let keep_small = pins.len() <= SMALL_NET_MAX_PINS && small.len() < SMALL_NET_SAMPLE;
                if !keep_small && pins.len() <= GIANT_NET_ABOVE_PINS {
                    continue;
                }
                let mut points = Vec::new();
                c.pin_points_into(pins, &mut points);
                let rows = points.iter().map(|p| p.y).collect();
                let np = NetPoints { points, rows };
                if keep_small {
                    small.push(np);
                } else {
                    giant.push(np);
                }
            }
        }
        GeomInputs {
            small,
            giant,
            spans: routed
                .0
                .spans
                .iter()
                .take(DENSITY_SPAN_SAMPLE)
                .map(|s| (s.lo, s.hi))
                .collect(),
            chip_width: routed.0.chip_width.max(1) as usize,
        }
    }

    pub fn small_nets(&self) -> usize {
        self.small.len()
    }
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// `mst_prim` over every sampled net of one class; returns the total
    /// tree weight.
    pub fn mst_prim_pass(&self, giant: bool) -> u64 {
        let nets = if giant { &self.giant } else { &self.small };
        nets.iter()
            .flat_map(|n| mst_prim(&n.points))
            .map(|e| e.weight)
            .sum()
    }

    /// `mst_adjacency_limited` (Connect's kernel) over every sampled net
    /// of one class; returns the total tree weight.
    pub fn mst_adjacent_pass(&self, giant: bool) -> u64 {
        let nets = if giant { &self.giant } else { &self.small };
        nets.iter()
            .flat_map(|n| mst_adjacency_limited(&n.points, &n.rows).edges)
            .map(|e| e.weight)
            .sum()
    }

    /// A chip-wide `DensityProfile` holding every sampled span — the
    /// state the density probes query.
    pub fn loaded_profile(&self) -> Profile {
        let mut p = DensityProfile::new(self.chip_width);
        for &(lo, hi) in &self.spans {
            p.add_span(lo, hi, 1);
        }
        Profile(p)
    }

    /// Remove and re-add every sampled span (`add_span` twice per span).
    pub fn density_add_remove_pass(&self, profile: &mut Profile) -> i64 {
        for &(lo, hi) in &self.spans {
            profile.0.add_span(lo, hi, -1);
            profile.0.add_span(lo, hi, 1);
        }
        profile.0.max()
    }

    /// `max_if_added` once per sampled span.
    pub fn density_query_pass(&self, profile: &Profile) -> i64 {
        self.spans
            .iter()
            .map(|&(lo, hi)| profile.0.max_if_added(lo, hi))
            .sum()
    }
}

/// An opaque `DensityProfile`.
pub struct Profile(DensityProfile);

/// `shuffled_indices(n)` — the random segment order of the coarse and
/// switchable phases.
pub fn shuffle_pass(n: usize, seed: u64) -> u32 {
    let mut rng = rng_from_seed(seed);
    shuffled_indices(n, &mut rng).first().copied().unwrap_or(0)
}

// ---------------------------------------------------------------------
// Transport probes: `pgr-mpi` at P = 2, outside any route
// ---------------------------------------------------------------------

/// Bytes per bulk frame: the net-wise snapshot pattern ships placeholder
/// frames of this order on every sync.
pub const BULK_FRAME_BYTES: usize = 256 * 1024;
const PROBE_TAG: u32 = 7;

fn probe_instr(reliable: bool) -> InstrumentConfig {
    InstrumentConfig {
        reliability: if reliable {
            ReliabilityConfig::on()
        } else {
            ReliabilityConfig::off()
        },
        ..InstrumentConfig::off()
    }
}

/// Spawn [`PROCS`] ranks that do nothing, and join them.
pub fn mpi_spawn_join() {
    run_instrumented(PROCS, machine(), probe_instr(false), |comm| {
        black_box(comm.rank());
    });
}

/// Runs `body(comm, iters)` on every rank between two barriers and
/// returns rank 0's host seconds for the loop — spawn and join excluded.
fn timed_on_rank0<F>(reliable: bool, body: F) -> f64
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let (report, _, _) = run_instrumented(PROCS, machine(), probe_instr(reliable), |comm| {
        comm.barrier();
        let t = Instant::now();
        body(comm);
        comm.barrier();
        t.elapsed().as_secs_f64()
    });
    report.results[0]
}

/// `iters` 8-byte ping-pongs between rank 0 and rank 1.
pub fn mpi_p2p_roundtrips(iters: usize) -> f64 {
    timed_on_rank0(false, |comm| {
        for i in 0..iters as u64 {
            if comm.rank() == 0 {
                comm.send(1, PROBE_TAG, &i);
                black_box(comm.recv::<u64>(1, PROBE_TAG));
            } else {
                let v: u64 = comm.recv(0, PROBE_TAG);
                comm.send(0, PROBE_TAG, &v);
            }
        }
    })
}

/// `iters` allgathers of one `u64` per rank.
pub fn mpi_allgathers(iters: usize) -> f64 {
    timed_on_rank0(false, |comm| {
        for i in 0..iters as u64 {
            black_box(comm.allgather(i));
        }
    })
}

/// `frames` zero-filled [`BULK_FRAME_BYTES`] frames from rank 0 to rank 1
/// through `send_bytes` — with the reliable transport on or off.
pub fn mpi_bulk_frames(frames: usize, reliable: bool) -> f64 {
    timed_on_rank0(reliable, |comm| {
        for _ in 0..frames {
            if comm.rank() == 0 {
                comm.send_bytes(1, PROBE_TAG, vec![0u8; BULK_FRAME_BYTES]);
            } else {
                black_box(comm.recv_bytes(0, PROBE_TAG));
            }
        }
    })
}

/// `iters` alltoalls where every rank sends [`BULK_FRAME_BYTES`] to every
/// rank — the hybrid's segment exchange pattern.
pub fn mpi_bulk_alltoalls(iters: usize) -> f64 {
    timed_on_rank0(false, |comm| {
        for _ in 0..iters {
            let data = vec![vec![0u64; BULK_FRAME_BYTES / 8]; PROCS];
            black_box(comm.alltoall(data));
        }
    })
}

/// The result's span list — the assemble phase's real payload — for the
/// `Wire` probes.
pub struct WireInputs<'a>(&'a Routed);

/// Decodes a `T` from `bytes`; `_like` only fixes the type, so the span
/// record never has to be named here.
fn decode_like<T: Wire>(_like: &T, bytes: &[u8]) -> Option<T> {
    T::from_bytes(bytes).ok()
}

impl<'a> WireInputs<'a> {
    pub fn new(routed: &'a Routed) -> Self {
        WireInputs(routed)
    }
    pub fn records(&self) -> usize {
        self.0 .0.spans.len()
    }
    pub fn encode(&self) -> Vec<u8> {
        self.0 .0.spans.to_bytes()
    }
    /// Decodes `bytes`; returns how many records came out.
    pub fn decode(&self, bytes: &[u8]) -> usize {
        decode_like(&self.0 .0.spans, bytes).map_or(0, |spans| spans.len())
    }
    /// Whether `bytes` decodes to exactly the records that were encoded.
    pub fn round_trips(&self, bytes: &[u8]) -> bool {
        decode_like(&self.0 .0.spans, bytes).is_some_and(|spans| spans == self.0 .0.spans)
    }
}
