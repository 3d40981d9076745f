//! Regeneration of the paper's tables and figures.
//!
//! Table 1  — circuit characteristics.
//! Table 2 / Figure 4 — row-wise pin partition: scaled tracks + speedups.
//! Table 3 / Figure 5 — net-wise pin partition: scaled tracks + speedups.
//! Table 4 / Figure 6 — hybrid pin partition: scaled tracks + speedups.
//! Table 5  — hybrid, absolute results on the SMP and DMP machine models.
//! Extras   — §5 partition ablation, net-wise sync-period sweep,
//!            machine-model sensitivity, the net-wise sync-protocol and
//!            Steiner-refinement ablations, per-phase time breakdowns,
//!            detailed channel-routing validation, and communication
//!            matrices (all beyond the paper's own tables).

use crate::{circuits, fmt_secs, SEED};
use pgr_circuit::Circuit;
use pgr_mpi::trace::{chrome_trace_json, chrome_trace_with_path, stats_json, RankTrace};
use pgr_mpi::{
    build_profile, run_instrumented, ChaosConfig, ChaosLayer, ClockMode, InstrumentConfig,
    MachineModel, MetricsConfig, RankMetrics, RankStats, ReliabilityConfig, RunMeta,
};
use pgr_obs::{budget_names, metrics_json, recovery_names, BlameClass, Profile};
use pgr_router::metrics::names;
use pgr_router::verify::assert_verified;
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, GuardedOutcome, PartitionKind,
    RecoveryPolicy, RouterConfig, RoutingResult,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Circuit scale: 1.0 = the paper's full sizes.
    pub scale: f64,
    /// Restrict to these circuit names (None = all six).
    pub filter: Option<Vec<String>>,
    /// Directory to write per-run Chrome traces and stats JSON into
    /// (`--trace-out`). None = tracing off, zero overhead.
    pub trace_out: Option<PathBuf>,
    /// `chaos` target: recovery-round budget override (`--max-rounds`).
    pub max_rounds: Option<u32>,
    /// `chaos` target: surviving-rank floor override (`--min-ranks`).
    pub min_ranks: Option<usize>,
    /// `chaos` target: kill-schedule override (`--kill R@B`, repeatable)
    /// as `(rank, phase-boundary index)`; boundaries are validated
    /// against the [`pgr_mpi::Phase`] registry at parse time. Empty =
    /// the default one-kill schedule.
    pub kills: Vec<(usize, usize)>,
    /// `stress` target: restrict to these adversarial families
    /// (`--family NAME`, repeatable; validated against the
    /// [`pgr_circuit::scenarios::ScenarioFamily`] registry at parse
    /// time). None = the full registry.
    pub families: Option<Vec<String>>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            filter: None,
            trace_out: None,
            max_rounds: None,
            min_ranks: None,
            kills: Vec::new(),
            families: None,
        }
    }
}

impl Opts {
    /// Full instrumentation (trace + metrics) when `--trace-out` is set;
    /// everything off — and allocation-free — otherwise.
    fn instrument(&self) -> InstrumentConfig {
        if self.trace_out.is_some() {
            InstrumentConfig::full()
        } else {
            InstrumentConfig::off()
        }
    }

    /// The run descriptor stamped into every artifact of this harness.
    fn run_meta(
        &self,
        circuit: &str,
        algorithm: &str,
        procs: usize,
        machine: &MachineModel,
    ) -> RunMeta {
        RunMeta::new(circuit, algorithm, procs, machine.name, self.scale, SEED)
    }
}

/// Write one run's artifacts into `dir` (created if missing): the Chrome
/// trace (`<label>.trace.json`, for `chrome://tracing` / Perfetto), the
/// per-rank stats (`<label>.stats.json`), and — when metric shards were
/// collected — the per-rank metrics (`<label>.metrics.json`). Returns
/// the trace path.
pub fn write_traces(
    dir: &Path,
    label: &str,
    traces: &[RankTrace],
    stats: &[RankStats],
    machine: &MachineModel,
    run: &RunMeta,
    metrics: &[RankMetrics],
) -> std::io::Result<PathBuf> {
    write_dumps(
        dir,
        label,
        chrome_trace_json(traces),
        stats,
        machine,
        run,
        metrics,
    )
}

/// [`write_traces`] with the Chrome trace already rendered (the profile
/// target writes an annotated one).
fn write_dumps(
    dir: &Path,
    label: &str,
    trace_json: String,
    stats: &[RankStats],
    machine: &MachineModel,
    run: &RunMeta,
    metrics: &[RankMetrics],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join(format!("{label}.trace.json"));
    std::fs::write(&trace_path, trace_json)?;
    std::fs::write(
        dir.join(format!("{label}.stats.json")),
        stats_json(stats, machine, run),
    )?;
    if !metrics.is_empty() {
        std::fs::write(
            dir.join(format!("{label}.metrics.json")),
            metrics_json(run, metrics),
        )?;
    }
    Ok(trace_path)
}

/// Where one run's artifacts go: `(dir, label, run descriptor)`.
type Emit<'a> = Option<(&'a Path, &'a str, RunMeta)>;

/// [`write_traces`] when `--trace-out` is set; a failed write warns on
/// stderr and the harness carries on.
fn emit_traces(
    emit: Emit<'_>,
    traces: &[RankTrace],
    stats: &[RankStats],
    machine: &MachineModel,
    metrics: &[RankMetrics],
) {
    if let Some((dir, label, run)) = emit {
        if let Err(e) = write_traces(dir, label, traces, stats, machine, &run, metrics) {
            eprintln!("trace write failed for {label}: {e}");
        }
    }
}

/// One cell of a reproduction table, end to end: run the serial router
/// (`driver = None`) or a parallel algorithm (`Some((algorithm, net
/// partition, ranks))`) on `machine`, verify a completed route against
/// the circuit, and — given an `emit` destination — write the run's
/// trace/stats/metrics artifacts, stamped with what the run turned out
/// to be (`degraded`, `budget_degraded`, the clock mode).
///
/// Both arms take their clock from `cfg.clock`, whatever `instr.clock`
/// says: the router config owns the clock strategy, so a serial cell and
/// a parallel cell built from one `cfg` measure the same way. A budget
/// breach comes back in `result` as the structured error; the partial
/// run's artifacts are still written.
pub fn run_cell(
    circuit: &Circuit,
    cfg: &RouterConfig,
    driver: Option<(Algorithm, PartitionKind, usize)>,
    machine: MachineModel,
    instr: InstrumentConfig,
    emit: Option<(&Path, &str, RunMeta)>,
) -> GuardedOutcome {
    let out = match driver {
        Some((algorithm, kind, procs)) => {
            route_parallel_guarded(circuit, cfg, algorithm, kind, procs, machine, instr)
        }
        None => {
            let instr = InstrumentConfig {
                clock: cfg.clock,
                ..instr
            };
            let (mut report, traces, metrics) = run_instrumented(1, machine, instr, |comm| {
                try_route_serial(circuit, cfg, comm)
            });
            let counted = |name| metrics.iter().any(|m| m.counter(name).unwrap_or(0) > 0);
            GuardedOutcome {
                result: report.results.remove(0),
                time: report.makespan(),
                wall_time: report.wall_makespan(),
                fits_memory: report.fits_memory(),
                degraded: counted(names::DEGRADED_SERIAL),
                budget_degraded: counted(budget_names::SHED_EVENTS),
                stats: report.stats,
                traces,
                metrics,
            }
        }
    };
    if let Ok(result) = &out.result {
        assert_verified(circuit, result);
    }
    let emit = emit.map(|(dir, label, mut run)| {
        run.degraded = out.degraded;
        run.budget_degraded = out.budget_degraded;
        if cfg.clock == ClockMode::Wall {
            run.clock = "wall".into();
        }
        (dir, label, run)
    });
    emit_traces(emit, &out.traces, &out.stats, &machine, &out.metrics);
    out
}

/// The uninstrumented serial cell every speedup and scaled-track column
/// of `circuit` is relative to.
fn serial_base(circuit: &Circuit, cfg: &RouterConfig, machine: MachineModel) -> GuardedOutcome {
    run_cell(circuit, cfg, None, machine, InstrumentConfig::off(), None)
}

/// An uninstrumented parallel cell under the default net partition.
fn plain_cell(
    circuit: &Circuit,
    cfg: &RouterConfig,
    algo: Algorithm,
    procs: usize,
    machine: MachineModel,
) -> GuardedOutcome {
    let driver = Some((algo, PartitionKind::PinWeight, procs));
    run_cell(circuit, cfg, driver, machine, InstrumentConfig::off(), None)
}

/// The route of a cell that cannot breach (no budget armed).
fn routed(out: &GuardedOutcome) -> &RoutingResult {
    out.result.as_ref().expect("an unbudgeted cell routes")
}

impl Opts {
    /// Artifact destination of one cell: `None` without `--trace-out`.
    fn emit<'a>(&'a self, label: &'a str, run: RunMeta) -> Emit<'a> {
        self.trace_out.as_deref().map(|dir| (dir, label, run))
    }

    /// A table cell under the default net partition, instrumented per
    /// `--trace-out` with its artifacts written as `label`: serial
    /// (`None`) or `(algorithm, ranks)`.
    fn traced_cell(
        &self,
        c: &Circuit,
        cfg: &RouterConfig,
        algo: Option<(Algorithm, usize)>,
        machine: MachineModel,
        label: &str,
    ) -> GuardedOutcome {
        let (name, procs) = algo.map_or(("serial", 1), |(a, p)| (a.name(), p));
        let run = self.run_meta(&c.name, name, procs, &machine);
        let driver = algo.map(|(a, p)| (a, PartitionKind::PinWeight, p));
        let (instr, emit) = (self.instrument(), self.emit(label, run));
        run_cell(c, cfg, driver, machine, instr, emit)
    }

    fn circuits(&self) -> Vec<Circuit> {
        circuits(self.scale, self.filter.as_deref())
    }

    fn note_scale(&self) {
        if self.scale < 1.0 {
            println!(
                "(circuits scaled to {:.0} % of the paper's sizes)",
                self.scale * 100.0
            );
        }
    }
}

fn cfg() -> RouterConfig {
    RouterConfig::with_seed(SEED)
}

/// Clamp a rank count to the circuit's row count (row partitions need at
/// least one row per rank).
fn clamp_procs(p: usize, circuit: &Circuit) -> usize {
    p.min(circuit.num_rows())
}

/// Table 1: characteristics of the test circuits.
pub fn table1(opts: &Opts) {
    println!("Table 1: Characteristics of test circuits");
    opts.note_scale();
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "circuit", "rows", "pins", "cells", "nets", "max net deg"
    );
    for c in opts.circuits() {
        let s = c.stats();
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
            s.name, s.rows, s.pins, s.cells, s.nets, s.max_net_degree
        );
    }
    println!();
}

/// Tables 2–4 + Figures 4–6: scaled track quality and speedups of one
/// algorithm on the SparcCenter 1000 model, P ∈ {1, 2, 4, 8}.
pub fn quality_and_speedup(algo: Algorithm, opts: &Opts) {
    let (tno, fno) = match algo {
        Algorithm::RowWise => (2, 4),
        Algorithm::NetWise => (3, 5),
        Algorithm::Hybrid => (4, 6),
    };
    let machine = MachineModel::sparc_center_1000();
    let procs = [1usize, 2, 4, 8];
    let cfg = cfg();

    println!(
        "Table {tno}: Scaled track results of the {} pin partition algorithm",
        algo.name()
    );
    opts.note_scale();
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "1 proc", "2 procs", "4 procs", "8 procs"
    );
    let mut speedups: Vec<(String, Vec<f64>)> = Vec::new();
    for c in opts.circuits() {
        // Instrumented under `--trace-out` (observation is free in
        // virtual time), so the aggregator gets the `algorithm="serial"`
        // record every speedup is scaled to.
        let base = opts.traced_cell(&c, &cfg, None, machine, &format!("{}_serial", c.name));
        let mut row = format!("{:<12}", c.name);
        let mut sp = Vec::new();
        for &p in &procs {
            let p = clamp_procs(p, &c);
            let label = format!("{}_{}_p{}", c.name, algo.name(), p);
            let out = opts.traced_cell(&c, &cfg, Some((algo, p)), machine, &label);
            row.push_str(&format!(
                " {:>8.3}",
                routed(&out).scaled_tracks(routed(&base))
            ));
            sp.push(base.time / out.time);
        }
        println!("{row}");
        speedups.push((c.name.clone(), sp));
    }
    println!();
    println!(
        "Figure {fno}: Speedup results of the {} pin partition algorithm",
        algo.name()
    );
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "1 proc", "2 procs", "4 procs", "8 procs"
    );
    let mut avg = vec![0.0; procs.len()];
    for (name, sp) in &speedups {
        let mut row = format!("{:<12}", name);
        for (i, s) in sp.iter().enumerate() {
            row.push_str(&format!(" {s:>8.2}"));
            avg[i] += s / speedups.len() as f64;
        }
        println!("{row}");
    }
    let mut row = format!("{:<12}", "average");
    for a in &avg {
        row.push_str(&format!(" {a:>8.2}"));
    }
    println!("{row}");
    println!();
}

/// Table 5: the hybrid algorithm's absolute results (track count, area,
/// simulated runtime, speedup) on both platform models. A serial run
/// whose modeled working set exceeds the Paragon's 32 MB/node is marked
/// `mem>32MB` and its speedups carry a `*` (computed against the
/// simulated serial time, which the hardware could not have produced —
/// the paper extrapolated those entries the same way).
pub fn table5(opts: &Opts) {
    let cfg = cfg();
    println!("Table 5: Hybrid pin partition results on both platforms");
    opts.note_scale();
    for (machine, procs) in [
        (MachineModel::sparc_center_1000(), vec![1usize, 4, 8]),
        (MachineModel::intel_paragon(), vec![1usize, 8, 16]),
    ] {
        println!("--- {} ---", machine.name);
        println!(
            "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "circuit", "procs", "tracks", "area", "time(s)", "speedup", "sc.trk", "sc.area"
        );
        for c in opts.circuits() {
            let base = serial_base(&c, &cfg, machine);
            let (base_result, serial_fits) = (routed(&base), base.fits_memory);
            let star = if serial_fits { "" } else { "*" };
            // Serial row.
            println!(
                "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
                c.name,
                1,
                base_result.track_count(),
                base_result.area(),
                if serial_fits {
                    fmt_secs(base.time)
                } else {
                    "mem>32MB".to_string()
                },
                "1.00",
                "1.000",
                "1.000"
            );
            for &p in procs.iter().skip(1) {
                let p = clamp_procs(p, &c);
                let out = plain_cell(&c, &cfg, Algorithm::Hybrid, p, machine);
                let result = routed(&out);
                let mem_note = if out.fits_memory { "" } else { "!" };
                println!(
                    "{:<12} {:>6} {:>9} {:>12} {:>9} {:>8}{}{} {:>9.3} {:>9.3}",
                    "",
                    p,
                    result.track_count(),
                    result.area(),
                    format!("{}{}", fmt_secs(out.time), mem_note),
                    format!("{:.2}", base.time / out.time),
                    star,
                    if star.is_empty() { " " } else { "" },
                    result.scaled_tracks(base_result),
                    result.scaled_area(base_result),
                );
            }
        }
    }
    println!(
        "(*: serial run exceeds the Paragon's 32 MB/node — speedup vs. simulated serial time)"
    );
    println!();
}

/// Big-circuit smoke: generate a synthetic circuit an order of magnitude
/// beyond the paper's largest (~200k nets at scale 1.0) and route it
/// serially, proving the chunked columnar store and the per-net sweep
/// paths hold up past the MCNC sizes. Prints the chunk count so CI can
/// gate that the chunked path (not a single degenerate chunk) was
/// exercised.
pub fn big_circuit(opts: &Opts) {
    use pgr_circuit::{generate, GeneratorConfig, NET_CHUNK_SIZE};

    let nets = ((200_000f64 * opts.scale).round() as usize).max(4_000);
    let rows = ((160f64 * opts.scale.sqrt()).round() as usize).max(8);
    let clock_nets = vec![(nets / 100).max(64), (nets / 200).max(32)];
    let clock_pins: usize = clock_nets.iter().sum();
    let gen_cfg = GeneratorConfig {
        name: "big-synth".into(),
        rows,
        cells: nets.max(rows * 4),
        pins: nets * 3 + nets / 2 + clock_pins,
        nets,
        seed: SEED,
        cell_width: (4, 10),
        equivalent_fraction: 0.35,
        locality: 0.85,
        clock_nets,
    };
    let wall = std::time::Instant::now();
    let c = generate(&gen_cfg);
    let gen_secs = wall.elapsed().as_secs_f64();
    let chunks = c.nets_chunks().count();
    println!("Big-circuit smoke: chunked columnar store beyond MCNC sizes");
    println!(
        "generated nets={} pins={} cells={} rows={} chunks={} (chunk size {}) in {:.1}s",
        c.num_nets(),
        c.num_pins(),
        c.num_cells(),
        c.num_rows(),
        chunks,
        NET_CHUNK_SIZE,
        gen_secs
    );
    assert_eq!(chunks, c.num_nets().div_ceil(NET_CHUNK_SIZE));
    let wall = std::time::Instant::now();
    let base = serial_base(&c, &cfg(), MachineModel::sparc_center_1000());
    println!(
        "routed serially: tracks={} wirelength={} simulated {} (wall {:.1}s), verified",
        routed(&base).track_count(),
        routed(&base).wirelength,
        fmt_secs(base.time),
        wall.elapsed().as_secs_f64()
    );
    println!();
}

/// One 8-rank ablation table on the SparcCenter model: per circuit, the
/// serial base under the default config, then one cell per variant —
/// `(label, padded to its column; config; algorithm; net partition)` —
/// printed as scaled tracks / simulated seconds / speedup.
fn ablation_table(
    opts: &Opts,
    title: &str,
    column: String,
    variants: Vec<(String, RouterConfig, Algorithm, PartitionKind)>,
) {
    let machine = MachineModel::sparc_center_1000();
    println!("{title}");
    opts.note_scale();
    println!(
        "{:<12} {column} {:>10} {:>9} {:>9}",
        "circuit", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = serial_base(&c, &cfg(), machine);
        for (label, cfg, algo, kind) in &variants {
            let driver = Some((*algo, *kind, clamp_procs(8, &c)));
            let out = run_cell(&c, cfg, driver, machine, InstrumentConfig::off(), None);
            println!(
                "{:<12} {label} {:>10.3} {:>9} {:>9.2}",
                c.name,
                routed(&out).scaled_tracks(routed(&base)),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// §5 ablation: the four net-partition heuristics under the net-wise
/// algorithm (and the hybrid's connection phase), on the clock-heavy
/// avq.large instance where pin-number-weight matters most.
pub fn partition_ablation(opts: &Opts) {
    let variants = PartitionKind::ALL
        .into_iter()
        .map(|kind| {
            let label = format!("{:<12}", kind.name());
            (label, cfg(), Algorithm::NetWise, kind)
        })
        .collect();
    ablation_table(
        opts,
        "Net-partition heuristic ablation (8 procs, SparcCenter model)",
        format!("{:<12}", "partition"),
        variants,
    );
}

/// Beyond the paper: the net-wise quality/runtime trade-off as the
/// synchronization period varies (§5 discusses it qualitatively).
pub fn sync_sweep(opts: &Opts) {
    let variants = [16usize, 64, 256, 1024, 8192]
        .into_iter()
        .map(|period| {
            let mut cfg = cfg();
            cfg.sync_period = period;
            let label = format!("{period:>8}");
            (label, cfg, Algorithm::NetWise, PartitionKind::PinWeight)
        })
        .collect();
    ablation_table(
        opts,
        "Net-wise synchronization-period sweep (8 procs, SparcCenter model)",
        format!("{:>8}", "period"),
        variants,
    );
}

/// Beyond the paper: the reproduction's synchronization-protocol
/// ablation. The paper's net-wise quality loss is reproduced by (a) the
/// coarse replicated grid every rank keeps and (b) lossy
/// snapshot-overwrite conflict resolution; exact delta merging over a
/// full-resolution replica (impossible to afford in 1997, trivial today)
/// removes most of the quality loss while the communication bill — and
/// hence the poor speedup — remains.
pub fn exact_sync_ablation(opts: &Opts) {
    let variants = [
        ("1997 snapshot (paper)", false, 8),
        ("exact deltas, coarse", true, 8),
        ("exact deltas, full-res", true, 1),
    ]
    .into_iter()
    .map(|(label, exact, factor)| {
        let mut cfg = cfg();
        cfg.netwise_exact_sync = exact;
        cfg.netwise_grid_factor = factor;
        let label = format!("{label:<22}");
        (label, cfg, Algorithm::NetWise, PartitionKind::PinWeight)
    })
    .collect();
    ablation_table(
        opts,
        "Net-wise synchronization-protocol ablation (8 procs, SparcCenter model)",
        format!("{:<22}", "protocol"),
        variants,
    );
}

/// Beyond the paper: the communication matrix (KB sent per src→dst
/// pair) of each algorithm at 8 ranks — making the partition structure
/// visible: row-wise/hybrid talk mostly to rank 0 (distribution/gather)
/// and their row neighbors; net-wise hammers everyone (all channels are
/// shared).
pub fn comm_matrix(opts: &Opts) {
    println!("Communication matrices (KB sent, src rows × dst columns, 8 ranks)");
    opts.note_scale();
    for c in opts.circuits() {
        let p = clamp_procs(8, &c);
        for algo in Algorithm::ALL {
            let out = plain_cell(&c, &cfg(), algo, p, MachineModel::sparc_center_1000());
            println!("{} / {}:", c.name, algo.name());
            print!("{:>8}", "src\\dst");
            for d in 0..p {
                print!(" {d:>7}");
            }
            println!();
            for s in &out.stats {
                print!("{:>8}", s.rank);
                for &b in &s.bytes_to {
                    print!(" {:>7}", b / 1024);
                }
                println!();
            }
        }
    }
    println!();
}

/// Extension ablation: median-point Steiner refinement of the step-1
/// trees (off in the paper's TWGR). Reports serial wirelength / track /
/// runtime deltas, and the refined flow's hybrid speedup.
pub fn steiner_ablation(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Steiner-refinement ablation (serial, and hybrid at 8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12} {:>10}",
        "circuit", "steiner", "wirelength", "tracks", "serial(s)", "hybrid sc.trk", "hybrid spd"
    );
    for c in opts.circuits() {
        for refine in [false, true] {
            let mut cfg = cfg();
            cfg.steiner_refine = refine;
            let base = serial_base(&c, &cfg, machine);
            let p = clamp_procs(8, &c);
            let out = plain_cell(&c, &cfg, Algorithm::Hybrid, p, machine);
            println!(
                "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12.3} {:>10.2}",
                c.name,
                if refine { "median" } else { "plain" },
                routed(&base).wirelength,
                routed(&base).track_count(),
                fmt_secs(base.time),
                routed(&out).scaled_tracks(routed(&base)),
                base.time / out.time,
            );
        }
    }
    println!();
}

/// Beyond the paper: run the left-edge detailed channel router over the
/// serial global solution, proving each channel packs into its density
/// (the theorem the paper's track metric stands on) and quantifying the
/// small refinement same-net merging buys.
pub fn detailed_refinement(opts: &Opts) {
    use pgr_router::detailed::route_channels;
    println!("Detailed (left-edge) channel routing vs. the density metric (serial solutions)");
    opts.note_scale();
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>12}",
        "circuit", "density Σ", "LEA tracks", "ratio", "utilization"
    );
    for c in opts.circuits() {
        let base = serial_base(&c, &cfg(), MachineModel::ideal());
        let tracks = routed(&base).track_count();
        let d = route_channels(routed(&base));
        assert!(d.validate(), "no shorts");
        println!(
            "{:<12} {:>12} {:>12} {:>9.3} {:>12.3}",
            c.name,
            tracks,
            d.track_count(),
            d.track_count() as f64 / tracks as f64,
            d.mean_utilization()
        );
    }
    println!();
}

/// Beyond the paper: per-phase virtual-time breakdown (serial and each
/// algorithm's slowest rank at 8 procs). Shows where each algorithm's
/// time goes — coarse routing dominates serially; the net-wise sync cost
/// lands in its coarse/switchable phases.
pub fn phase_breakdown(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = cfg();
    println!("Per-phase virtual time (seconds; slowest rank at 8 procs)");
    opts.note_scale();
    print!("{:<12} {:<10}", "circuit", "algorithm");
    for p in pgr_obs::Phase::ALL {
        print!(" {:>11}", p.name());
    }
    println!(" {:>11}", "total");
    for c in opts.circuits() {
        let serial = opts.traced_cell(&c, &cfg, None, machine, &format!("{}_serial", c.name));
        let mut rows = vec![("serial", serial.stats[0].clone())];
        for algo in Algorithm::ALL {
            let p = clamp_procs(8, &c);
            // The raw SPMD world, not a `run_cell`: these dumps are the
            // per-rank phase record only, without the harness's post-run
            // load-imbalance gauge (`ci/baseline-aggregate.json` was cut
            // from them and its load-imbalance series starts at the
            // `_p<P>` table runs).
            let (report, traces, metrics) =
                run_instrumented(p, machine, opts.instrument(), |comm| {
                    algo.try_route(&c, &cfg, PartitionKind::PinWeight, comm)
                        .expect("no budget is armed");
                });
            let label = format!("{}_{}", c.name, algo.name());
            let run = opts.run_meta(&c.name, algo.name(), p, &machine);
            emit_traces(
                opts.emit(&label, run),
                &traces,
                &report.stats,
                &machine,
                &metrics,
            );
            let slowest = report
                .stats
                .into_iter()
                .max_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"))
                .expect("ranks");
            rows.push((algo.name(), slowest));
        }
        for (name, stats) in rows {
            print!("{:<12} {:<10}", c.name, name);
            for want in pgr_obs::Phase::ALL {
                let d: f64 = stats
                    .phases
                    .iter()
                    .filter(|(n, _)| *n == want.name())
                    .map(|(_, d)| d)
                    .sum();
                print!(" {:>11}", fmt_secs(d));
            }
            println!(" {:>11}", fmt_secs(stats.time));
        }
    }
    println!();
}

/// Beyond the paper: wall-clock execution mode. All four drivers run
/// with [`ClockMode::Wall`] — ranks run free, real host time is measured
/// from one shared epoch — and the table reports the deterministic
/// virtual seconds *and* the measured wall seconds side by side. Routing
/// never reads either clock, so results (and the virtual account) are
/// bit-identical to a virtual-mode run; the wall column is what this
/// host actually did. With `--trace-out` each run's stats are stamped
/// `"clock":"wall"` and carry per-rank/per-phase wall seconds.
pub fn wall_clock(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = RouterConfig {
        clock: ClockMode::Wall,
        ..cfg()
    };
    println!("Wall-clock mode: virtual vs. host seconds, all four drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:<10} {:>2} {:>12} {:>12} {:>8}",
        "circuit", "algorithm", "P", "virtual(s)", "wall(s)", "tracks"
    );
    for c in opts.circuits() {
        // The serial driver and the three parallel ones; every cell takes
        // its clock from `cfg`.
        let drivers = std::iter::once(None).chain(Algorithm::ALL.into_iter().map(Some));
        for algo in drivers {
            let (name, p, label) = match algo {
                None => ("serial", 1, format!("{}_serial_wall", c.name)),
                Some(a) => {
                    let p = clamp_procs(8, &c);
                    (a.name(), p, format!("{}_{}_wall_p{p}", c.name, a.name()))
                }
            };
            let out = opts.traced_cell(&c, &cfg, algo.map(|a| (a, p)), machine, &label);
            println!(
                "{:<12} {:<10} {:>2} {:>12} {:>12.3} {:>8}",
                c.name,
                name,
                p,
                fmt_secs(out.time),
                out.wall_time.expect("wall seconds measured in Wall mode"),
                routed(&out).track_count(),
            );
        }
    }
    println!(
        "(virtual seconds are the deterministic simulated account; wall seconds are this host)"
    );
    println!();
}

/// §5's β knob: the pin-number-weight exponent, swept on the
/// clock-net-heavy circuits where it matters ("our experiments shows
/// that this technique works well for β≈… for AVQ-LARGE").
pub fn beta_sweep(opts: &Opts) {
    let variants = [0.5, 1.0, 1.6, 2.0, 3.0]
        .into_iter()
        .map(|beta| {
            let mut cfg = cfg();
            cfg.pin_weight_beta = beta;
            let label = format!("{beta:>6.1}");
            (label, cfg, Algorithm::Hybrid, PartitionKind::PinWeight)
        })
        .collect();
    ablation_table(
        opts,
        "Pin-number-weight β sweep (hybrid, 8 procs, SparcCenter model)",
        format!("{:>6}", "beta"),
        variants,
    );
}

/// Beyond the paper: speedup sensitivity to the machine's latency and
/// bandwidth (8 procs). The hybrid algorithm barely notices the network
/// (it is compute-bound); the net-wise algorithm's all-channel
/// synchronization makes it acutely bandwidth-sensitive — quantifying
/// the paper's "communication is more costly than computation".
pub fn machine_sweep(opts: &Opts) {
    println!("Machine-model sensitivity of speedup (8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "circuit", "latency", "bandwidth", "hybrid", "net-wise"
    );
    for c in opts.circuits() {
        for lat_us in [20.0, 500.0] {
            for bw_mb in [2.0, 18.0, 200.0] {
                let mut m = MachineModel::sparc_center_1000();
                m.latency = lat_us * 1e-6;
                m.sec_per_byte = 1.0 / (bw_mb * 1e6);
                let base = serial_base(&c, &cfg(), m);
                let p = clamp_procs(8, &c);
                let hybrid = plain_cell(&c, &cfg(), Algorithm::Hybrid, p, m);
                let netwise = plain_cell(&c, &cfg(), Algorithm::NetWise, p, m);
                println!(
                    "{:<12} {:>8}us {:>10}MB/s {:>12.2} {:>12.2}",
                    c.name,
                    lat_us,
                    bw_mb,
                    base.time / hybrid.time,
                    base.time / netwise.time
                );
            }
        }
    }
    println!();
}

/// Beyond the paper: chaos smoke — every algorithm routed under a seeded
/// fault schedule (drop + delay + reorder + duplicate + corruption) with
/// the reliable transport on, plus the highest rank killed at a phase
/// boundary. Each degraded result is verified against the circuit; the
/// table shows the protocol effort (retransmits, reorder-buffer fills,
/// suppressed duplicates, corrupt frames healed) and the recovery
/// accounting (rounds survived, ranks lost). A second, kill-heavy pass
/// per circuit runs hybrid under a one-round [`RecoveryPolicy`], forcing
/// the serial fallback — degraded, stamped in the stats, and
/// auto-verified. With `--trace-out` the per-run artifacts are written
/// under `<circuit>_<algo>_chaos_p<P>` / `<circuit>_hybrid_fallback_p<P>`
/// labels with algorithms `"<name>-chaos"` / `"hybrid-fallback"`, so
/// `repro aggregate` can trend robustness separately from the clean
/// runs.
///
/// The schedule and the recovery policy are overridable from the CLI:
/// `--kill R@B` (repeatable) replaces the default one-kill schedule,
/// `--max-rounds` / `--min-ranks` override the [`RecoveryPolicy`]
/// bounds. The printed `redone` / `restore` columns expose the
/// checkpoint-resume accounting (`recovery.redone_phases`,
/// `recovery.checkpoint.restores`): a resumed round redoes only the
/// phases past the agreed boundary, a full restart redoes them all.
pub fn chaos_smoke(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let default_policy = RecoveryPolicy::default();
    let policy = RecoveryPolicy {
        max_rounds: opts.max_rounds.unwrap_or(default_policy.max_rounds),
        min_ranks: opts.min_ranks.unwrap_or(default_policy.min_ranks),
    };
    let cfg = RouterConfig {
        recovery: policy,
        ..cfg()
    };
    println!("Chaos smoke: message faults + rank kills, reliable transport on");
    opts.note_scale();
    println!(
        "{:<12} {:<10} {:>2} {:>6} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>7} {:>8}",
        "circuit",
        "algorithm",
        "P",
        "killed",
        "tracks",
        "retran",
        "reord",
        "dup",
        "corrupt",
        "recovery",
        "lost",
        "redone",
        "restore"
    );
    // One chaos cell: run under `chaos` with the reliable transport on
    // and metrics collected, then print the protocol-effort row.
    // `fallback` only picks the row's labels.
    let chaos_cell = |c: &Circuit,
                      cfg: &RouterConfig,
                      algo: Algorithm,
                      p: usize,
                      chaos: ChaosConfig,
                      fallback: bool| {
        let killed = if chaos.kills.is_empty() {
            "-".to_string()
        } else {
            let ranks: Vec<String> = chaos.kills.iter().map(|(r, _)| r.to_string()).collect();
            ranks.join("+")
        };
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(ChaosLayer::new(chaos))),
            reliability: ReliabilityConfig::on(),
            ..opts.instrument()
        };
        let tag = if fallback { "fallback" } else { "chaos" };
        let label = format!("{}_{}_{tag}_p{p}", c.name, algo.name());
        let stamp = format!("{}-{tag}", algo.name());
        let out = run_cell(
            c,
            cfg,
            Some((algo, PartitionKind::PinWeight, p)),
            machine,
            instr,
            opts.emit(&label, opts.run_meta(&c.name, &stamp, p, &machine)),
        );
        let sum = |name: &str| -> u64 { out.metrics.iter().filter_map(|m| m.counter(name)).sum() };
        println!(
            "{:<12} {:<10} {:>2} {:>6} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>7} {:>8}{}",
            c.name,
            if fallback { tag } else { algo.name() },
            p,
            killed,
            routed(&out).track_count(),
            sum(pgr_mpi::reliable::RETRANSMITS),
            sum(pgr_mpi::reliable::REORDER_BUFFERED),
            sum(pgr_mpi::reliable::DUPLICATES_DROPPED),
            sum(pgr_mpi::reliable::CORRUPT_DROPPED),
            sum(names::RECOVERY_EVENTS),
            sum(names::RANKS_LOST),
            sum(recovery_names::REDONE_PHASES),
            sum(recovery_names::CHECKPOINT_RESTORES),
            if fallback {
                "  (serial fallback, verified)"
            } else {
                ""
            },
        );
        out
    };
    for c in opts.circuits() {
        let p = clamp_procs(4, &c);
        for &(rank, _) in &opts.kills {
            if rank >= p {
                eprintln!(
                    "repro: --kill rank {rank} is out of range for circuit {} (P = {p})",
                    c.name
                );
                std::process::exit(2);
            }
        }
        for algo in Algorithm::ALL {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            // Default schedule: the highest rank dies entering its third
            // phase; the survivors restore its coarse-boundary snapshot
            // and resume on P-1. `--kill` replaces the schedule wholesale.
            if p > 1 {
                chaos.kills = if opts.kills.is_empty() {
                    vec![(p - 1, 2)]
                } else {
                    opts.kills.iter().map(|&(r, b)| (r, b as u64)).collect()
                };
            }
            chaos_cell(&c, &cfg, algo, p, chaos, false);
        }

        // Kill-heavy pass: the same schedule under a one-round recovery
        // budget breaches the policy, so the run must finish via the
        // serial fallback — degraded, stamped, and auto-verified.
        if p > 1 {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            chaos.kills = vec![(p - 1, 1)];
            let fallback_cfg = RouterConfig {
                recovery: RecoveryPolicy {
                    max_rounds: 1,
                    min_ranks: 1,
                },
                ..cfg.clone()
            };
            let out = chaos_cell(&c, &fallback_cfg, Algorithm::Hybrid, p, chaos, true);
            assert!(out.degraded, "{}: the one-round budget must breach", c.name);
        }
    }
    println!();
}

/// One stress-matrix cell's observed result, compared bit-for-bit
/// across the determinism re-run.
#[derive(Debug, Clone, PartialEq)]
struct StressCell {
    /// `routed` | `degraded` | `budget_exceeded` | `panic`.
    outcome: &'static str,
    /// Track count of a completed route (None on error/panic).
    tracks: Option<i64>,
    /// Virtual makespan bits (0 on panic).
    time_bits: u64,
    /// Breach / shed / recovery detail for the table.
    note: String,
}

/// Budget lever applied to one stress cell. `Time` and `Mem` are
/// derived from the family's own unbudgeted serial probe, so the matrix
/// self-calibrates across scales; `Rounds` arms
/// [`pgr_mpi::ResourceBudget::max_recovery_rounds`] `= 0` under a kill
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressBudget {
    Unlimited,
    Time,
    Mem,
    Rounds,
}

impl StressBudget {
    fn name(self) -> &'static str {
        match self {
            StressBudget::Unlimited => "unlimited",
            StressBudget::Time => "time",
            StressBudget::Mem => "mem",
            StressBudget::Rounds => "rounds",
        }
    }

    /// Materialize against the family's serial probe.
    fn materialize(self, probe: &StressProbe) -> pgr_mpi::ResourceBudget {
        let mut b = pgr_mpi::ResourceBudget::unlimited();
        match self {
            StressBudget::Unlimited => {}
            StressBudget::Time => b.max_phase_seconds = Some(probe.time_limit),
            StressBudget::Mem => b.max_rank_bytes = Some((probe.peak_mem / 2).max(1)),
            StressBudget::Rounds => b.max_recovery_rounds = Some(0),
        }
        b
    }
}

/// One family's unbudgeted serial probe: the self-calibration every
/// budget lever of its row block derives from.
struct StressProbe {
    peak_mem: u64,
    /// The per-phase time lever. When the optional coarse phase is the
    /// slowest phase of the probe, the lever lands midway between it and
    /// the slowest mandatory phase — mandatory phases fit, coarse
    /// overruns and *sheds*, and the run completes `budget_degraded`.
    /// On families whose mandatory work dominates, the lever falls back
    /// to a third of the total, and the overrun lands in a mandatory
    /// phase as the structured hard breach.
    time_limit: f64,
}

fn stress_probe(circuit: &Circuit, cfg: &RouterConfig, machine: MachineModel) -> StressProbe {
    let probe = serial_base(circuit, cfg, machine);
    let s = &probe.stats[0];
    let phase_secs = |name: &str| -> f64 {
        s.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    };
    let coarse = phase_secs("coarse");
    let mandatory_max = s
        .phases
        .iter()
        .filter(|(n, _)| *n != "coarse" && *n != "switchable")
        .map(|(_, d)| *d)
        .fold(0.0f64, f64::max);
    let time_limit = if coarse > mandatory_max && mandatory_max > 0.0 {
        (mandatory_max + coarse) / 2.0
    } else {
        s.time / 3.0
    };
    StressProbe {
        peak_mem: s.peak_mem,
        time_limit,
    }
}

/// Chaos schedule applied to one stress cell (parallel cells only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressChaos {
    None,
    Messages,
    Kill,
}

impl StressChaos {
    fn name(self) -> &'static str {
        match self {
            StressChaos::None => "none",
            StressChaos::Messages => "messages",
            StressChaos::Kill => "kill",
        }
    }
}

/// `repro stress`: the adversarial workload × chaos × algorithm matrix.
///
/// Every [`pgr_circuit::scenarios::ScenarioFamily`] (or the `--family`
/// subset) is generated at `--scale`, probed once serially without
/// limits, and then driven through every driver under budget levers
/// derived from its own probe and under seeded chaos schedules. Each
/// cell ends in a structured outcome — `routed`, `degraded` (completed
/// by shedding refinement or by the recovery fallback, verified), or
/// `budget_exceeded` (the agreed [`pgr_router::RouteError`]) — and is
/// run twice: any bitwise divergence between the two runs, any panic,
/// or a full matrix that fails to exhibit all three outcomes (including
/// a congestion-stress shed) exits non-zero. With `--trace-out` every
/// cell's stats/metrics artifacts are stamped with the self-describing
/// scenario name and the `budget_degraded` flag, so `repro aggregate`
/// can trend shed rates.
pub fn stress(opts: &Opts) {
    use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};
    use pgr_router::RouteError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let machine = MachineModel::sparc_center_1000();
    let families: Vec<ScenarioFamily> = match &opts.families {
        None => ScenarioFamily::ALL.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| ScenarioFamily::from_name(n).expect("validated at parse time"))
            .collect(),
    };
    let full_matrix = opts.families.is_none();
    println!("Stress matrix: adversarial workloads × chaos × drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  detail",
        "family", "algorithm", "P", "chaos", "budget", "outcome", "tracks"
    );

    let mut panics = 0usize;
    let mut divergent = 0usize;
    let mut seen_routed = false;
    let mut seen_degraded = false;
    let mut seen_exceeded = false;
    let mut congestion_shed = false;

    for family in families {
        let spec = ScenarioSpec::new(family, opts.scale, SEED);
        let circuit = spec.generate();
        circuit
            .validate()
            .unwrap_or_else(|e| panic!("{}: generated circuit invalid: {e:?}", spec.name()));
        let probe = stress_probe(&circuit, &cfg(), machine);
        let p = clamp_procs(3, &circuit);

        // (algorithm, procs, chaos, budget) cells of this family's row
        // block. Serial takes the budget levers without chaos; every
        // parallel driver takes budgets, message chaos, and — where the
        // clamped world is big enough to lose a rank — kill chaos with
        // the recovery-round budget.
        let mut cells: Vec<(Option<Algorithm>, usize, StressChaos, StressBudget)> = vec![
            (None, 1, StressChaos::None, StressBudget::Unlimited),
            (None, 1, StressChaos::None, StressBudget::Time),
            (None, 1, StressChaos::None, StressBudget::Mem),
        ];
        for algo in Algorithm::ALL {
            for budget in [
                StressBudget::Unlimited,
                StressBudget::Time,
                StressBudget::Mem,
            ] {
                cells.push((Some(algo), p, StressChaos::None, budget));
            }
            for budget in [StressBudget::Unlimited, StressBudget::Time] {
                cells.push((Some(algo), p, StressChaos::Messages, budget));
            }
            if p > 1 {
                cells.push((Some(algo), p, StressChaos::Kill, StressBudget::Unlimited));
                cells.push((Some(algo), p, StressChaos::Kill, StressBudget::Rounds));
            }
        }

        for (algo, p, chaos, budget) in cells {
            let algo_name = algo.map_or("serial", |a| a.name());
            let cell = |write_artifacts: bool| -> StressCell {
                let cfg = RouterConfig {
                    budget: budget.materialize(&probe),
                    ..cfg()
                };
                // Metrics on for every cell, serial included: the serial
                // time lever is the cell that actually sheds (parallel
                // gate collectives resync every boundary), so its dumps
                // carry the shed-rate series the aggregator trends.
                let mut instr = InstrumentConfig {
                    metrics: MetricsConfig::on(),
                    ..opts.instrument()
                };
                if chaos != StressChaos::None {
                    let mut schedule = ChaosConfig::messages_with_corruption(SEED);
                    if chaos == StressChaos::Kill {
                        // Kills only: zero out the message faults so the
                        // cell isolates the recovery path.
                        schedule = ChaosConfig::messages_only(SEED);
                        schedule.drop = 0.0;
                        schedule.reorder = 0.0;
                        schedule.duplicate = 0.0;
                        schedule.delay = 0.0;
                        schedule.kills = vec![(p - 1, 2)];
                    }
                    instr.fault = Some(Arc::new(ChaosLayer::new(schedule)));
                    instr.reliability = ReliabilityConfig::on();
                }
                let label = format!(
                    "stress_{}_{algo_name}_{}_{}_p{p}",
                    family.name(),
                    chaos.name(),
                    budget.name()
                );
                let mut run = opts.run_meta(&circuit.name, algo_name, p, &machine);
                // The cell coordinates ride in the scenario stamp: every
                // other RunMeta field is shared across this family's
                // budget/chaos cells, and the aggregator keys records by
                // it.
                run.scenario = format!("{}/{}/{}", spec.name(), chaos.name(), budget.name());
                let out = run_cell(
                    &circuit,
                    &cfg,
                    algo.map(|a| (a, PartitionKind::PinWeight, p)),
                    machine,
                    instr,
                    opts.emit(&label, run).filter(|_| write_artifacts),
                );
                match &out.result {
                    Ok(result) => {
                        let mut notes = Vec::new();
                        if out.budget_degraded {
                            notes.push("shed refinement");
                        }
                        if out.degraded {
                            notes.push("serial fallback");
                        }
                        if chaos == StressChaos::Kill && !out.degraded {
                            notes.push("recovered");
                        }
                        StressCell {
                            outcome: if out.degraded || out.budget_degraded {
                                "degraded"
                            } else {
                                "routed"
                            },
                            tracks: Some(result.track_count()),
                            time_bits: out.time.to_bits(),
                            note: notes.join(", "),
                        }
                    }
                    Err(e @ RouteError::BudgetExceeded { .. }) => StressCell {
                        outcome: "budget_exceeded",
                        tracks: None,
                        time_bits: out.time.to_bits(),
                        note: e.to_string(),
                    },
                }
            };

            let first = catch_unwind(AssertUnwindSafe(|| cell(true)));
            let second = catch_unwind(AssertUnwindSafe(|| cell(false)));
            let cell = match (&first, &second) {
                (Ok(a), Ok(b)) => {
                    if a != b {
                        divergent += 1;
                        eprintln!(
                            "stress: NONDETERMINISTIC cell {} {} {} {}: {a:?} vs {b:?}",
                            spec.name(),
                            algo_name,
                            chaos.name(),
                            budget.name()
                        );
                    }
                    a.clone()
                }
                _ => {
                    panics += 1;
                    StressCell {
                        outcome: "panic",
                        tracks: None,
                        time_bits: 0,
                        note: "routing panicked — see stderr".into(),
                    }
                }
            };
            match cell.outcome {
                "routed" => seen_routed = true,
                "degraded" => {
                    seen_degraded = true;
                    if family == ScenarioFamily::CongestionStress && budget == StressBudget::Time {
                        congestion_shed = true;
                    }
                }
                "budget_exceeded" => seen_exceeded = true,
                _ => {}
            }
            println!(
                "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  {}",
                family.name(),
                algo_name,
                p,
                chaos.name(),
                budget.name(),
                cell.outcome,
                cell.tracks.map_or("-".to_string(), |t| t.to_string()),
                cell.note
            );
        }
    }

    let mut failures = Vec::new();
    if panics > 0 {
        failures.push(format!("{panics} cell(s) panicked"));
    }
    if divergent > 0 {
        failures.push(format!("{divergent} cell(s) were nondeterministic"));
    }
    if full_matrix {
        if !seen_routed {
            failures.push("no cell routed cleanly".into());
        }
        if !seen_degraded {
            failures.push("no cell degraded gracefully".into());
        }
        if !seen_exceeded {
            failures.push("no cell reported a structured budget error".into());
        }
        if !congestion_shed {
            failures.push("congestion-stress never shed under the time budget".into());
        }
    }
    if failures.is_empty() {
        println!("stress matrix clean: every cell structured, deterministic, panic-free");
        println!();
    } else {
        for f in &failures {
            eprintln!("stress matrix FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `repro profile`: cross-rank causal profiles — critical-path
/// extraction and makespan blame attribution for every driver.
///
/// Runs the serial driver at P = 1 and the three parallel algorithms at
/// P ∈ {2, 4} per circuit, always fully instrumented (the profiler
/// consumes the trace whether or not `--trace-out` is set). Each run's
/// matched send→recv happens-before DAG yields the critical path of the
/// makespan; a summary row and the per-phase × rank blame table are
/// printed. Lossless runs are gated in-process: a path that does not
/// sum exactly to the makespan panics, so any smoke invocation doubles
/// as the acceptance check.
///
/// With `--trace-out DIR`, each run additionally writes
/// `<label>.profile.json` (the schema-versioned blame report),
/// `<label>.blame.md` (the markdown table), a Chrome trace annotated
/// with send→recv flow arrows and color-tagged critical-path slices
/// (`<label>.trace.json`), and the usual stats/metrics dumps — so
/// `repro aggregate` over DIR picks up the wait-fraction series.
pub fn profile(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = cfg();
    println!("Causal profile: critical-path extraction and makespan blame");
    opts.note_scale();
    println!(
        "{:<34} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "run", "makespan", "compute%", "wait%", "fault%", "segs"
    );
    for c in opts.circuits() {
        // Serial at P = 1, then each algorithm at P ∈ {2, 4} (clamped).
        let mut cells = vec![(None, 1, format!("{}_serial_profile", c.name))];
        for algo in Algorithm::ALL {
            let mut procs: Vec<usize> = [2usize, 4].iter().map(|&p| clamp_procs(p, &c)).collect();
            procs.dedup();
            for p in procs {
                let label = format!("{}_{}_profile_p{p}", c.name, algo.name());
                cells.push((Some(algo), p, label));
            }
        }
        for (algo, p, label) in cells {
            // No `emit`: the profile writes its own artifact set (the
            // annotated trace replaces the plain one).
            let out = run_cell(
                &c,
                &cfg,
                algo.map(|a| (a, PartitionKind::PinWeight, p)),
                machine,
                InstrumentConfig::full(),
                None,
            );
            let name = algo.map_or("serial", Algorithm::name);
            let run = opts.run_meta(&c.name, name, p, &machine);
            let prof = build_profile(&out.traces, &machine);
            if prof.truncated {
                eprintln!(
                    "warning: {label}: trace ring dropped {} event(s); per-phase attribution only",
                    prof.dropped_events
                );
            } else {
                // In-process acceptance gate: every smoke run re-checks
                // that the extracted chain partitions the makespan
                // exactly.
                assert!(
                    prof.warnings.is_empty()
                        && prof.is_contiguous()
                        && prof.critical_path_seconds().to_bits() == prof.makespan.to_bits(),
                    "{label}: critical path does not partition the makespan ({:?})",
                    prof.warnings
                );
            }
            let pct = |class: BlameClass| {
                if prof.makespan > 0.0 {
                    100.0 * prof.class_seconds[class.index()] / prof.makespan
                } else {
                    0.0
                }
            };
            println!(
                "{:<34} {:>10} {:>8.1}% {:>8.1}% {:>8.1}% {:>6}",
                label,
                fmt_secs(prof.makespan),
                pct(BlameClass::Compute),
                pct(BlameClass::RecvWait),
                pct(BlameClass::Transport) + pct(BlameClass::Recovery) + pct(BlameClass::Degraded),
                prof.critical_path.len()
            );
            match &opts.trace_out {
                Some(dir) => {
                    if let Err(e) =
                        write_profile_artifacts(dir, &label, &prof, &run, &out, &machine)
                    {
                        eprintln!("profile write failed for {label}: {e}");
                    }
                }
                // No artifact dir: the blame table goes to stdout instead.
                None => print!("{}", prof.blame_markdown(&run)),
            }
        }
    }
    println!();
}

/// Write one profiled run's artifacts: the stats/metrics dumps the
/// aggregator consumes with the annotated Chrome trace, the blame report
/// JSON and the markdown table. Returns the profile path.
fn write_profile_artifacts(
    dir: &Path,
    label: &str,
    prof: &Profile,
    run: &RunMeta,
    out: &GuardedOutcome,
    machine: &MachineModel,
) -> std::io::Result<PathBuf> {
    write_dumps(
        dir,
        label,
        chrome_trace_with_path(&out.traces, Some(&prof.critical_path)),
        &out.stats,
        machine,
        run,
        &out.metrics,
    )?;
    let profile_path = dir.join(format!("{label}.profile.json"));
    std::fs::write(&profile_path, prof.to_json(run))?;
    std::fs::write(
        dir.join(format!("{label}.blame.md")),
        prof.blame_markdown(run),
    )?;
    Ok(profile_path)
}
