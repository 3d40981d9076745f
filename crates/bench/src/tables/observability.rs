//! Where the time and the bytes go: per-phase breakdown, wall-clock
//! mode, communication matrices and the causal profiler.

use super::cell::{
    cfg, clamp_procs, phase_seconds, rank_suffix, routed, run_cell, write_traces, Opts,
};
use crate::fmt_secs;
use pgr_mpi::trace::chrome_trace_with_path;
use pgr_mpi::{build_profile, ClockMode, InstrumentConfig, MachineModel, RunMeta};
use pgr_obs::{BlameClass, Profile};
use pgr_router::{Algorithm, GuardedOutcome, PartitionKind, RouterConfig};
use std::path::Path;

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
        for algo in Algorithm::DRIVERS {
            let p = clamp_procs(algo.ranks(8), &c);
            let label = format!("{}_{}", c.name, algo.name());
            let out = opts.cell(&c, &cfg, algo, p, machine, Some(&label));
            let stats = out
                .stats
                .iter()
                .max_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"))
                .expect("ranks");
            print!("{:<12} {:<10}", c.name, algo.name());
            for want in pgr_obs::Phase::ALL {
                print!(" {:>11}", fmt_secs(phase_seconds(stats, want.name())));
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
        // Every cell takes its clock from `cfg`.
        for algo in Algorithm::DRIVERS {
            let p = clamp_procs(algo.ranks(8), &c);
            let label = format!("{}_{}_wall{}", c.name, algo.name(), rank_suffix(algo, p));
            let out = opts.cell(&c, &cfg, algo, p, machine, Some(&label));
            println!(
                "{:<12} {:<10} {:>2} {:>12} {:>12.3} {:>8}",
                c.name,
                algo.name(),
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
            let out = opts.cell(&c, &cfg(), algo, p, MachineModel::sparc_center_1000(), None);
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
        let mut cells = Vec::new();
        for algo in Algorithm::DRIVERS {
            let mut procs = [2usize, 4].map(|p| clamp_procs(algo.ranks(p), &c)).to_vec();
            procs.dedup();
            cells.extend(procs.into_iter().map(|p| (algo, p)));
        }
        for (algo, p) in cells {
            let label = format!("{}_{}_profile{}", c.name, algo.name(), rank_suffix(algo, p));
            // No `emit`: the profile writes its own artifact set (the
            // annotated trace replaces the plain one).
            let driver = (algo, PartitionKind::PinWeight, p);
            let out = run_cell(&c, &cfg, driver, machine, InstrumentConfig::full(), None);
            let run = opts.run_meta(&c.name, algo.name(), p, &machine);
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
/// JSON and the markdown table.
fn write_profile_artifacts(
    dir: &Path,
    label: &str,
    prof: &Profile,
    run: &RunMeta,
    out: &GuardedOutcome,
    machine: &MachineModel,
) -> std::io::Result<()> {
    write_traces(
        dir,
        label,
        chrome_trace_with_path(&out.traces, Some(&prof.critical_path)),
        &out.stats,
        machine,
        run,
        &out.metrics,
    )?;
    let file = |ext: &str| dir.join(format!("{label}.{ext}"));
    std::fs::write(file("profile.json"), prof.to_json(run))?;
    std::fs::write(file("blame.md"), prof.blame_markdown(run))
}
