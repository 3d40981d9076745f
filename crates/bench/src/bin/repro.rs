//! Regenerate the paper's tables and figures, and aggregate runs.
//!
//! ```text
//! repro [--scale F] [--circuits a,b,c] [--trace-out DIR] <target>...
//!
//! targets: table1 table2 table3 table4 table5
//!          partition-ablation sync-sweep machine-sweep
//!          exact-sync-ablation beta-sweep phase-breakdown
//!          detailed-refinement steiner-ablation comm-matrix
//!          chaos wall-clock profile all
//!
//! repro aggregate [--out FILE] [--md FILE] [--baseline FILE]
//!                 [--tolerance F] <path>...
//! ```
//!
//! `table2`/`table3`/`table4` also emit figures 4/5/6 (the speedup
//! series). `--scale 0.1` runs 10 %-size circuits for a quick look;
//! the default regenerates the full-size evaluation. `--trace-out DIR`
//! makes instrumented targets (`phase-breakdown`, `table2`–`table4`)
//! write per-run Chrome traces (`*.trace.json`, load in
//! `chrome://tracing` or Perfetto), per-rank stats (`*.stats.json`),
//! and per-rank metrics (`*.metrics.json`) into DIR (created if
//! missing).
//!
//! `wall-clock` runs all four drivers in wall-clock execution mode
//! ([`pgr_mpi::ClockMode::Wall`]): ranks run free, and the table shows
//! the deterministic virtual seconds next to the real host seconds of
//! the same run. Results are bit-identical to virtual mode — only the
//! wall measurements are host-dependent. Under `--trace-out` the stats
//! dumps are stamped `"clock":"wall"`.
//!
//! `chaos` is the robustness smoke: every algorithm routed under a
//! seeded drop/delay/reorder/duplicate schedule with the reliable
//! transport on, plus one rank killed at a phase boundary; each
//! degraded result is verified and the recovery counters — including
//! the checkpoint-resume accounting (`recovery.redone_phases`,
//! `recovery.checkpoint.restores`) — are printed (and written to
//! `*.metrics.json` under `--trace-out`). The schedule is overridable:
//! `--kill R@B` (repeatable) kills rank R at phase boundary B, where B
//! is a registry phase name (`coarse`) or its index (`2`) — anything
//! outside the registry is rejected with the valid range and exit
//! code 2 — and `--max-rounds N` / `--min-ranks N` override the
//! recovery-policy bounds, so a single command can demonstrate resume,
//! multi-round recovery, or the forced serial fallback.
//!
//! `profile` is the causal profiler: every driver runs fully
//! instrumented, each run's send→recv matched happens-before DAG yields
//! the critical path of the makespan, and every second on it is blamed
//! on compute, recv-wait, transport, recovery, or the degraded
//! fallback. The summary table and per-phase × rank blame tables print
//! to stdout; under `--trace-out` each run also writes
//! `*.profile.json`, `*.blame.md`, and a Chrome trace with flow arrows
//! plus color-tagged critical-path slices. The path-sum-equals-makespan
//! invariant is asserted in-process on every lossless run.
//!
//! `big-circuit` generates a synthetic instance an order of magnitude
//! beyond the paper's largest (~200k nets at scale 1.0) and routes it
//! serially — the smoke test that the chunked columnar circuit store
//! holds up past the MCNC sizes.
//!
//! `repro aggregate` merges any number of such dumps — files or
//! directories, typically from several independent `--trace-out` runs —
//! into one cross-run report (speedup curves, phase-time trends,
//! quality deltas) printed as markdown (or written with `--md`) and
//! optionally written as JSON with `--out`. With `--baseline FILE` the
//! fresh aggregate is compared against a committed report; any run
//! whose makespan, tracks, or wirelength regresses beyond `--tolerance`
//! (relative, default 0.02) makes the command exit non-zero.

use pgr_bench::aggregate::{aggregate, check_baseline, load_paths};
use pgr_bench::tables::{self, Opts};
use pgr_circuit::scenarios::ScenarioFamily;
use pgr_mpi::Phase;
use pgr_router::Algorithm;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale F] [--circuits a,b,c] [--trace-out DIR]\n             [--kill R@B]... [--max-rounds N] [--min-ranks N]\n             [--family NAME]... <target>...\n\
         targets: table1 table2 table3 table4 table5 partition-ablation sync-sweep\n          machine-sweep exact-sync-ablation beta-sweep phase-breakdown detailed-refinement steiner-ablation comm-matrix chaos wall-clock big-circuit stress profile all\n\
         chaos:  --kill R@B kills rank R at phase boundary B (registry name or index);\n         --max-rounds / --min-ranks bound the recovery policy\n\
         stress: --family restricts the adversarial-workload matrix (repeatable)\n\
         or:    repro aggregate [--out FILE] [--md FILE] [--baseline FILE] [--tolerance F] <path>..."
    );
    std::process::exit(2);
}

/// Parse a `--kill <rank>@<boundary>` spec into `(rank, phase index)`.
/// The boundary names the phase whose entry the rank dies at — either a
/// registry phase name (`coarse`) or its numeric index (`2`) — and is
/// validated against [`Phase::ALL`]; anything outside the registry is a
/// structured error listing the valid boundaries.
fn parse_kill(spec: &str) -> Result<(usize, usize), String> {
    let registry = || {
        Phase::ALL
            .iter()
            .map(|p| format!("{}({})", p.name(), p.index()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (rank, boundary) = spec
        .split_once('@')
        .ok_or_else(|| format!("--kill expects <rank>@<boundary>, got '{spec}'"))?;
    let rank: usize = rank
        .parse()
        .map_err(|_| format!("--kill rank '{rank}' is not a number (in '{spec}')"))?;
    let idx = match boundary.parse::<usize>() {
        Ok(i) if i < Phase::ALL.len() => i,
        Ok(i) => {
            return Err(format!(
                "--kill boundary {i} is out of range; the phase registry has \
                 boundaries {}",
                registry()
            ))
        }
        Err(_) => Phase::from_name(boundary)
            .map(|p| p.index())
            .ok_or_else(|| {
                format!(
                    "--kill boundary '{boundary}' is not a registry phase; valid: {}",
                    registry()
                )
            })?,
    };
    Ok((rank, idx))
}

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn aggregate_main(args: impl Iterator<Item = String>) -> ! {
    let mut out: Option<PathBuf> = None;
    let mut md: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.02f64;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--md" => md = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--baseline" => baseline = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--tolerance" => {
                let v = args.next().unwrap_or_else(|| usage());
                tolerance = v.parse().unwrap_or_else(|_| usage());
                if !(tolerance >= 0.0 && tolerance.is_finite()) {
                    fail("--tolerance must be a non-negative number");
                }
            }
            "-h" | "--help" => usage(),
            f if f.starts_with('-') => fail(&format!("unknown flag '{f}'")),
            p => paths.push(p.into()),
        }
    }
    if paths.is_empty() {
        usage();
    }
    let records = load_paths(&paths).unwrap_or_else(|e| fail(&e));
    let agg = aggregate(&records);
    eprintln!(
        "aggregated {} run(s) from {} path argument(s)",
        agg.records.len(),
        paths.len()
    );
    if let Some(p) = &out {
        std::fs::write(p, agg.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", p.display())));
        eprintln!("aggregate JSON written: {}", p.display());
    }
    let markdown = agg.to_markdown();
    match &md {
        Some(p) => {
            std::fs::write(p, &markdown)
                .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", p.display())));
            eprintln!("aggregate markdown written: {}", p.display());
        }
        None => print!("{markdown}"),
    }
    if let Some(p) = &baseline {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline {}: {e}", p.display())));
        let regressions = check_baseline(&agg, &text, tolerance).unwrap_or_else(|e| fail(&e));
        if regressions.is_empty() {
            eprintln!(
                "baseline check passed (tolerance {:.1} %)",
                tolerance * 100.0
            );
        } else {
            eprintln!("baseline check FAILED:");
            for r in &regressions {
                eprintln!("  regression: {r}");
            }
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("aggregate") {
        args.next();
        aggregate_main(args);
    }
    let mut opts = Opts::default();
    let mut targets: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.scale = v.parse().unwrap_or_else(|_| usage());
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    fail("--scale must be in (0, 1]");
                }
            }
            "--circuits" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.filter = Some(v.split(',').map(str::to_string).collect());
            }
            "--trace-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                let dir: PathBuf = v.into();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    fail(&format!("cannot create --trace-out {}: {e}", dir.display()));
                }
                opts.trace_out = Some(dir);
            }
            "--kill" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.kills.push(parse_kill(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--max-rounds" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: u32 = v
                    .parse()
                    .unwrap_or_else(|_| fail("--max-rounds must be a positive integer"));
                if n == 0 {
                    fail("--max-rounds must be at least 1");
                }
                opts.max_rounds = Some(n);
            }
            "--min-ranks" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| fail("--min-ranks must be a positive integer"));
                if n == 0 {
                    fail("--min-ranks must be at least 1");
                }
                opts.min_ranks = Some(n);
            }
            "--family" => {
                let v = args.next().unwrap_or_else(|| usage());
                if ScenarioFamily::from_name(&v).is_none() {
                    let registry = ScenarioFamily::ALL
                        .iter()
                        .map(|f| f.name())
                        .collect::<Vec<_>>()
                        .join(", ");
                    fail(&format!(
                        "--family '{v}' is not an adversarial workload family; valid: {registry}"
                    ));
                }
                opts.families.get_or_insert_with(Vec::new).push(v);
            }
            "-h" | "--help" => usage(),
            f if f.starts_with('-') => fail(&format!("unknown flag '{f}'")),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "partition-ablation",
            "sync-sweep",
            "machine-sweep",
            "exact-sync-ablation",
            "beta-sweep",
            "phase-breakdown",
            "detailed-refinement",
            "steiner-ablation",
            "comm-matrix",
            "chaos",
            "wall-clock",
            "profile",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for t in &targets {
        match t.as_str() {
            "table1" => tables::table1(&opts),
            "table2" | "figure4" => tables::quality_and_speedup(Algorithm::RowWise, &opts),
            "table3" | "figure5" => tables::quality_and_speedup(Algorithm::NetWise, &opts),
            "table4" | "figure6" => tables::quality_and_speedup(Algorithm::Hybrid, &opts),
            "table5" => tables::table5(&opts),
            "partition-ablation" => tables::partition_ablation(&opts),
            "sync-sweep" => tables::sync_sweep(&opts),
            "machine-sweep" => tables::machine_sweep(&opts),
            "exact-sync-ablation" => tables::exact_sync_ablation(&opts),
            "beta-sweep" => tables::beta_sweep(&opts),
            "phase-breakdown" => tables::phase_breakdown(&opts),
            "detailed-refinement" => tables::detailed_refinement(&opts),
            "steiner-ablation" => tables::steiner_ablation(&opts),
            "comm-matrix" => tables::comm_matrix(&opts),
            "chaos" => tables::chaos_smoke(&opts),
            "stress" => tables::stress(&opts),
            "wall-clock" => tables::wall_clock(&opts),
            "big-circuit" => tables::big_circuit(&opts),
            "profile" => tables::profile(&opts),
            other => {
                eprintln!("unknown target '{other}'");
                usage();
            }
        }
    }
}
