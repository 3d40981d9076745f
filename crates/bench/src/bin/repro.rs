//! Regenerate the paper's tables and figures, and aggregate runs.
//!
//! ```text
//! repro [--scale F] [--circuits a,b,c] [--trace-out DIR] <target>...
//!
//! repro aggregate [--out FILE] [--md FILE] [--baseline FILE] <path>...
//! ```
//!
//! The targets are the rows of [`pgr_bench::tables::TARGETS`] — `repro
//! --help` lists them — plus `all`, which runs every one the table marks
//! as part of it; what each prints, writes and gates is documented on its
//! function in [`pgr_bench::tables`], and `repro aggregate` in
//! [`pgr_bench::aggregate`]. `--scale 0.1` runs 10 %-size circuits for a
//! quick look; the default regenerates the full-size evaluation.
//! `--trace-out DIR` makes every target that instruments its runs write
//! per-run Chrome traces (`*.trace.json`, load in `chrome://tracing` or
//! Perfetto), per-rank stats (`*.stats.json`) and per-rank metrics
//! (`*.metrics.json`) into DIR (created if missing). `--kill R@B` names
//! the boundary B by registry phase name (`coarse`) or index (`2`);
//! anything outside the registry is rejected with the valid range and
//! exit code 2.

use pgr_bench::aggregate::{aggregate, check_baseline, load_paths};
use pgr_bench::tables::{Opts, Target, TARGETS};
use pgr_circuit::scenarios::ScenarioFamily;
use pgr_mpi::Phase;
use std::path::PathBuf;

fn usage() -> ! {
    let names = |keep: fn(&Target) -> bool| -> String {
        let kept = TARGETS.iter().filter(|t| keep(t));
        kept.map(|t| t.0).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "usage: repro [--scale F] [--circuits a,b,c] [--trace-out DIR]\n             [--kill R@B]... [--family NAME]... <target>...\n\
         targets: {} all\n\
         all:    every target but {}\n\
         chaos:  --kill R@B kills rank R at phase boundary B (registry name or index)\n\
         stress: --family restricts the adversarial-workload matrix (repeatable)\n\
         or:    repro aggregate [--out FILE] [--md FILE] [--baseline FILE] <path>...\n\
         baseline: a gated series more than {:.0} % above its baseline value exits 1",
        names(|_| true),
        names(|t| !t.3),
        TOLERANCE * 100.0,
    );
    std::process::exit(2);
}

/// Parse a `--kill <rank>@<boundary>` spec into `(rank, phase index)`.
/// The boundary names the phase whose entry the rank dies at — either a
/// registry phase name (`coarse`) or its numeric index (`2`) — and is
/// validated against [`Phase::ALL`]; anything outside the registry is a
/// structured error listing the valid boundaries.
fn parse_kill(spec: &str) -> Result<(usize, u64), String> {
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
    Ok((rank, idx as u64))
}

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Relative rise of a gated series that `repro aggregate --baseline` lets
/// pass: the CI gate (the series are virtual, so equal on every host).
const TOLERANCE: f64 = 0.02;

fn aggregate_main(args: impl Iterator<Item = String>) -> ! {
    let mut out: Option<PathBuf> = None;
    let mut md: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--md" => md = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--baseline" => baseline = Some(args.next().unwrap_or_else(|| usage()).into()),
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
        let regressions = check_baseline(&agg, &text, TOLERANCE).unwrap_or_else(|e| fail(&e));
        if regressions.is_empty() {
            eprintln!(
                "baseline check passed (tolerance {:.1} %)",
                TOLERANCE * 100.0
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
            "--family" => {
                let v = args.next().unwrap_or_else(|| usage());
                let family = ScenarioFamily::from_name(&v).unwrap_or_else(|| {
                    let registry: Vec<&str> =
                        ScenarioFamily::ALL.iter().map(|f| f.name()).collect();
                    fail(&format!(
                        "--family '{v}' is not an adversarial workload family; valid: {}",
                        registry.join(", ")
                    ))
                });
                opts.families.get_or_insert_with(Vec::new).push(family);
            }
            "-h" | "--help" => usage(),
            f if f.starts_with('-') => fail(&format!("unknown flag '{f}'")),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    let find = |t: &String| {
        let named = |(name, aliases, ..): &&Target| name == t || aliases.contains(&t.as_str());
        TARGETS.iter().find(named).unwrap_or_else(|| {
            eprintln!("unknown target '{t}'");
            usage()
        })
    };
    let runs: Vec<&Target> = if targets.iter().any(|t| t == "all") {
        TARGETS.iter().filter(|t| t.3).collect()
    } else {
        targets.iter().map(find).collect()
    };
    for (_, _, run, _) in runs {
        run(&opts);
    }
}
