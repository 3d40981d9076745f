//! `pgr-benchmark` — the repo benchmark's command line.
//!
//! ```text
//! pgr-benchmark run [--workload NAME] [--seed N] [--instance K] [--seconds S] [--trace 0|1]
//!                   [--quick] [--out FILE] [--trace-dir DIR]
//! pgr-benchmark compare A.json B.json
//! ```
//!
//! `run` without `--workload` runs all four workloads; without `--trace`
//! it runs both the timed and the traced passes. After each workload it
//! prints every metric by name with its unit, then one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`) — the last line of
//! output when one workload was asked for, which is the form the driver
//! uses.

use pgr_benchmark::registry::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use pgr_benchmark::workload::{run_workload, RunOptions};
use pgr_benchmark::{compare, report};
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1997;

const USAGE: &str = "usage:
  pgr-benchmark run [--workload NAME] [--seed N] [--instance K] [--seconds S] [--trace 0|1] [--quick] [--out FILE] [--trace-dir DIR]
  pgr-benchmark compare A.json B.json";

fn usage(msg: &str) -> ExitCode {
    eprintln!("pgr-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

struct RunArgs {
    workloads: Vec<&'static Workload>,
    opts: RunOptions,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        opts: RunOptions {
            seed: DEFAULT_SEED,
            instance: 0,
            seconds: registry::RUN_SECONDS,
            timed: true,
            traced: true,
            quick: false,
        },
        out: None,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.opts.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = registry::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (have: {})", names.join(", "))
                })?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                parsed.opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: want a whole number"))?;
            }
            "--instance" => {
                parsed.opts.instance = value
                    .parse()
                    .map_err(|_| format!("--instance {value}: want a whole number"))?;
            }
            "--seconds" => {
                parsed.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: want a positive number"))?;
            }
            "--trace" => {
                (parsed.opts.timed, parsed.opts.traced) = match value.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--trace-dir" => parsed.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

fn run(args: RunArgs) -> Result<(), String> {
    registry::validate(&WORKLOADS, &END_TO_END, &PER_LAYER)
        .map_err(|e| format!("the metric registry breaks the benchmark contract: {e}"))?;
    let mut reports = Vec::new();
    for w in args.workloads {
        let r = run_workload(w, &args.opts)?;
        report::print_table(&r);
        println!("{}", report::contract_line(&r));
        reports.push(r);
    }
    // Spans are kept in memory until here, the end of the benchmark.
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for r in &reports {
            let path = dir.join(format!("{}.spans.json", r.workload));
            std::fs::write(&path, r.spans.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report::result_json(&reports, &args.opts))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Err(e) => usage(&e),
            Ok(parsed) => match run(parsed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pgr-benchmark: {e}");
                    ExitCode::FAILURE
                }
            },
        },
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage("compare takes two result files");
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            match read(a)
                .and_then(|a| Ok((a, read(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
            {
                Ok((table, failed)) => {
                    print!("{table}");
                    if failed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("pgr-benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage("want a subcommand"),
    }
}
