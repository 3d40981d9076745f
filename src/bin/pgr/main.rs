//! `pgr` — command-line global router.
//!
//! ```text
//! pgr generate <circuit> [--scale F] [--seed N] -o FILE   write a benchmark netlist
//! pgr stats    <FILE>                                     print circuit statistics
//! pgr route    <FILE> [options]                           route a netlist
//!
//! route options:
//!   --algorithm serial|row-wise|net-wise|hybrid   (default serial)
//!   --procs N                                     (default 4; ignored for serial)
//!   --machine smp|dmp|ideal                       (default smp)
//!   --partition center|locus|density|pin-weight   (default pin-weight)
//!   --seed N                                      (default 1)
//!   --csv                                         machine-readable output
//!   --detailed                                    run the left-edge channel router
//!   --heatmap                                     ASCII congestion heatmap
//!   --svg FILE                                    write an SVG chip plot
//!   --verify                                      re-check the solution
//! ```

use pgr::circuit::format::from_text;
use pgr::circuit::mcnc::{Mcnc, ALL};
use pgr::circuit::{format, Circuit};
use pgr::mpi::{InstrumentConfig, MachineModel};
use pgr::router::{
    route_parallel_guarded, verify, Algorithm, PartitionKind, RouterConfig, RoutingResult,
};
use std::process::exit;

mod report;

fn die(msg: &str) -> ! {
    eprintln!("pgr: {msg}");
    exit(2)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  pgr generate <circuit> [--scale F] [--seed N] -o FILE\n  pgr stats <FILE>\n  pgr route <FILE> [--algorithm A] [--procs N] [--machine M] [--partition P] [--seed N] [--csv] [--detailed] [--heatmap] [--svg FILE] [--verify]\n\ncircuits: {}",
        ALL.map(|m| m.name()).join(", ")
    );
    exit(2)
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

impl Args {
    /// The value of `--name`, or `default`.
    fn flag<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// The value of `--name` parsed, or `default`; an unparsable one dies.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let parse = |s: &String| s.parse().unwrap_or_else(|_| die(&format!("bad --{name}")));
        self.flags.get(name).map_or(default, parse)
    }
}

fn parse_args(valued: &[&str], boolean: &[&str]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if boolean.contains(&name) {
                switches.insert(name.to_string());
            } else if valued.contains(&name) {
                let v = it
                    .next()
                    .unwrap_or_else(|| die(&format!("--{name} needs a value")));
                flags.insert(name.to_string(), v);
            } else {
                die(&format!("unknown option --{name}"));
            }
        } else if a == "-o" {
            let v = it.next().unwrap_or_else(|| die("-o needs a path"));
            flags.insert("o".into(), v);
        } else {
            positional.push(a);
        }
    }
    Args {
        positional,
        flags,
        switches,
    }
}

fn load(path: &str) -> Circuit {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    from_text(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

fn cmd_generate() {
    let args = parse_args(&["scale", "seed"], &[]);
    let name = args.positional.first().unwrap_or_else(|| usage());
    let m = Mcnc::from_name(name).unwrap_or_else(|| die(&format!("unknown circuit '{name}'")));
    let scale: f64 = args.parsed("scale", 1.0);
    if !(scale > 0.0 && scale <= 1.0) {
        die("--scale must be in (0, 1]");
    }
    let mut cfg = if scale == 1.0 {
        m.config()
    } else {
        m.config_scaled(scale)
    };
    cfg.seed = args.parsed("seed", cfg.seed);
    let circuit = pgr::circuit::generate(&cfg);
    let out = args
        .flags
        .get("o")
        .unwrap_or_else(|| die("generate needs -o FILE"));
    std::fs::write(out, format::to_text(&circuit))
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    let s = circuit.stats();
    eprintln!(
        "wrote {out}: {} rows, {} cells, {} nets, {} pins",
        s.rows, s.cells, s.nets, s.pins
    );
}

fn cmd_stats() {
    let args = parse_args(&[], &[]);
    let path = args.positional.first().unwrap_or_else(|| usage());
    let c = load(path);
    let s = c.stats();
    println!("name           {}", s.name);
    println!("rows           {}", s.rows);
    println!("cells          {}", s.cells);
    println!("pins           {}", s.pins);
    println!("nets           {}", s.nets);
    println!("core width     {}", s.width);
    println!("max net degree {}", s.max_net_degree);
    println!("equiv. pins    {}", s.switchable_pins);
    println!(
        "est. memory    {:.1} MB",
        c.estimated_routing_bytes() as f64 / (1 << 20) as f64
    );
}

fn print_result(result: &RoutingResult, time: f64, procs: usize, algo: &str, csv: bool) {
    if csv {
        println!("circuit,algorithm,procs,tracks,area,wirelength,feedthroughs,spans,sim_seconds");
        println!(
            "{},{},{},{},{},{},{},{},{:.3}",
            result.circuit,
            algo,
            procs,
            result.track_count(),
            result.area(),
            result.wirelength,
            result.feedthroughs,
            result.span_count(),
            time
        );
    } else {
        println!(
            "routed '{}' with {algo} on {procs} simulated processor(s):",
            result.circuit
        );
        println!("  tracks        {}", result.track_count());
        println!("  area          {}", result.area());
        println!("  wirelength    {}", result.wirelength);
        println!("  feedthroughs  {}", result.feedthroughs);
        println!("  spans         {}", result.span_count());
        println!("  sim. time     {time:.2} s");
    }
}

fn cmd_route() {
    let args = parse_args(
        &["algorithm", "procs", "machine", "partition", "seed", "svg"],
        &["csv", "verify", "detailed", "heatmap"],
    );
    let path = args.positional.first().unwrap_or_else(|| usage());
    let circuit = load(path);

    let machine = match args.flag("machine", "smp") {
        "smp" => MachineModel::sparc_center_1000(),
        "dmp" => MachineModel::intel_paragon(),
        "ideal" => MachineModel::ideal(),
        m => die(&format!("unknown machine '{m}' (smp|dmp|ideal)")),
    };
    let partition = match args.flag("partition", "pin-weight") {
        "center" => PartitionKind::Center,
        "locus" => PartitionKind::Locus,
        "density" => PartitionKind::Density,
        "pin-weight" => PartitionKind::PinWeight,
        p => die(&format!("unknown partition '{p}'")),
    };
    let cfg = RouterConfig::with_seed(args.parsed("seed", 1));
    let procs: usize = args.parsed("procs", 4);
    let algo_name = args.flag("algorithm", "serial");

    let algo = Algorithm::DRIVERS
        .into_iter()
        .find(|a| a.name() == algo_name)
        .unwrap_or_else(|| {
            die(&format!(
                "unknown algorithm '{algo_name}' (serial|row-wise|net-wise|hybrid)"
            ))
        });
    let procs = algo.ranks(procs.min(circuit.num_rows()).max(1));
    let out = route_parallel_guarded(
        &circuit,
        &cfg,
        algo,
        partition,
        procs,
        machine,
        InstrumentConfig::off(),
    );
    if !out.fits_memory {
        eprintln!("warning: a rank's modeled working set exceeds the machine's node memory");
    }
    let time = out.time;
    let result = out.result.unwrap_or_else(|e| die(&e.to_string()));

    if args.switches.contains("verify") {
        verify::assert_verified(&circuit, &result);
        eprintln!(
            "solution verified: {} spans re-checked",
            result.span_count()
        );
    }
    print_result(
        &result,
        time,
        procs,
        algo_name,
        args.switches.contains("csv"),
    );
    if let Some(svg_path) = args.flags.get("svg") {
        let svg = report::render_svg(&result);
        std::fs::write(svg_path, &svg)
            .unwrap_or_else(|e| die(&format!("cannot write {svg_path}: {e}")));
        eprintln!("wrote chip plot to {svg_path} ({} bytes)", svg.len());
    }
    if args.switches.contains("heatmap") {
        print!("{}", report::congestion(&result));
    }
    if args.switches.contains("detailed") {
        let d = pgr::router::detailed::route_channels(&result);
        assert!(d.validate(), "detailed routing found a short");
        println!(
            "detailed (left-edge) routing: {} tracks across {} channels (metric said {}), mean utilization {:.2}",
            d.track_count(),
            d.channels.len(),
            result.track_count(),
            d.mean_utilization()
        );
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("generate") => cmd_generate(),
        Some("stats") => cmd_stats(),
        Some("route") => cmd_route(),
        Some("-h") | Some("--help") | None => usage(),
        Some(other) => die(&format!("unknown command '{other}'")),
    }
}
