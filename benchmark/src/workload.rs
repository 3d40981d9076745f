//! One workload, pass by pass. The traced run is separate from the timed
//! run: end-to-end metrics are measured with the program's tracing,
//! metrics and the counting allocator all off.
//!
//! 1. **setup pass** — generate, `to_text`, salt, n × `from_text`.
//! 2. **warm-up = memory pass** — one untimed route with the counting
//!    allocator on; fully verified; the reference every later result
//!    must equal.
//! 3. **timed pass** — closed loop, one route at a time.
//! 4. **traced pass** — one route under `ClockMode::Wall` + metered.
//! 5. **full-trace pass** — one route with the event rings on too.
//! 6. **probes** — direct timed calls into leaf public functions.

use crate::adapter::{self, Driver, InputFacts, Netlist, Observe, RankRun, RouteRun};
use crate::alloc::{self, HeapStats};
use crate::ops::{Exact, Ops};
use crate::registry::{self, Metric, Workload, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, SpanLog};
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

pub struct RunOptions {
    /// Salts the net names of the netlist text — and nothing that steers
    /// the router (see the README, "What the seed does").
    pub seed: u64,
    /// Which circuits to route: 0 for the canonical ones, anything else
    /// for a hold-out geometry and router seed derived from it.
    pub instance: u64,
    /// How long the timed pass measures, in seconds.
    pub seconds: f64,
    /// Measure the end-to-end metrics (`--trace 0`, or no `--trace`).
    pub timed: bool,
    /// Measure the per-layer metrics (`--trace 1`, or no `--trace`).
    pub traced: bool,
    /// Plumbing smoke: 0.1-scale inputs, one repetition of everything.
    pub quick: bool,
}

/// `pgr_bench::SEED`, the router seed of every `repro` table.
const CANONICAL_ROUTER_SEED: u64 = 1997;

/// Timed route calls per workload: never fewer (the slow workloads take
/// 2–3 s a call, so the floor, not `--seconds`, sizes their pass) …
const TIMED_MIN_REPS: usize = 7;
/// … and never more (61 × 0.5 s: the fast workloads stop on `--seconds`).
const TIMED_MAX_REPS: usize = 61;
/// `from_text` calls behind `setup_s`: up to 31, fewer on the 10 MB
/// netlist, where the time budget ends the pass first.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 31;
const SETUP_BUDGET_S: f64 = 2.5;
/// In a traced-only run the setup and timed passes are only the base of
/// the overhead fractions, speedups and rates: a quarter of the time,
/// at least three calls. The serial reference of the P = 2 workloads is
/// three calls too.
const BASE_MIN_REPS: usize = 3;
const BASE_SHARE: f64 = 0.25;
/// Passes per probe; the median is reported.
const PROBE_REPS: usize = 5;

pub struct Timing {
    pub name: &'static str,
    pub samples: Vec<f64>,
}

pub struct WorkloadReport {
    pub workload: &'static str,
    pub facts: InputFacts,
    pub netlist_bytes: usize,
    /// FNV-1a 64 of the netlist text: same seed, same inputs.
    pub netlist_hash: u64,
    /// Every registered metric this run measured, in registry order.
    pub metrics: Vec<(Metric, f64)>,
    /// The samples behind the timing metrics (`setup_s`, `route_s`).
    pub timings: Vec<Timing>,
    /// Every repetition count, by pass.
    pub reps: Vec<(&'static str, usize)>,
    pub ops: Ops,
    pub spans: SpanLog,
    /// `(Σ core.phase.*.wall_s + core.route_self_s) ÷ bench.route`, the
    /// traced pass's reconciliation (1 when the layers add up).
    pub reconciliation: Option<f64>,
}

impl WorkloadReport {
    pub fn timing(&self, name: &str) -> Option<&[f64]> {
        self.timings
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.samples.as_slice())
    }
}

/// A route call's outcome; equal when the routed solutions are (every
/// span, density, wirelength — `RoutingResult`'s `==`).
struct Outcome(RouteRun);

impl PartialEq for Outcome {
    fn eq(&self, other: &Self) -> bool {
        self.0.routed == other.0.routed
    }
}

fn exact(run: &RouteRun) -> Exact {
    Exact {
        virtual_s: run.ranks.iter().map(|r| r.virtual_s).fold(0.0, f64::max),
        ops: run.ranks.iter().map(|r| r.ops).sum(),
        msgs: run.ranks.iter().map(|r| r.msgs_sent).sum(),
        bytes: run.ranks.iter().map(|r| r.bytes_sent).sum(),
    }
}

/// Metric values by registered name. Setting an unregistered name, or
/// finishing with a registered one unset, is a bug in the benchmark.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is not in the registry"
        );
        assert!(value.is_finite(), "metric '{name}' is not a finite number");
        self.0.push((name, value));
    }

    fn collect(&self, registered: &[Metric], out: &mut Vec<(Metric, f64)>) -> Result<(), String> {
        for m in registered {
            let v = self.0.iter().find(|(n, _)| *n == m.name);
            out.push((
                *m,
                v.ok_or(format!("metric '{}' was not measured", m.name))?.1,
            ));
        }
        Ok(())
    }
}

/// Calls `f` until it has run `min` times and `budget_s` seconds have
/// passed, at most `max` times; `f` returns the seconds it measured, or
/// `None` to end the pass (the call failed).
fn repeat(min: usize, max: usize, budget_s: f64, mut f: impl FnMut() -> Option<f64>) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max && (samples.len() < min || start.elapsed().as_secs_f64() < budget_s) {
        match f() {
            Some(s) => samples.push(s),
            None => break,
        }
    }
    samples
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the setup pass leaves behind.
struct Setup {
    netlist: Netlist,
    netlist_bytes: usize,
    netlist_hash: u64,
    generate_s: f64,
    to_text_s: f64,
    /// Seconds of each timed `from_text`.
    samples: Vec<f64>,
    /// Heap the parsed netlist keeps allocated.
    retained_bytes: u64,
}

/// State shared by the route passes and probes of one workload.
struct Pass<'a> {
    workload: &'static Workload,
    netlist: &'a Netlist,
    router_seed: u64,
    quick: bool,
    ops: Ops,
    log: SpanLog,
    values: Values,
    reps: Vec<(&'static str, usize)>,
}

impl Pass<'_> {
    /// `n` repetitions, or one in a `--quick` run.
    fn reps_of(&self, n: usize) -> usize {
        if self.quick {
            1
        } else {
            n
        }
    }

    /// Why the workload cannot go on: every failure so far.
    fn stopped(&self) -> String {
        format!("{}: {}", self.workload.name, self.ops.failures.join("; "))
    }

    /// One route call as one op: timed around the call only — comparing
    /// and dropping the result stay outside. Returns the run and the
    /// call's start and end on the span log's clock.
    fn route(
        &mut self,
        pass: &str,
        driver: Driver,
        observe: Observe,
        reference: Option<&(Outcome, Exact)>,
    ) -> Option<(RouteRun, f64, f64)> {
        let (netlist, seed, clock) = (self.netlist, self.router_seed, &self.log);
        let mut window = (0.0, 0.0);
        let outcome = self.ops.attempt(pass, reference.map(|(o, e)| (o, e)), || {
            let start = clock.now();
            let run = adapter::route(netlist, driver, seed, observe);
            window = (start, clock.now());
            run.map(|r| {
                let e = exact(&r);
                (Outcome(r), e)
            })
        });
        outcome.map(|(o, _)| (o.0, window.0, window.1))
    }

    /// [`PROBE_REPS`] passes of `f`, each one a `probe.<metric>` span;
    /// `each` gets the span's seconds and what the pass returned.
    fn probe_passes<R>(
        &mut self,
        metric: &'static str,
        layer: &'static str,
        mut f: impl FnMut() -> R,
        mut each: impl FnMut(f64, R),
    ) {
        for _ in 0..PROBE_REPS {
            let (out, id) = self
                .log
                .time(None, format!("probe.{metric}"), layer, &mut f);
            each(self.log.get(id).duration(), black_box(out));
        }
    }

    /// Probes `f` and sets `metric` to the median seconds of a pass times
    /// `scale`. Returns what the last pass returned.
    fn probe<R>(
        &mut self,
        metric: &'static str,
        layer: &'static str,
        scale: f64,
        f: impl FnMut() -> R,
    ) -> R {
        let mut seconds = Vec::new();
        let mut last = None;
        self.probe_passes(metric, layer, f, |s, out| {
            seconds.push(s);
            last = Some(out);
        });
        self.values.set(metric, median(&seconds) * scale);
        last.expect("a probe makes passes")
    }

    /// Probes an `f` that times itself (a loop inside rank 0, spawn
    /// excluded) and sets `metric` to the median of the seconds it
    /// returns times `scale`; the span around each pass is wider.
    fn probe_self_timed(
        &mut self,
        metric: &'static str,
        layer: &'static str,
        scale: f64,
        f: impl FnMut() -> f64,
    ) {
        let mut seconds = Vec::new();
        self.probe_passes(metric, layer, f, |_, s| seconds.push(s));
        self.values.set(metric, median(&seconds) * scale);
    }
}

pub fn run_workload(w: &'static Workload, opts: &RunOptions) -> Result<WorkloadReport, String> {
    let mut log = SpanLog::new(format!("{}.seed{}", w.name, opts.seed));
    // Instance 0 is the repo's own circuits and router seed (what every
    // `repro` table routes); any other instance is a fresh geometry and
    // router seed, for checking a claim on inputs it was not tuned on.
    let (geometry_seed, router_seed) = match opts.instance {
        0 => (None, CANONICAL_ROUTER_SEED),
        k => (
            Some(adapter::derive_seed(k, registry::input_index(w.input))),
            k,
        ),
    };
    let setup = setup_pass(w, opts, geometry_seed, &mut log)?;
    let setup_s = median(&setup.samples);
    let mut pass = Pass {
        workload: w,
        netlist: &setup.netlist,
        router_seed,
        quick: opts.quick,
        ops: Ops::default(),
        log,
        values: Values(Vec::new()),
        reps: vec![("setup", setup.samples.len())],
    };

    // ---- 2. warm-up = memory pass -------------------------------------
    let (warm, heap): (_, HeapStats) =
        alloc::measure(|| pass.route("memory", w.driver, Observe::Off, None));
    let Some((warm, _, _)) = warm else {
        return Err(pass.stopped());
    };
    let (violations, verify_span) = pass.log.time(None, "probe.core.verify.wall_s", "core", || {
        adapter::verify_route(&setup.netlist, &warm.routed)
    });
    if !violations.is_empty() {
        pass.ops.fail(format!(
            "memory: verify found {} violations, first: {}",
            violations.len(),
            violations[0]
        ));
    }
    let warm_exact = exact(&warm);
    let reference = (Outcome(warm), warm_exact);
    let warm = &reference.0 .0;

    // ---- 3. timed pass ------------------------------------------------
    let (min, budget_s) = if opts.timed {
        (TIMED_MIN_REPS, opts.seconds)
    } else {
        (BASE_MIN_REPS, opts.seconds * BASE_SHARE)
    };
    let route_samples = repeat(
        pass.reps_of(min),
        pass.reps_of(TIMED_MAX_REPS),
        budget_s,
        || {
            pass.route("timed", w.driver, Observe::Off, Some(&reference))
                .map(|(_, start, end)| end - start)
        },
    );
    if route_samples.is_empty() {
        return Err(pass.stopped());
    }
    pass.reps.push(("timed", route_samples.len()));
    let route_s = median(&route_samples);

    let mut metrics = Vec::new();
    if opts.timed {
        pass.values.set("setup_s", setup_s);
        pass.values.set("route_s", route_s);
        pass.values
            .set("peak_heap_mb", heap.peak_bytes as f64 / 1e6);
        pass.values.set("tracks", warm.routed.tracks() as f64);
        pass.values.set("virtual_s", warm_exact.virtual_s);
        pass.values.collect(&END_TO_END, &mut metrics)?;
    }

    let mut reconciliation = None;
    if opts.traced {
        let v = &mut pass.values;
        v.set("circuit.generate_s", setup.generate_s);
        v.set("circuit.to_text_s", setup.to_text_s);
        v.set(
            "circuit.from_text_mb_per_s",
            setup.netlist_bytes as f64 / 1e6 / setup_s,
        );
        v.set("circuit.heap_mb", setup.retained_bytes as f64 / 1e6);
        let modeled: u64 = warm.ranks.iter().map(|r| r.modeled_peak_bytes).sum();
        v.set("mem.peak_heap_bytes", heap.peak_bytes as f64);
        v.set("mem.allocs", heap.allocs as f64);
        v.set("mem.alloc_bytes", heap.alloc_bytes as f64);
        v.set(
            "mem.modeled_over_measured",
            modeled as f64 / heap.peak_bytes.max(1) as f64,
        );
        v.set("core.verify.wall_s", pass.log.get(verify_span).duration());

        reconciliation = Some(traced_passes(&mut pass, &reference, route_s)?);
        probe_circuit_and_geom(&mut pass, warm);
        probe_mpi(&mut pass, warm)?;
        probe_channel(&mut pass, warm)?;
        pass.reps.push(("probe", PROBE_REPS));
        pass.values.collect(&PER_LAYER, &mut metrics)?;
    }

    Ok(WorkloadReport {
        workload: w.name,
        facts: setup.netlist.facts(),
        netlist_bytes: setup.netlist_bytes,
        netlist_hash: setup.netlist_hash,
        metrics,
        timings: vec![
            Timing {
                name: "setup_s",
                samples: setup.samples,
            },
            Timing {
                name: "route_s",
                samples: route_samples,
            },
        ],
        reps: pass.reps,
        ops: pass.ops,
        spans: pass.log,
        reconciliation,
    })
}

/// Pass 1: the netlist text from the generator and the seed, `from_text`
/// timed on it, and one more `from_text` under the counting allocator —
/// the netlist the program routes.
fn setup_pass(
    w: &Workload,
    opts: &RunOptions,
    geometry_seed: Option<u64>,
    log: &mut SpanLog,
) -> Result<Setup, String> {
    let scale = if opts.quick { 0.1 } else { 1.0 };
    let (generated, gen_span) = log.time(None, "probe.circuit.generate_s", "circuit", || {
        adapter::generate_input(w.input, geometry_seed, scale)
    });
    let (text, text_span) = log.time(None, "probe.circuit.to_text_s", "circuit", || {
        adapter::netlist_text(&generated)
    });
    drop(generated);
    let text = adapter::salt_net_names(&text, opts.seed);

    let (min, max, budget_s) = match (opts.quick, opts.timed) {
        (true, _) => (1, 1, 0.0),
        (false, true) => (SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S),
        (false, false) => (BASE_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S * BASE_SHARE),
    };
    let unparsable = |e: String| format!("{}: the generated netlist does not parse: {e}", w.name);
    let mut parse_error = None;
    let samples = repeat(min, max, budget_s, || {
        let (parsed, id) = log.time(None, "setup.from_text", "circuit", || {
            adapter::parse_netlist(&text)
        });
        match parsed {
            Ok(n) => {
                black_box(n);
                Some(log.get(id).duration())
            }
            Err(e) => {
                parse_error = Some(e);
                None
            }
        }
    });
    if let Some(e) = parse_error {
        return Err(unparsable(e));
    }
    let (parsed, heap) = alloc::measure(|| adapter::parse_netlist(&text));
    Ok(Setup {
        netlist: parsed.map_err(unparsable)?,
        netlist_bytes: text.len(),
        netlist_hash: fnv1a64(text.as_bytes()),
        generate_s: log.get(gen_span).duration(),
        to_text_s: log.get(text_span).duration(),
        samples,
        retained_bytes: heap.retained_bytes,
    })
}

/// Passes 4 and 5: one metered route under the wall clock with its
/// rank × phase spans, one fully traced route, and on the P = 2
/// workloads the serial reference of the speedups. `route_s` is the
/// timed pass's median. Returns the traced pass's reconciliation.
fn traced_passes(
    pass: &mut Pass<'_>,
    reference: &(Outcome, Exact),
    route_s: f64,
) -> Result<f64, String> {
    let driver = pass.workload.driver;
    let Some((traced, t0, t1)) = pass.route("traced", driver, Observe::Metered, Some(reference))
    else {
        return Err(pass.stopped());
    };
    pass.reps.push(("traced", 1));
    let root = pass.log.record(None, "bench.route", "bench", None, t0, t1);
    let slowest = record_rank_spans(&mut pass.log, root, &traced, t0)?;
    let route_wall = t1 - t0;

    // ---- core: phases on the slowest rank ------------------------------
    let makespan_rank = traced
        .ranks
        .iter()
        .max_by(|a, b| a.virtual_s.total_cmp(&b.virtual_s))
        .expect("a run has ranks");
    let in_phase = |rank: &RankRun, phase: &str, wall: bool| -> f64 {
        rank.phases
            .iter()
            .filter(|p| p.name == phase)
            .map(|p| {
                if wall {
                    p.wall_s.unwrap_or(0.0)
                } else {
                    p.virtual_s
                }
            })
            .sum()
    };
    let v = &mut pass.values;
    let mut phase_sum = 0.0;
    for phase in registry::PHASES {
        let wall_s = in_phase(&traced.ranks[slowest], phase, true);
        phase_sum += wall_s;
        v.set(
            registry::phase_metric(phase, "wall_s").expect("registered"),
            wall_s,
        );
        v.set(
            registry::phase_metric(phase, "virtual_s").expect("registered"),
            in_phase(makespan_rank, phase, false),
        );
    }
    for p in &traced.ranks[slowest].phases {
        if !registry::PHASES.contains(&p.name) {
            eprintln!("warning: phase '{}' has no core.phase metric", p.name);
        }
    }
    let self_s = pass.log.self_time(root, Some(slowest));
    let counts = exact(&traced);
    v.set("core.ops_charged", counts.ops as f64);
    v.set(
        "core.host_ns_per_op",
        route_wall * 1e9 / counts.ops.max(1) as f64,
    );
    v.set("core.route_self_s", self_s);
    v.set("core.segments", traced.segments as f64);
    v.set("core.result.wirelength", traced.routed.wirelength() as f64);
    v.set(
        "core.result.feedthroughs",
        traced.routed.feedthroughs() as f64,
    );
    v.set("core.result.spans", traced.routed.spans() as f64);
    v.set("core.result.chip_width", traced.routed.chip_width() as f64);

    // ---- core: parallel drivers ----------------------------------------
    let imbalance = |of: &dyn Fn(&RankRun) -> f64| {
        let all: Vec<f64> = traced.ranks.iter().map(of).collect();
        all.iter().copied().fold(0.0, f64::max) * all.len() as f64 / all.iter().sum::<f64>()
    };
    v.set(
        "core.parallel.rank_wall_imbalance",
        imbalance(&|r| r.wall_s.unwrap_or(0.0)),
    );
    v.set(
        "core.parallel.virtual_imbalance",
        imbalance(&|r| r.virtual_s),
    );
    let rank0_ends =
        in_phase(&traced.ranks[0], "setup", true) + in_phase(&traced.ranks[0], "assemble", true);
    v.set(
        "core.parallel.rank0_setup_assemble_share",
        rank0_ends / route_wall,
    );

    // ---- mpi: exact counts ---------------------------------------------
    v.set("mpi.msgs_sent", counts.msgs as f64);
    v.set("mpi.bytes_sent", counts.bytes as f64);
    let max_rank_bytes = traced.ranks.iter().map(|r| r.bytes_sent).max().unwrap_or(0);
    v.set("mpi.max_rank_bytes_sent", max_rank_bytes as f64);
    v.set("mpi.recv_wait_virtual_s", traced.recv_wait_virtual_s);
    let modeled_peak = traced
        .ranks
        .iter()
        .map(|r| r.modeled_peak_bytes)
        .max()
        .unwrap_or(0);
    v.set("mpi.modeled_peak_mb", modeled_peak as f64 / 1e6);
    drop(traced);

    // ---- 5. full-trace pass --------------------------------------------
    let Some((full, f0, f1)) = pass.route("full-trace", driver, Observe::Full, Some(reference))
    else {
        return Err(pass.stopped());
    };
    pass.reps.push(("full-trace", 1));
    pass.log
        .record(None, "bench.route.full_trace", "bench", None, f0, f1);
    pass.values
        .set("obs.trace_overhead_frac", route_wall / route_s - 1.0);
    pass.values
        .set("obs.full_trace_overhead_frac", (f1 - f0) / route_s - 1.0);
    let dump_bytes = pass.probe("obs.metrics_json_ms", "obs", 1e3, || {
        full.metrics_json().len()
    });
    pass.values
        .set("obs.metrics_json_kb", dump_bytes as f64 / 1e3);
    drop(full);

    // ---- speedups --------------------------------------------------------
    // Against the serial router on the same netlist, in the same
    // invocation; a serial workload is its own reference.
    let virtual_s = reference.1.virtual_s;
    let (serial_route_s, serial_virtual_s) = if driver == Driver::Serial {
        (route_s, virtual_s)
    } else {
        let n = pass.reps_of(BASE_MIN_REPS);
        let mut serial_virtual_s = 0.0;
        let samples = repeat(n, n, 0.0, || {
            pass.route("serial-reference", Driver::Serial, Observe::Off, None)
                .map(|(serial, start, end)| {
                    serial_virtual_s = exact(&serial).virtual_s;
                    end - start
                })
        });
        if samples.is_empty() {
            return Err(pass.stopped());
        }
        pass.reps.push(("serial-reference", samples.len()));
        (median(&samples), serial_virtual_s)
    };
    pass.values
        .set("core.parallel.host_speedup", serial_route_s / route_s);
    pass.values.set(
        "core.parallel.virtual_speedup",
        serial_virtual_s / virtual_s,
    );

    Ok((phase_sum + self_s) / route_wall)
}

/// One child span of `root` per rank × phase, rebuilt from the run
/// report: phase durations are laid end to end from the rank's first
/// phase mark, taking the run's shared epoch (set inside the call, just
/// before the ranks spawn) as the start of `root`. Returns the slowest
/// rank.
fn record_rank_spans(
    log: &mut SpanLog,
    root: SpanId,
    run: &RouteRun,
    t0: f64,
) -> Result<usize, String> {
    let mut slowest = (0, f64::MIN);
    for (rank, r) in run.ranks.iter().enumerate() {
        let wall = r
            .wall_s
            .ok_or("the traced pass ran without wall-clock stats")?;
        if wall > slowest.1 {
            slowest = (rank, wall);
        }
        let in_phases: f64 = r.phases.iter().filter_map(|p| p.wall_s).sum();
        let mut cursor = t0 + (wall - in_phases);
        for p in &r.phases {
            let d = p.wall_s.unwrap_or(0.0);
            log.record(
                Some(root),
                format!("core.phase.{}", p.name),
                "core",
                Some(rank),
                cursor,
                cursor + d,
            );
            cursor += d;
        }
    }
    Ok(slowest.0)
}

fn probe_circuit_and_geom(pass: &mut Pass<'_>, warm: &RouteRun) {
    let netlist = pass.netlist;
    // Seconds of a pass over `n` items → nanoseconds per item.
    let ns_per = |n: usize| 1e9 / n.max(1) as f64;
    let pins = netlist.facts().pins;
    pass.probe(
        "circuit.net_sweep_ns_per_pin",
        "circuit",
        ns_per(pins),
        || netlist.net_sweep(),
    );

    let inputs = adapter::GeomInputs::collect(netlist, &warm.routed);
    let small = ns_per(inputs.small_nets());
    pass.probe("geom.mst_prim.small_ns_per_net", "geom", small, || {
        inputs.mst_prim_pass(false)
    });
    pass.probe("geom.mst_adj.small_ns_per_net", "geom", small, || {
        inputs.mst_adjacent_pass(false)
    });
    // All giant nets of the netlist in one pass: the metric is the pass.
    pass.probe("geom.mst_prim.giant_ms", "geom", 1e3, || {
        inputs.mst_prim_pass(true)
    });
    pass.probe("geom.mst_adj.giant_ms", "geom", 1e3, || {
        inputs.mst_adjacent_pass(true)
    });
    let mut profile = inputs.loaded_profile();
    let calls = ns_per(2 * inputs.spans());
    pass.probe("geom.density.add_remove_ns", "geom", calls, || {
        inputs.density_add_remove_pass(&mut profile)
    });
    let calls = ns_per(inputs.spans());
    pass.probe("geom.density.max_if_added_ns", "geom", calls, || {
        inputs.density_query_pass(&profile)
    });
    let (items, seed) = (warm.routed.spans(), pass.router_seed);
    pass.probe("geom.shuffle_ns_per_item", "geom", ns_per(items), || {
        adapter::shuffle_pass(items, seed)
    });
}

fn probe_mpi(pass: &mut Pass<'_>, warm: &RouteRun) -> Result<(), String> {
    let iters = if pass.quick { 20 } else { 2000 };
    let frames = if pass.quick { 4 } else { 64 };
    let rounds = frames / 4;
    pass.probe(
        "mpi.probe.spawn_join_us",
        "mpi",
        1e6,
        adapter::mpi_spawn_join,
    );
    let us_per_iter = 1e6 / iters as f64;
    pass.probe_self_timed("mpi.probe.p2p_roundtrip_us", "mpi", us_per_iter, || {
        adapter::mpi_p2p_roundtrips(iters)
    });
    pass.probe_self_timed("mpi.probe.allgather_small_us", "mpi", us_per_iter, || {
        adapter::mpi_allgathers(iters)
    });
    let ns_per_byte = 1e9 / (frames * adapter::BULK_FRAME_BYTES) as f64;
    pass.probe_self_timed(
        "mpi.probe.send_bytes_bulk_ns_per_byte",
        "mpi",
        ns_per_byte,
        || adapter::mpi_bulk_frames(frames, false),
    );
    pass.probe_self_timed(
        "mpi.probe.reliable_bulk_ns_per_byte",
        "mpi",
        ns_per_byte,
        || adapter::mpi_bulk_frames(frames, true),
    );
    let ns_per_byte = 1e9 / (rounds * adapter::PROCS * adapter::BULK_FRAME_BYTES) as f64;
    pass.probe_self_timed(
        "mpi.probe.alltoall_bulk_ns_per_byte",
        "mpi",
        ns_per_byte,
        || adapter::mpi_bulk_alltoalls(rounds),
    );

    let wire = adapter::WireInputs::new(&warm.routed);
    let ns_per_record = 1e9 / wire.records().max(1) as f64;
    let bytes = pass.probe(
        "mpi.probe.wire_encode_ns_per_record",
        "mpi",
        ns_per_record,
        || wire.encode(),
    );
    pass.probe(
        "mpi.probe.wire_decode_ns_per_record",
        "mpi",
        ns_per_record,
        || wire.decode(&bytes),
    );
    if wire.round_trips(&bytes) {
        Ok(())
    } else {
        Err(format!(
            "{}: the result's spans did not survive a Wire round trip",
            pass.workload.name
        ))
    }
}

fn probe_channel(pass: &mut Pass<'_>, warm: &RouteRun) -> Result<(), String> {
    let tracks = pass.probe("channel.detailed_s", "channel", 1.0, || {
        adapter::detailed_route(&warm.routed)
    });
    let tracks = tracks.map_err(|e| format!("{}: {e}", pass.workload.name))?;
    pass.values.set("channel.lea_tracks", tracks as f64);
    Ok(())
}
