//! Cross-run aggregation of `*.stats.json` / `*.metrics.json` dumps.
//!
//! `repro --trace-out DIR` leaves one stats file (virtual times, comm
//! volume, phase breakdown) and one metrics file (quality counters,
//! histograms) per run, each stamped with a [`RunMeta`] and a
//! `schema_version`. This module merges any number of such dumps —
//! typically several independent `repro` invocations at different rank
//! counts — into one cross-run report:
//!
//! * **speedup curves**: every run is matched against the `"serial"`
//!   run of the same (circuit, machine, scale, seed) and reported as
//!   `serial makespan / run makespan`;
//! * **phase-time trends**: the slowest rank's per-phase seconds;
//! * **quality deltas**: tracks / wirelength / feedthroughs from the
//!   merged metric shards, scaled against the serial run.
//!
//! The report renders as JSON (machine-readable, and itself versioned)
//! and as a markdown table. [`check_baseline`] compares a fresh
//! aggregate against a committed one and reports regressions beyond a
//! relative tolerance — the CI gate. Because every number here is
//! virtual time from the deterministic simulation, baselines are stable
//! across hosts: any drift is a real behavior change.

use pgr_mpi::RECV_WAIT_MICROS;
use pgr_obs::budget_names::SHED_EVENTS;
use pgr_obs::recovery_names::REDONE_PHASES;
use pgr_obs::{json_escape, merge_ranks, Json, Phase, RankMetrics, RunMeta, SCHEMA_VERSION};
use pgr_router::metrics::names::{FEEDTHROUGHS, LOAD_IMBALANCE, TRACKS, WIRELENGTH};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One run reconstructed from its dump file(s).
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub run: RunMeta,
    /// Slowest rank's final virtual clock (from the stats dump).
    pub makespan: Option<f64>,
    /// Total bytes sent across ranks.
    pub bytes_sent: u64,
    /// Per-phase virtual seconds of the slowest rank, in phase order.
    pub phases: Vec<(String, f64)>,
    /// All ranks' metric shards merged into one (from the metrics dump).
    pub metrics: Option<RankMetrics>,
}

/// Aggregation key: the run coordinates minus the rank count.
fn series_key(run: &RunMeta) -> (String, String, u64, u64) {
    (
        run.circuit.clone(),
        run.machine.clone(),
        run.scale.to_bits(),
        run.seed,
    )
}

/// Full identity of one run (one record per distinct value). The
/// scenario string participates because stress-matrix cells share every
/// other coordinate: the same adversarial circuit is driven by the same
/// algorithm at the same rank count under different budget levers and
/// chaos schedules, and only the cell-stamped scenario tells the
/// resulting dumps apart.
type RunKey = (String, String, usize, String, u64, u64, String);

fn run_key(run: &RunMeta) -> RunKey {
    (
        run.circuit.clone(),
        run.algorithm.clone(),
        run.procs,
        run.machine.clone(),
        run.scale.to_bits(),
        run.seed,
        run.scenario.clone(),
    )
}

fn ctx(path: &Path, what: &str) -> String {
    format!("{}: {what}", path.display())
}

/// The [`RunMeta`] of a dump or of a baseline record.
fn parse_run_meta(v: &Json, path: &Path) -> Result<RunMeta, String> {
    let run = v.get("run").ok_or_else(|| ctx(path, "missing \"run\""))?;
    RunMeta::from_json(run).map_err(|e| ctx(path, &e))
}

/// Parse one dump file, checking `schema_version` and `kind`. Files an
/// older (or newer) writer produced are rejected with a clear error
/// instead of being silently mis-read.
fn parse_dump(path: &Path, text: &str) -> Result<(RunMeta, Json, String), String> {
    let v = Json::parse(text).map_err(|e| ctx(path, &format!("unparseable JSON ({e})")))?;
    let version = v
        .get("schema_version")
        .and_then(|f| f.as_u64())
        .ok_or_else(|| {
            ctx(
                path,
                "missing \"schema_version\" — not an aggregatable dump",
            )
        })?;
    if version != SCHEMA_VERSION as u64 {
        return Err(ctx(
            path,
            &format!("schema_version {version} (this reader understands {SCHEMA_VERSION})"),
        ));
    }
    let kind = v
        .get("kind")
        .and_then(|f| f.as_str())
        .ok_or_else(|| ctx(path, "missing \"kind\""))?
        .to_string();
    let run = parse_run_meta(&v, path)?;
    Ok((run, v, kind))
}

/// Reject phase names outside the [`Phase`] registry: a dump naming an
/// unknown phase was produced by a pipeline that bypassed the engine (or
/// by a different registry), and aggregating it would silently produce
/// trend series nothing else can align with.
fn check_registry_phase(name: &str, path: &Path) -> Result<(), String> {
    if Phase::from_name(name).is_none() {
        return Err(ctx(
            path,
            &format!("phase \"{name}\" is not in the phase registry"),
        ));
    }
    Ok(())
}

/// Apply one stats dump. Last-wins per kind: the simulation is
/// deterministic, so two dumps carrying the same run identity (say, a
/// phase-breakdown pass and a speedup pass at the same rank count) hold
/// identical numbers, and overwriting beats double-counting.
fn apply_stats(rec: &mut RunRecord, v: &Json, path: &Path) -> Result<(), String> {
    rec.makespan = Some(
        v.get("makespan")
            .and_then(|f| f.as_f64())
            .ok_or_else(|| ctx(path, "stats missing \"makespan\""))?,
    );
    let ranks = v
        .get("ranks")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| ctx(path, "stats missing \"ranks\""))?;
    // Every field below is one a v5 writer always emits: a dump without
    // it is rejected by file and field, not read as zero or skipped.
    let missing = |what: &str| ctx(path, &format!("stats {what} missing or mistyped"));
    rec.bytes_sent = 0;
    let mut slowest: Option<(f64, &[Json])> = None;
    for r in ranks {
        let bytes = r.get("bytes_sent").and_then(|f| f.as_u64());
        rec.bytes_sent += bytes.ok_or_else(|| missing("ranks[].bytes_sent"))?;
        let time = r.get("time").and_then(|f| f.as_f64());
        let time = time.ok_or_else(|| missing("ranks[].time"))?;
        if slowest.is_none_or(|(t, _)| time > t) {
            let phases = r.get("phases").and_then(|f| f.as_arr());
            slowest = Some((time, phases.ok_or_else(|| missing("ranks[].phases"))?));
        }
    }
    if let Some((_, phases)) = slowest {
        rec.phases.clear();
        for p in phases {
            let name = p.get("name").and_then(|f| f.as_str());
            let name = name.ok_or_else(|| missing("ranks[].phases[].name"))?;
            check_registry_phase(name, path)?;
            let seconds = p.get("seconds").and_then(|f| f.as_f64());
            let seconds = seconds.ok_or_else(|| missing("ranks[].phases[].seconds"))?;
            rec.phases.push((name.to_string(), seconds));
        }
    }
    Ok(())
}

fn parse_histogram(h: &Json, path: &Path) -> Result<pgr_obs::Histogram, String> {
    let field = |name: &str| {
        h.get(name)
            .and_then(|f| f.as_u64())
            .ok_or_else(|| ctx(path, &format!("histogram missing \"{name}\"")))
    };
    let sparse: Vec<(usize, u64)> = h
        .get("buckets")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| ctx(path, "histogram missing \"buckets\""))?
        .iter()
        .map(|pair| {
            let p = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| ctx(path, "bucket is not an [index, count] pair"))?;
            Ok((
                p[0].as_u64()
                    .ok_or_else(|| ctx(path, "bucket index not an integer"))?
                    as usize,
                p[1].as_u64()
                    .ok_or_else(|| ctx(path, "bucket count not an integer"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    pgr_obs::Histogram::from_parts(
        field("count")?,
        field("sum")?,
        field("min")?,
        field("max")?,
        &sparse,
    )
    .map_err(|e| ctx(path, &e))
}

/// Parse one `{"counters":…,"gauges":…,"histograms":…}` scope (a rank's
/// cumulative maps, or one phase window) into `into`.
fn parse_metric_maps(scope: &Json, into: &mut RankMetrics, path: &Path) -> Result<(), String> {
    if let Some(cs) = scope.get("counters").and_then(|f| f.as_obj()) {
        for (name, val) in cs {
            let v = val
                .as_u64()
                .ok_or_else(|| ctx(path, &format!("counter \"{name}\" not an integer")))?;
            into.counters.push((name.clone(), v));
        }
    }
    if let Some(gs) = scope.get("gauges").and_then(|f| f.as_obj()) {
        for (name, val) in gs {
            let v = val
                .as_f64()
                .ok_or_else(|| ctx(path, &format!("gauge \"{name}\" not a number")))?;
            into.gauges.push((name.clone(), v));
        }
    }
    if let Some(hs) = scope.get("histograms").and_then(|f| f.as_obj()) {
        for (name, val) in hs {
            into.histograms
                .push((name.clone(), parse_histogram(val, path)?));
        }
    }
    Ok(())
}

fn apply_metrics(rec: &mut RunRecord, v: &Json, path: &Path) -> Result<(), String> {
    let ranks = v
        .get("ranks")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| ctx(path, "metrics missing \"ranks\""))?;
    let mut shards = Vec::with_capacity(ranks.len());
    for r in ranks {
        let rank = r
            .get("rank")
            .and_then(|f| f.as_u64())
            .ok_or_else(|| ctx(path, "rank entry missing \"rank\""))? as usize;
        let mut m = RankMetrics::empty(rank);
        parse_metric_maps(r, &mut m, path)?;
        if let Some(ps) = r.get("phases").and_then(|f| f.as_obj()) {
            for (name, scope) in ps {
                check_registry_phase(name, path)?;
                let mut w = RankMetrics::empty(rank);
                parse_metric_maps(scope, &mut w, path)?;
                m.windows.push((name.clone(), w));
            }
        }
        shards.push(m);
    }
    rec.metrics = Some(merge_ranks(&shards));
    Ok(())
}

/// Load every dump under `paths` (directories are scanned — not
/// recursively — for `*.stats.json` / `*.metrics.json`; explicit file
/// paths must match one of those suffixes). Dumps sharing a [`RunMeta`]
/// merge into one [`RunRecord`]. Any unreadable, unparseable, or
/// version-mismatched file fails the whole load with an error naming
/// the file — aggregation over silently dropped inputs is worse than no
/// aggregation.
pub fn load_paths(paths: &[PathBuf]) -> Result<Vec<RunRecord>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| ctx(p, &format!("unreadable directory ({e})")))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| is_dump(f))
                .collect();
            entries.sort();
            files.extend(entries);
        } else if is_dump(p) {
            files.push(p.clone());
        } else {
            return Err(ctx(
                p,
                "not a *.stats.json / *.metrics.json dump (or a directory of them)",
            ));
        }
    }
    if files.is_empty() {
        return Err("no *.stats.json / *.metrics.json dumps found".to_string());
    }
    let mut by_key: BTreeMap<RunKey, RunRecord> = BTreeMap::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| ctx(f, &format!("unreadable ({e})")))?;
        let (run, v, kind) = parse_dump(f, &text)?;
        let rec = by_key.entry(run_key(&run)).or_insert_with(|| RunRecord {
            run,
            makespan: None,
            bytes_sent: 0,
            phases: Vec::new(),
            metrics: None,
        });
        match kind.as_str() {
            "stats" => apply_stats(rec, &v, f)?,
            "metrics" => apply_metrics(rec, &v, f)?,
            other => return Err(ctx(f, &format!("unknown dump kind \"{other}\""))),
        }
    }
    Ok(by_key.into_values().collect())
}

fn is_dump(p: &Path) -> bool {
    p.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".stats.json") || n.ends_with(".metrics.json"))
}

/// One phase's trend entry in an aggregated row: the slowest rank's
/// virtual seconds (from the stats dump) joined with the rank-merged
/// window counters (from the metrics dump). Either half may be absent
/// when only one dump kind was loaded for the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAgg {
    pub name: String,
    pub seconds: Option<f64>,
    /// Rank-summed recv-wait seconds inside this phase's window (from
    /// the `mpi.recv_wait_micros` counter), when metrics were loaded.
    pub wait_seconds: Option<f64>,
    /// Merged per-phase window counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// A run-level series: its key in the aggregate JSON, whether
/// [`check_baseline`] gates it (every gated series is higher-is-worse),
/// and its value for a run given the `"serial"` run of the same
/// (circuit, machine, scale, seed), when that one was loaded.
type RunSeries = (
    &'static str,
    bool,
    fn(&RunRecord, Option<&RunRecord>) -> Option<f64>,
);

/// Every run-level series, in JSON order: the one declaration
/// [`aggregate`], [`Aggregate::to_json`] and [`check_baseline`] loop over.
/// Counters are exact in `f64` and print as the integers they are.
const RUN_SERIES: [RunSeries; 10] = [
    ("makespan", true, |r, _| r.makespan),
    // `serial makespan / this makespan`.
    ("speedup", false, |r, base| {
        let (b, t) = (base?.makespan?, r.makespan?);
        (t > 0.0).then(|| b / t)
    }),
    ("tracks", true, |r, _| counter(r, TRACKS)),
    // `tracks / serial tracks` (the paper's scaled-track quality).
    ("scaled_tracks", false, |r, base| {
        let (t, b) = (counter(r, TRACKS)?, counter(base?, TRACKS)?);
        (b > 0.0).then(|| t / b)
    }),
    ("wirelength", true, |r, _| counter(r, WIRELENGTH)),
    ("feedthroughs", false, |r, _| counter(r, FEEDTHROUGHS)),
    // Phases recovery rounds had to re-run, rank-summed. Absent on
    // fault-free runs; a chaos run that redoes more of them than the
    // baseline lost resume coverage (e.g. a boundary stopped committing
    // portably and the round fell back to a restart).
    ("redone_phases", true, |r, _| counter(r, REDONE_PHASES)),
    // Refinement chunks dropped under a `max_phase_seconds` budget,
    // rank-summed. Absent on runs that never shed; a budgeted run that
    // drops more than its baseline lost quality headroom even though it
    // still completed inside its budget.
    ("shed_events", true, |r, _| counter(r, SHED_EVENTS)),
    // With `wait_fraction`, the efficiency series: a run that balances
    // worse or waits longer than the baseline regressed even if quality
    // and makespan stayed inside tolerance.
    ("load_imbalance", true, |r, _| {
        r.metrics.as_ref()?.gauge(LOAD_IMBALANCE)
    }),
    // Fraction of the run's total rank-seconds spent blocked in recv
    // past the modeled overhead: `Σ mpi.recv_wait_micros / 1e6` divided
    // by `procs × makespan`. Needs both dump kinds; 0 for a run that
    // never waited.
    ("wait_fraction", true, |r, _| {
        let (m, t) = (r.metrics.as_ref()?, r.makespan?);
        let waited = m.counter(RECV_WAIT_MICROS).unwrap_or(0) as f64 / 1e6;
        (t > 0.0 && r.run.procs > 0).then(|| waited / (r.run.procs as f64 * t))
    }),
];

/// A rank-merged counter of `r`'s metrics dump.
fn counter(r: &RunRecord, name: &str) -> Option<f64> {
    Some(r.metrics.as_ref()?.counter(name)? as f64)
}

/// One aggregated row: a run plus its derived cross-run numbers.
#[derive(Debug, Clone)]
pub struct AggRecord {
    pub run: RunMeta,
    /// One value per row of [`RUN_SERIES`], in its order.
    series: Vec<Option<f64>>,
    pub bytes_sent: u64,
    /// Per-phase trend series, in [`Phase`] registry order.
    pub phases: Vec<PhaseAgg>,
}

impl AggRecord {
    /// The run-level series named `key` (a [`RUN_SERIES`] key): `None`
    /// when the dumps it derives from were not loaded.
    pub fn get(&self, key: &str) -> Option<f64> {
        let at = RUN_SERIES.iter().position(|s| s.0 == key);
        self.series[at.expect("a RUN_SERIES key")]
    }
}

/// The cross-run report.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub records: Vec<AggRecord>,
}

/// Derive the cross-run series from loaded records: speedups and quality
/// scaled against each series' `"serial"` run.
pub fn aggregate(records: &[RunRecord]) -> Aggregate {
    let serial: BTreeMap<(String, String, u64, u64), &RunRecord> = records
        .iter()
        .filter(|r| r.run.algorithm == "serial")
        .map(|r| (series_key(&r.run), r))
        .collect();
    let rows = records
        .iter()
        .map(|r| {
            let base = serial.get(&series_key(&r.run)).copied();
            let m = r.metrics.as_ref();
            // Join the stats-side phase seconds with the metrics-side
            // phase windows, in registry order.
            let phases: Vec<PhaseAgg> = Phase::ALL
                .iter()
                .filter_map(|p| {
                    let seconds = r
                        .phases
                        .iter()
                        .find(|(n, _)| n == p.name())
                        .map(|(_, s)| *s);
                    let window = m.and_then(|mm| mm.window(p.name()));
                    if seconds.is_none() && window.is_none() {
                        return None;
                    }
                    let counters: Vec<(String, u64)> =
                        window.map(|w| w.counters.clone()).unwrap_or_default();
                    let wait_seconds =
                        window.map(|w| w.counter(RECV_WAIT_MICROS).unwrap_or(0) as f64 / 1e6);
                    Some(PhaseAgg {
                        name: p.name().to_string(),
                        seconds,
                        wait_seconds,
                        counters,
                    })
                })
                .collect();
            AggRecord {
                run: r.run.clone(),
                series: RUN_SERIES.iter().map(|(_, _, of)| of(r, base)).collect(),
                bytes_sent: r.bytes_sent,
                phases,
            }
        })
        .collect();
    Aggregate { records: rows }
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

impl Aggregate {
    /// Machine-readable report, itself schema-versioned so a future
    /// aggregator can gate on it.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                let phases: Vec<String> = r
                    .phases
                    .iter()
                    .map(|p| {
                        let counters: Vec<String> = p
                            .counters
                            .iter()
                            .map(|(n, v)| format!("\"{}\":{v}", json_escape(n)))
                            .collect();
                        format!(
                            "{{\"name\":\"{}\",\"seconds\":{},\"wait_seconds\":{},\"counters\":{{{}}}}}",
                            json_escape(&p.name),
                            opt_f64(p.seconds),
                            opt_f64(p.wait_seconds),
                            counters.join(",")
                        )
                    })
                    .collect();
                let series: String = RUN_SERIES
                    .iter()
                    .zip(&r.series)
                    .map(|((key, ..), v)| format!("\"{key}\":{},", opt_f64(*v)))
                    .collect();
                format!(
                    "{{\"run\":{},{series}\"bytes_sent\":{},\"phases\":[{}]}}",
                    r.run.to_json(),
                    r.bytes_sent,
                    phases.join(",")
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":{},\"kind\":\"aggregate\",\"shed_rate\":{},\"records\":[\n{}\n]}}\n",
            SCHEMA_VERSION,
            opt_f64(self.shed_rate()),
            rows.join(",\n")
        )
    }

    /// Fraction of the aggregated runs that completed `budget_degraded`
    /// — the cross-run shed rate. `None` when the aggregate is empty.
    pub fn shed_rate(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let shed = self
            .records
            .iter()
            .filter(|r| r.run.budget_degraded)
            .count();
        Some(shed as f64 / self.records.len() as f64)
    }

    /// Human-readable markdown: one speedup/quality table per
    /// (circuit, machine, scale) series, rank counts as columns.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Cross-run aggregate\n");
        // Group rows by series, then by algorithm.
        let mut series: BTreeMap<(String, String, u64, u64), Vec<&AggRecord>> = BTreeMap::new();
        for r in &self.records {
            series.entry(series_key(&r.run)).or_default().push(r);
        }
        for ((circuit, machine, scale_bits, seed), rows) in &series {
            let scale = f64::from_bits(*scale_bits);
            out.push_str(&format!(
                "\n## {circuit} — {machine}, scale {scale}, seed {seed}\n\n"
            ));
            let mut procs: Vec<usize> = rows.iter().map(|r| r.run.procs).collect();
            procs.sort_unstable();
            procs.dedup();
            out.push_str("| algorithm |");
            for p in &procs {
                out.push_str(&format!(" speedup P={p} |"));
            }
            for p in &procs {
                out.push_str(&format!(" sc.tracks P={p} |"));
            }
            out.push('\n');
            out.push_str(&"|---".repeat(1 + 2 * procs.len()));
            out.push_str("|\n");
            let mut algos: Vec<&str> = rows.iter().map(|r| r.run.algorithm.as_str()).collect();
            algos.sort_unstable();
            algos.dedup();
            for algo in algos {
                out.push_str(&format!("| {algo} |"));
                let cell =
                    |v: Option<f64>| v.map_or(" — |".to_string(), |x| format!(" {x:.2} |"));
                for key in ["speedup", "scaled_tracks"] {
                    for &p in &procs {
                        let rec = rows
                            .iter()
                            .find(|r| r.run.algorithm == algo && r.run.procs == p);
                        out.push_str(&cell(rec.and_then(|r| r.get(key))));
                    }
                }
                out.push('\n');
            }
            // Wait-fraction / imbalance trend: how much of each run's
            // rank-seconds went to recv blocking, and how skewed the
            // partition was — the two levers behind every lost speedup.
            let mut with_wait: Vec<&&AggRecord> = rows
                .iter()
                .filter(|r| r.get("wait_fraction").is_some() || r.get("load_imbalance").is_some())
                .collect();
            with_wait.sort_by_key(|r| (r.run.algorithm.clone(), r.run.procs));
            if !with_wait.is_empty() {
                out.push_str("\n| algorithm | procs | wait % | imbalance |\n|---|---|---|---|\n");
                for r in &with_wait {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} |\n",
                        r.run.algorithm,
                        r.run.procs,
                        r.get("wait_fraction")
                            .map_or("—".to_string(), |w| format!("{:.1}", w * 100.0)),
                        r.get("load_imbalance")
                            .map_or("—".to_string(), |x| format!("{x:.2}")),
                    ));
                }
            }
            // Budget/shed trend: which cells completed by shedding
            // refinement under a budget (and how many chunks they
            // dropped) versus hitting a hard breach — the graceful-
            // degradation series the stress matrix feeds. Scenario-
            // stamped rows print the full cell coordinates.
            let mut with_shed: Vec<&&AggRecord> = rows
                .iter()
                .filter(|r| {
                    r.run.budget_degraded
                        || r.get("shed_events").is_some()
                        || !r.run.scenario.is_empty()
                })
                .collect();
            with_shed
                .sort_by_key(|r| (r.run.algorithm.clone(), r.run.procs, r.run.scenario.clone()));
            if !with_shed.is_empty() {
                let degraded = with_shed.iter().filter(|r| r.run.budget_degraded).count();
                out.push_str(&format!(
                    "\nShed rate: {degraded} of {} budget/scenario runs completed budget-degraded\n",
                    with_shed.len()
                ));
                out.push_str(
                    "\n| algorithm | procs | scenario | shed events | budget degraded |\n|---|---|---|---|---|\n",
                );
                for r in &with_shed {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} |\n",
                        r.run.algorithm,
                        r.run.procs,
                        if r.run.scenario.is_empty() {
                            "—"
                        } else {
                            &r.run.scenario
                        },
                        r.get("shed_events")
                            .map_or("—".to_string(), |s| s.to_string()),
                        if r.run.budget_degraded { "yes" } else { "no" },
                    ));
                }
            }
            // Phase-time trend for the slowest-rank breakdown.
            let mut with_phases: Vec<&&AggRecord> =
                rows.iter().filter(|r| !r.phases.is_empty()).collect();
            with_phases.sort_by_key(|r| (r.run.algorithm.clone(), r.run.procs));
            if !with_phases.is_empty() {
                out.push_str("\n| algorithm | procs | slowest-rank phases (s) |\n|---|---|---|\n");
                for r in &with_phases {
                    let ps: Vec<String> = r
                        .phases
                        .iter()
                        .filter_map(|p| Some(format!("{} {:.2}", p.name, p.seconds?)))
                        .collect();
                    out.push_str(&format!(
                        "| {} | {} | {} |\n",
                        r.run.algorithm,
                        r.run.procs,
                        ps.join(", ")
                    ));
                }
            }
            // Per-phase quality trend: the routing/parallelism/recovery
            // counters each phase window contributed. The recovery
            // series makes the redone-work saving of checkpoint resume
            // visible per failed phase.
            let quality_counter = |n: &str| {
                n.starts_with("route.") || n.starts_with("parallel.") || n.starts_with("recovery.")
            };
            let with_counters: Vec<&&AggRecord> = with_phases
                .iter()
                .filter(|r| {
                    r.phases
                        .iter()
                        .any(|p| p.counters.iter().any(|(n, _)| quality_counter(n)))
                })
                .copied()
                .collect();
            if !with_counters.is_empty() {
                out.push_str(
                    "\n| algorithm | procs | phase | route/parallel/recovery counters |\n|---|---|---|---|\n",
                );
                for r in with_counters {
                    for p in &r.phases {
                        let cs: Vec<String> = p
                            .counters
                            .iter()
                            .filter(|(n, _)| quality_counter(n))
                            .map(|(n, v)| format!("{n} {v}"))
                            .collect();
                        if cs.is_empty() {
                            continue;
                        }
                        out.push_str(&format!(
                            "| {} | {} | {} | {} |\n",
                            r.run.algorithm,
                            r.run.procs,
                            p.name,
                            cs.join(", ")
                        ));
                    }
                }
            }
        }
        out
    }
}

/// A gated per-phase series: its name in a regression, its path inside a
/// baseline phase object, and its value in a fresh [`PhaseAgg`].
type PhaseSeries = (
    &'static str,
    &'static [&'static str],
    fn(&PhaseAgg) -> Option<f64>,
);

/// Virtual seconds and the phase-scoped wirelength must not drift past
/// tolerance either — a regression hiding inside one phase while the
/// totals stay flat is exactly what the windows exist to catch.
const PHASE_SERIES: [PhaseSeries; 3] = [
    ("seconds", &["seconds"], |p| p.seconds),
    ("wait seconds", &["wait_seconds"], |p| p.wait_seconds),
    ("wirelength", &["counters", WIRELENGTH], |p| {
        let found = p.counters.iter().find(|(n, _)| n == WIRELENGTH);
        found.map(|(_, v)| *v as f64)
    }),
];

/// One regression found by [`check_baseline`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub run: RunMeta,
    pub what: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} P={} ({}): {}",
            self.run.circuit, self.run.algorithm, self.run.procs, self.run.machine, self.what
        )
    }
}

/// Compare a fresh aggregate against a committed baseline (the JSON
/// produced by [`Aggregate::to_json`]). A run regresses when a
/// gated series ([`RUN_SERIES`], [`PHASE_SERIES`]) exceeds the baseline by
/// more than `tolerance` (relative; above a baseline of 0, any value
/// does), or when a baseline run — or one gated series of a run — is
/// missing entirely.
/// Improvements never flag. Returns the regression list; an error means
/// the baseline file itself is unusable.
pub fn check_baseline(
    current: &Aggregate,
    baseline_text: &str,
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    let v = Json::parse(baseline_text).map_err(|e| format!("baseline unparseable: {e}"))?;
    match v.get("schema_version").and_then(|f| f.as_u64()) {
        Some(ver) if ver == SCHEMA_VERSION as u64 => {}
        Some(ver) => {
            return Err(format!(
                "baseline schema_version {ver} (this reader understands {SCHEMA_VERSION})"
            ))
        }
        None => return Err("baseline missing schema_version".to_string()),
    }
    if v.get("kind").and_then(|f| f.as_str()) != Some("aggregate") {
        return Err("baseline is not an aggregate report".to_string());
    }
    let base_records = v
        .get("records")
        .and_then(|f| f.as_arr())
        .ok_or_else(|| "baseline missing records".to_string())?;
    let path = Path::new("<baseline>");
    let mut regressions = Vec::new();
    for b in base_records {
        let run = parse_run_meta(b, path)?;
        let Some(cur) = current
            .records
            .iter()
            .find(|r| run_key(&r.run) == run_key(&run))
        else {
            regressions.push(Regression {
                run,
                what: "present in baseline but missing from this aggregate".to_string(),
            });
            continue;
        };
        // A series the baseline holds and this aggregate does not (its
        // dump was not written, say) regressed like a missing run did; so
        // did one the baseline holds at 0 that is above 0 now.
        let mut check_f = |what: &str, base: Option<f64>, now: Option<f64>| {
            let Some(b) = base else { return };
            let what = match now {
                None => format!("{what} (baseline {b:.6}) missing from this aggregate"),
                Some(n) if n > b * (1.0 + tolerance) => format!(
                    "{what} {n:.6} exceeds baseline {b:.6} by more than {:.1} %",
                    tolerance * 100.0
                ),
                Some(_) => return,
            };
            regressions.push(Regression {
                run: run.clone(),
                what,
            });
        };
        for ((key, gated, _), now) in RUN_SERIES.iter().zip(&cur.series) {
            if *gated {
                check_f(key, b.get(key).and_then(|f| f.as_f64()), *now);
            }
        }
        for bp in b.get("phases").and_then(|f| f.as_arr()).unwrap_or(&[]) {
            let Some(name) = bp.get("name").and_then(|f| f.as_str()) else {
                continue;
            };
            let cp = cur.phases.iter().find(|p| p.name == name);
            for (what, path, of) in PHASE_SERIES {
                let base = path.iter().try_fold(bp, |v, key| v.get(key));
                check_f(
                    &format!("phase {name} {what}"),
                    base.and_then(|f| f.as_f64()),
                    cp.and_then(of),
                );
            }
        }
    }
    Ok(regressions)
}
