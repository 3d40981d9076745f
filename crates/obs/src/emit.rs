//! Versioned JSON emission of per-run metrics.
//!
//! Every artifact the router dumps for later aggregation carries a
//! `schema_version` plus a `kind` tag and a `run` descriptor ([`RunMeta`])
//! naming the circuit, algorithm, rank count, machine, scale, and seed —
//! the coordinates cross-run series (speedup curves, phase-time trends,
//! quality deltas) are keyed on. The aggregator refuses files whose
//! version it does not understand, so the schema can evolve without old
//! readers silently mis-parsing new dumps.

use crate::json::Json;
use crate::metrics::RankMetrics;

/// Version stamped into (and required of) every stats/metrics dump.
///
/// v2: metrics dumps gained per-rank `"phases"` — phase-scoped metric
/// windows keyed by [`crate::Phase`] registry names.
///
/// v3: new `"profile"` dump kind (causal critical-path profiles, see
/// [`crate::profile`]); metrics windows gained the per-phase
/// `mpi.recv_wait_micros` and `trace.dropped` counters; aggregate dumps
/// gained wait-fraction / imbalance series. (The benchmark's result
/// files are a separate format — see `benchmark/README.md`.)
///
/// v5: [`RunMeta`] gained the adversarial-scenario name (`scenario`,
/// emitted only when non-empty) and the `budget_degraded` stamp
/// (emitted only when `true`); aggregate dumps gained budget shed
/// series.
pub const SCHEMA_VERSION: u32 = 5;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` such that the JSON reader gets the exact value back
/// (shortest roundtrip form; Rust's float Display is roundtrip-exact).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the ".0" for integral floats, which is still
        // valid JSON, so use it as-is.
        s
    } else {
        // JSON has no Inf/NaN; clamp to null-ish sentinel.
        "0".to_string()
    }
}

/// Identity of one run: the coordinates aggregation keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    pub circuit: String,
    /// `"serial"`, `"row-wise"`, `"net-wise"`, or `"hybrid"`.
    pub algorithm: String,
    pub procs: usize,
    pub machine: String,
    /// Circuit scale relative to the paper's full sizes.
    pub scale: f64,
    pub seed: u64,
    /// The run breached its recovery policy and was completed by the
    /// serial fallback pipeline. Emitted only when `true`, so fault-free
    /// dumps are byte-identical to those of writers predating the flag.
    pub degraded: bool,
    /// Clock strategy of the run: `"virtual"` (the deterministic default)
    /// or `"wall"`. Emitted only when not `"virtual"`, so virtual-mode
    /// dumps are byte-identical to those of writers predating the field.
    pub clock: String,
    /// Adversarial scenario name (`pgr-circuit::scenarios`, e.g.
    /// `"congestion-stress/s0.25/seed7"`) when the circuit came from the
    /// scenario generator. Emitted only when non-empty, so ordinary
    /// benchmark dumps are byte-identical to those of older writers.
    pub scenario: String,
    /// The run completed but shed optional refinement work under a
    /// `ResourceBudget` time limit (`pgr-mpi`). Emitted only when
    /// `true`.
    pub budget_degraded: bool,
}

impl RunMeta {
    /// The coordinates every run has; the four stamps that are emitted
    /// only when set start unset — not degraded, virtual clock, no
    /// scenario, not budget-degraded.
    pub fn new(
        circuit: &str,
        algorithm: &str,
        procs: usize,
        machine: &str,
        scale: f64,
        seed: u64,
    ) -> Self {
        RunMeta {
            circuit: circuit.to_string(),
            algorithm: algorithm.to_string(),
            procs,
            machine: machine.to_string(),
            scale,
            seed,
            degraded: false,
            clock: "virtual".into(),
            scenario: String::new(),
            budget_degraded: false,
        }
    }

    /// Read a dump's `"run"` object back — the inverse of
    /// [`RunMeta::to_json`]. The six coordinates are always written, so a
    /// missing or mistyped one is an error naming the field; the four
    /// stamps are written only when set, so an absent one reads as unset
    /// (and a mistyped one is an error all the same).
    pub fn from_json(run: &Json) -> Result<RunMeta, String> {
        let need = |name: &str, kind: &str| format!("run.{name} missing or not {kind}");
        let text = |name: &str| {
            let s = run.get(name).and_then(Json::as_str);
            s.ok_or_else(|| need(name, "a string"))
        };
        let number = |name: &str| {
            let n = run.get(name).and_then(Json::as_u64);
            n.ok_or_else(|| need(name, "an unsigned integer"))
        };
        let scale = run.get("scale").and_then(Json::as_f64);
        let mut meta = RunMeta::new(
            text("circuit")?,
            text("algorithm")?,
            number("procs")? as usize,
            text("machine")?,
            scale.ok_or_else(|| need("scale", "a number"))?,
            number("seed")?,
        );
        let flag = |name: &str| match run.get(name) {
            None => Ok(false),
            Some(v) => v.as_bool().ok_or_else(|| need(name, "a boolean")),
        };
        meta.degraded = flag("degraded")?;
        meta.budget_degraded = flag("budget_degraded")?;
        if run.get("clock").is_some() {
            meta.clock = text("clock")?.to_string();
        }
        if run.get("scenario").is_some() {
            meta.scenario = text("scenario")?.to_string();
        }
        Ok(meta)
    }

    /// The `"run":{…}` JSON fragment shared by every emitter.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"circuit\":\"{}\",\"algorithm\":\"{}\",\"procs\":{},\"machine\":\"{}\",\"scale\":{},\"seed\":{}{}{}{}{}}}",
            json_escape(&self.circuit),
            json_escape(&self.algorithm),
            self.procs,
            json_escape(&self.machine),
            json_f64(self.scale),
            self.seed,
            if self.degraded { ",\"degraded\":true" } else { "" },
            if self.clock.is_empty() || self.clock == "virtual" {
                String::new()
            } else {
                format!(",\"clock\":\"{}\"", json_escape(&self.clock))
            },
            if self.scenario.is_empty() {
                String::new()
            } else {
                format!(",\"scenario\":\"{}\"", json_escape(&self.scenario))
            },
            if self.budget_degraded {
                ",\"budget_degraded\":true"
            } else {
                ""
            }
        )
    }
}

/// The `"counters":{…},"gauges":{…},"histograms":{…}` body shared by a
/// rank's cumulative metrics and each of its phase windows.
fn metric_maps_json(m: &RankMetrics) -> String {
    let counters: Vec<String> = m
        .counters
        .iter()
        .map(|(n, v)| format!("\"{}\":{}", json_escape(n), v))
        .collect();
    let gauges: Vec<String> = m
        .gauges
        .iter()
        .map(|(n, v)| format!("\"{}\":{}", json_escape(n), json_f64(*v)))
        .collect();
    let hists: Vec<String> = m
        .histograms
        .iter()
        .map(|(n, h)| {
            let sparse: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(i, c)| format!("[{i},{c}]"))
                .collect();
            format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_escape(n),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                sparse.join(",")
            )
        })
        .collect();
    format!(
        "\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}",
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

fn rank_json(m: &RankMetrics) -> String {
    let windows: Vec<String> = m
        .windows
        .iter()
        .map(|(name, w)| format!("\"{}\":{{{}}}", json_escape(name), metric_maps_json(w)))
        .collect();
    format!(
        "{{\"rank\":{},{},\"phases\":{{{}}}}}",
        m.rank,
        metric_maps_json(m),
        windows.join(",")
    )
}

/// Serialize one run's per-rank metrics:
/// `{"schema_version":…,"kind":"metrics","run":{…},"ranks":[…]}`.
pub fn metrics_json(run: &RunMeta, ranks: &[RankMetrics]) -> String {
    let body: Vec<String> = ranks.iter().map(rank_json).collect();
    format!(
        "{{\"schema_version\":{},\"kind\":\"metrics\",\"run\":{},\"ranks\":[\n{}\n]}}\n",
        SCHEMA_VERSION,
        run.to_json(),
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsConfig, MetricsShard};

    fn meta() -> RunMeta {
        RunMeta::new("primary1", "hybrid", 8, "SparcCenter 1000", 0.25, 1997)
    }

    /// What a reader gets back from the `"run"` object of `run`'s dump.
    fn reread(run: &RunMeta) -> RunMeta {
        let doc = Json::parse(&metrics_json(run, &[])).expect("emitter output parses");
        RunMeta::from_json(doc.get("run").unwrap()).expect("the run object reads back")
    }

    #[test]
    fn scenario_and_budget_degraded_are_emitted_only_when_set() {
        let clean = meta();
        assert!(!clean.to_json().contains("scenario"));
        assert!(!clean.to_json().contains("budget_degraded"));
        assert_eq!(reread(&clean), clean);
        let mut stressed = meta();
        stressed.scenario = "congestion-stress/s0.25/seed7".into();
        stressed.budget_degraded = true;
        assert_eq!(reread(&stressed), stressed);
    }

    #[test]
    fn clock_is_stamped_only_when_not_virtual() {
        let virt = meta();
        assert!(!virt.to_json().contains("clock"));
        let mut wall = meta();
        wall.clock = "wall".into();
        assert!(wall.to_json().contains("\"clock\":\"wall\""));
        assert_eq!(reread(&wall), wall);
    }

    #[test]
    fn degraded_flag_is_emitted_only_when_set() {
        let clean = meta();
        assert!(!clean.to_json().contains("degraded"));
        let mut fallen = meta();
        fallen.degraded = true;
        assert!(fallen.to_json().contains("\"degraded\":true"));
        assert_eq!(reread(&fallen), fallen);
    }

    #[test]
    fn a_missing_or_mistyped_run_field_is_an_error_naming_it() {
        let without = |field: &str| {
            let json = meta().to_json().replace(field, "\"x\":0");
            RunMeta::from_json(&Json::parse(&json).unwrap()).unwrap_err()
        };
        assert!(without("\"procs\":8").contains("run.procs"));
        assert!(without("\"machine\":\"SparcCenter 1000\"").contains("run.machine"));
        assert!(without("\"scale\":0.25").contains("run.scale"));
        let mut fallen = meta();
        fallen.degraded = true;
        let mistyped = fallen
            .to_json()
            .replace("\"degraded\":true", "\"degraded\":1");
        let err = RunMeta::from_json(&Json::parse(&mistyped).unwrap()).unwrap_err();
        assert!(err.contains("run.degraded"), "{err}");
    }

    #[test]
    fn metrics_json_roundtrips_through_the_reader() {
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.add("route.wirelength", 1234);
        s.gauge("route.chip_width", 56.5);
        for v in [0, 3, 3, 900] {
            s.observe("route.channel_density", v);
        }
        let doc = metrics_json(&meta(), &[s.snapshot(0)]);
        let v = Json::parse(&doc).expect("emitter output parses");
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("kind").unwrap().as_str(), Some("metrics"));
        let run = v.get("run").unwrap();
        assert_eq!(run.get("circuit").unwrap().as_str(), Some("primary1"));
        assert_eq!(run.get("procs").unwrap().as_u64(), Some(8));
        assert_eq!(run.get("scale").unwrap().as_f64(), Some(0.25));
        let rank0 = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            rank0
                .get("counters")
                .unwrap()
                .get("route.wirelength")
                .unwrap()
                .as_u64(),
            Some(1234)
        );
        let h = rank0
            .get("histograms")
            .unwrap()
            .get("route.channel_density")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(906));
        // Sparse buckets rebuild the exact histogram.
        let sparse: Vec<(usize, u64)> = h
            .get("buckets")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|pair| {
                let p = pair.as_arr().unwrap();
                (p[0].as_u64().unwrap() as usize, p[1].as_u64().unwrap())
            })
            .collect();
        let rebuilt = Histogram::from_parts(
            h.get("count").unwrap().as_u64().unwrap(),
            h.get("sum").unwrap().as_u64().unwrap(),
            h.get("min").unwrap().as_u64().unwrap(),
            h.get("max").unwrap().as_u64().unwrap(),
            &sparse,
        )
        .unwrap();
        let mut want = Histogram::new();
        for v in [0, 3, 3, 900] {
            want.observe(v);
        }
        assert_eq!(rebuilt, want);
    }

    #[test]
    fn phase_windows_are_emitted_under_phases() {
        use crate::phase::Phase;
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.open_window(Phase::Connect);
        s.add("route.wirelength", 40);
        s.observe("route.channel_density", 7);
        s.open_window(Phase::Switchable);
        s.add("route.segments_flipped", 3);
        s.close_window();
        let doc = metrics_json(&meta(), &[s.snapshot(2)]);
        let v = Json::parse(&doc).expect("windowed output parses");
        let rank = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        let phases = rank.get("phases").unwrap();
        let connect = phases.get("connect").unwrap();
        assert_eq!(
            connect
                .get("counters")
                .unwrap()
                .get("route.wirelength")
                .unwrap()
                .as_u64(),
            Some(40)
        );
        assert_eq!(
            connect
                .get("histograms")
                .unwrap()
                .get("route.channel_density")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            phases
                .get("switchable")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("route.segments_flipped")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut m = meta();
        m.circuit = "we\"ird\\name\n".into();
        let doc = metrics_json(&m, &[]);
        let v = Json::parse(&doc).expect("escaped output parses");
        assert_eq!(
            v.get("run").unwrap().get("circuit").unwrap().as_str(),
            Some("we\"ird\\name\n")
        );
    }
}
