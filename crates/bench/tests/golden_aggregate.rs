//! The committed cross-run aggregate is a golden file. The two `repro`
//! runs CI feeds it — `phase-breakdown` on primary2 at scale 0.05 and the
//! two-family `stress` matrix at 0.25 — aggregated, must give the bytes
//! of `ci/baseline-aggregate.json`. Every number in it is virtual time or
//! a counter of the deterministic simulation, so any difference is a
//! change of behaviour: a record gained or lost, or a field that moved
//! either way. Regenerate the file when the change is meant.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The regeneration recipe (EXPERIMENTS.md, "Observability").
const RECIPE: &str = "\
repro --scale 0.05 --circuits primary2 --trace-out D phase-breakdown
repro --scale 0.25 --family congestion-stress --family single-row --trace-out S stress
repro aggregate --out ci/baseline-aggregate.json D S";

fn repro(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn fresh_aggregate_equals_the_committed_golden_file() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pgr-golden-aggregate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (traces, stress, fresh) = (dir.join("D"), dir.join("S"), dir.join("aggregate.json"));
    repro(&[
        "--scale",
        "0.05",
        "--circuits",
        "primary2",
        "--trace-out",
        path(&traces),
        "phase-breakdown",
    ]);
    repro(&[
        "--scale",
        "0.25",
        "--family",
        "congestion-stress",
        "--family",
        "single-row",
        "--trace-out",
        path(&stress),
        "stress",
    ]);
    repro(&[
        "aggregate",
        "--out",
        path(&fresh),
        path(&traces),
        path(&stress),
    ]);

    let fresh = std::fs::read_to_string(&fresh).unwrap();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/baseline-aggregate.json"
    );
    let golden = std::fs::read_to_string(golden_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    if fresh == golden {
        return;
    }
    // One record per line: the first differing line names the run.
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), fresh.lines().collect());
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    let show = |l: Option<&&str>| l.map_or("<no line>".to_string(), |l| l.to_string());
    panic!(
        "the fresh aggregate differs from ci/baseline-aggregate.json \
         ({} golden lines, {} fresh), first at line {}:\n\
         golden: {}\nfresh:  {}\n\
         If the change of a virtual result is meant, regenerate the file and \
         justify the update:\n{RECIPE}",
        want.len(),
        got.len(),
        line + 1,
        show(want.get(line)),
        show(got.get(line)),
    );
}
