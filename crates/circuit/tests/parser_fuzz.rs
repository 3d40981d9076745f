//! Fuzz the text-format parser with random byte mutations.
//!
//! Adversarial inputs must produce a structured [`FormatError`] or a
//! valid circuit — never a panic, abort, or runaway allocation. Each
//! seed mutates a canonical serialized circuit; any panic is minimized
//! by greedy line removal before being reported, so the failure message
//! carries a small reproducer.
//!
//! Tier-1 (`cargo test`) runs the first 1 000 mutations of each seed and
//! every truncation of a quarter-size text, about 2 s in the dev
//! profile. The full-size cases — 10 000 mutations a seed, every
//! truncation of the 21 KB text, half a minute together — are
//! `#[ignore]`d and run by CI's `test` job with `--ignored`; the tier-1
//! mutations are a prefix of theirs (same seeds, same operators).

use pgr_circuit::format::{from_text, to_text};
use pgr_circuit::{generate, GeneratorConfig};
use pgr_geom::rng::{rng_from_seed, SmallRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTATIONS_PER_SEED: usize = 10_000;
const TIER1_MUTATIONS_PER_SEED: usize = 1_000;
const SEEDS: [u64; 3] = [1997, 4242, 909_090];

/// Bytes worth splicing in: structural characters, digits, keywords'
/// first letters, sign characters, and a couple of raw extremes.
const SPICE: &[u8] = b"0123456789-+ \t\n#TBcnprw.e~\xff\x00";

fn parses_quietly(text: &str) -> Result<(), String> {
    // The parser either returns (Ok or structured Err) or panics; a
    // panic is the bug. The default hook would spam stderr for every
    // caught panic, so silence it around the call.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = from_text(text);
    }));
    std::panic::set_hook(prev);
    outcome.map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Greedily drop lines while the panic persists, so the assertion
/// message shows the smallest reproducer found.
fn minimize(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let mut candidate = lines.clone();
        candidate.remove(i);
        let joined = candidate.join("\n");
        if parses_quietly(&joined).is_err() {
            lines = candidate;
        } else {
            i += 1;
        }
    }
    lines.join("\n")
}

fn mutate(base: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let edits = rng.gen_range(1..=8);
    for _ in 0..edits {
        if bytes.is_empty() {
            bytes.push(SPICE[rng.gen_range(0..SPICE.len())]);
            continue;
        }
        let pos = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..4) {
            0 => bytes[pos] = SPICE[rng.gen_range(0..SPICE.len())],
            1 => bytes.insert(pos, SPICE[rng.gen_range(0..SPICE.len())]),
            2 => {
                bytes.remove(pos);
            }
            // Duplicate a random slice: makes long digit runs and
            // repeated declarations, the classic overflow triggers.
            _ => {
                let end = (pos + rng.gen_range(1..=24)).min(bytes.len());
                let slice = bytes[pos..end].to_vec();
                bytes.splice(pos..pos, slice);
            }
        }
    }
    bytes
}

fn mutated_input_never_panics(mutations_per_seed: usize) {
    let base = to_text(&generate(&GeneratorConfig::small("fuzz", 11)));
    // The pristine text must parse — otherwise every mutation result
    // is meaningless.
    assert!(from_text(&base).is_ok(), "canonical text must parse");

    for seed in SEEDS {
        let mut rng = rng_from_seed(seed);
        for case in 0..mutations_per_seed {
            let bytes = mutate(base.as_bytes(), &mut rng);
            // Mutations may break UTF-8; the parser API takes &str, so
            // lossy-decode the way any file loader would.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            if let Err(panic_msg) = parses_quietly(&text) {
                let small = minimize(&text);
                panic!(
                    "parser panicked (seed {seed}, case {case}): {panic_msg}\n\
                     minimized reproducer ({} lines):\n{small}",
                    small.lines().count()
                );
            }
        }
    }
}

#[test]
fn parser_never_panics_on_mutated_input() {
    mutated_input_never_panics(TIER1_MUTATIONS_PER_SEED);
}

#[test]
#[ignore = "13 s in the dev profile; CI runs it with --ignored"]
fn parser_never_panics_on_30k_mutations() {
    mutated_input_never_panics(MUTATIONS_PER_SEED);
}

fn truncations_never_panic(cfg: &GeneratorConfig) {
    let base = to_text(&generate(cfg));
    for end in 0..base.len() {
        if !base.is_char_boundary(end) {
            continue;
        }
        let text = &base[..end];
        if let Err(panic_msg) = parses_quietly(text) {
            panic!("parser panicked on truncation at byte {end}: {panic_msg}");
        }
    }
}

/// Parsing every prefix is quadratic in the text: a quarter of
/// `GeneratorConfig::small` (same record kinds, same row count) costs a
/// sixteenth.
#[test]
fn truncations_of_canonical_text_never_panic() {
    truncations_never_panic(&GeneratorConfig {
        cells: 60,
        pins: 225,
        nets: 65,
        ..GeneratorConfig::small("trunc", 3)
    });
}

#[test]
#[ignore = "16 s in the dev profile; CI runs it with --ignored"]
fn truncations_of_full_size_text_never_panic() {
    truncations_never_panic(&GeneratorConfig::small("trunc", 3));
}
