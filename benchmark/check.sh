#!/usr/bin/env bash
# Checks the benchmark itself: it builds, its unit tests pass, every pass
# runs end to end on small inputs, and it measures the same build users
# get. Measures nothing — a --quick run is refused by `compare`.
set -euo pipefail
cd "$(dirname "$0")"

# The benchmark must build with the root's release profile, or it times
# a different program than `cargo build --release` at the root makes.
profile() { awk '/^\[profile\.release\]/{on=1; next} /^\[/{on=0} on && NF && !/^#/' "$1"; }
if ! diff <(profile ../Cargo.toml) <(profile Cargo.toml); then
    echo "check: [profile.release] differs between ../Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

cargo build --release --locked --offline
cargo test --release --locked --offline

out=target/check
rm -rf "$out"
mkdir -p "$out"
cargo run --release --locked --offline --quiet -- run --quick --out "$out/quick.json" --trace-dir "$out/traces" >"$out/quick.txt"
grep -q '"quick":true' "$out/quick.json"
if grep -q '"correct":false' "$out/quick.txt"; then
    echo "check: an op failed in the --quick run; see $out/quick.txt" >&2
    exit 1
fi
test "$(grep -c '^{"correct":true' "$out/quick.txt")" -eq 4
test "$(ls "$out/traces" | wc -l)" -eq 4
if cargo run --release --locked --offline --quiet -- compare "$out/quick.json" "$out/quick.json" 2>/dev/null; then
    echo "check: compare accepted a --quick run" >&2
    exit 1
fi
echo "check: ok"
