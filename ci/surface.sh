#!/bin/sh
# Size of the code the substrate/router/harness crates (and the geometry
# kernels every phase runs on) expose: per crate,
# lines of every file under src/ (in-file test modules included), the
# same without those test modules (each file up to its first
# `#[cfg(test)]`), and the number of `pub fn`; then the same for the
# crate's five largest files. CHANGES.md quotes these numbers
# before → after.
#
# Also a ratchet, exiting non-zero:
# - when any file under crates/*/src has more than MAX_FILE non-test
#   lines, so no file grows back into the 1 919-line `comm.rs` or the
#   1 501-line `tables.rs` the limit was tightened after splitting;
# - when anything under crates/core/src hands `send_bytes` a zero-filled
#   placeholder: bytes that exist only to be charged for are a
#   `send_modeled`, which charges the same and moves none;
# - when a second measurement path reappears beside `benchmark/`: a
#   kernel snapshot at the root or a `[[bench]]` target in any manifest;
# - when the harness grows a second runner: `tables::run_cell` (through
#   `route_parallel_guarded`) is how every `repro` target runs all four
#   drivers, so nothing under crates/bench/src spawns a world or calls
#   the serial entry itself;
# - when crates/core/src/parallel re-spells a step: `route/` owns every
#   step's loop and every state's delta format, `parallel/` partition and
#   exchange only, so nothing there names `shed_sweep`, `shuffled_indices`,
#   `improve_slice`, `optimize_slice`, `take_deltas`, `merge_external` or
#   `enable_logging`;
# - when routing state stops being flat: a non-test line under
#   crates/core/src that contains `Vec<Vec<i64>>` (grids are one `Grid`),
#   `HashMap` or `HashSet` (nets are dense ids: `NetSlots`, sorted lists);
# - when a step body gets a second home: `route::serial::RouteState` holds
#   the one body of steps 2-5 and of the gather, so among the non-test
#   code lines of crates/core/src `CoarseState::charged(` is called once,
#   `connect_all(` twice (that body and the hybrid's whole-net Connect) and
#   `ChannelState::from_spans(` three times (that body, the hybrid's
#   Switchable, `RouteState::gather_result`);
# - when a span list is loaded span by span again: `from_spans` and
#   `analysis::analyze` go through `DensityProfile::load_spans`, so the
#   non-test code lines of crates/core/src that call `.add_span(` are six,
#   each one update to a state already loaded: `ChannelState::add_span`,
#   `CoarseState::apply`, the two `merge_external`s and the flip (remove,
#   re-add) of `optimize_slice`;
# - when anything under crates/core/src names `RouteAbort`: the engine
#   matches `pgr_mpi::PhaseControl` itself;
# - when `DensityProfile` stops storing each column once: a non-test line
#   of crates/geom/src/profile.rs that names `self.lazy`, `PHANTOM` or
#   `next_power_of_two` is a second per-node vector, or the padding to a
#   power of two, coming back (the pending add is derived from the node
#   and its children; the tree is `2 * width - 1` nodes for any width).
# - when Connect's kernel enumerates pairs or allocates per net again: a
#   non-test line of crates/geom/src/mst.rs that names `Vec<Vec<` or
#   `buckets` is the row-bucketed every-pair scan coming back (the
#   candidates are fewer than 3n, found in one pass over the sorted
#   nodes), and a non-test line of crates/core/src/route/connect.rs that
#   constructs a vector (`Vec::new()`, `Vec::with_capacity(`, `vec![`) is
#   a per-net allocation unless it is `connect_all`'s one output (every
#   other buffer lives in `ConnectArena`).
set -eu
cd "$(dirname "$0")/.."
MAX_FILE=1000

# One "<non-test> <lines> <pub fn> <file>" row per file.
per_file() {
    awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { lines[FILENAME]++ }
        !in_tests { src[FILENAME]++ }
        /pub fn / { fns[FILENAME]++ }
        END { for (f in lines) printf "%d %d %d %s\n", src[f], lines[f], fns[f], f }
    ' "$@" | sort -rn
}

row() {
    printf '%-36s %6d lines %6d non-test %4d pub fn\n' "$1" "$2" "$3" "$4"
}

for crate in mpi core bench geom; do
    # shellcheck disable=SC2046 # file names under src/ carry no spaces
    files=$(per_file $(find "crates/$crate/src" -name '*.rs'))
    echo "$files" | awk -v label="crates/$crate/src" '
        { src += $1; lines += $2; fns += $3 }
        END { printf "%-36s %6d lines %6d non-test %4d pub fn\n", label, lines, src, fns }'
    echo "$files" | head -5 | while read -r src lines fns file; do
        row "  $file" "$lines" "$src" "$fns"
    done
done

# shellcheck disable=SC2046
over=$(per_file $(find crates/*/src -name '*.rs') | awk -v max="$MAX_FILE" '$1 > max')
if [ -n "$over" ]; then
    echo "surface: files over $MAX_FILE non-test lines (split them along their seams):" >&2
    echo "$over" | while read -r src _ _ file; do echo "  $file: $src" >&2; done
    exit 1
fi

placeholders=$(grep -rnE 'send_bytes\(.*vec!\[0u8;' crates/core/src || true)
if [ -n "$placeholders" ]; then
    echo "surface: zero-filled placeholder frames (use Comm::send_modeled):" >&2
    echo "$placeholders" >&2
    exit 1
fi

second_runner=$(grep -rnE 'try_route_serial|run_instrumented' crates/bench/src || true)
if [ -n "$second_runner" ]; then
    echo "surface: repro targets run routes through tables::run_cell only:" >&2
    echo "$second_runner" >&2
    exit 1
fi

respelled=$(grep -rnE 'shed_sweep|shuffled_indices|improve_slice|optimize_slice|take_deltas|merge_external|enable_logging' crates/core/src/parallel || true)
if [ -n "$respelled" ]; then
    echo "surface: crates/core/src/parallel re-spells a step (call CoarseState::route / switchable::optimize):" >&2
    echo "$respelled" >&2
    exit 1
fi

# shellcheck disable=SC2046
nested=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /Vec<Vec<i64>>|HashMap|HashSet/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' $(find crates/core/src -name '*.rs'))
if [ -n "$nested" ]; then
    echo "surface: nested or hashed routing state (use route::state::Grid / NetSlots / a sorted list):" >&2
    echo "$nested" >&2
    exit 1
fi

# "<file>:<line>:<text>" of every non-test, non-comment line under
# crates/core/src that calls (not defines) $1.
calls() {
    # shellcheck disable=SC2046
    awk -v call="$1" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[ \t]*\/\// && !/fn / && index($0, call) { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' $(find crates/core/src -name '*.rs')
}
for want in 'CoarseState::charged( 1' 'connect_all( 2' 'ChannelState::from_spans( 3' '.add_span( 6'; do
    call=${want% *}
    sites=$(calls "$call")
    if [ "$(echo "$sites" | grep -c .)" -ne "${want#* }" ]; then
        echo "surface: $call must have ${want#* } call site(s) under crates/core/src (the step bodies live in route::serial::RouteState; span lists load through DensityProfile::load_spans):" >&2
        echo "$sites" >&2
        exit 1
    fi
done

respelled_control=$(grep -rn 'RouteAbort' crates/core/src || true)
if [ -n "$respelled_control" ]; then
    echo "surface: crates/core/src re-spells pgr_mpi::PhaseControl (match it directly):" >&2
    echo "$respelled_control" >&2
    exit 1
fi

twice_stored=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /self\.lazy|PHANTOM|next_power_of_two/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/geom/src/profile.rs)
if [ -n "$twice_stored" ]; then
    echo "surface: DensityProfile is one vector of 2 * width - 1 nodes (derive the pending add; no padding):" >&2
    echo "$twice_stored" >&2
    exit 1
fi

every_pair=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Vec<Vec<|buckets/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/geom/src/mst.rs)
if [ -n "$every_pair" ]; then
    echo "surface: mst_adjacency_limited works on column heads in one sorted pass (no row buckets, no nested vectors):" >&2
    echo "$every_pair" >&2
    exit 1
fi

per_net=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Vec::new\(\)|Vec::with_capacity\(|vec!\[/ && !/let \(mut spans, mut wirelength\) = \(Vec::with_capacity\(edges\), 0\);/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/core/src/route/connect.rs)
if [ -n "$per_net" ]; then
    echo "surface: route/connect.rs constructs one vector, the output of connect_all (per-net buffers live in ConnectArena):" >&2
    echo "$per_net" >&2
    exit 1
fi

# (`[_]` so that a grep of the tree for the old snapshot name finds
# nothing, this file included.)
# shellcheck disable=SC2046
second_path=$(find . -maxdepth 1 -name 'BENCH[_]*.json'; grep -l '^\[\[bench\]\]' Cargo.toml $(find crates -name Cargo.toml) || true)
if [ -n "$second_path" ]; then
    echo "surface: host time is measured by benchmark/ only (benchmark/README.md); remove:" >&2
    echo "$second_path" | while read -r file; do echo "  $file" >&2; done
    exit 1
fi
