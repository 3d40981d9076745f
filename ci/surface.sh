#!/bin/sh
# Size of the code the substrate/router/harness crates (and the geometry
# kernels every phase runs on, the circuit model and netlist parser every
# route starts from, and the root package's facade and `pgr` CLI)
# expose: per crate,
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
#   the one body of steps 1-5 and of the gather, so among the non-test
#   code lines of crates/core/src `CoarseState::charged(` is called once,
#   `connect_all(` twice (that body and the hybrid's whole-net Connect) and
#   `ChannelState::from_spans(` three times (that body, the hybrid's
#   Switchable, `RouteState::gather_result`);
# - when crates/core/src/parallel builds Steiner trees itself again: a
#   non-test line there that names `build_segments_with`, `pin_nodes`,
#   `SteinerScratch` or `register_steiner_nodes` is step 1's loop written
#   beside `RouteState::steiner` (a pipeline calls it with its owner
#   filter and deals what it built);
# - when channel profiles are allocated outside the one builder again: a
#   non-test `ChannelState::new(` under crates/core/src anywhere but in
#   `ChannelState::from_spans`, which charges the modeled state before its
#   span closure runs and allocates the profiles only after it returns (so
#   they never share the heap with the work nets a Connect pass frees);
# - when a span list is loaded span by span again: `from_spans` goes
#   through `DensityProfile::load_spans`, so the non-test code lines of
#   crates/core/src that call `.add_span(` are six, each one update to a
#   state already loaded: `ChannelState::add_span`, `CoarseState::apply`,
#   the two `merge_external`s and the remove and re-add of
#   `ChannelState::flip`;
# - when the robustness matrices grow a second cell runner: `chaos` and
#   `stress` list their cells as values and run each through `Cell::run`,
#   so crates/bench/src/tables/robustness.rs has at most one non-test
#   call site of `run_cell(` (that method) and one of `catch_unwind(`
#   (the stress loop's panic-to-outcome guard);
# - when anything under crates/core/src names `RouteAbort`: the engine
#   matches `pgr_mpi::PhaseControl` itself;
# - when `DensityProfile` grows a tree again: a non-test line of
#   crates/geom/src/profile.rs that names `fn settle`, `fn split`,
#   `pending` or `2 * width` is the range-add / range-max tree coming back
#   (the profile is its `width` columns, the peak and the peak count), and
#   a non-test line of crates/core/src/route/coarse.rs that calls
#   `.max_in(` is the withdrawn peak rebuilt from side walks again (it is
#   one `max_if_removed` scan of the segment's span).
# - when Connect's kernel enumerates pairs or allocates per net again: a
#   non-test line of crates/geom/src/mst.rs that names `Vec<Vec<` or
#   `buckets` is the row-bucketed every-pair scan coming back (the
#   candidates are fewer than 3n, found in one pass over the sorted
#   nodes), and a non-test line of crates/core/src/route/connect.rs that
#   constructs a vector (`Vec::new()`, `Vec::with_capacity(`, `vec![`) is
#   a per-net allocation unless it is `connect_all`'s one output (every
#   other buffer lives in `ConnectArena`).
# - when steps 1 and 4's MST kernels go back to their slower forms: a
#   non-test line of crates/geom/src/mst.rs that names `in_tree` is the
#   Prim that rescans the tree's vertices at every step coming back (it
#   keeps only the vertices left, one record each), and one that calls
#   `sort_unstable_by_key(|e|` is the tuple-keyed candidate sort coming
#   back (each candidate is one integer key sorting as `(weight, a, b)`).
# - when netlist validation scans a list per element again: a non-test
#   line of crates/circuit/src/model.rs that calls `.contains(&` is a
#   membership check answered by searching the owner's list (a cell in
#   its row, a pin in its net or on its cell, a pin among its net's
#   earlier pins), which made `Circuit::validate` quadratic in row and
#   net size; each is a mark set by the walk over that list.
# - when the work nets stop being one flat store: a non-test line under
#   crates/core/src that declares a `nodes: Vec<Node>` field anywhere but
#   in `WorkNets` (the CSR store) is a per-net node vector coming back; a
#   non-test line of crates/core/src/route/connect.rs that calls a sort
#   re-sorts what the store keeps canonical from step 3 on; and a
#   non-test line of crates/core/src/route/feedthrough.rs that calls
#   `sort_unstable_by_key(` or `sort_by_key(` is the keyed whole-list
#   sort of the crossings coming back (`assign` is a counting sort over
#   the plan's buckets, each sorted alone).
# - when step 3 grows a second assignment body or keeps its plan again:
#   a non-test `fn assign_in_place` under crates/core/src, or a second
#   non-test `pub fn assign` in crates/core/src/route/feedthrough.rs, is
#   a body beside the one every driver calls (net-wise feeds its
#   arrivals to the same walk, over its band of the replicated plan); a
#   non-test field holding an `FtPlan` under crates/core/src is the plan
#   kept past step 3, which keeps only its total for Assemble.
# - when `verify` sorts again: a non-test `.sort` call in
#   crates/core/src/verify.rs is the endpoint-event sweep coming back
#   (each channel is recounted by a difference array, in linear time).
# - when a net-wise sync ships dense frames again: a non-test line of
#   crates/core/src/route/coarse.rs or crates/core/src/route/switchable.rs
#   that calls `comm.allgather(` moves the coarse delta grids cell by cell
#   or the switchable log `SpanDelta` by `SpanDelta`; each sync sends a
#   compact value with `Comm::allgather_charged`, billed as the dense one
#   (the grids' nonzero cells; the log's records);
# - when the coarse sync allocates or scans its log again: a line of
#   `CoarseState::sync` that names `Grid::new`, `DeltaGrid::new` or
#   `zero_deltas(` (the log's two grids live for the whole phase, and a
#   sync zeroes the cells it listed).
# - when an option only tests set comes back: a non-test line under
#   crates/mpi/src that names `watchdog`, `Stalled` or `TransportSnapshot`
#   (no receive runs on a real-time budget), a `pub` field of
#   crates/mpi/src/reliable.rs other than `enabled` (the retransmit
#   deadline, backoff and attempt budget are constants), a non-test line
#   under crates/*/src that names `min_ranks` (the recovery bound is
#   `RouterConfig::recovery_rounds` alone), a `grid_w`, `ft_width`, `coarse_passes` or
#   `switch_passes` field in crates/core/src/config.rs (they are the
#   constants `GRID_W`, `FT_WIDTH`, `COARSE_PASSES`, `SWITCH_PASSES`), or
#   a field of `TraceConfig` other than `enabled` (the ring's size is the
#   constant `TRACE_CAPACITY`).
# - when a rank's event trace is shared again: a non-test line of
#   crates/mpi/src/trace.rs that names `TraceHub` or `Mutex` (each rank's
#   `Comm` owns its `TraceRing`, as it owns its metric shard, and records
#   without a lock), or a non-test line of crates/mpi/src/comm/transport.rs
#   that names `crate::trace` (the transport builds its errors with an
#   empty tail; the facade attaches the ring's last events).
# - when the substrate waits on a clock for a peer again: a non-test line
#   under crates/mpi/src that names `FailureDetector`, `recv_timeout`,
#   `wait_timeout`, `Condvar` or `DETECTOR_POLL` (a rank's exit travels
#   in-band as its exit notice; the only real time left is the receive's
#   `POLL_WINDOW`, which decides no result).
# - when a random-order sweep loads its items one decision at a time
#   again: a non-test `for &i in order` in crates/core/src/route/coarse.rs
#   or crates/core/src/route/switchable.rs (both sweeps read their
#   segments or spans through `route::gather`, a block of 16 at a time,
#   so the cache misses of the shuffled order overlap).
# - when the aggregate grows a tolerance checker again: a non-test line
#   under crates/bench/src that names `check_baseline`, `TOLERANCE` or
#   `"--baseline"` (`ci/baseline-aggregate.json` is a golden file that a
#   fresh aggregate must equal byte for byte).
# - when an exchange grows its output by doubling again: a non-test line
#   under crates/core/src/parallel or of crates/core/src/route/serial.rs
#   that contains `flatten().collect()` (an arrival is a `concat()` or a
#   `join` into its longest part, a gather joins its parts the same way,
#   a dealing counts before it places), or any line of crates/core/src/parallel/hybrid.rs that
#   names `group_nodes` (the owners merge the canonical fragments they
#   receive with `merge_fragments`; they do not regroup them pair by
#   pair).
# - when the hybrid restores switchable's input order by sorting again: a
#   non-test line under crates/core/src/parallel that names a span and
#   calls `.sort(`, `.sort_by(` or `.sort_by_key(` (std's stable sort
#   takes scratch up to the list's own size, a heap peak of its own;
#   the arrivals come in key order and `common::merge_by` merges them in
#   the longest one's buffer).
# - when the router library draws again: a non-test line under
#   crates/core/src that names `render_svg`, `PlotOptions`,
#   `CongestionReport` or `fn heatmap` (the SVG plot and the congestion
#   report are the `pgr` CLI's, in src/bin/pgr/report.rs, read off a
#   finished `RoutingResult`).
# - when pgr-mpi or the router config grows back surface only tests
#   call: a non-test `pub fn phase_enter` under crates/mpi/src
#   (`Comm::boundary` is the one evaluated phase entry, `phase_mark` the
#   one unevaluated one), a `root` parameter on a `pub fn` of
#   crates/mpi/src/comm/collectives.rs (rooted collectives root at
#   logical rank 0, the paper's master), a `struct Matching` in
#   crates/mpi/src/fault.rs (a closure is a fault layer), or a
#   `RecoveryPolicy` type under crates/core/src (the recovery bound is
#   the one field `RouterConfig::recovery_rounds`).
# - when the in-process codec comes back: a non-test line under
#   crates/mpi/src/comm that calls `to_bytes(` or `from_bytes(`, or that
#   calls `crc32(` anywhere but in `Transport::send` and
#   `Transport::ingest` of comm/transport.rs (a typed frame hands the
#   sender's value over, billed at its encoded length; only raw byte
#   frames and a modeled transfer's length header are checksummed, there;
#   checkpoints keep their codec and CRC in crates/mpi/src/checkpoint.rs).
# - when a span is spelled field by field again: a non-test, non-comment
#   `Span {` struct literal (or pattern) under crates/*/src or src/
#   anywhere but in crates/core/src/route/state.rs. One private word packs
#   a span's channel, whether it is switchable and which side of its row
#   it sits on; `Span::new`, `channel()`, `switch_row()` and `flip()` are
#   the one home of that packing.
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

for dir in crates/mpi/src crates/core/src crates/bench/src crates/geom/src crates/circuit/src src; do
    # shellcheck disable=SC2046 # file names under src/ carry no spaces
    files=$(per_file $(find "$dir" -name '*.rs'))
    echo "$files" | awk -v label="$dir" '
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

# "<file>:<line>:<text>" of every non-test, non-comment line of the files
# $2... that calls (not defines) $1.
calls() {
    call=$1
    shift
    awk -v call="$call" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[ \t]*\/\// && !/fn / && index($0, call) { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' "$@"
}
for want in 'CoarseState::charged( 1' 'connect_all( 2' 'ChannelState::from_spans( 3' '.add_span( 6'; do
    call=${want% *}
    # shellcheck disable=SC2046
    sites=$(calls "$call" $(find crates/core/src -name '*.rs'))
    if [ "$(echo "$sites" | grep -c .)" -ne "${want#* }" ]; then
        echo "surface: $call must have ${want#* } call site(s) under crates/core/src (the step bodies live in route::serial::RouteState; span lists load through DensityProfile::load_spans):" >&2
        echo "$sites" >&2
        exit 1
    fi
done

# shellcheck disable=SC2046
stray_state=$(awk '
    FNR == 1 { in_tests = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    !in_tests && !/^[ \t]*\/\// && index($0, "ChannelState::new(") && fn != "from_spans" {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
' $(find crates/core/src -name '*.rs'))
if [ -n "$stray_state" ]; then
    echo "surface: channel state is built by ChannelState::from_spans only (it allocates the profiles after the spans exist):" >&2
    echo "$stray_state" >&2
    exit 1
fi

for call in 'run_cell(' 'catch_unwind('; do
    sites=$(calls "$call" crates/bench/src/tables/robustness.rs)
    if [ "$(echo "$sites" | grep -c .)" -gt 1 ]; then
        echo "surface: the robustness matrices run every cell through Cell::run (one $call call site in tables/robustness.rs):" >&2
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

tree=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /fn settle|fn split|pending|2 \* width/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/geom/src/profile.rs)
if [ -n "$tree" ]; then
    echo "surface: DensityProfile is its columns, the peak and the peak count (no tree):" >&2
    echo "$tree" >&2
    exit 1
fi

side_walks=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /\.max_in\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/core/src/route/coarse.rs)
if [ -n "$side_walks" ]; then
    echo "surface: the withdrawn peak is one DensityProfile::max_if_removed scan (no max_in side walks):" >&2
    echo "$side_walks" >&2
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

scans=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /\.contains\(&/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/circuit/src/model.rs)
if [ -n "$scans" ]; then
    echo "surface: Circuit::validate marks what each list walk meets (no per-element scan of an owner's list):" >&2
    echo "$scans" >&2
    exit 1
fi

# shellcheck disable=SC2046
flat_store=$(
    awk '
        FNR == 1 { in_tests = 0; name = "" }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        match($0, /struct [A-Za-z_]+/) { name = substr($0, RSTART + 7, RLENGTH - 7) }
        !in_tests && /^[ \t]*(pub(\([a-z]+\))? )?nodes: Vec<Node>,/ && name != "WorkNets" {
            printf "%s:%d:%s\n", FILENAME, FNR, $0
        }
    ' $(find crates/core/src -name '*.rs')
    awk '/^#\[cfg\(test\)\]/ { exit } /\.sort[a-z_]*\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }' \
        crates/core/src/route/connect.rs
    awk '/^#\[cfg\(test\)\]/ { exit } /sort_unstable_by_key\(|sort_by_key\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }' \
        crates/core/src/route/feedthrough.rs
)
if [ -n "$flat_store" ]; then
    echo "surface: work nets are one WorkNets store kept canonical from step 3 on (no per-net node vectors, no sort in Connect, no keyed whole-list sort in assign):" >&2
    echo "$flat_store" >&2
    exit 1
fi

dense_sync=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /comm\.allgather\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/core/src/route/coarse.rs crates/core/src/route/switchable.rs)
if [ -n "$dense_sync" ]; then
    echo "surface: a net-wise sync ships a compact value billed as the dense one (Comm::allgather_charged):" >&2
    echo "$dense_sync" >&2
    exit 1
fi

fresh_log=$(awk '
    /^    fn sync\(/ { in_sync = 1 }
    in_sync && /Grid::new|DeltaGrid::new|zero_deltas\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    in_sync && /^    }$/ { in_sync = 0 }
' crates/core/src/route/coarse.rs)
if [ -n "$fresh_log" ]; then
    echo "surface: the coarse sync zeroes the cells it listed (no grid allocated or scanned per sync):" >&2
    echo "$fresh_log" >&2
    exit 1
fi

# "<file>:<line>:<text>" of every non-test line of the files $2... that
# matches the extended regular expression $1.
nontest() {
    re=$1
    shift
    RE=$re awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && $0 ~ ENVIRON["RE"] { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' "$@"
}
# shellcheck disable=SC2046
step3=$(
    nontest 'fn assign_in_place' $(find crates/core/src -name '*.rs')
    nontest 'pub fn assign' crates/core/src/route/feedthrough.rs | sed 1d
    nontest '^[ \t]*(pub(\([a-z]+\))? )?[a-z_]+: (Option<)?FtPlan' $(find crates/core/src -name '*.rs')
)
if [ -n "$step3" ]; then
    echo "surface: step 3 has one assignment body, and the plan dies with step 3 (RouteState keeps its total):" >&2
    echo "$step3" >&2
    exit 1
fi

verify_sort=$(nontest '\.sort' crates/core/src/verify.rs)
if [ -n "$verify_sort" ]; then
    echo "surface: verify recounts each channel with a difference array (no endpoint sort):" >&2
    echo "$verify_sort" >&2
    exit 1
fi

# shellcheck disable=SC2046
test_only=$(
    nontest 'watchdog|Stalled|TransportSnapshot' $(find crates/mpi/src -name '*.rs')
    nontest '^[ \t]+pub [a-z_]+:' crates/mpi/src/reliable.rs | grep -v 'pub enabled:' || true
    nontest 'min_ranks' $(find crates/*/src -name '*.rs')
    nontest '^[ \t]+(pub )?(grid_w|ft_width|coarse_passes|switch_passes):' crates/core/src/config.rs
    awk '
        /^pub struct TraceConfig \{/ { in_cfg = 1; next }
        in_cfg && /^}/ { in_cfg = 0 }
        in_cfg && /^[ \t]+(pub )?[a-z_]+:/ && !/^[ \t]+pub enabled:/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' crates/mpi/src/trace.rs
)
if [ -n "$test_only" ]; then
    echo "surface: an option only tests set is back (the recv watchdog, a reliable-transport tunable, the recovery floor, a router tunable, the trace ring's capacity):" >&2
    echo "$test_only" >&2
    exit 1
fi

shared_trace=$(
    nontest 'TraceHub|Mutex' crates/mpi/src/trace.rs
    nontest 'crate::trace' crates/mpi/src/comm/transport.rs
)
if [ -n "$shared_trace" ]; then
    echo "surface: each rank's Comm owns its trace ring (no shared hub, no lock; the transport knows nothing of traces):" >&2
    echo "$shared_trace" >&2
    exit 1
fi

mst_kernels=$(nontest 'in_tree|sort_unstable_by_key\(\|e\|' crates/geom/src/mst.rs)
if [ -n "$mst_kernels" ]; then
    echo "surface: Prim keeps only the vertices left, and Connect's Kruskal sorts integer keys (no in_tree rescan, no tuple-keyed edge sort):" >&2
    echo "$mst_kernels" >&2
    exit 1
fi

# shellcheck disable=SC2046
timed=$(nontest 'FailureDetector|recv_timeout|wait_timeout|Condvar|DETECTOR_POLL' $(find crates/mpi/src -name '*.rs'))
if [ -n "$timed" ]; then
    echo "surface: crates/mpi/src waits on a clock for a peer (a rank's exit is its exit notice):" >&2
    echo "$timed" >&2
    exit 1
fi

per_item=$(nontest 'for &i in order' crates/core/src/route/coarse.rs crates/core/src/route/switchable.rs)
if [ -n "$per_item" ]; then
    echo "surface: a random-order sweep reads its items through route::gather (a block at a time, so the misses overlap):" >&2
    echo "$per_item" >&2
    exit 1
fi

# shellcheck disable=SC2046
tolerance=$(nontest 'check_baseline|TOLERANCE|"--baseline"' $(find crates/bench/src -name '*.rs'))
if [ -n "$tolerance" ]; then
    echo "surface: the committed aggregate is a golden file (a fresh one must equal it byte for byte; no tolerance checker):" >&2
    echo "$tolerance" >&2
    exit 1
fi

# shellcheck disable=SC2046
step1=$(nontest 'build_segments_with|pin_nodes|SteinerScratch|register_steiner_nodes' $(find crates/core/src/parallel -name '*.rs'))
if [ -n "$step1" ]; then
    echo "surface: crates/core/src/parallel builds Steiner trees itself (call RouteState::steiner, then deal its segments):" >&2
    echo "$step1" >&2
    exit 1
fi

# shellcheck disable=SC2046
doubling=$(
    nontest 'flatten\(\)\.collect\(\)' $(find crates/core/src/parallel -name '*.rs') crates/core/src/route/serial.rs
    grep -Hn 'group_nodes' crates/core/src/parallel/hybrid.rs || true
)
if [ -n "$doubling" ]; then
    echo "surface: an exchange sizes its output exactly (concat() an arrival, count before dealing, merge canonical fragments):" >&2
    echo "$doubling" >&2
    exit 1
fi

# shellcheck disable=SC2046
span_sort=$(nontest '\.sort(_by|_by_key)?\(' $(find crates/core/src/parallel -name '*.rs') | grep -i 'span' || true)
if [ -n "$span_sort" ]; then
    echo "surface: span arrivals are merged in place (common::merge_by), not sorted with scratch:" >&2
    echo "$span_sort" >&2
    exit 1
fi

# shellcheck disable=SC2046
drawing=$(nontest 'render_svg|PlotOptions|CongestionReport|fn heatmap' $(find crates/core/src -name '*.rs'))
if [ -n "$drawing" ]; then
    echo "surface: the router library does not draw (the SVG plot and the congestion report live in src/bin/pgr/report.rs):" >&2
    echo "$drawing" >&2
    exit 1
fi

# shellcheck disable=SC2046
test_surface=$(
    nontest 'pub fn phase_enter' $(find crates/mpi/src -name '*.rs')
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /pub fn / { sig = 1 }
        sig && /[(, ]root: / { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
        sig && /\{$/ { sig = 0 }
    ' crates/mpi/src/comm/collectives.rs
    nontest 'struct Matching' crates/mpi/src/fault.rs
    nontest '(struct|enum|type) RecoveryPolicy' $(find crates/core/src -name '*.rs')
)
if [ -n "$test_surface" ]; then
    echo "surface: public surface only tests call is back (phase entry is Comm::boundary; collectives root at rank 0; a closure is a fault layer; the recovery bound is RouterConfig::recovery_rounds):" >&2
    echo "$test_surface" >&2
    exit 1
fi

# shellcheck disable=SC2046
codec=$(awk '
    FNR == 1 { in_tests = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    in_tests || /^[ \t]*\/\// { next }
    /to_bytes\(|from_bytes\(/ || (/crc32\(/ && !(FILENAME ~ /\/transport\.rs$/ && (fn == "send" || fn == "ingest"))) {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
' $(find crates/mpi/src/comm -name '*.rs'))
if [ -n "$codec" ]; then
    echo "surface: frames between rank threads carry values, not encodings (only raw byte frames are checksummed, in Transport::send and ::ingest):" >&2
    echo "$codec" >&2
    exit 1
fi

# shellcheck disable=SC2046
span_literal=$(nontest '(^|[^A-Za-z0-9_])Span \{' $(find crates/*/src src -name '*.rs' ! -path crates/core/src/route/state.rs) |
    grep -vE '^[^:]+:[0-9]+:[ \t]*//|(struct|impl|->)[^{]*Span \{' || true)
if [ -n "$span_literal" ]; then
    echo "surface: a span is built by Span::new and read through its accessors (route/state.rs packs its channel word):" >&2
    echo "$span_literal" >&2
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
