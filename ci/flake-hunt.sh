#!/bin/sh
# Runs the suites whose host interleavings real time can change RUNS
# times with the host oversubscribed by 2 x nproc busy loops, and fails
# on the first failing run. No receive waits on a timer: a rank's exit
# reaches its peers as an exit notice behind every frame it sent. Two
# things still depend on host timing: a receive polls its channel for
# POLL_WINDOW before it parks, when the world has no more ranks than the
# host has cores; and the peer-exit paths race a sender against a
# receiver's exit (a redundant copy reaching a rank that already left).
# The suites: pgr-mpi's chaos, fault and typed-frame suites, and
# pgr-router's net-wise and hybrid drivers and sync tests, kill matrix,
# chaos recovery and the differential oracle (whose cells include the
# hybrid's, both of whose ranks now connect at once).
set -eu
cd "$(dirname "$0")/.."
runs=${RUNS:-20}

suites() {
    cargo test -q --locked -p pgr-mpi --test chaos --test fault --test typed "$@" &&
        cargo test -q --locked -p pgr-router --test kill_matrix --test chaos_recovery --test oracle "$@" &&
        cargo test -q --locked -p pgr-router --lib "$@" -- parallel::netwise parallel::hybrid route::switchable route::coarse
}

suites --no-run

hogs=""
trap 'kill $hogs 2>/dev/null || true' EXIT INT TERM
i=0
while [ "$i" -lt $(($(nproc) * 2)) ]; do
    sh -c 'while :; do :; done' &
    hogs="$hogs $!"
    i=$((i + 1))
done

i=1
while [ "$i" -le "$runs" ]; do
    suites >/dev/null 2>&1 || {
        echo "flake-hunt: run $i of $runs failed" >&2
        suites
        exit 1
    }
    i=$((i + 1))
done
echo "flake-hunt: $runs of $runs oversubscribed runs passed"
