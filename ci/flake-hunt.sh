#!/bin/sh
# Runs the pgr-mpi suites that still touch real time RUNS times with the
# host oversubscribed by 2 x nproc busy loops, and fails on the first
# failing run. Two things run on real time: a blocked receive polls the
# failure detector every DETECTOR_POLL (20 ms) while a kill is
# scheduled, and the peer-exit paths race a sender against a receiver's
# exit.
set -eu
cd "$(dirname "$0")/.."
runs=${RUNS:-20}

cargo test -q --locked -p pgr-mpi --test chaos --test fault --no-run

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
    cargo test -q --locked -p pgr-mpi --test chaos --test fault >/dev/null 2>&1 || {
        echo "flake-hunt: run $i of $runs failed" >&2
        cargo test --locked -p pgr-mpi --test chaos --test fault
        exit 1
    }
    i=$((i + 1))
done
echo "flake-hunt: $runs of $runs oversubscribed runs passed"
