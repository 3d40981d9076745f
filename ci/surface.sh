#!/bin/sh
# Size of the code the substrate/router/harness crates expose: per crate,
# lines of every file under src/ (in-file test modules included), the
# same without those test modules (each file up to its first
# `#[cfg(test)]`), and the number of `pub fn`; then the same for the two
# largest files. Informational — CHANGES.md quotes these numbers
# before → after.
set -eu
cd "$(dirname "$0")/.."

surface() {
    label=$1
    shift
    awk -v label="$label" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { lines++ }
        !in_tests { src++ }
        /pub fn / { fns++ }
        END { printf "%-28s %6d lines %6d non-test %4d pub fn\n", label, lines, src, fns }
    ' "$@"
}

for crate in mpi core bench; do
    # shellcheck disable=SC2046 # file names under src/ carry no spaces
    surface "crates/$crate/src" $(find "crates/$crate/src" -name '*.rs' | sort)
done
surface crates/mpi/src/comm.rs crates/mpi/src/comm.rs
surface crates/bench/src/tables.rs crates/bench/src/tables.rs
