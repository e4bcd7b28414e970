#!/usr/bin/env bash
# A sampling CPU profile of any command, with no perf: where a process
# spends its CPU time, by function, by inlined frame and by instruction.
#
#   scripts/profile.sh BIN [ARGS...]
#   PROFILE_RUNS=10 scripts/profile.sh BIN [ARGS...]     (default: 1)
#
# Compiles scripts/profile_shim.c with the system `cc` into a temporary
# directory and runs the command PROFILE_RUNS times under LD_PRELOAD of
# it: every process samples its interrupted instruction pointer once a
# millisecond of its own CPU time (ITIMER_PROF) and writes the samples
# and its memory map at exit. scripts/profile_report.py then takes each
# process's ASLR base off, symbolises with `addr2line -i -C` and prints
# the samples summed over runs. Build the command with line tables
# (the workspace's release profile has `debug = "line-tables-only"`).
#
# Example, the live MPI+MPI rank loop of the hier_sched workload:
#   cargo build --release --manifest-path benchmark/Cargo.toml
#   PROFILE_RUNS=10 scripts/profile.sh benchmark/target/release/hdls-bench \
#       --child hier sched 3000000 2 0
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: scripts/profile.sh BIN [ARGS...]" >&2; exit 2; }
for tool in cc addr2line python3; do
    command -v "$tool" >/dev/null || { echo "profile.sh: \`$tool\` not found" >&2; exit 1; }
done

here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/profile_shim.so" "$here/profile_shim.c"

runs=${PROFILE_RUNS:-1}
for run in $(seq "$runs"); do
    mkdir -p "$work/run.$run"
    PROFILE_OUT="$work/run.$run" LD_PRELOAD="$work/profile_shim.so" "$@" >/dev/null
done
python3 "$here/profile_report.py" "$work"/run.*
