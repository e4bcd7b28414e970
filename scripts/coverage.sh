#!/usr/bin/env bash
# Function-entry coverage of the tier-1 test suite, offline.
#
#   scripts/coverage.sh [OUT_DIR]        (default: target/coverage)
#
# Needs a nightly toolchain with the AddressSanitizer runtime, binutils'
# objdump and an llvm-symbolizer. Builds the workspace's tests with
# SanitizerCoverage's function-entry guards (level 1, trace-pc-guard
# under ASan), runs them with `--no-fail-fast` so every target runs,
# and hands the run to scripts/coverage_report.py, which
#   - fails on any test failure beyond the instrumentation artefacts it
#     lists, and
#   - reports, per crate, the functions under crates/*/src that no test
#     entered.
# Every test binary, and every dls-serverd, net-worker, figures or
# calibrate a test spawns, writes `<binary>.<pid>.sancov` under
# OUT_DIR/sancov.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root/target/coverage}" && cd "${1:-$root/target/coverage}" && pwd)
rm -rf "$out/sancov"
mkdir -p "$out/sancov"

export CARGO_TARGET_DIR="$out/build"
export RUSTFLAGS="-Zsanitizer=address -Cpasses=sancov-module \
-Cllvm-args=-sanitizer-coverage-level=1 -Cllvm-args=-sanitizer-coverage-trace-pc-guard"
export ASAN_OPTIONS="coverage=1:coverage_dir=$out/sancov:detect_leaks=0"

# The test profile builds these four at opt-level 1 (root Cargo.toml);
# their inlining would make small functions read as never entered.
opt0=()
for pkg in hier cluster-sim workloads dls; do
    opt0+=(--config "profile.dev.package.$pkg.opt-level=0")
done

cd "$root"
set +e
cargo +nightly test --workspace --no-fail-fast --target x86_64-unknown-linux-gnu "${opt0[@]}" \
    >"$out/test.log" 2>&1
set -e
python3 "$root/scripts/coverage_report.py" "$root" "$out"
