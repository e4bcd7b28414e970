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

# `slow_reader` bounds the RSS a client that never reads costs the
# server to 4 MiB. Under ASan's defaults it grows ~22 MB: the quarantine
# of freed blocks (256 MB by default) keeps every reply's allocations
# resident, and the fake stacks behind detect_stack_use_after_return
# add ~8 MB. So that test runs on its own, after the rest, with both
# off (~2.4 MB); ASan's other checks stay on.
slow=a_client_that_never_reads_blocks_before_the_server_buffers_its_replies
cd "$root"
set +e
cargo +nightly test --workspace --no-fail-fast --target x86_64-unknown-linux-gnu "${opt0[@]}" \
    -- --skip "$slow" >"$out/test.log" 2>&1
ASAN_OPTIONS="$ASAN_OPTIONS:quarantine_size_mb=0:detect_stack_use_after_return=0" \
    cargo +nightly test -p dls-service --test slow_reader --target x86_64-unknown-linux-gnu \
    "${opt0[@]}" -- --exact "$slow" >>"$out/test.log" 2>&1
set -e
python3 "$root/scripts/coverage_report.py" "$root" "$out"
