#!/usr/bin/env python3
"""Read a scripts/coverage.sh run: check its test outcomes, then report
the functions under crates/*/src that no test entered.

    python3 scripts/coverage_report.py REPO_ROOT OUT_DIR

OUT_DIR holds test.log (cargo's output), sancov/ (one
`<binary>.<pid>.sancov` per instrumented process) and build/ (the
instrumented target directory). Writes OUT_DIR/report.txt and prints it.

How a PC maps to a function: with `-sanitizer-coverage-level=1` every
instrumented function calls `__sanitizer_cov_trace_pc_guard` once, on
entry, and the runtime records the call's return address - 1 as an
offset into its module. So the call sites found by `objdump -d` are the
functions, the instruction after each site gives the PC it records, and
`llvm-symbolizer` names one site per function.

Exit status 1 when a test target failed that is not one of the
instrumentation artefacts below, or when the log shows no test run.
"""

import collections
import concurrent.futures
import glob
import os
import re
import shutil
import struct
import subprocess
import sys

# Targets that fail only because of the instrumentation:
# - rustdoc links the ASan-built crates without the sanitizer flags;
# - ASan's shadow memory breaks `figures_peak_rss`'s RSS bound.
ARTEFACTS = {"-p bench --test figures_peak_rss"} | {
    f"-p {crate} --doc" for crate in ("dls", "dls-service", "hdls", "hier", "mpisim", "openmp-sim")
}

SANCOV_MAGIC_64 = 0xC0BFFFFFFFFFFF64
GUARD = re.compile(r"\bcall.*<__sanitizer_cov_trace_pc_guard(@plt)?>")
TARGET = "x86_64-unknown-linux-gnu"


def failed_targets(log):
    """Targets cargo reports as failed, and the number of test passes."""
    failed = set(re.findall(r"to rerun pass `([^`]+)`", log))
    failed |= set(re.findall(r"^\s+`(-p [^`]+)`$", log, re.M))
    passed = sum(int(n) for n in re.findall(r"^test result: \w+\. (\d+) passed", log, re.M))
    return failed, passed


def read_pcs(path):
    with open(path, "rb") as f:
        data = f.read()
    (magic,) = struct.unpack_from("<Q", data)
    if magic != SANCOV_MAGIC_64:
        raise SystemExit(f"{path}: not a 64-bit .sancov file")
    return set(struct.unpack_from(f"<{(len(data) - 8) // 8}Q", data, 8))


def guard_sites(binary):
    """(call site, recorded PC) of every entry guard in `binary`."""
    dump = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", binary],
        capture_output=True, text=True, check=True,
    ).stdout
    sites, pending = [], None
    for line in dump.splitlines():
        m = re.match(r"^\s*([0-9a-f]+):", line)
        if not m:
            continue
        addr = int(m.group(1), 16)
        if pending is not None:
            sites.append((pending, addr - 1))
            pending = None
        if GUARD.search(line):
            pending = addr
    return sites


def symbolize(symbolizer, binary, addrs):
    """(function, file, line) of each address."""
    res = subprocess.run(
        [symbolizer, "--no-inlines", f"--obj={binary}"],
        input="".join(f"0x{a:x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout
    blocks = [b.splitlines() for b in res.strip("\n").split("\n\n")]
    out = []
    for block in blocks:
        func, loc = block[0], block[1] if len(block) > 1 else "??:0:0"
        file, line = (loc.rsplit(":", 2) + ["0", "0"])[:2]
        out.append((func, file, int(line) if line.isdigit() else 0))
    return out


def find_binary(build, module):
    for sub in ("deps", ""):
        path = os.path.join(build, TARGET, "debug", sub, module)
        if os.path.isfile(path):
            return path
    return None


def analyse(job):
    symbolizer, binary, pcs = job
    sites = guard_sites(binary)
    names = symbolize(symbolizer, binary, [s for s, _ in sites])
    return [(name, pc in pcs) for (_, pc), name in zip(sites, names)]


class Source:
    """Per-file facts: the first `#[cfg(test)]` line, and derive lines."""

    def __init__(self, root):
        self.root, self.cache = root, {}

    def lines(self, rel):
        if rel not in self.cache:
            with open(os.path.join(self.root, rel), encoding="utf-8") as f:
                text = f.read().splitlines()
            first_test = next(
                (i + 1 for i, l in enumerate(text) if l.strip() == "#[cfg(test)]"), len(text) + 1
            )
            self.cache[rel] = (text, first_test)
        return self.cache[rel]

    def is_test(self, rel, line):
        return line >= self.lines(rel)[1]

    def is_derived(self, rel, line):
        text = self.lines(rel)[0]
        return 0 < line <= len(text) and "derive(" in text[line - 1]


def main():
    root, out = sys.argv[1], sys.argv[2]
    with open(os.path.join(out, "test.log"), encoding="utf-8", errors="replace") as f:
        log = f.read()
    failed, passed = failed_targets(log)
    unexpected = sorted(failed - ARTEFACTS)
    report = [f"tests passed: {passed}", f"failed targets: {len(failed)}"]
    report += [f"  {t}{'' if t in ARTEFACTS else '   <- not an instrumentation artefact'}" for t in sorted(failed)]

    symbolizer = shutil.which("llvm-symbolizer") or next(
        iter(sorted(glob.glob("/usr/lib/llvm-*/bin/llvm-symbolizer"))), None
    )
    if symbolizer is None:
        raise SystemExit("no llvm-symbolizer on PATH or under /usr/lib/llvm-*/bin")

    build = os.path.join(out, "build")
    pcs = collections.defaultdict(set)
    for name in os.listdir(os.path.join(out, "sancov")):
        module = name.rsplit(".", 2)[0]
        pcs[module] |= read_pcs(os.path.join(out, "sancov", name))
    jobs = [(symbolizer, b, p) for m, p in sorted(pcs.items()) if (b := find_binary(build, m))]

    # (file, line) -> [name, entered]; a generic's instantiations share one.
    funcs, src = {}, Source(root)
    prefix = root.rstrip("/") + "/"
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for result in pool.map(analyse, jobs):
            for (name, file, line), entered in result:
                rel = file[len(prefix):] if file.startswith(prefix) else file
                if not re.match(r"crates/[^/]+/src/", rel) or src.is_test(rel, line):
                    continue
                entry = funcs.setdefault((rel, line), [name, False])
                entry[1] |= entered

    per_crate = collections.defaultdict(lambda: [0, 0, []])
    for (rel, line), (name, entered) in sorted(funcs.items()):
        row = per_crate[rel.split("/")[1]]
        row[0] += 1
        if not entered:
            row[1] += 1
            if not src.is_derived(rel, line):
                row[2].append(f"{rel}:{line} {name}")
    total = sum(r[0] for r in per_crate.values())
    never = sum(r[1] for r in per_crate.values())
    plain = sum(len(r[2]) for r in per_crate.values())
    report.append(
        f"functions under crates/*/src (non-test): {total}; never entered: {never}; "
        f"of those not derived: {plain}"
    )
    report.append(f"{'crate':<14}{'functions':>10}{'never':>8}{'not derived':>13}")
    for crate, (n, k, rows) in sorted(per_crate.items()):
        report.append(f"{crate:<14}{n:>10}{k:>8}{len(rows):>13}")
    for crate, (_, _, rows) in sorted(per_crate.items()):
        if rows:
            report.append(f"\n{crate}: never entered, not derived")
            report += [f"  {r}" for r in rows]

    text = "\n".join(report) + "\n"
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")
    if passed == 0 or unexpected:
        print(f"coverage run failed: {', '.join(unexpected) or 'no test ran'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
