#!/usr/bin/env python3
"""Report the samples scripts/profile_shim.c wrote, summed over runs.

    python3 scripts/profile_report.py RUN_DIR...

Each RUN_DIR holds `<pid>.pcs` (sampled instruction pointers, native u64)
and `<pid>.maps` (that process's /proc/self/maps at exit) for every
process of one run. A sample is placed in its file mapping, its ASLR
base is taken off (the mapping's start, then the ELF LOAD segment's
`p_vaddr - p_offset`) and the link-time address is symbolised with
`addr2line -i -C -f`, which names the innermost inlined frame first and
the function the code was compiled in last. Prints three tables: by
outermost function, by innermost inlined frame, and the hottest
addresses with their source lines, the top 20 rows of each.
"""

import argparse
import bisect
import collections
import glob
import os
import re
import subprocess
import sys
from array import array

TOP = 20


def mappings(maps_path):
    """Executable file mappings as sorted (start, end, offset, path)."""
    out = []
    for line in open(maps_path):
        f = line.split(maxsplit=5)
        if len(f) < 6 or "x" not in f[1] or not f[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in f[0].split("-"))
        out.append((start, end, int(f[2], 16), f[5].strip()))
    return sorted(out)


_segments = {}


def link_address(path, file_offset):
    """The link-time address of `file_offset` in ELF file `path`."""
    if path not in _segments:
        segs = []
        try:
            headers = subprocess.run(
                ["readelf", "-lW", path], check=True, capture_output=True, text=True
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            headers = ""
        for line in headers.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        _segments[path] = segs
    for p_offset, p_vaddr, filesz in _segments[path]:
        if p_offset <= file_offset < p_offset + filesz:
            return file_offset - p_offset + p_vaddr
    return file_offset


def collect(run_dirs):
    """(path, link address) -> samples, and the number of processes."""
    counts, procs = collections.Counter(), 0
    for run in run_dirs:
        for pcs in glob.glob(os.path.join(run, "*.pcs")):
            maps = pcs[: -len(".pcs")] + ".maps"
            if not os.path.exists(maps):
                continue
            procs += 1
            maps_list = mappings(maps)
            starts = [m[0] for m in maps_list]
            pcs_arr = array("Q")
            with open(pcs, "rb") as fh:
                pcs_arr.frombytes(fh.read())
            for pc in pcs_arr:
                i = bisect.bisect_right(starts, pc) - 1
                if i >= 0 and pc < maps_list[i][1]:
                    start, _, offset, path = maps_list[i]
                    counts[(path, link_address(path, pc - start + offset))] += 1
                else:
                    counts[("[no file]", 0)] += 1
    return counts, procs


def symbol_table(path):
    """Sorted (address, size, demangled name) of `path`'s functions."""
    out = subprocess.run(
        ["nm", "-C", "--print-size", "--defined-only", path], capture_output=True, text=True
    ).stdout
    syms = []
    for line in out.splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.+)$", line)
        if m:
            syms.append((int(m[1], 16), int(m[2], 16), m[3]))
    return sorted(syms)


def symbolise(counts):
    """(path, address) -> [(function, file:line)], innermost first. The
    last frame is named from the symbol table where it has the address:
    line-tables-only DWARF names some functions without their path."""
    by_file = collections.defaultdict(list)
    for path, addr in counts:
        by_file[path].append(addr)
    frames = {}
    for path, addrs in by_file.items():
        if not os.path.exists(path):
            for a in addrs:
                frames[(path, a)] = [(f"[{path}]", "??:0")]
            continue
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-C", "-f", "-e", path],
            input="\n".join(f"{a:#x}" for a in addrs),
            check=True,
            capture_output=True,
            text=True,
        ).stdout.splitlines()
        groups, cur = {}, None
        i = 0
        while i < len(out):
            if re.fullmatch(r"0x[0-9a-f]+", out[i]):
                cur = int(out[i], 16)
                groups[cur] = []
                i += 1
            else:
                groups[cur].append((out[i], out[i + 1] if i + 1 < len(out) else "??:0"))
                i += 2
        syms = symbol_table(path)
        starts = [s[0] for s in syms]
        for a in addrs:
            got = [(fn, src) for fn, src in groups.get(a, []) if fn != "??"]
            got = got or [(f"[{os.path.basename(path)}]", "??:0")]
            i = bisect.bisect_right(starts, a) - 1
            if i >= 0 and a < syms[i][0] + syms[i][1]:
                got[-1] = (syms[i][2], got[-1][1])
            frames[(path, a)] = got
    return frames


def short(src):
    src = re.sub(r" \(discriminator \d+\)$", "", src)
    cwd = os.getcwd() + "/"
    if src.startswith(cwd):
        return src[len(cwd):]
    m = re.search(r"/(crates/.*|library/.*|src/.*)$", src)
    return m[1] if m else src


def table(title, rows, total):
    print(f"\n{title}")
    for key, n in rows.most_common(TOP):
        print(f"  {100.0 * n / total:6.2f} %  {n:8d}  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args()

    counts, procs = collect(args.runs)
    total = sum(counts.values())
    if total == 0:
        print("profile_report: no samples (did the command run for under 1 ms of CPU?)",
              file=sys.stderr)
        return 1
    frames = symbolise(counts)
    outer, inner = collections.Counter(), collections.Counter()
    for key, n in counts.items():
        outer[frames[key][-1][0]] += n
        inner[frames[key][0][0]] += n
    print(f"{total} samples (1 ms of CPU each) from {procs} processes in {len(args.runs)} runs")
    table("by function (outermost frame)", outer, total)
    table("by inlined frame (innermost)", inner, total)
    hot = collections.Counter()
    for (path, addr), n in counts.items():
        fn, src = frames[(path, addr)][0]
        hot[f"{os.path.basename(path)}+{addr:#x}  {fn}  {short(src)}"] += n
    table("hottest addresses (innermost frame, source line)", hot, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
