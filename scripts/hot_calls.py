#!/usr/bin/env python3
"""List every call a function in an x86-64 ELF binary makes, by callee.

    python3 scripts/hot_calls.py BINARY SYMBOL [--forbid NAME]...

SYMBOL is the demangled path `nm -C` prints, without the hash, e.g.
`hier::live::mpi_mpi::counter_loop`. Every function of that name is
disassembled (`objdump -d`) and each `call` in it is printed with every
name defined at its callee's address:

  - `call addr <sym>`: a direct call, unresolved if no symbol starts at
    `addr`;
  - `call *off(%rip)`: a call through a GOT slot, which is how a
    position-independent executable calls most functions of another
    crate. The slot is looked up in `readelf -rW`'s relocations: an
    `R_X86_64_RELATIVE` slot holds its target as addend, which `nm -C`
    names. Any other slot, or an addend no symbol names, is unresolved;
  - `call *%reg` and other calls through a register: printed as
    `<indirect>` (a `dyn` method or a function pointer).

Names are compared without a trailing `::h<16 hex>` hash, `.llvm.N`
suffix or ` [clone ...]`, so an out-of-line local copy of a function
still has the function's name.

Exits 1 when a callee has a name given with `--forbid`, or when a
callee cannot be resolved (it could be a forbidden one). Exits
2 when SYMBOL is not in the binary, so a rename or an inlined-away
function fails a check rather than passing it.
"""

import argparse
import re
import subprocess
import sys


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


SUFFIX = re.compile(r"(::h[0-9a-f]{16}|\.llvm\.[0-9]+| \[clone [^\]]*\])+$")


def normalise(name):
    return SUFFIX.sub("", name)


def symbols(binary):
    """Function symbols as (address, size, name), and a map from address
    to every name defined there."""
    funcs, by_addr = [], {}
    for line in run("nm", "-C", "--print-size", "--defined-only", binary).splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.+)$", line)
        if not m:
            continue
        addr, size, name = int(m[1], 16), int(m[2], 16), normalise(m[3])
        funcs.append((addr, size, name))
        names = by_addr.setdefault(addr, [])
        if name not in names:
            names.append(name)
    return funcs, by_addr


def got_slots(binary):
    """GOT slot address -> the address an `R_X86_64_RELATIVE` slot holds."""
    slots = {}
    for line in run("readelf", "-rW", binary).splitlines():
        f = line.split()
        if len(f) >= 4 and f[2] == "R_X86_64_RELATIVE" and re.fullmatch(r"[0-9a-f]+", f[0]):
            slots[int(f[0], 16)] = int(f[3], 16)
    return slots


CALL = re.compile(r"^\s*([0-9a-f]+):\s+call\s+(.*)$")
DIRECT = re.compile(r"^([0-9a-f]+) <")
VIA_SLOT = re.compile(r"^\*-?0x[0-9a-f]+\(%rip\)\s+# ([0-9a-f]+)\b")


def calls(binary, addr, size, by_addr, slots):
    """(call site, callee names) for every call in [addr, addr + size).
    The names are None for an unresolved callee, and
    `["<indirect>"]` for a call through a register."""
    out = run(
        "objdump", "-d", "--no-show-raw-insn", f"--start-address={addr:#x}",
        f"--stop-address={addr + size:#x}", binary,
    )
    for line in out.splitlines():
        m = CALL.match(line)
        if not m:
            continue
        site, operand = int(m[1], 16), m[2].strip()
        if d := DIRECT.match(operand):
            yield site, by_addr.get(int(d[1], 16))
        elif "(%rip)" in operand:
            s = VIA_SLOT.match(operand)
            target = slots.get(int(s[1], 16)) if s else None
            yield site, by_addr.get(target)
        else:
            yield site, ["<indirect>"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("symbol")
    ap.add_argument("--forbid", action="append", default=[], metavar="NAME")
    args = ap.parse_args()

    funcs, by_addr = symbols(args.binary)
    found = [(a, s) for a, s, name in funcs if name == args.symbol and s > 0]
    if not found:
        print(f"hot_calls: no function `{args.symbol}` in {args.binary}", file=sys.stderr)
        return 2
    slots = got_slots(args.binary)

    bad = []
    for addr, size in found:
        print(f"{args.symbol} at {addr:#x}, {size} bytes:")
        for site, names in calls(args.binary, addr, size, by_addr, slots):
            if names is None:
                print(f"  {site:#x}  <unresolved>  <- fails the check")
                bad.append(f"an unresolved callee at {site:#x}")
                continue
            hits = [n for n in names if n in args.forbid]
            print(f"  {site:#x}  {' = '.join(names)}{'  <- forbidden' if hits else ''}")
            bad.extend(hits)
    if bad:
        print(f"hot_calls: `{args.symbol}` calls {', '.join(sorted(set(bad)))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
