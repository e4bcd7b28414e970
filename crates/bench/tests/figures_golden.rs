//! Byte-equality gate for the `figures` binary.
//!
//! Runs the built binary over the Mandelbrot-only sections — Table 1,
//! the Figure 2/3 timelines, the ablations and the scaling study — and
//! pins the FNV-1a of everything it prints, then over `--fig4` and pins
//! the Figure 4a (Mandelbrot) block the same way. Those sections use
//! only basic IEEE operations (no `sin`/`exp`, which PSIA's cloud
//! generator needs), so the digests are platform-stable; of the PSIA
//! block, Figure 4b, only the presence is checked. The rest of Figures
//! 4-7 is compared byte for byte against a build of the parent commit.
//!
//! A digest that moves means a cost table, a schedule, a counter or a
//! format string changed. If that is intended, say so in the PR and
//! re-pin; if not, it is a bug.

use std::process::Command;

#[path = "../../hier/tests/support/fnv.rs"]
mod fnv;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures")
}

#[test]
fn mandelbrot_sections_print_the_pinned_bytes() {
    let out = figures(&["--quick", "--table1", "--fig2", "--fig3", "--ablations", "--speedup"]);
    assert!(out.status.success(), "figures exited with {}", out.status);
    let mut h = fnv::Fnv::new();
    h.bytes(&out.stdout);
    assert_eq!(
        (out.stdout.len(), h.0),
        (4481, 0x7735_05c8_65cb_c59d),
        "figures --quick --table1 --fig2 --fig3 --ablations --speedup printed different bytes"
    );
}

#[test]
fn figure_4a_prints_the_pinned_bytes() {
    let out = figures(&["--quick", "--fig4"]);
    assert!(out.status.success(), "figures exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let a = stdout.find("\nFigure 4a: Mandelbrot").expect("a Figure 4a block");
    let b = stdout.find("\nFigure 4b: PSIA").expect("a Figure 4b block");
    let block = &stdout[a..b];
    let mut h = fnv::Fnv::new();
    h.bytes(block.as_bytes());
    assert_eq!(
        (block.len(), h.0),
        (1273, 0x5b01_0ff3_6f49_39a3),
        "figures --quick --fig4 printed a different Figure 4a block:\n{block}"
    );
    assert!(stdout[b..].contains("\n    check: STATIC+SS at 16 nodes"), "no Figure 4b check line");
}

/// A malformed `--run` value is a usage error like any other: a
/// `bad <key>: ...` line and exit status 2, not a panic.
#[test]
fn bad_run_values_exit_2_with_a_message() {
    for (arg, key) in [
        ("workload=uniform:abc:1:2:3", "workload"),
        ("workload=constant:10:", "workload"),
        ("wpn=x", "wpn"),
        ("nodes=2,y", "nodes"),
        ("inter=NOPE", "inter"),
    ] {
        let out = figures(&["--run", arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--run {arg}: {stderr}");
        assert!(stderr.starts_with(&format!("bad {key}: ")), "--run {arg}: {stderr}");
        assert!(out.stdout.is_empty(), "--run {arg} printed before failing");
    }
}
