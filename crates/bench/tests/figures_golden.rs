//! Byte-equality gate for the `figures` binary.
//!
//! Runs the built binary over the Mandelbrot-only sections — Table 1,
//! the Figure 2/3 timelines, the ablations and the scaling study — and
//! pins the FNV-1a of everything it prints. Those sections use only
//! basic IEEE operations (no `sin`/`exp`, which PSIA's cloud generator
//! needs), so the digest is platform-stable; Figures 4-7 are covered by
//! the byte comparison against the parent's binary that
//! `.claude/skills/verify` describes.
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
