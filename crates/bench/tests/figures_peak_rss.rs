//! Memory gate for the `figures` binary: the peak resident set of
//! `figures --quick`, the `sim_figures` benchmark workload.
//!
//! Nearly all of it is the two cost tables, Mandelbrot's 786,432 costs
//! and PSIA's 393,216. Mandelbrot's lie on a grid whose slots fit two
//! bytes, so its table shrinks to two bytes a cost once built; PSIA's
//! keep four. The peak is then the Mandelbrot table while it is built
//! at four bytes a cost: 6.3 MB in release and 6.7 MB in debug, where a
//! Mandelbrot table left at four bytes peaks when both tables are built,
//! at 7.7-7.9 MB and 8.2-8.4 MB. Both peaks are reached by the time
//! `figures` reports PSIA's statistics, and no later section allocates
//! more. So the child is sampled at that line and then stopped, and a
//! table that stays at four bytes fails the bound of its profile.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Between the two layouts, with ~0.7 MB to spare on either side.
const BOUND_KB: u64 = if cfg!(debug_assertions) { 7_500 } else { 7_000 };

/// `VmHWM` of a live process, in kB.
fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmHWM in kB")
}

#[test]
#[cfg(target_os = "linux")]
fn quick_figures_peak_under_the_four_byte_bound() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--quick")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn figures");
    // Kept open until the child is reaped, so it cannot die of a closed
    // pipe before it is sampled.
    let mut lines = BufReader::new(child.stdout.take().expect("stdout was piped")).lines();
    let tables_built = lines.by_ref().map_while(Result::ok).any(|l| l.starts_with("  PSIA:"));
    let peak = tables_built.then(|| peak_rss_kb(child.id()));
    child.kill().expect("stop figures");
    child.wait().expect("reap figures");
    drop(lines);
    let peak = peak.expect("figures never reported the PSIA table");
    assert!(peak < BOUND_KB, "figures --quick peaked at {peak} kB, bound {BOUND_KB} kB");
}
