//! Machine-speed calibration: a fixed piece of register-only integer
//! work, timed on the workload's CPUs between repetitions, which the
//! reported times are scaled by.
//!
//! The box this benchmark runs on is a few vCPUs of a shared host. What
//! the neighbours do changes how fast each vCPU retires instructions,
//! by 10-30%, for seconds to minutes at a time and one vCPU at a time;
//! the median of a 15 or a 30 second run follows a drift that slow. A
//! reference timed on the same CPUs within a second of every repetition
//! does not. Measured here, spread = IQR / median over consecutive
//! 15-second medians of `wall_s`:
//!
//! | 150 s of          | clock | / slowest CPU's calibration |
//! |-------------------|-------|-----------------------------|
//! | `hier_sched`, loud | 16.0% | 2.8% |
//! | `svc_journal`      |  4.6% | 3.1% |
//! | `svc_b64`, quiet   |  3.6% | 4.1% |
//!
//! and `figures --quick --fig4` alternated with the kernel on one CPU
//! correlates 0.85 with it (0.27 when the two run on different CPUs,
//! which is why workloads are pinned). In a quiet minute the correction
//! costs a point of spread, in a loud one it removes most of it. A
//! pointer chase over 16 MB was tried as a second reference and tracks
//! nothing (r = 0.5), so the kernel stays in registers.
//!
//! A corrected time is `clock * NOMINAL_S / calibration`: seconds on a
//! machine that runs the kernel in exactly `NOMINAL_S`, which this box
//! does in a quiet moment.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// What the kernel takes on the reference machine, by definition.
pub const NOMINAL_S: f64 = 0.05;

/// Loop steps of one calibration: ~50 ms here.
const STEPS: u64 = 50_000_000;

/// Four independent add/xor/rotate chains: several instructions retire
/// per cycle, so it slows when the core's other hardware thread or the
/// host's scheduler takes cycles away, as compiled product code does.
#[inline(never)]
fn kernel(steps: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..black_box(steps) {
        a = a.wrapping_add(i) ^ (a >> 3);
        b = b.wrapping_add(a | 1).rotate_left(5);
        c = (c ^ i).wrapping_add(0x9E37);
        d = d.wrapping_sub(i & c).rotate_right(3);
    }
    a ^ b ^ c ^ d
}

/// Run the kernel on every CPU of `cpus` at once, one pinned thread
/// each, and return the longest of their times in seconds: a closed
/// loop between threads moves at the pace of its slowest CPU.
pub fn measure(cpus: &[u32]) -> f64 {
    let gate = Barrier::new(cpus.len());
    std::thread::scope(|scope| {
        let runs: Vec<_> = cpus
            .iter()
            .map(|cpu| {
                let gate = &gate;
                scope.spawn(move || {
                    crate::proc::pin_thread(&[*cpu]);
                    gate.wait();
                    let start = Instant::now();
                    black_box(kernel(STEPS));
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().expect("calibration thread panicked")).fold(0.0, f64::max)
    })
}
