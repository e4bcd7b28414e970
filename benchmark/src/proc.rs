//! Everything the benchmark learns about a process from outside:
//! `/proc` CPU and memory counters, and building and locating the
//! product binaries it measures.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// CPU time of a task, read from `/proc`: total on-CPU time from
/// `schedstat` (nanoseconds), and the `utime`/`stime` ticks of `stat`
/// (10 ms each), which are only good for splitting that total.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    total_s: f64,
    user_ticks: f64,
    sys_ticks: f64,
}

impl Cpu {
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// The user-mode share of the total, by ticks. Half a tick is added
    /// to each side, so an interval too short to collect ticks splits
    /// evenly instead of reading as all-user or all-system.
    pub fn user_s(&self) -> f64 {
        self.total_s * (self.user_ticks + 0.5) / (self.user_ticks + self.sys_ticks + 1.0)
    }

    pub fn sys_s(&self) -> f64 {
        self.total_s - self.user_s()
    }

    pub fn since(&self, earlier: Cpu) -> Cpu {
        Cpu {
            total_s: self.total_s - earlier.total_s,
            user_ticks: self.user_ticks - earlier.user_ticks,
            sys_ticks: self.sys_ticks - earlier.sys_ticks,
        }
    }
}

/// Parse a `stat` file into `(comm, utime, stime)`. The command name
/// sits in parentheses and may itself contain spaces or parentheses, so
/// fields are counted from the last `)`.
fn parse_stat(text: &str) -> Option<(&str, f64, f64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?;
    let mut rest = text.get(close + 1..)?.split_whitespace();
    // After `comm` come state(3) ... utime(14) stime(15).
    let utime = rest.nth(11)?.parse().ok()?;
    let stime = rest.next()?.parse().ok()?;
    Some((comm, utime, stime))
}

/// CPU time of the task whose `/proc` directory is `dir`, if its
/// command name is `name` (any name when `None`).
fn task_cpu(dir: &Path, name: Option<&str>) -> Option<Cpu> {
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    let (comm, user_ticks, sys_ticks) = parse_stat(&stat)?;
    if name.is_some_and(|n| n != comm) {
        return None;
    }
    let sched = std::fs::read_to_string(dir.join("schedstat")).ok()?;
    let on_cpu_ns: f64 = sched.split_whitespace().next()?.parse().ok()?;
    Some(Cpu { total_s: on_cpu_ns / 1e9, user_ticks, sys_ticks })
}

/// CPU time of the calling thread.
pub fn thread_self_cpu() -> Option<Cpu> {
    task_cpu(Path::new("/proc/thread-self"), None)
}

/// CPU time of the thread of `pid` whose name is `name` (the kernel
/// keeps the first 15 bytes of a thread name).
pub fn named_thread_cpu(pid: u32, name: &str) -> Option<Cpu> {
    let want = &name[..name.len().min(15)];
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
        .find_map(|entry| task_cpu(&entry.path(), Some(want)))
}

/// One `Vm*` line of `/proc/<pid>/status`, in MB.
fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of this process, in MB.
pub fn self_rss_mb() -> f64 {
    status_mb("self", "VmRSS:").unwrap_or(0.0)
}

extern "C" {
    // From the C library std already links; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending; empty if the
/// kernel will not say.
pub fn allowed_cpus() -> Vec<u32> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the buffer is MASK_WORDS * 8 bytes long, as declared.
    let ok = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } >= 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS as u32 * 64).filter(|c| mask[(c / 64) as usize] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread, and every process it spawns from now
/// on, to `cpus`. Returns whether the kernel accepted it.
pub fn pin_thread(cpus: &[u32]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for c in cpus.iter().filter(|c| **c < MASK_WORDS as u32 * 64) {
        mask[(c / 64) as usize] |= 1 << (c % 64);
    }
    // SAFETY: the buffer is MASK_WORDS * 8 bytes long, as declared.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// The CPUs the benchmark sizes itself for, the first `min(nproc, 4)`
/// this process may run on, and `nproc`.
pub fn cpus() -> Result<(Vec<u32>, u32), String> {
    let mut allowed = allowed_cpus();
    let nproc = allowed.len() as u32;
    if nproc == 0 {
        return Err("cannot read this process's CPU affinity".into());
    }
    allowed.truncate(4);
    Ok((allowed, nproc))
}

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent").to_path_buf()
}

/// Where the benchmark keeps everything it writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `git rev-parse HEAD` of the repository, or `"unknown"` outside a
/// git checkout.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The product binaries the benchmark drives from outside.
pub struct Binaries {
    pub serverd: PathBuf,
    pub figures: PathBuf,
}

/// Build `dls-serverd` and `figures` from the root workspace in
/// release mode and return their paths. A no-op when they are current.
pub fn build_product() -> Result<Binaries, String> {
    let root = repo_root();
    // A relative CARGO_TARGET_DIR was resolved by the outer `cargo run`
    // against *its* working directory; pin it so the inner build, which
    // runs from the repo root, lands in the same place.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-p", "dls-service", "-p", "bench"])
        .args(["--bin", "dls-serverd", "--bin", "figures"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the product binaries failed ({status})"));
    }
    let bin = |name: &str| {
        let path = target.join("release").join(name);
        path.is_file().then_some(path.clone()).ok_or(format!("{} was not built", path.display()))
    };
    Ok(Binaries { serverd: bin("dls-serverd")?, figures: bin("figures")? })
}
