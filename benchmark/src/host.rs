//! What a result file needs to be compared with another: the box, the
//! toolchain, the codegen target and the commit.

use crate::json::{num, obj, st, Json};
use std::process::Command;

/// The host record carried by every output.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub target_cpu: String,
    pub commit: String,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, if it runs and succeeds. The child is
/// waited for before this returns.
fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The microarchitecture level this binary was *compiled* for, from the
/// target features rustc enabled (`.cargo/config.toml` or `RUSTFLAGS`),
/// followed by the features it was judged on.
fn target_cpu() -> String {
    let feats = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let on = |name: &str| feats.iter().any(|&(n, set)| n == name && set);
    let level = if on("avx512f") {
        "x86-64-v4"
    } else if on("avx2") && on("fma") && on("bmi2") {
        "x86-64-v3"
    } else if on("sse4.2") {
        "x86-64-v2"
    } else {
        "baseline"
    };
    let enabled: Vec<&str> = feats.iter().filter(|f| f.1).map(|f| f.0).collect();
    format!(
        "{level} ({}; {})",
        std::env::consts::ARCH,
        enabled.join("+")
    )
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: nproc(),
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            target_cpu: target_cpu(),
            // A benchmark checkout need not be a git repository.
            commit: first_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "none".into()),
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", num(self.nproc as f64)),
            ("rustc", st(&self.rustc)),
            ("target_cpu", st(&self.target_cpu)),
            ("commit", st(&self.commit)),
        ])
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it is allowed on, and returns that CPU;
/// `None` (and no change) where the kernel refuses or the platform has
/// no such call.
///
/// The closed-loop serving workloads call it before they build anything.
/// Their client and their service worker are never runnable at the same
/// time, so one CPU is all they can use; what a second one adds on this
/// VM is the hypervisor's cost of waking an idle vCPU, 20–90 µs a wake-up
/// and twice a request, paid or not according to where the guest
/// scheduler happened to put the two threads: the same binary answered a
/// `serve_sharded_ivf` miss in 160 µs or in 230 µs from one run to the
/// next, and in 160 µs every time once both threads shared a CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        const WORDS: usize = 16;
        let mut mask = [0u64; WORDS];
        // SAFETY: both calls get a pointer to `WORDS` initialised words
        // and that length in bytes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|&w| w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        if unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// This process's peak resident set (`VmHWM`) in MB; 0.0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
