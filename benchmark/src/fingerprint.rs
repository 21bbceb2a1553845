//! Run hygiene and the host fingerprint printed ahead of the metrics.

use std::path::{Path, PathBuf};

use crate::sut;

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Removes every `BITFLOW_*` variable from the process, so no knob of the
/// system under test is set from outside the benchmark. Call before any
/// thread is started.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BITFLOW_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The body of the `[profile.release]` table of a manifest: its non-empty,
/// non-comment lines up to the next table header.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Fails unless this package's release profile is the root manifest's,
/// line for line: build settings change speed without changing code, and
/// this package is its own workspace root, so the copy could drift.
pub fn check_profiles(bench_dir: &Path) -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let own = release_profile(&read(bench_dir.join("Cargo.toml"))?);
    let root = release_profile(&read(bench_dir.join("../Cargo.toml"))?);
    if own.is_empty() || own != root {
        return Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {own:?}, the root Cargo.toml has {root:?}"
        ));
    }
    Ok(())
}

/// The checked-out commit, read from `.git` next to the benchmark (the
/// driver's checkouts have none: `none`).
pub fn git_rev(bench_dir: &Path) -> String {
    let git = bench_dir.join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().chars().take(12).collect();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(|rev| rev.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V`, or `unknown` when no `rustc` is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One line describing the host and the build.
pub fn fingerprint(bench_dir: &Path) -> String {
    let host = sut::host();
    format!(
        "simd={} width={} cores={} ghz={:.2} rustc=\"{}\" rev={}",
        host.features,
        host.simd_bits,
        sut::nproc(),
        host.ghz,
        rustc_version(),
        git_rev(bench_dir)
    )
}

/// (steal, total) CPU ticks of the whole host so far, from `/proc/stat`.
/// `None` where the file or the field is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time that the hypervisor gave to someone else
/// between two [`cpu_ticks`] readings: the one disturbance a benchmark on a
/// shared VM cannot average away, so every run reports it.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// The calling thread's CPU affinity as it was before [`pin_to_one_cpu`];
/// dropping it puts that back.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    before: [u64; AFFINITY_WORDS],
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const AFFINITY_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread started from it until the
/// guard is dropped, to the first CPU it may run on. For the workload whose
/// every request is handed from thread to thread (client, connection
/// thread, worker and back): on this 2-vCPU VM a wake-up across vCPUs costs
/// 25-40 us, so the same request takes 55-65 us when the kernel happens to
/// pack the threads on one vCPU and 115-170 us when it spreads them, and
/// which of the two a run gets changes from run to run. `None` where the
/// affinity cannot be read or set (then nothing changed).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut before = [0u64; AFFINITY_WORDS];
    let bytes = std::mem::size_of_val(&before);
    // SAFETY: `before` is a writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, before.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = before.iter().position(|w| *w != 0)?;
    let mut one = [0u64; AFFINITY_WORDS];
    one[word] = 1 << before[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(Pinned { before })
}

/// Not Linux: no pinning.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    None
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `before` is a readable buffer of the size passed.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.before), self.before.as_ptr());
        }
    }
}
