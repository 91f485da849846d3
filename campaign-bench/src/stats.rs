//! Order statistics, process resource usage, and host provenance.

use std::time::Duration;

/// Median of `samples` (mean of the two middle values for even
/// counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The percentiles a tail is reported at, highest first. It stops at
/// p95: with two workers sharing two cores among four party threads,
/// `grid-resume`'s p99 follows scheduler stalls and swung 28–44 ms
/// between runs of the same build, while its p95 held within 8%.
const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// The tail of a latency distribution: the highest nearest-rank
/// percentile of [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile (100 for the maximum).
    pub percentile: f64,
    /// Samples above the rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank sample
/// has at least [`TAIL_BEYOND`] samples beyond it. A fixed ladder keeps
/// the percentile the same across runs of similar length. With fewer
/// than 20 samples none qualifies and the maximum is reported.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        if rank <= n && n - rank >= TAIL_BEYOND {
            return Tail {
                value: sorted[rank - 1],
                percentile: p,
                beyond: n - rank,
            };
        }
    }
    Tail {
        value: sorted.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        beyond: 0,
    }
}

/// `struct timeval` of the C library (x86-64 and AArch64 Linux).
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library (x86-64 and AArch64 Linux): two
/// timevals, then fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage`
    // with the C layout declared above, and RUSAGE_SELF is a valid
    // `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU time of the whole process so far (all
/// threads, exited ones included).
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&u.utime) + micros(&u.stime))
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the C allocator's free memory to the kernel and restarts
/// the kernel's peak-RSS mark at the current RSS (Linux 4.0 and
/// later), so [`peak_rss_mb`] then reports the peak of what runs next
/// rather than of what ran before it.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim takes no pointers and may be called
    // at any time; it only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
    // Best effort: where the kernel refuses, VmHWM stays the process
    // peak, which still bounds the run's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`] (`VmHWM`),
/// in MiB; `getrusage`'s lifetime peak where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    hwm_kb.unwrap_or_else(|| rusage().maxrss as f64) / 1024.0
}

/// Where and how a result was produced.
pub fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a repository has a revision; a
    // parent directory's repository would name the wrong one.
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let rustc = command_line("rustc", &["--version"]);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" git_rev={} rustc=\"{}\" profile={profile}",
        git_rev.as_deref().unwrap_or("unknown"),
        rustc.as_deref().unwrap_or("unknown"),
    )
}

/// The first line a command prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(
            tail(&upto(100)),
            Tail {
                value: 90.0,
                percentile: 90.0,
                beyond: 10
            }
        );
        assert_eq!(tail(&upto(1000)).percentile, 95.0);
        assert_eq!(tail(&upto(200)).percentile, 95.0);
        assert_eq!(tail(&upto(199)).percentile, 90.0);
        assert_eq!(tail(&upto(20)).percentile, 50.0);
        assert_eq!(
            tail(&upto(19)),
            Tail {
                value: 19.0,
                percentile: 100.0,
                beyond: 0
            }
        );
    }

    #[test]
    fn resource_usage_reads_back() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
    }
}
