//! Process accounting and the memory-bandwidth probe, from system calls
//! and CPU instructions only (no files outside the checkout are read).

use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux/x86-64 and aarch64: two timevals and
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak resident memory of a process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mib: f64,
}

impl From<&Rusage> for Usage {
    fn from(r: &Rusage) -> Self {
        Usage {
            cpu_s: (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6,
            peak_rss_mib: r.maxrss_kib as f64 / 1024.0,
        }
    }
}

/// Usage of this process so far (all threads, live and finished).
pub fn self_usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the duration
    // of the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage::from(&r)
}

/// Reaps child `pid` (blocking) and returns its exit status word and
/// usage. The caller must not wait on the child by other means.
pub fn wait_child(pid: u32) -> std::io::Result<(i32, Usage)> {
    let mut r = Rusage::default();
    let mut status = 0i32;
    let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    loop {
        // SAFETY: `status` and `r` are valid, writable for the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut r) };
        if rc == pid {
            return Ok((status, Usage::from(&r)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Size in bytes of the largest (last-level) data or unified cache the
/// CPU reports through CPUID's deterministic cache parameters.
#[cfg(target_arch = "x86_64")]
pub fn last_level_cache_bytes() -> Option<u64> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86-64 CPU; the leaves queried
    // are checked against the reported maximum leaf first.
    let (max_basic, max_ext) = unsafe { (__cpuid(0).eax, __cpuid(0x8000_0000).eax) };
    let mut best = None;
    for leaf in [4u32, 0x8000_001D] {
        let supported = if leaf < 0x8000_0000 {
            leaf <= max_basic
        } else {
            leaf <= max_ext
        };
        if !supported {
            continue;
        }
        for sub in 0..16 {
            #[allow(unused_unsafe)]
            // SAFETY: as above; the leaf is within the supported range.
            let r = unsafe { __cpuid_count(leaf, sub) };
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            if kind == 2 {
                continue; // instruction cache
            }
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let size = ways * parts * line * sets;
            best = Some(best.map_or(size, |b: u64| b.max(size)));
        }
        if best.is_some() {
            break;
        }
    }
    best
}

#[cfg(not(target_arch = "x86_64"))]
pub fn last_level_cache_bytes() -> Option<u64> {
    None
}

/// Result of the copy-bandwidth probe.
pub struct CopyProbe {
    pub llc_bytes: u64,
    pub array_bytes: u64,
    /// Bytes read plus bytes written per second, in GB/s (1e9), median
    /// of the timed passes.
    pub gbps: f64,
}

/// Assumed last-level cache when CPUID reports none.
const FALLBACK_LLC: u64 = 32 << 20;

/// Streams one half of an array four times the size of the last-level
/// cache into the other half and reports read+write bandwidth, the
/// same byte accounting as the kernels' computed bytes.
pub fn copy_probe() -> CopyProbe {
    let llc = last_level_cache_bytes().unwrap_or(FALLBACK_LLC);
    let words = (4 * llc / 8) as usize;
    let mut array = vec![0u64; words];
    let (src, dst) = array.split_at_mut(words / 2);
    for (i, w) in src.iter_mut().enumerate() {
        *w = i as u64;
    }
    dst.copy_from_slice(src); // first touch of the destination pages
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&*src));
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&dst[dst.len() - 1]);
        rates.push(2.0 * (src.len() * 8) as f64 / dt / 1e9);
    }
    CopyProbe {
        llc_bytes: llc,
        array_bytes: (words * 8) as u64,
        gbps: crate::stats::median(&rates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_usage_grows_with_work() {
        let a = self_usage();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        let b = self_usage();
        assert!(b.cpu_s > a.cpu_s && b.peak_rss_mib > 0.0, "{x}");
    }

    #[test]
    #[allow(clippy::zombie_processes)] // reaped by wait_child
    fn wait_child_reaps_and_reports() {
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let (status, usage) = wait_child(child.id()).expect("wait4");
        assert_eq!(status, 0);
        assert!(usage.peak_rss_mib > 0.0);
    }
}
