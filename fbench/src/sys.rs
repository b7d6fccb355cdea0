//! The few operating-system facilities the benchmark needs beyond `std`:
//! the clock, peak resident memory, CPU pinning, and `ppoll(2)` so the
//! load generator can wait on sockets and on its schedule at once with
//! nanosecond timeouts. Linux only, like the benchmark.

use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

/// The benchmark's one clock. Everything it times goes to the metrics it
/// prints; nothing reaches an artifact of the program under test.
pub fn now() -> Instant {
    // fahana-lint: allow(wall-clock) the benchmark measures wall time by design; no artifact depends on it
    Instant::now()
}

/// Peak resident set size (`VmHWM`) of process `pid`, or of this process,
/// in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // fahana-lint: allow(ffi-allowlist) benchmark only: nanosecond waits for the load generator's schedule
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    // fahana-lint: allow(ffi-allowlist) benchmark only: pins the measured processes to one CPU
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u8) -> c_int;
}

/// Bytes in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// The lowest-numbered CPU this process may run on, from the
/// `Cpus_allowed_list` line of `/proc/self/status` (for example `0-1` or
/// `4,6-7`).
pub fn first_allowed_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next()?.parse().ok())
        .filter(|&cpu| cpu < CPU_SET_BYTES * 8)
        .ok_or_else(|| "no usable Cpus_allowed_list in /proc/self/status".to_string())
}

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to `cpu`.
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

const POLLIN: c_short = 0x1;

/// Waits until one of `fds` is readable or `timeout` passes. Returns
/// whether each fd is readable (or hung up), in order.
pub fn wait_readable(fds: &[c_int], timeout: Duration) -> std::io::Result<Vec<bool>> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polls` is a live, exclusively borrowed array of
    // `polls.len()` pollfd structs laid out as the kernel expects
    // (`#[repr(C)]`), `timeout` outlives the call, and a null sigmask
    // leaves the signal mask unchanged.
    let ready = unsafe {
        ppoll(
            polls.as_mut_ptr(),
            polls.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if ready < 0 {
        let error = std::io::Error::last_os_error();
        if error.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(error);
    }
    Ok(polls.iter().map(|p| p.revents != 0).collect())
}
