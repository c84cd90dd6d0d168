//! Process resource usage: CPU time through `getrusage(2)`, and peak
//! resident set size from the kernel's view of this process.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("scratch-perfbench reads `struct rusage` with the 64-bit Linux layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// that are not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn cpu_s(who: i32) -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, exclusively borrowed value laid out as the
    // 64-bit Linux `struct rusage` (checked by the `compile_error!` gate
    // above), so the kernel writes only inside it; `who` is one of the
    // RUSAGE_* constants above.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid buffer and `who`");
    let _ = ru.rest;
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// User plus system CPU seconds of this process, summed over its threads.
pub fn process_cpu_s() -> f64 {
    cpu_s(RUSAGE_SELF)
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_s(RUSAGE_THREAD)
}

/// Peak resident set size of this process image, KiB: `VmHWM` of
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, which keeps the
/// high-water mark of the image the process replaced at `exec` (here the
/// launching `cargo` or shell), it counts only this program's own memory.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_owned())
}
