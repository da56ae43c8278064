//! CPU time consumed by this process and its reaped children.
//!
//! On a shared virtual machine the hypervisor can take 10–30% of the CPU
//! for other guests ("steal"), and the share changes from minute to
//! minute. Wall-clock times then drift by as much between runs of the
//! same code; CPU time excludes stolen time, so the end-to-end metrics are
//! measured in it. Children are the `distrib` worker processes, which the
//! platform reaps before its `run` returns.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU clocks through the 64-bit Linux ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds (user + system) of every thread of this process, live and
/// exited, plus every child process it has waited for.
pub fn cpu_seconds() -> f64 {
    let mut own = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let mut children = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: both pointers are to live, writable, correctly laid-out
    // values of the types the 64-bit Linux ABI specifies for these calls;
    // the calls write only within them.
    let ok = unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut own) == 0
            && getrusage(RUSAGE_CHILDREN, &mut children) == 0
    };
    assert!(ok, "CPU clocks are available on Linux");
    let timeval = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    own.tv_sec as f64
        + own.tv_nsec as f64 * 1e-9
        + timeval(&children.ru_utime)
        + timeval(&children.ru_stime)
}

/// Wall-clock and CPU seconds of one measured call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Elapsed wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of this process and the children it reaped meanwhile.
    pub cpu: f64,
}

/// Runs `f` and returns its result with the time it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let wall = Instant::now();
    let cpu = cpu_seconds();
    let out = f();
    let sample = Sample {
        wall: wall.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
    };
    (out, sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let ((), busy) = measure(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        });
        // Other tests may add CPU time meanwhile, and steal may remove up
        // to a third of the wall time, so only a lower bound holds.
        assert!(busy.cpu > 0.25 * busy.wall, "{busy:?}");
        let ((), idle) = measure(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(idle.wall >= 0.05);
    }
}
