//! Host measurements: the calling thread's CPU clock, the host-speed
//! reference every timing is scaled by, and the `/proc` readings printed
//! beside every run (steal time, peak RSS).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread.
///
/// Timings are taken on this clock rather than the wall clock: with
/// paravirtual steal accounting the kernel leaves out the time the
/// hypervisor ran other guests on this vCPU. The benchmark runs its timed
/// work on one thread, so thread CPU time is that work's host time.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and clock id 3 is
    // always defined for the calling thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Host-wide steal time so far, in seconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`), or `None` where unavailable.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration std supports.
    Some(ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Typical thread CPU time of a reference burst on the host the bounds
/// were set on (a 2-vCPU Xeon guest). Scaled timings read as seconds on a
/// host where the burst runs this fast.
pub const REFERENCE_NOMINAL_S: f64 = 700e-6;

/// Keys the reference kernel sorts, and the sorts one burst times.
const REFERENCE_KEYS: usize = 2048;
const REFERENCE_REPS: usize = 16;

/// The host-speed reference: a fixed kernel of the benchmark's own
/// (refill an array with pseudo-random keys and sort it), run right after
/// each timed piece of work.
///
/// On a shared host, other tenants slow this process by up to a factor
/// of two for seconds at a time, through the core resources they share
/// with it; steal accounting does not show it, and a loop of register
/// arithmetic barely feels it. A branchy sort does, by about as much as
/// the library's work beside it, so a timing multiplied by
/// `REFERENCE_NOMINAL_S / burst time` cancels most of the slowdown. The
/// kernel sorts its own stack array, after one untimed sort that brings
/// it into cache, and never calls the library, so a change to the library
/// does not change the work it times.
pub struct Reference {
    state: u64,
    samples_s: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            state: 0x9E37_79B9_7F4A_7C15,
            samples_s: Vec::new(),
        }
    }

    fn sort_once(&mut self, keys: &mut [u64; REFERENCE_KEYS]) -> u64 {
        let mut x = self.state;
        for k in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x % 100_000;
        }
        self.state = x;
        keys.sort_unstable();
        keys[REFERENCE_KEYS / 2]
    }

    /// Runs one burst and returns its thread CPU seconds. Never inlined,
    /// so every caller times the same machine code.
    #[inline(never)]
    pub fn burst(&mut self) -> f64 {
        let mut keys = [0u64; REFERENCE_KEYS];
        let mut acc = self.sort_once(&mut keys);
        let t0 = thread_cpu();
        for _ in 0..REFERENCE_REPS {
            acc = acc.wrapping_add(self.sort_once(&mut keys));
        }
        let s = (thread_cpu() - t0).as_secs_f64();
        std::hint::black_box(acc);
        self.samples_s.push(s);
        s
    }

    /// The scale factor for work timed just before a burst: the burst's
    /// nominal time over its measured time.
    pub fn factor(&mut self) -> f64 {
        REFERENCE_NOMINAL_S / self.burst()
    }

    /// Burst times so far, in seconds.
    pub fn samples_s(&self) -> &[f64] {
        &self.samples_s
    }
}
