//! Wall time at a reference clock.
//!
//! The host this benchmark was sized on runs each core at one of two speeds
//! 1.28× apart, switching every 1–15 s, each core on its own: a fixed
//! dependent multiply-add chain takes 0.97 or 1.24 ns a step, with zero
//! steal time. Raw medians of identical 8-second runs therefore differ by up
//! to 28 %, wider than any bound a regression gate could use.
//!
//! So every timed interval is bracketed by that chain *on the cores the work
//! ran on*, and its wall time is scaled to what it would have been at
//! [`REFERENCE_NS_PER_STEP`]. For that the benchmark's main thread pins
//! itself to one core; single-threaded work — in-process calls, and children
//! that run one thread, which inherit the pin — stays there with the chain
//! ([`Width::One`]). Work that needs its threads side by side gets every
//! allowed core back for its duration and is scaled by the mean of all of
//! them ([`Width::All`]). Pinned, the two speeds come out 1–2 % apart instead
//! of 28 %. Raw wall time is kept beside every scaled one.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The chain's cost per step at the faster speed. A scaled second is a wall
/// second on that host at that speed.
pub const REFERENCE_NS_PER_STEP: f64 = 0.97;

const STEPS: u64 = 4_000_000;

/// ns per step of the chain on the calling thread's core, best of three
/// bursts of ~4 ms: the first may still be ramping up from idle, and a
/// pre-empted one only reads high.
fn chain_ns_per_step() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 1u64;
            for i in 0..STEPS {
                // Without the barrier LLVM solves the affine recurrence.
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

// No libc crate offline; these are the glibc wrappers, declared by hand.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The cores this process may run on, as found before anything was pinned.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        // Without an answer nothing gets pinned and the chain still runs.
        if ok && !cpus.is_empty() {
            cpus
        } else {
            Vec::new()
        }
    })
}

/// The one core the main thread keeps to: the first it is allowed on.
fn home() -> &'static [usize] {
    &allowed()[..allowed().len().min(1)]
}

/// Confines the calling thread (and what it spawns from now on) to `cpus`.
/// Best effort: where the kernel refuses, timing is merely noisier.
fn confine(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Which cores an interval's work runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// The core the main thread is pinned to: in-process calls and children
    /// of one thread.
    One,
    /// Every allowed core: children and searches with threads of their own.
    All,
}

/// The chain's reading for `width`: this core's, or the mean of one pinned
/// reader per allowed core, all at once.
fn reading(width: Width) -> f64 {
    let cpus = allowed();
    if width == Width::One || cpus.len() < 2 {
        return chain_ns_per_step();
    }
    let readings: Vec<f64> = std::thread::scope(|scope| {
        let readers: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                scope.spawn(move || {
                    confine(&[cpu]);
                    chain_ns_per_step()
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("the chain does not panic"))
            .collect()
    });
    readings.iter().sum::<f64>() / readings.len() as f64
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Seconds as they passed.
    pub wall_s: f64,
    /// Seconds at the reference clock.
    pub scaled_s: f64,
}

/// Times intervals, reading the cores' speed before and after each.
#[derive(Debug)]
pub struct Clock {
    /// The last reading, its width and when it was taken; reused as the next
    /// interval's "before" while fresh, so back-to-back intervals of one
    /// width pay for one reading each.
    last: Option<(Instant, Width, f64)>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    const FRESH: Duration = Duration::from_millis(50);

    /// Pins the calling thread to the first core it is allowed on.
    pub fn new() -> Clock {
        confine(home());
        Clock { last: None }
    }

    pub fn time<T>(&mut self, width: Width, work: impl FnOnce() -> T) -> (T, Lap) {
        let before = match self.last {
            Some((at, w, ns)) if w == width && at.elapsed() < Self::FRESH => ns,
            _ => reading(width),
        };
        if width == Width::All {
            confine(allowed());
        }
        let start = Instant::now();
        let out = work();
        let wall_s = start.elapsed().as_secs_f64();
        if width == Width::All {
            confine(home());
        }
        let after = reading(width);
        self.last = Some((Instant::now(), width, after));
        let scaled_s = wall_s * REFERENCE_NS_PER_STEP / ((before + after) / 2.0);
        (out, Lap { wall_s, scaled_s })
    }
}
