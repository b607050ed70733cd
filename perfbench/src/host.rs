//! Host-side measurement: the on-CPU clock, steal and run-queue
//! accounting, a fixed calibration loop and a counting allocator.
//!
//! Host time is the benchmark thread's on-CPU time (`sum_exec_runtime`
//! from `/proc/thread-self/schedstat`), not wall-clock: on a virtual
//! machine the hypervisor steals time in bursts, which inflates wall
//! time but not the time this thread actually ran.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

/// The calling thread's scheduler counters.
#[derive(Debug)]
pub struct CpuClock {
    file: File,
}

/// One reading of `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy)]
pub struct SchedSample {
    /// Nanoseconds this thread has run on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds this thread has waited runnable on a run queue.
    pub runqueue_ns: u64,
}

impl CpuClock {
    /// Opens the calling thread's schedstat file. Every later reading
    /// must come from the same thread.
    pub fn open() -> Result<Self, String> {
        let file = File::open(SCHEDSTAT).map_err(|e| {
            format!("{SCHEDSTAT} is not readable ({e}); on-CPU time cannot be measured")
        })?;
        let clock = CpuClock { file };
        clock.try_sample()?;
        Ok(clock)
    }

    fn try_sample(&self) -> Result<SchedSample, String> {
        // The kernel folds the running slice into `sum_exec_runtime` only
        // at scheduler events such as ticks, milliseconds apart. A yield is
        // such an event, so the reading after it is exact to a microsecond.
        std::thread::yield_now();
        let mut buf = [0u8; 96];
        let n = self
            .file
            .read_at(&mut buf, 0)
            .map_err(|e| format!("reading {SCHEDSTAT}: {e}"))?;
        let text = std::str::from_utf8(&buf[..n]).map_err(|e| format!("{SCHEDSTAT}: {e}"))?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(on_cpu_ns)), Some(Ok(runqueue_ns))) => Ok(SchedSample {
                on_cpu_ns,
                runqueue_ns,
            }),
            _ => Err(format!("{SCHEDSTAT}: unexpected contents {text:?}")),
        }
    }

    /// Current counters.
    ///
    /// # Panics
    ///
    /// Panics if the file, readable at [`CpuClock::open`], stops being
    /// readable: every host time would be wrong after that.
    pub fn sample(&self) -> SchedSample {
        self.try_sample().expect("schedstat stays readable")
    }

    /// On-CPU nanoseconds so far.
    pub fn now(&self) -> u64 {
        self.sample().on_cpu_ns
    }
}

/// Summed steal time of all CPUs, in seconds, from the `cpu` line of
/// `/proc/stat` (the eighth field, in `USER_HZ` = 100 ticks per second).
pub fn steal_s() -> Option<f64> {
    let mut s = String::new();
    File::open("/proc/stat").ok()?.read_to_string(&mut s).ok()?;
    let line = s.lines().next()?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Threads in this process, from `/proc/self/status`.
pub fn threads() -> Option<usize> {
    let mut s = String::new();
    File::open("/proc/self/status")
        .ok()?
        .read_to_string(&mut s)
        .ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// Host CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs a fixed integer loop (a xorshift chain of 2^22 steps) and
/// returns its median on-CPU nanoseconds over five repetitions. Its
/// work never changes, so a shift in it between runs is a change of host
/// speed, not of the program.
pub fn calibrate(clock: &CpuClock) -> u64 {
    let mut samples: Vec<u64> = (0..5)
        .map(|_| {
            let t0 = clock.now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..1u32 << 22 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            clock.now() - t0
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Sets of the reference kernel's cache model.
const REFERENCE_SETS: usize = 2048;
/// Ways per set of the reference kernel's cache model.
const REFERENCE_WAYS: usize = 16;
/// Lookups one reference sample makes.
const REFERENCE_LOOKUPS: u32 = 400_000;

/// A typical on-CPU time of one reference sample on the reference host
/// (2-vCPU KVM guest on an Intel Xeon, family 6 model 207). End-to-end
/// times are scaled by this over the run's own median sample, so they
/// read as seconds on that host at that speed.
pub const REFERENCE_NOMINAL_NS: f64 = 11.0e6;

/// Runs the reference kernel once and returns its on-CPU nanoseconds.
///
/// The kernel is a 16-way LRU cache model of 2,048 sets, driven by
/// 400,000 xorshift line addresses over twice its capacity: tag search,
/// victim scan and counters over 384 KiB, the kind of work the simulator
/// does. Co-tenants of the host slow it as they slow the simulator, which
/// an integer loop does not show. Its work must never change: every
/// end-to-end time is scaled by it. The model lives on the stack so it
/// neither touches the counted heap nor faults in fresh pages per call.
pub fn reference(clock: &CpuClock) -> u64 {
    let t0 = clock.now();
    let mut tags = [u64::MAX; REFERENCE_SETS * REFERENCE_WAYS];
    let mut age = [0u32; REFERENCE_SETS * REFERENCE_WAYS];
    let span = (REFERENCE_SETS * REFERENCE_WAYS * 2) as u64;
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut hits = 0u64;
    for clock_tick in 1..=REFERENCE_LOOKUPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = x % span;
        let base = (line as usize % REFERENCE_SETS) * REFERENCE_WAYS;
        let tag = line / REFERENCE_SETS as u64;
        let ways = base..base + REFERENCE_WAYS;
        match tags[ways.clone()].iter().position(|&t| t == tag) {
            Some(w) => {
                hits += 1;
                age[base + w] = clock_tick;
            }
            None => {
                let victim = ways.min_by_key(|&i| age[i]).expect("a set has ways");
                tags[victim] = tag;
                age[victim] = clock_tick;
            }
        }
    }
    std::hint::black_box((hits, &tags, &age));
    clock.now() - t0
}

/// Whole-run host accounting: wall time, steal and run-queue wait
/// between [`HostWindow::open`] and [`HostWindow::close`].
#[derive(Debug)]
pub struct HostWindow {
    wall: Instant,
    steal_s: Option<f64>,
    sched: SchedSample,
}

/// What [`HostWindow`] measured.
#[derive(Debug, Clone, Copy)]
pub struct HostReport {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Steal seconds summed over all CPUs (0 when `/proc/stat` is absent).
    pub steal_s: f64,
    /// Seconds this thread waited runnable.
    pub runqueue_wait_s: f64,
    /// On-CPU seconds of this thread.
    pub on_cpu_s: f64,
}

impl HostWindow {
    /// Starts the window.
    pub fn open(clock: &CpuClock) -> Self {
        HostWindow {
            wall: Instant::now(),
            steal_s: steal_s(),
            sched: clock.sample(),
        }
    }

    /// Ends the window.
    pub fn close(&self, clock: &CpuClock) -> HostReport {
        let sched = clock.sample();
        let steal = match (self.steal_s, steal_s()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        HostReport {
            wall_s: self.wall.elapsed().as_secs_f64(),
            steal_s: steal,
            runqueue_wait_s: (sched.runqueue_ns - self.sched.runqueue_ns) as f64 * 1e-9,
            on_cpu_s: (sched.on_cpu_ns - self.sched.on_cpu_ns) as f64 * 1e-9,
        }
    }
}

/// The system allocator, counting live and peak heap bytes.
#[derive(Debug)]
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    /// Peak live heap bytes since start-up.
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics that publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grow(new_size);
        }
        p
    }
}
