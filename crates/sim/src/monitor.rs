//! Online covert-channel detection: streaming anomaly detectors over
//! windowed [`SystemStats`] snapshots.
//!
//! PR 5 answered the paper's channels with *static* QoS defences that
//! cost 8–15% benign throughput even when no attack is running. This
//! module adds the missing *detect* column of the defence taxonomy: a
//! [`Monitor`] that watches the contention counters the simulator
//! already maintains — per-link `busy_cycles + queue_cycles` and
//! per-GPU `l2_misses` — and raises deterministic alarms when their
//! windowed time series stops looking like benign multi-tenant noise.
//!
//! # How signals are obtained
//!
//! No hooks are added to any hot path. The monitor is driven from
//! *outside* the engine with the same stats-diffing idiom as PR 8's
//! per-cause delay attribution: the caller steps the (resumable)
//! [`Engine`](crate::engine::Engine) in fixed windows of
//! [`MonitorConfig::window_cycles`] and hands the **cumulative**
//! [`SystemStats`] to [`Monitor::observe`], which diffs them against
//! the previous snapshot internally. [`run_windowed`] packages that
//! loop. A system with no monitor attached executes byte-for-byte the
//! same instructions as before this PR — the feature is off by default
//! and all golden channel fingerprints are unchanged.
//!
//! # Detector math
//!
//! Every channel (one per link, one per GPU) runs three detectors over
//! its per-window delta `x_t`, all in **integer fixed-point** (Q16) so
//! results are bit-identical across platforms and thread counts:
//!
//! - **EWMA residual.** Running estimates of the mean
//!   `m_t = m_{t-1} + (x_t - m_{t-1}) / 2^alpha` and mean absolute
//!   deviation `d_t` (same recurrence on `|x_t - m_t|`). The detector
//!   flags a window when the *positive* residual exceeds
//!   `ewma_mult * d + ewma_floor` — one-sided, because a covert
//!   channel only ever *adds* contention; tenants finishing their jobs
//!   (load drops) must not alarm. The floor keeps a perfectly flat
//!   benign signal (deviation ~0) from alarming on its first wiggle.
//!   Flagged samples are winsorized (clamped to `m + threshold`)
//!   before updating `m`/`d`, so an attacker cannot poison the
//!   detector's baseline with its own spike; a moderate benign level
//!   shift still gets absorbed within a few windows.
//! - **CUSUM change-point.** One-sided cumulative sum
//!   `s_t = max(0, s_{t-1} + x_t - (mu + k))` against a baseline `mu`
//!   frozen at the end of the warm-up phase, with allowance
//!   `k = mu >> cusum_drift_shift + cusum_drift_floor`. Alarms when
//!   `s_t > cusum_threshold`. This catches slow-drip attackers (the
//!   duty-cycle evasion knob of
//!   `gpubox_attacks::covert::ChannelParams`) that stay under the EWMA
//!   spike threshold but integrate over time.
//! - **Periodicity.** The trojan's slot clock is its signature: it
//!   drives contention as a square wave at `slot_cycles`. A ring of
//!   the last `ring_windows` deltas is autocorrelated at configured
//!   window lags; the detector flags when the normalised correlation
//!   (in milli-units) exceeds `corr_threshold_milli` *and* the signal
//!   has at least `min_power` variance — the power gate keeps quiet,
//!   trivially self-similar channels from alarming.
//!
//! Each detector must flag `alarm_consecutive` windows in a row before
//! the channel latches an alarm — a single outlier window is never
//! enough. During the first `warmup_windows` windows the detectors
//! only calibrate (EWMA seeds, CUSUM baseline, ring fill) and can not
//! alarm; deploy the monitor before untrusted tenants arrive.
//!
//! # Window sizing and tuning
//!
//! The window is the time resolution of every detector. Too small and
//! benign burstiness dominates (a single warp's `LoadBatch` books
//! thousands of queue cycles at once); too large and the trojan's slot
//! structure (default 6000 cycles) is averaged away before the
//! periodicity lags can see it. The default of 1500 cycles puts a
//! 6000-cycle slot at lag 4 — inside the default lag set `{2, 4, 8}` —
//! and keeps EWMA time-to-detection at a handful of slots. Raise
//! `ewma_mult` / `cusum_threshold` first if a benign workload false
//! alarms; raise `alarm_consecutive` only as a last resort, since it
//! multiplies detection latency directly.
//!
//! The `ext_detection` bench bin sweeps these knobs against both
//! channel families and a no-attack control, and
//! [`fleet::FleetMonitor`](crate::fleet::FleetMonitor) folds per-node
//! monitors into fleet-wide suspicion scores and time-to-detection
//! histograms through the [`MetricSet`] merge machinery.

use crate::engine::Engine;
use crate::error::SimResult;
use crate::qos::{QosConfig, QosScope};
use crate::stats::SystemStats;
use crate::telemetry::MetricSet;

/// Fixed-point shift for detector state (Q16).
const FP: u32 = 16;

/// Which detector raised a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// EWMA positive-residual spike detector.
    Ewma,
    /// One-sided CUSUM change-point detector.
    Cusum,
    /// Slot-clock autocorrelation detector.
    Periodicity,
}

impl DetectorKind {
    /// Stable lower-case name, used as a metric key suffix.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Ewma => "ewma",
            DetectorKind::Cusum => "cusum",
            DetectorKind::Periodicity => "periodicity",
        }
    }
}

/// Identity of a monitored signal: one per fabric link, one per GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Per-link contention: delta of `busy_cycles + queue_cycles`.
    Link(usize),
    /// Per-GPU cache pressure: delta of `l2_misses`.
    Gpu(usize),
}

/// A latched alarm: which channel fired, when, and which detector saw
/// it first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// The signal that alarmed.
    pub channel: ChannelKind,
    /// 0-based window index at which the alarm latched.
    pub window: u64,
    /// End-of-window cycle at which the alarm latched.
    pub cycle: u64,
    /// The detector that fired (EWMA > CUSUM > periodicity priority
    /// when several fire in the same window).
    pub detector: DetectorKind,
}

/// Tuning knobs for [`Monitor`]. See the module doc for the detector
/// math each field parameterises. `Default` is tuned for the repo's
/// DGX-1 benign mixes and 6000-cycle trojan slots.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Cycles per observation window.
    pub window_cycles: u64,
    /// Calibration windows before detectors are armed.
    pub warmup_windows: u32,
    /// EWMA smoothing: `alpha = 2^-ewma_alpha_log2`.
    pub ewma_alpha_log2: u32,
    /// EWMA alarm multiplier on the mean absolute deviation.
    pub ewma_mult: u64,
    /// EWMA alarm floor (cycles per window), added to the deviation
    /// term so flat benign signals never alarm on a first wiggle.
    pub ewma_floor: u64,
    /// CUSUM allowance shift: `k = mu >> shift + cusum_drift_floor`.
    pub cusum_drift_shift: u32,
    /// CUSUM allowance floor (cycles per window).
    pub cusum_drift_floor: u64,
    /// CUSUM alarm threshold (accumulated excess cycles).
    pub cusum_threshold: u64,
    /// Autocorrelation ring length, in windows.
    pub ring_windows: usize,
    /// Window lags probed by the periodicity detector.
    pub lags: Vec<usize>,
    /// Normalised autocorrelation alarm threshold, in milli-units
    /// (700 = 0.7).
    pub corr_threshold_milli: i64,
    /// Minimum per-window variance (cycles^2) before the periodicity
    /// detector is allowed to score.
    pub min_power: u64,
    /// Consecutive flagged windows required to latch an alarm.
    pub alarm_consecutive: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_cycles: 1500,
            warmup_windows: 64,
            ewma_alpha_log2: 3,
            ewma_mult: 12,
            ewma_floor: 400,
            cusum_drift_shift: 1,
            cusum_drift_floor: 400,
            cusum_threshold: 8000,
            ring_windows: 64,
            lags: vec![2, 4, 8],
            corr_threshold_milli: 700,
            min_power: 40_000,
            alarm_consecutive: 3,
        }
    }
}

impl MonitorConfig {
    /// Panics on degenerate parameters (zero window, empty lag set,
    /// ring shorter than the largest lag).
    fn validate(&self) {
        assert!(self.window_cycles > 0, "monitor window must be non-zero");
        assert!(self.warmup_windows > 0, "monitor needs >=1 warm-up window");
        assert!(!self.lags.is_empty(), "periodicity lag set is empty");
        let max_lag = self.lags.iter().copied().max().unwrap_or(0);
        assert!(
            self.ring_windows > max_lag,
            "autocorrelation ring ({}) must exceed the largest lag ({max_lag})",
            self.ring_windows
        );
        assert!(self.alarm_consecutive > 0, "alarm_consecutive must be >=1");
    }
}

/// Per-channel detector state. All storage is allocated at
/// construction; `step` is allocation-free.
#[derive(Debug, Clone)]
struct ChannelDetector {
    // EWMA (Q16).
    mean_q: i64,
    dev_q: i64,
    ewma_streak: u32,
    // CUSUM.
    baseline_sum: u64,
    baseline: u64,
    cusum: u64,
    // Periodicity.
    ring: Vec<u64>,
    ring_next: usize,
    ring_filled: usize,
    /// Running `Σv` / `Σv²` over the ring, updated O(1) per window so
    /// the mean and the centred power `Σ(v-m)² = Σv² - 2mΣv + n·m²`
    /// (exact in integers for any integer `m`) come for free — the
    /// min-power early-out then costs O(1) instead of two full ring
    /// walks per window on every quiet channel.
    ring_sum: u64,
    ring_sumsq: u128,
    /// Time-ordered, mean-removed copy of `ring`, rebuilt by
    /// `autocorrelated` each call so the lag loops run without any
    /// index arithmetic modulo the ring length. Preallocated — `step`
    /// stays allocation-free.
    scratch: Vec<i64>,
    period_streak: u32,
    // Bookkeeping.
    alarm_windows_ewma: u64,
    alarm_windows_cusum: u64,
    alarm_windows_period: u64,
    first_alarm: Option<(u64, DetectorKind)>,
}

impl ChannelDetector {
    fn new(cfg: &MonitorConfig) -> Self {
        ChannelDetector {
            mean_q: 0,
            dev_q: 0,
            ewma_streak: 0,
            baseline_sum: 0,
            baseline: 0,
            cusum: 0,
            ring: vec![0; cfg.ring_windows],
            ring_next: 0,
            ring_filled: 0,
            ring_sum: 0,
            ring_sumsq: 0,
            scratch: vec![0; cfg.ring_windows],
            period_streak: 0,
            alarm_windows_ewma: 0,
            alarm_windows_cusum: 0,
            alarm_windows_period: 0,
            first_alarm: None,
        }
    }

    fn reset(&mut self) {
        let len = self.ring.len();
        *self = ChannelDetector {
            ring: std::mem::take(&mut self.ring),
            scratch: std::mem::take(&mut self.scratch),
            ..ChannelDetector {
                ring: Vec::new(),
                mean_q: 0,
                dev_q: 0,
                ewma_streak: 0,
                baseline_sum: 0,
                baseline: 0,
                cusum: 0,
                ring_next: 0,
                ring_filled: 0,
                ring_sum: 0,
                ring_sumsq: 0,
                scratch: Vec::new(),
                period_streak: 0,
                alarm_windows_ewma: 0,
                alarm_windows_cusum: 0,
                alarm_windows_period: 0,
                first_alarm: None,
            }
        };
        self.ring[..len].fill(0);
    }

    /// Feeds one window delta; returns the detector that newly flags
    /// this window (after streak filtering), if any.
    fn step(&mut self, x: u64, window: u64, cfg: &MonitorConfig) -> Option<DetectorKind> {
        let warm = window < u64::from(cfg.warmup_windows);
        let x_q = (x as i64) << FP;

        // --- EWMA: check against the *previous* estimates, then
        // update. Flagged samples are winsorized (clamped to
        // mean + threshold) before feeding the estimates, so an attack
        // cannot inflate the detector's own baseline fast enough to
        // break its alarm streak — while a moderate benign shift still
        // gets absorbed within a few windows.
        let residual = x_q - self.mean_q;
        let pos = residual.max(0);
        let threshold_q =
            (cfg.ewma_mult as i64).saturating_mul(self.dev_q) + ((cfg.ewma_floor as i64) << FP);
        let ewma_flag = !warm && pos > threshold_q;
        let xc_q = if ewma_flag { self.mean_q + threshold_q } else { x_q };
        self.mean_q += (xc_q - self.mean_q) >> cfg.ewma_alpha_log2;
        self.dev_q += ((xc_q - self.mean_q).abs() - self.dev_q) >> cfg.ewma_alpha_log2;
        if ewma_flag {
            self.ewma_streak += 1;
        } else {
            self.ewma_streak = 0;
        }

        // --- CUSUM: calibrate the baseline during warm-up, then
        // integrate one-sided excess over baseline + allowance.
        let mut cusum_fired = false;
        if warm {
            self.baseline_sum += x;
            if window + 1 == u64::from(cfg.warmup_windows) {
                self.baseline = self.baseline_sum / u64::from(cfg.warmup_windows);
            }
        } else {
            let allowance = (self.baseline >> cfg.cusum_drift_shift) + cfg.cusum_drift_floor;
            self.cusum = (self.cusum + x).saturating_sub(self.baseline + allowance);
            cusum_fired = self.cusum > cfg.cusum_threshold;
        }

        // --- Periodicity: push into the ring, autocorrelate when full.
        let old = self.ring[self.ring_next];
        self.ring_sum = self.ring_sum - old + x;
        self.ring_sumsq = self.ring_sumsq - u128::from(old) * u128::from(old)
            + u128::from(x) * u128::from(x);
        self.ring[self.ring_next] = x;
        self.ring_next = (self.ring_next + 1) % self.ring.len();
        self.ring_filled = (self.ring_filled + 1).min(self.ring.len());
        let mut period_flag = false;
        if !warm && self.ring_filled == self.ring.len() {
            period_flag = self.autocorrelated(cfg);
        }
        if period_flag {
            self.period_streak += 1;
        } else {
            self.period_streak = 0;
        }

        // --- Streaks -> fired detectors, fixed priority.
        let ewma_fired = self.ewma_streak >= cfg.alarm_consecutive;
        let period_fired = self.period_streak >= cfg.alarm_consecutive;
        if ewma_fired {
            self.alarm_windows_ewma += 1;
        }
        if cusum_fired {
            self.alarm_windows_cusum += 1;
        }
        if period_fired {
            self.alarm_windows_period += 1;
        }
        let kind = if ewma_fired {
            Some(DetectorKind::Ewma)
        } else if cusum_fired {
            Some(DetectorKind::Cusum)
        } else if period_fired {
            Some(DetectorKind::Periodicity)
        } else {
            None
        };
        if let Some(k) = kind {
            if self.first_alarm.is_none() {
                self.first_alarm = Some((window, k));
                return Some(k);
            }
        }
        None
    }

    /// Normalised autocorrelation over the full ring, best lag wins.
    ///
    /// The ring is first linearised oldest-to-newest into the
    /// preallocated `scratch` buffer with the mean removed, so the
    /// per-lag product loops below are straight array walks — no
    /// modulo in the inner loop. Deltas fit i64 (a window delta is
    /// bounded by a handful of counters each advancing at most a few
    /// window-lengths per window); products need i128 headroom.
    fn autocorrelated(&mut self, cfg: &MonitorConfig) -> bool {
        let len = self.ring.len();
        let mean = (self.ring_sum / len as u64) as i64;
        // Centred power from the running sums — exact for integer
        // mean: Σ(v-m)² = Σv² - 2mΣv + n·m². Lets the quiet-channel
        // early-out below cost O(1) instead of a ring walk.
        let denom: i128 = self.ring_sumsq as i128
            - 2 * i128::from(mean) * i128::from(self.ring_sum)
            + (len as i128) * i128::from(mean) * i128::from(mean);
        if denom == 0 || (denom / len as i128) < i128::from(cfg.min_power) {
            return false;
        }
        // Linearise + centre in one pass, tracking the largest
        // magnitude for the fast path below.
        let split = len - self.ring_next;
        let mut max_abs: u64 = 0;
        for i in 0..len {
            let src = if i < split { self.ring_next + i } else { i - split };
            let d = self.ring[src] as i64 - mean;
            self.scratch[i] = d;
            max_abs = max_abs.max(d.unsigned_abs());
        }
        // Every product is <= max_abs^2 and at most `len` of them sum,
        // so when max_abs^2 * len fits i64 the lag loops can run on
        // plain i64 multiplies (single instruction) instead of i128.
        // Window deltas are cycle counts bounded by a few
        // window-lengths, so in practice this path always wins.
        let fits_i64 =
            u128::from(max_abs) * u128::from(max_abs) * (len as u128) <= i64::MAX as u128;
        for &lag in &cfg.lags {
            let num: i128 = if fits_i64 {
                let mut n: i64 = 0;
                for k in lag..len {
                    n += self.scratch[k] * self.scratch[k - lag];
                }
                i128::from(n)
            } else {
                let mut n: i128 = 0;
                for k in lag..len {
                    n += i128::from(self.scratch[k]) * i128::from(self.scratch[k - lag]);
                }
                n
            };
            if num > 0 && num.saturating_mul(1000) / denom >= i128::from(cfg.corr_threshold_milli) {
                return true;
            }
        }
        false
    }

}

/// Streaming covert-channel detector over windowed [`SystemStats`]
/// snapshots. One instance watches one node (system); see the module
/// doc for the detector math and
/// [`fleet::FleetMonitor`](crate::fleet::FleetMonitor) for the
/// fleet-level fold.
///
/// Allocation-free after construction: `observe` touches only
/// preallocated state (verified by the counting-allocator test in
/// `crates/sim/tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct Monitor {
    cfg: MonitorConfig,
    num_links: usize,
    /// Previous cumulative value per channel (links first, then GPUs).
    prev: Vec<u64>,
    chans: Vec<ChannelDetector>,
    windows: u64,
    alarms: Vec<Alarm>,
    alarmed_links: u64,
    alarmed_gpus: u64,
}

impl Monitor {
    /// Creates a monitor for a system with `num_links` fabric links
    /// and `num_gpus` GPUs. Panics on a degenerate config.
    pub fn new(cfg: MonitorConfig, num_links: usize, num_gpus: usize) -> Self {
        cfg.validate();
        let n = num_links + num_gpus;
        let chans = vec![ChannelDetector::new(&cfg); n];
        Monitor {
            cfg,
            num_links,
            prev: vec![0; n],
            chans,
            windows: 0,
            alarms: Vec::with_capacity(n),
            alarmed_links: 0,
            alarmed_gpus: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Absorbs the current cumulative stats into the diff baseline
    /// *without* consuming a window. Call once after setup traffic
    /// (channel prepare, warm-up kernels) so it is not attributed to
    /// the first observation window.
    pub fn prime(&mut self, stats: &SystemStats) {
        self.snapshot_into_prev(stats);
    }

    /// Feeds one window: diffs the cumulative `stats` against the
    /// previous snapshot and steps every per-channel detector.
    /// Allocation-free.
    pub fn observe(&mut self, stats: &SystemStats) {
        let window = self.windows;
        let cycle = (window + 1) * self.cfg.window_cycles;
        for i in 0..self.prev.len() {
            let cur = self.channel_value(stats, i);
            let delta = cur.saturating_sub(self.prev[i]);
            self.prev[i] = cur;
            if let Some(kind) = self.chans[i].step(delta, window, &self.cfg) {
                let channel = self.channel_kind(i);
                if self.alarms.len() < self.alarms.capacity() {
                    self.alarms.push(Alarm { channel, window, cycle, detector: kind });
                }
                match channel {
                    ChannelKind::Link(l) if l < 64 => self.alarmed_links |= 1 << l,
                    ChannelKind::Gpu(g) if g < 64 => self.alarmed_gpus |= 1 << g,
                    _ => {}
                }
            }
        }
        self.windows = window + 1;
    }

    fn channel_value(&self, stats: &SystemStats, i: usize) -> u64 {
        if i < self.num_links {
            let l = &stats.links()[i];
            l.busy_cycles + l.queue_cycles
        } else {
            stats
                .gpu(crate::address::GpuId::new((i - self.num_links) as u8))
                .l2_misses
        }
    }

    fn channel_kind(&self, i: usize) -> ChannelKind {
        if i < self.num_links {
            ChannelKind::Link(i)
        } else {
            ChannelKind::Gpu(i - self.num_links)
        }
    }

    fn snapshot_into_prev(&mut self, stats: &SystemStats) {
        for i in 0..self.prev.len() {
            self.prev[i] = self.channel_value(stats, i);
        }
    }

    /// True once any channel has latched an alarm.
    pub fn alarmed(&self) -> bool {
        !self.alarms.is_empty()
    }

    /// The earliest latched alarm, if any.
    pub fn first_alarm(&self) -> Option<&Alarm> {
        self.alarms.first()
    }

    /// All latched alarms, in latch order (at most one per channel).
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Bitmask of links (bit = `LinkId` index, indices >= 64 elided)
    /// with a latched alarm — feeds
    /// [`QosScope::links_mask`](crate::qos::QosScope) for the
    /// detect-then-throttle response.
    pub fn alarmed_links(&self) -> u64 {
        self.alarmed_links
    }

    /// Bitmask of GPUs with a latched alarm.
    pub fn alarmed_gpus(&self) -> u64 {
        self.alarmed_gpus
    }

    /// Number of windows observed so far.
    pub fn windows_observed(&self) -> u64 {
        self.windows
    }

    /// Number of channels with a latched alarm.
    pub fn channels_alarmed(&self) -> usize {
        self.alarms.len()
    }

    /// Per-channel suspicion score: total alarm-flagged windows across
    /// all detectors (0 for a clean channel). Monotone in how long and
    /// how loudly a channel has been anomalous.
    pub fn suspicion(&self, channel: ChannelKind) -> u64 {
        let i = match channel {
            ChannelKind::Link(l) => l,
            ChannelKind::Gpu(g) => self.num_links + g,
        };
        let c = &self.chans[i];
        c.alarm_windows_ewma + c.alarm_windows_cusum + c.alarm_windows_period
    }

    /// Exports detector state as mergeable metrics: window/alarm
    /// counters per detector and a time-to-detection histogram (cycles
    /// from the end of warm-up to each channel's first alarm).
    pub fn export_into(&self, m: &mut MetricSet) {
        m.add("monitor.windows", self.windows);
        m.add("monitor.channels", self.chans.len() as u64);
        m.add("monitor.channels_alarmed", self.alarms.len() as u64);
        let warm_end = u64::from(self.cfg.warmup_windows) * self.cfg.window_cycles;
        for c in &self.chans {
            m.add("monitor.alarm_windows.ewma", c.alarm_windows_ewma);
            m.add("monitor.alarm_windows.cusum", c.alarm_windows_cusum);
            m.add("monitor.alarm_windows.periodicity", c.alarm_windows_period);
        }
        for a in &self.alarms {
            m.observe(
                "monitor.time_to_detection_cycles",
                a.cycle.saturating_sub(warm_end),
            );
        }
    }

    /// Clears all detector state and the diff baseline; keeps the
    /// configuration and channel layout.
    pub fn reset(&mut self) {
        for p in &mut self.prev {
            *p = 0;
        }
        for c in &mut self.chans {
            c.reset();
        }
        self.windows = 0;
        self.alarms.clear();
        self.alarmed_links = 0;
        self.alarmed_gpus = 0;
    }
}

/// Steps `eng` to `until` in monitor-sized windows, feeding each
/// window's cumulative stats to `mon`. Stops early when every agent is
/// done. Returns the cycle reported by the last [`Engine::run`] call
/// and, when `respond` is given, the cycle at which it was deployed.
///
/// `respond` is the detect-then-throttle arm: at the end of the first
/// window in which `mon` has alarmed, `respond` is deployed
/// ([`MultiGpuSystem::set_qos`](crate::system::MultiGpuSystem::set_qos))
/// scoped to the alarmed links only.
///
/// The engine is resumable, so this is exactly the PR 8 stats-diffing
/// idiom: no hook runs inside the hot path, the monitor only sees
/// boundary snapshots.
///
/// # Errors
///
/// Propagates engine errors and a rejected `respond` deployment.
pub fn run_windowed(
    eng: &mut Engine<'_>,
    mon: &mut Monitor,
    until: u64,
    respond: Option<&QosConfig>,
) -> SimResult<(u64, Option<u64>)> {
    let w = mon.config().window_cycles;
    let mut reached = 0;
    let mut deployed = None;
    loop {
        let next = (mon.windows_observed() + 1) * w;
        let end = next.min(until);
        reached = eng.run(end)?.max(reached);
        mon.observe(eng.system().stats());
        if let Some(q) = respond.filter(|_| deployed.is_none() && mon.alarmed()) {
            let scoped = q.with_scope(QosScope::links_mask(mon.alarmed_links()));
            eng.system_mut().set_qos(scoped)?;
            deployed = Some(end);
        }
        if end >= until || eng.all_done() {
            return Ok((reached, deployed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SystemStats;
    use crate::topology::LinkId;

    fn feed(mon: &mut Monitor, stats: &mut SystemStats, deltas: &[u64]) {
        for &d in deltas {
            stats.link_mut(LinkId(0)).busy_cycles += d;
            mon.observe(stats);
        }
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            warmup_windows: 8,
            ring_windows: 16,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn stationary_signal_never_alarms() {
        let mut mon = Monitor::new(cfg(), 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let series: Vec<u64> = (0..200).map(|i| 500 + (i % 7) * 13).collect();
        feed(&mut mon, &mut stats, &series);
        assert!(!mon.alarmed(), "benign stationary series alarmed: {:?}", mon.first_alarm());
        assert_eq!(mon.windows_observed(), 200);
    }

    #[test]
    fn step_change_alarms_via_ewma() {
        // CUSUM and periodicity disabled so the EWMA path is isolated.
        let c = MonitorConfig {
            warmup_windows: 8,
            ring_windows: 16,
            cusum_threshold: u64::MAX,
            corr_threshold_milli: 2000,
            ..MonitorConfig::default()
        };
        let mut mon = Monitor::new(c, 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let mut series: Vec<u64> = vec![300; 40];
        series.extend(std::iter::repeat_n(30_000, 20));
        feed(&mut mon, &mut stats, &series);
        let a = mon.first_alarm().expect("step change must alarm");
        assert_eq!(a.detector, DetectorKind::Ewma);
        assert!(a.window >= 40, "alarm must come after the step, got {}", a.window);
        assert_eq!(mon.alarmed_links(), 1);
    }

    #[test]
    fn slow_drip_alarms_via_cusum() {
        // An offset small enough to stay under the EWMA spike gate but
        // integrating past the CUSUM threshold.
        let c = MonitorConfig {
            warmup_windows: 8,
            ring_windows: 16,
            ewma_mult: 1000,
            corr_threshold_milli: 2000, // periodicity off
            ..MonitorConfig::default()
        };
        let mut mon = Monitor::new(c, 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let mut series: Vec<u64> = vec![200; 8];
        series.extend(std::iter::repeat_n(2000, 60));
        feed(&mut mon, &mut stats, &series);
        let a = mon.first_alarm().expect("slow drip must alarm");
        assert_eq!(a.detector, DetectorKind::Cusum);
    }

    #[test]
    fn square_wave_alarms_via_periodicity() {
        // Amplitude tuned under the EWMA/CUSUM gates so only the slot
        // clock gives it away.
        let c = MonitorConfig {
            warmup_windows: 8,
            ring_windows: 32,
            ewma_mult: 1_000_000,
            cusum_threshold: u64::MAX,
            min_power: 1000,
            ..MonitorConfig::default()
        };
        let mut mon = Monitor::new(c, 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let series: Vec<u64> = (0..120).map(|i| if (i / 2) % 2 == 0 { 2000 } else { 200 }).collect();
        feed(&mut mon, &mut stats, &series);
        let a = mon.first_alarm().expect("square wave must alarm");
        assert_eq!(a.detector, DetectorKind::Periodicity);
    }

    #[test]
    fn load_drop_never_alarms() {
        let mut mon = Monitor::new(cfg(), 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let mut series: Vec<u64> = vec![20_000; 40];
        series.extend(std::iter::repeat_n(100, 60));
        feed(&mut mon, &mut stats, &series);
        assert!(!mon.alarmed(), "one-sided detectors must ignore load drops");
    }

    #[test]
    fn gpu_channel_maps_to_l2_misses() {
        let mut mon = Monitor::new(cfg(), 1, 2);
        let mut stats = SystemStats::new(2, 1);
        for i in 0..60 {
            let d = if i < 40 { 100 } else { 50_000 };
            stats.gpu_mut(crate::address::GpuId::new(1)).l2_misses += d;
            mon.observe(&stats);
        }
        let a = mon.first_alarm().expect("gpu l2 spike must alarm");
        assert_eq!(a.channel, ChannelKind::Gpu(1));
        assert_eq!(mon.alarmed_gpus(), 0b10);
        assert_eq!(mon.alarmed_links(), 0);
    }

    #[test]
    fn prime_absorbs_setup_traffic() {
        let mut mon = Monitor::new(cfg(), 1, 0);
        let mut stats = SystemStats::new(1, 1);
        stats.link_mut(LinkId(0)).busy_cycles = 5_000_000;
        mon.prime(&stats);
        feed(&mut mon, &mut stats, &[400; 100]);
        assert!(!mon.alarmed());
        assert_eq!(mon.windows_observed(), 100);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut mon = Monitor::new(cfg(), 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let mut series: Vec<u64> = vec![300; 40];
        series.extend(std::iter::repeat_n(30_000, 20));
        feed(&mut mon, &mut stats, &series);
        assert!(mon.alarmed());
        mon.reset();
        assert!(!mon.alarmed());
        assert_eq!(mon.windows_observed(), 0);
        assert_eq!(mon.alarmed_links(), 0);
        let mut stats2 = SystemStats::new(1, 1);
        feed(&mut mon, &mut stats2, &[300; 50]);
        assert!(!mon.alarmed());
    }

    #[test]
    fn suspicion_counts_alarm_windows() {
        let mut mon = Monitor::new(cfg(), 1, 0);
        let mut stats = SystemStats::new(1, 1);
        let mut series: Vec<u64> = vec![300; 40];
        series.extend(std::iter::repeat_n(30_000, 30));
        feed(&mut mon, &mut stats, &series);
        assert!(mon.suspicion(ChannelKind::Link(0)) > 0);
        let mut m = MetricSet::new();
        mon.export_into(&mut m);
        assert_eq!(m.counter("monitor.windows"), 70);
        assert_eq!(m.counter("monitor.channels_alarmed"), 1);
        assert_eq!(m.histogram("monitor.time_to_detection_cycles").map(|h| h.count()), Some(1));
    }
}
