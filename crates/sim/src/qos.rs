//! Fabric QoS & defence layer: per-tenant link rate limiting, traffic
//! shaping and valiant routing.
//!
//! The timed link fabric ([`crate::fabric`]) gave the paper's second
//! channel family its physical medium: a bandwidth trojan saturating one
//! NVLink link is observable to any tenant whose route shares it. This
//! module is the *defence side* of that loop — the interconnect analogue
//! of the Sec. VII MIG-style L2 partitioning (`ext_partition_defense`),
//! evaluated head-to-head against both channel families by
//! `ext_fabric_defense`. Three mechanisms, all composed into
//! [`crate::fabric::Fabric`] and all **off by default** (a
//! [`QosConfig::off`] fabric is bit-identical to the PR 3/PR 4 model):
//!
//! # Defence taxonomy
//!
//! - **Per-tenant token-bucket rate limiting**
//!   ([`RateLimitConfig`]): every `(ProcessId, link[, direction])` pair
//!   owns a refillable byte budget (bucket capacity `burst_bytes`,
//!   sustained refill `rate_bytes_per_kcycle`). A traversal with
//!   insufficient credit is *deterministically delayed to the refill
//!   horizon* — the cycle at which the bucket has accumulated exactly
//!   the missing credit. This caps what any single tenant can push
//!   through a link **sustained** while leaving short benign bursts
//!   (which fit the bucket) untouched: a bandwidth trojan needs
//!   *sustained* saturation, so a sub-saturation sustained rate starves
//!   the channel at near-zero benign cost. Shaped-vs-passed bytes and
//!   the added delay land in [`crate::stats::QosStats`].
//! - **Traffic shaping** ([`TrafficShaping`]): transforms *when* link
//!   grants happen rather than how many. [`TrafficShaping::Pace`]
//!   quantises every grant up to a fixed epoch boundary, so the latency
//!   a spy observes measures its phase relative to the epoch grid
//!   instead of the trojan's slot structure; [`TrafficShaping::Jitter`]
//!   perturbs every grant by a seeded pseudo-random delay (a splitmix64
//!   stream — deterministic and reproducible, no system RNG consumed),
//!   drowning the queue-wait signal in first-party noise. Both destroy
//!   the slot structure the covert protocol needs rather than capping
//!   throughput.
//! - **Valiant routing** ([`RoutingPolicy::Valiant`]): instead of the
//!   canonical shortest path, each remote line is routed through a
//!   deterministic per-`(src, dst, counter)` intermediate GPU
//!   ([`crate::topology::Topology::valiant_intermediate`]), the classic
//!   Valiant load-balancing scheme of MIN fabrics. A trojan's traffic
//!   then spreads across many links instead of saturating one
//!   end-to-end, and the spy's own per-line route (and therefore hop
//!   count) varies pseudo-randomly — both halves of the congestion
//!   channel lose their shared single-link rendezvous.
//!
//! # Determinism and cost
//!
//! Like the fabric itself, the QoS layer consumes **no system RNG**
//! (jitter and valiant picks come from counter-indexed splitmix64
//! streams, bit-reproducible across runs) and performs **no
//! steady-state allocation**: token buckets are preallocated per
//! process at [`crate::MultiGpuSystem::create_process`] time and valiant
//! counters are a fixed `n²` table (asserted by the counting-allocator
//! suite in `tests/alloc_free.rs`). Defences can be deployed at runtime
//! through [`crate::MultiGpuSystem::set_qos`] — the
//! "defence switched on after the attacker calibrated" scenario — or
//! baked into [`crate::fabric::FabricConfig::with_qos`] so the offline
//! attack phase re-derives its thresholds under the defence.

use crate::address::GpuId;
use crate::stats::QosStats;
use crate::system::ProcessId;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Per-tenant token-bucket budget on every link (direction).
///
/// A tenant may burst up to `burst_bytes` at full link speed; sustained
/// throughput beyond `rate_bytes_per_kcycle` is deterministically
/// delayed to the refill horizon. NVLink-V1 moves ~12.8 B/cycle per
/// link, i.e. ~13_100 bytes per 1024 cycles at full tilt — a limit of
/// 1_280 B/kcycle confines one tenant to ~10% of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimitConfig {
    /// Sustained refill rate in bytes per 1024 cycles (must be ≥ 1).
    pub rate_bytes_per_kcycle: u64,
    /// Bucket capacity in bytes: the largest burst served at link speed.
    pub burst_bytes: u64,
}

/// How link grant times are shaped (independent of *how much* traffic a
/// tenant may send — that is [`RateLimitConfig`]'s job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TrafficShaping {
    /// Grants start as soon as the link is free (the undefended fabric).
    #[default]
    Off,
    /// Grants are quantised up to the next multiple of `epoch_cycles`:
    /// a spy's transfer latency then measures its own phase against the
    /// epoch grid, not the trojan's slot structure.
    Pace {
        /// Epoch length in cycles (must be ≥ 1).
        epoch_cycles: u64,
    },
    /// Every grant is delayed by a seeded pseudo-random amount in
    /// `[0, span_cycles)` (counter-indexed splitmix64 — deterministic,
    /// no system RNG): first-party timing noise injected at the link.
    Jitter {
        /// Exclusive upper bound of the per-grant delay (must be ≥ 1).
        span_cycles: u64,
        /// Seed of the jitter stream.
        seed: u64,
    },
}

/// How remote accesses are routed over the NVLink graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RoutingPolicy {
    /// The canonical precomputed shortest paths of
    /// [`Topology::path`] (the PR 3 behaviour).
    #[default]
    Canonical,
    /// Valiant load balancing: each line detours through an
    /// intermediate GPU chosen deterministically per
    /// `(src, dst, counter)` from the seed
    /// ([`Topology::valiant_intermediate`]), so no single physical link
    /// can be saturated end-to-end by one traffic pattern.
    Valiant {
        /// Seed of the intermediate-selection stream.
        seed: u64,
    },
}

/// Which `(tenant, link)` pairs the rate-limit / shaping pipeline
/// applies to, as a pair of bitmasks (bit *i* covers `ProcessId(i)` /
/// `LinkId(i)` for *i* < 64; ids ≥ 64 are always in scope).
///
/// The default is all-ones — QoS applies everywhere, reproducing the
/// PR 5 always-on behaviour bit-for-bit. The online monitor's
/// detect-then-throttle response narrows the scope to alarmed links
/// ([`crate::monitor::Monitor::alarmed_links`]) so benign traffic on
/// clean links pays nothing. Valiant routing is deliberately *not*
/// scoped: a detour decision is per-line and pid-agnostic, and
/// rescoping it would change path selection for every tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosScope {
    /// Bitmask of throttled tenants (`ProcessId` index).
    pub tenants: u64,
    /// Bitmask of throttled links (`LinkId` index).
    pub links: u64,
}

impl Default for QosScope {
    fn default() -> Self {
        QosScope::all()
    }
}

impl QosScope {
    /// Every tenant on every link — the always-on PR 5 scope.
    pub fn all() -> Self {
        QosScope {
            tenants: u64::MAX,
            links: u64::MAX,
        }
    }

    /// All tenants, but only the links set in `mask` — the shape the
    /// responsive defence deploys from a monitor's alarm mask.
    pub fn links_mask(mask: u64) -> Self {
        QosScope {
            tenants: u64::MAX,
            links: mask,
        }
    }

    /// Whether this is the unrestricted (default) scope.
    pub fn is_all(&self) -> bool {
        self.tenants == u64::MAX && self.links == u64::MAX
    }

    /// Whether QoS applies to `pid` traversing `link`.
    #[inline]
    pub fn covers(&self, pid: crate::system::ProcessId, link: crate::topology::LinkId) -> bool {
        let t = u64::from(pid.0);
        let l = u64::from(link.0);
        (t >= 64 || self.tenants & (1u64 << t) != 0) && (l >= 64 || self.links & (1u64 << l) != 0)
    }
}

/// The complete QoS/defence configuration of the fabric; every
/// component defaults to *off*, which reproduces the undefended fabric
/// bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QosConfig {
    /// Per-tenant token-bucket link rate limiting (`None` = unlimited).
    pub rate_limit: Option<RateLimitConfig>,
    /// Link grant-time shaping.
    pub shaping: TrafficShaping,
    /// Remote-access routing policy.
    pub routing: RoutingPolicy,
    /// Which `(tenant, link)` pairs rate limiting and shaping apply
    /// to; defaults to everything.
    pub scope: QosScope,
}

impl QosConfig {
    /// No QoS at all: the undefended PR 3/PR 4 fabric.
    pub fn off() -> Self {
        QosConfig::default()
    }

    /// Whether any QoS component is active.
    pub fn enabled(&self) -> bool {
        self.rate_limit.is_some()
            || self.shaping != TrafficShaping::Off
            || self.routing != RoutingPolicy::Canonical
    }

    /// Adds per-tenant token-bucket rate limiting (builder-style).
    #[must_use]
    pub fn with_rate_limit(mut self, rate_bytes_per_kcycle: u64, burst_bytes: u64) -> Self {
        self.rate_limit = Some(RateLimitConfig {
            rate_bytes_per_kcycle,
            burst_bytes,
        });
        self
    }

    /// Quantises link grants to fixed epochs (builder-style).
    #[must_use]
    pub fn with_pacing(mut self, epoch_cycles: u64) -> Self {
        self.shaping = TrafficShaping::Pace { epoch_cycles };
        self
    }

    /// Adds seeded grant-time jitter (builder-style).
    #[must_use]
    pub fn with_jitter(mut self, span_cycles: u64, seed: u64) -> Self {
        self.shaping = TrafficShaping::Jitter { span_cycles, seed };
        self
    }

    /// Routes remote accesses through valiant intermediates
    /// (builder-style).
    #[must_use]
    pub fn with_valiant(mut self, seed: u64) -> Self {
        self.routing = RoutingPolicy::Valiant { seed };
        self
    }

    /// Restricts rate limiting / shaping to a `(tenant, link)` scope
    /// (builder-style). See [`QosScope`].
    #[must_use]
    pub fn with_scope(mut self, scope: QosScope) -> Self {
        self.scope = scope;
        self
    }

    /// Checks the configuration for degenerate parameters (zero rate,
    /// epoch or span — each would divide by zero on the hot path).
    /// [`crate::MultiGpuSystem::set_qos`] rejects invalid configs with
    /// an error; constructing a [`crate::fabric::Fabric`] from one
    /// panics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let Some(r) = &self.rate_limit {
            if r.rate_bytes_per_kcycle == 0 {
                return Err("rate limit needs a positive rate");
            }
        }
        match self.shaping {
            TrafficShaping::Pace { epoch_cycles: 0 } => Err("pacing needs a positive epoch"),
            TrafficShaping::Jitter { span_cycles: 0, .. } => Err("jitter needs a positive span"),
            _ => Ok(()),
        }
    }
}

/// One tenant's credit on one link window, in *byte-kilocycles*
/// (`bytes << 10`), so refill arithmetic is exact integer math.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    /// Remaining credit, `bytes << 10`.
    credit: u64,
    /// Cycle the credit was last brought current.
    last: u64,
}

/// Runtime token-bucket state: one bucket per `(process, link window)`.
#[derive(Debug, Clone)]
struct RateState {
    /// Refill rate: credit (byte-kilocycles) per cycle — numerically
    /// equal to bytes per 1024 cycles.
    rate: u64,
    /// Bucket capacity in credit units (`burst_bytes << 10`).
    capacity: u64,
    /// Link windows per process (links × 1 or 2 directions).
    windows: usize,
    /// `process * windows + window`, grown by [`QosState::register_process`].
    buckets: Vec<TokenBucket>,
}

impl RateState {
    /// Earliest cycle a `bytes`-sized grant for `pid` on window `w` may
    /// start, consuming the credit; records pass/shape statistics.
    ///
    /// `b.last` is the bucket's refill frontier and is **monotone**: a
    /// line arriving while a previous line's refill horizon is still
    /// pending (`t < b.last` — exactly what a warp-wide batch's
    /// gap-spaced issue times produce) accrues no credit for the
    /// overlap and serialises *behind* that horizon, so consecutive
    /// over-budget lines are released one refill period apart and the
    /// sustained throughput is genuinely capped at `rate` — not merely
    /// offset by a constant first-line delay.
    #[inline]
    fn admit(&mut self, pid: ProcessId, w: usize, t: u64, bytes: u64, qs: &mut QosStats) -> u64 {
        let idx = pid.0 as usize * self.windows + w;
        let b = &mut self.buckets[idx];
        let now = t.max(b.last);
        if now > b.last {
            b.credit = self
                .capacity
                .min(b.credit.saturating_add((now - b.last).saturating_mul(self.rate)));
            b.last = now;
        }
        let cost = bytes << 10;
        if b.credit >= cost {
            b.credit -= cost;
            if now > t {
                // Credit exists only as of the refill frontier: the
                // line queues in the regulator until then.
                qs.shaped_bytes += bytes;
                qs.throttle_delay_cycles += now - t;
            } else {
                qs.passed_bytes += bytes;
            }
            now
        } else {
            let need = cost - b.credit;
            let wait = need.div_ceil(self.rate);
            // The remainder of the last refill tick carries over, so
            // long-run throughput is exactly `rate`.
            b.credit = wait * self.rate - need;
            b.last = now + wait;
            qs.shaped_bytes += bytes;
            qs.throttle_delay_cycles += now + wait - t;
            now + wait
        }
    }
}

/// Valiant-routing runtime state: the per-ordered-pair access counters
/// that index the intermediate-selection stream.
#[derive(Debug, Clone)]
struct ValiantState {
    seed: u64,
    n: usize,
    /// `src * n + dst` access counters.
    counters: Vec<u64>,
}

/// Runtime QoS state owned by [`crate::fabric::Fabric`]; constructed
/// from a [`QosConfig`], inert when everything is off.
#[derive(Debug, Clone)]
pub(crate) struct QosState {
    rate: Option<RateState>,
    shaping: TrafficShaping,
    /// Grant counter indexing the jitter stream.
    jitter_counter: u64,
    valiant: Option<ValiantState>,
}

impl QosState {
    /// Builds the runtime state for a topology with `windows` link
    /// occupancy windows (links × directions).
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero rate, epoch or span) —
    /// they would mean division by zero on the hot path.
    pub(crate) fn new(cfg: &QosConfig, topo: &Topology, windows: usize) -> Self {
        if let Err(reason) = cfg.validate() {
            panic!("{reason}");
        }
        QosState {
            rate: cfg.rate_limit.map(|r| RateState {
                rate: r.rate_bytes_per_kcycle,
                capacity: r.burst_bytes << 10,
                windows,
                buckets: Vec::new(),
            }),
            shaping: cfg.shaping,
            jitter_counter: 0,
            valiant: match cfg.routing {
                RoutingPolicy::Canonical => None,
                RoutingPolicy::Valiant { seed } => Some(ValiantState {
                    seed,
                    n: topo.num_gpus() as usize,
                    counters: vec![0; (topo.num_gpus() as usize).pow(2)],
                }),
            },
        }
    }

    /// Registers one more process: its token buckets start full (a
    /// fresh tenant may burst immediately). Called from
    /// [`crate::MultiGpuSystem::create_process`] — the one allocation
    /// site, outside the engine's steady-state loop.
    pub(crate) fn register_process(&mut self) {
        if let Some(rs) = &mut self.rate {
            rs.buckets.extend(std::iter::repeat_n(
                TokenBucket {
                    credit: rs.capacity,
                    last: 0,
                },
                rs.windows,
            ));
        }
    }

    /// Resets all transient state for a new engine run (buckets back to
    /// full at cycle 0, jitter and valiant streams rewound).
    pub(crate) fn reset(&mut self) {
        if let Some(rs) = &mut self.rate {
            for b in &mut rs.buckets {
                *b = TokenBucket {
                    credit: rs.capacity,
                    last: 0,
                };
            }
        }
        self.jitter_counter = 0;
        if let Some(v) = &mut self.valiant {
            for c in &mut v.counters {
                *c = 0;
            }
        }
    }

    /// The token-bucket **delivery horizon** for a `bytes`-sized line of
    /// `pid` on window `w` arriving at `t` (≥ `t`; equal when in
    /// budget). The bucket is a *flow regulator*: an over-budget line
    /// is re-paced to this horizon and crosses in the link's spare
    /// capacity there — it neither holds the link while waiting for
    /// credit nor books an occupancy window other tenants could queue
    /// behind (see [`crate::fabric::Fabric::traverse`]), so a throttled
    /// tenant self-clocks down to the sustained rate without starving
    /// anyone else. Statistics land in `qs`.
    #[inline]
    pub(crate) fn delivery_horizon(
        &mut self,
        pid: ProcessId,
        w: usize,
        t: u64,
        bytes: u64,
        qs: &mut QosStats,
    ) -> u64 {
        match &mut self.rate {
            Some(rs) => rs.admit(pid, w, t, bytes, qs),
            None => t,
        }
    }

    /// The shaped **grant time** for a line arriving at the link at
    /// `t`: epoch quantisation or seeded jitter of when the link may
    /// start serving it. Bounded by the epoch/span, so unlike the
    /// token-bucket horizon it acts on the grant itself.
    #[inline]
    pub(crate) fn shaped_grant(&mut self, t: u64, qs: &mut QosStats) -> u64 {
        match self.shaping {
            TrafficShaping::Off => t,
            TrafficShaping::Pace { epoch_cycles } => {
                let t2 = t.div_ceil(epoch_cycles) * epoch_cycles;
                qs.pacing_delay_cycles += t2 - t;
                t2
            }
            TrafficShaping::Jitter { span_cycles, seed } => {
                let j = crate::draw::splitmix64(seed ^ self.jitter_counter) % span_cycles;
                self.jitter_counter += 1;
                qs.jitter_delay_cycles += j;
                t + j
            }
        }
    }

    /// Picks (and consumes one counter tick of) the valiant
    /// intermediate for a `src → dst` line; `None` when routing is
    /// canonical or the topology admits no intermediate.
    #[inline]
    pub(crate) fn valiant_pick(&mut self, topo: &Topology, src: GpuId, dst: GpuId) -> Option<GpuId> {
        let v = self.valiant.as_mut()?;
        let idx = src.index() * v.n + dst.index();
        let counter = v.counters[idx];
        v.counters[idx] += 1;
        topo.valiant_intermediate(src, dst, v.seed, counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo2() -> Topology {
        Topology::from_edges(2, &[(0, 1)])
    }

    fn state(cfg: &QosConfig, procs: usize) -> QosState {
        let topo = topo2();
        let mut s = QosState::new(cfg, &topo, topo.num_links());
        for _ in 0..procs {
            s.register_process();
        }
        s
    }

    #[test]
    fn off_config_releases_immediately_and_counts_nothing() {
        let mut s = state(&QosConfig::off(), 1);
        let mut qs = QosStats::default();
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 1234, 128, &mut qs), 1234);
        assert_eq!(s.shaped_grant(1234, &mut qs), 1234);
        assert_eq!(qs, QosStats::default(), "no bookkeeping without QoS");
        assert!(!QosConfig::off().enabled());
    }

    #[test]
    fn bucket_passes_bursts_and_shapes_sustained_traffic() {
        // 128 B/kcycle sustained, 256 B burst.
        let cfg = QosConfig::off().with_rate_limit(128, 256);
        assert!(cfg.enabled());
        let mut s = state(&cfg, 1);
        let mut qs = QosStats::default();
        // Two lines fit the initial burst: immediate.
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 0);
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 0);
        // The third has no credit: delivered a full line's refill time
        // later (128 B at 128 B/kcycle = 1024 cycles).
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 1024);
        assert_eq!(qs.passed_bytes, 256);
        assert_eq!(qs.shaped_bytes, 128);
        assert_eq!(qs.throttle_delay_cycles, 1024);
        // After a long idle the bucket is full again (but not fuller).
        assert_eq!(
            s.delivery_horizon(ProcessId(0), 0, 1_000_000, 256, &mut qs),
            1_000_000
        );
        assert_eq!(
            s.delivery_horizon(ProcessId(0), 0, 1_000_000, 128, &mut qs),
            1_001_024
        );
    }

    #[test]
    fn bucket_serialises_overlapping_horizons() {
        // A warp-wide batch issues lines a few cycles apart — each
        // arriving before the previous line's refill horizon. The
        // releases must stack one full refill period (128 B at
        // 128 B/kcycle = 1024 cycles) apart, capping the sustained
        // rate, not merely offsetting every line by a constant.
        let cfg = QosConfig::off().with_rate_limit(128, 0);
        let mut s = state(&cfg, 1);
        let mut qs = QosStats::default();
        for (i, t) in [0u64, 4, 8, 12].into_iter().enumerate() {
            assert_eq!(
                s.delivery_horizon(ProcessId(0), 0, t, 128, &mut qs),
                1024 * (i as u64 + 1),
                "line {i} must queue behind the previous refill horizon"
            );
        }
        assert_eq!(qs.shaped_bytes, 4 * 128);
        // And the frontier never moves backwards: a later arrival
        // still lands after the last horizon.
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 100, 128, &mut qs), 5 * 1024);
    }

    #[test]
    fn buckets_are_per_process_and_per_window() {
        let cfg = QosConfig::off().with_rate_limit(128, 128);
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut s = QosState::new(&cfg, &topo, topo.num_links());
        s.register_process();
        s.register_process();
        let mut qs = QosStats::default();
        // Process 0 drains window 0; process 1 and window 1 are intact.
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 0);
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 1024);
        assert_eq!(s.delivery_horizon(ProcessId(1), 0, 0, 128, &mut qs), 0);
        assert_eq!(s.delivery_horizon(ProcessId(0), 1, 10, 128, &mut qs), 10);
    }

    #[test]
    fn pacing_rounds_up_to_epoch_boundaries() {
        let cfg = QosConfig::off().with_pacing(500);
        let mut s = state(&cfg, 1);
        let mut qs = QosStats::default();
        assert_eq!(s.shaped_grant(0, &mut qs), 0);
        assert_eq!(s.shaped_grant(1, &mut qs), 500);
        assert_eq!(s.shaped_grant(500, &mut qs), 500);
        assert_eq!(s.shaped_grant(777, &mut qs), 1000);
        assert_eq!(qs.pacing_delay_cycles, 499 + 223);
    }

    #[test]
    fn jitter_is_bounded_seeded_and_deterministic() {
        let cfg = QosConfig::off().with_jitter(400, 99);
        let run = || {
            let mut s = state(&cfg, 1);
            let mut qs = QosStats::default();
            let d: Vec<u64> = (0..64)
                .map(|i| s.shaped_grant(i * 1000, &mut qs) - i * 1000)
                .collect();
            (d, qs.jitter_delay_cycles)
        };
        let (a, total) = run();
        assert!(a.iter().all(|&d| d < 400), "jitter within span");
        assert!(a.iter().any(|&d| d > 0), "jitter non-trivial");
        assert_eq!(a.iter().sum::<u64>(), total);
        assert_eq!(a, run().0, "same seed, same stream");
        let other = QosConfig::off().with_jitter(400, 100);
        let mut s = state(&other, 1);
        let mut qs = QosStats::default();
        let b: Vec<u64> = (0..64)
            .map(|i| s.shaped_grant(i * 1000, &mut qs) - i * 1000)
            .collect();
        assert_ne!(a, b, "different seeds, different streams");
    }

    #[test]
    fn reset_refills_buckets_and_rewinds_streams() {
        let cfg = QosConfig::off().with_rate_limit(128, 128);
        let mut s = state(&cfg, 1);
        let mut qs = QosStats::default();
        s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs);
        assert_eq!(s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs), 1024);
        s.reset();
        assert_eq!(
            s.delivery_horizon(ProcessId(0), 0, 0, 128, &mut qs),
            0,
            "full after reset"
        );
    }

    #[test]
    fn valiant_pick_consumes_the_pair_counter() {
        let topo = Topology::dgx1();
        let cfg = QosConfig::off().with_valiant(7);
        let mut s = QosState::new(&cfg, &topo, topo.num_links());
        let (a, b) = (GpuId::new(0), GpuId::new(5));
        let picks: Vec<Option<GpuId>> = (0..16).map(|_| s.valiant_pick(&topo, a, b)).collect();
        // Deterministic replay from counter 0 after reset.
        s.reset();
        let again: Vec<Option<GpuId>> = (0..16).map(|_| s.valiant_pick(&topo, a, b)).collect();
        assert_eq!(picks, again);
        // The stream actually varies the intermediate.
        let distinct: std::collections::HashSet<_> = picks.iter().flatten().collect();
        assert!(distinct.len() >= 2, "picks spread over intermediates: {picks:?}");
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_is_rejected() {
        let cfg = QosConfig::off().with_rate_limit(0, 128);
        let topo = topo2();
        let _ = QosState::new(&cfg, &topo, 1);
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        for cfg in [
            QosConfig::off(),
            QosConfig::off().with_rate_limit(1280, 4096),
            QosConfig::off().with_pacing(3000),
            QosConfig::off().with_jitter(2000, 11),
            QosConfig::off().with_valiant(5).with_rate_limit(640, 2048),
        ] {
            let back = QosConfig::from_value(&cfg.to_value()).unwrap();
            assert_eq!(back, cfg);
        }
    }
}
