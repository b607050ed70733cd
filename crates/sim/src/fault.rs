//! Deterministic fault injection for the timed link fabric.
//!
//! The paper's channels are measured on a healthy DGX-1, but a fleet of
//! GPU boxes serves with degraded and failing NVLink hardware as the
//! steady state: links flap, links throttle, and transfers reroute
//! mid-transmission. This module makes those failures *first-class,
//! scheduled and reproducible* so both covert-channel families (and the
//! QoS defence sweep) can be evaluated under fault — the robustness
//! analogue of the [`crate::qos`] defence layer, exercised head-to-head
//! against the hardened and naive receive stacks by
//! `ext_fault_resilience`. Everything sits behind
//! [`crate::fabric::FabricConfig::faults`] and is off by default: a
//! [`FaultPlan::none`] fabric is bit-identical to the fault-free model.
//!
//! # Failure taxonomy
//!
//! - **Scheduled link outages** ([`LinkDown`]): a link is down over
//!   `[at, recover_at)` (`recover_at == u64::MAX` models a permanent
//!   failure). Routing recomputes per *fault epoch*: at every outage
//!   boundary the surviving graph's shortest paths are rebuilt
//!   ([`crate::topology::Topology::excluding_links`]) and remote
//!   accesses reroute — the covert channel's timing signature shifts
//!   because the rerouted path shares different links. When the
//!   survivors are partitioned the access falls back to the PCIe root
//!   complex, and when even that is refused
//!   ([`FaultPlan::without_pcie_fallback`]) the access fails with
//!   [`crate::SimError::LinkDown`]. A line already committed to a stale
//!   route (a batch resolved before the outage) stalls at the dead link
//!   until recovery — the in-flight-transfer semantics of a real link
//!   flap.
//! - **Degraded links** ([`DegradedLink`]): over `[at, until)` a link
//!   serves each line at `service_multiplier ×` its healthy service
//!   cycles — a thermally throttled or lane-degraded link. Routing is
//!   unchanged; only the queueing model slows down, so congestion (and
//!   the congestion channel's signal) *amplifies* on the degraded link.
//! - **Transient stalls** ([`TransientStalls`]): every hop draws from a
//!   splitmix64 stream keyed on the hop counter *and* the hop's
//!   512-cycle arrival window (the QoS jitter idiom — no system RNG,
//!   bit-reproducible across runs) and with probability
//!   `per_1024/1024` the line is stalled `stall_cycles` before
//!   service — replay/CRC-retry blips on a flaky link. The time key
//!   means an exact replay stalls identically while a time-shifted one
//!   (a backed-off retransmission) draws independently.
//!
//! # Determinism and cost
//!
//! Fault application consumes **no system RNG** and performs **no
//! steady-state allocation**: outage and degradation windows are sorted
//! per-link vectors built at fabric construction, epoch route tables
//! are precomputed at boot / [`crate::MultiGpuSystem::set_fault_plan`]
//! time, and the per-access epoch lookup is a binary search over a
//! handful of boundaries (asserted by the counting-allocator suite in
//! `tests/alloc_free.rs`). Reroute/fallback/wait counters land in
//! [`crate::stats::FaultStats`].

use crate::stats::FaultStats;
use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};

/// One scheduled link outage: the link is unusable over `[at, recover_at)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkDown {
    /// The failing link (an index into the topology's canonical edge
    /// list, see [`crate::topology::Topology::link_endpoints`]).
    pub link: u32,
    /// Cycle the outage begins.
    pub at: u64,
    /// Cycle the link comes back (`u64::MAX` = permanent failure).
    pub recover_at: u64,
}

/// One scheduled link degradation: over `[at, until)` the link serves
/// each line at a multiple of its healthy service cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedLink {
    /// The degraded link.
    pub link: u32,
    /// Cycle the degradation begins.
    pub at: u64,
    /// Cycle the link returns to full speed.
    pub until: u64,
    /// Service-cycle multiplier while degraded (≥ 2: `1` would be a
    /// healthy link and a silently inert plan entry).
    pub service_multiplier: u32,
}

/// Seeded transient stalls: every fabric hop flips a deterministic
/// `per_1024/1024` coin (splitmix64 keyed on the hop counter and the
/// hop's 512-cycle arrival window, the
/// [`crate::qos::TrafficShaping::Jitter`] idiom) and on a hit delays the
/// line `stall_cycles` before service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransientStalls {
    /// Seed of the stall stream.
    pub seed: u64,
    /// Stall probability numerator out of 1024 (must be in `1..=1024`).
    pub per_1024: u64,
    /// Cycles one stall delays the line (must be ≥ 1).
    pub stall_cycles: u64,
}

/// The complete fault-injection plan of the fabric; defaults to *no
/// faults*, which reproduces the healthy fabric bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled link outages (rerouting recomputes per outage epoch).
    pub link_downs: Vec<LinkDown>,
    /// Scheduled link degradations (service slows, routing unchanged).
    pub degraded: Vec<DegradedLink>,
    /// Seeded transient per-hop stalls (`None` = off).
    pub stalls: Option<TransientStalls>,
    /// Whether an access whose GPU pair is partitioned by outages may
    /// fall back to the PCIe root complex (`true`, the default — the
    /// driver behaviour of a real box). `false` makes such accesses
    /// fail with [`crate::SimError::LinkDown`] instead, modelling a
    /// runtime that refuses to silently degrade to PCIe.
    pub pcie_fallback: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults at all: the healthy fabric.
    pub fn none() -> Self {
        FaultPlan {
            link_downs: Vec::new(),
            degraded: Vec::new(),
            stalls: None,
            pcie_fallback: true,
        }
    }

    /// Whether any fault component is active.
    pub fn enabled(&self) -> bool {
        !self.link_downs.is_empty() || !self.degraded.is_empty() || self.stalls.is_some()
    }

    /// Schedules a link outage over `[at, recover_at)` (builder-style);
    /// `recover_at == u64::MAX` is a permanent failure.
    #[must_use]
    pub fn with_link_down(mut self, link: u32, at: u64, recover_at: u64) -> Self {
        self.link_downs.push(LinkDown {
            link,
            at,
            recover_at,
        });
        self
    }

    /// Schedules a link degradation over `[at, until)` (builder-style).
    #[must_use]
    pub fn with_degraded(mut self, link: u32, at: u64, until: u64, service_multiplier: u32) -> Self {
        self.degraded.push(DegradedLink {
            link,
            at,
            until,
            service_multiplier,
        });
        self
    }

    /// Adds seeded transient per-hop stalls (builder-style).
    #[must_use]
    pub fn with_stalls(mut self, seed: u64, per_1024: u64, stall_cycles: u64) -> Self {
        self.stalls = Some(TransientStalls {
            seed,
            per_1024,
            stall_cycles,
        });
        self
    }

    /// Refuses the PCIe fallback for outage-partitioned GPU pairs
    /// (builder-style): such accesses fail with
    /// [`crate::SimError::LinkDown`] instead.
    #[must_use]
    pub fn without_pcie_fallback(mut self) -> Self {
        self.pcie_fallback = false;
        self
    }

    /// The highest link id the plan names, if it names any.
    pub fn max_link(&self) -> Option<u32> {
        self.link_downs
            .iter()
            .map(|d| d.link)
            .chain(self.degraded.iter().map(|d| d.link))
            .max()
    }

    /// Checks the plan for degenerate parameters (empty fault windows,
    /// inert multipliers, zero or out-of-range stall rates).
    /// [`crate::MultiGpuSystem::set_fault_plan`] rejects invalid plans
    /// with an error; constructing a [`crate::fabric::Fabric`] from one
    /// panics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), &'static str> {
        for d in &self.link_downs {
            if d.recover_at <= d.at {
                return Err("link outage must recover after it begins");
            }
        }
        for d in &self.degraded {
            if d.until <= d.at {
                return Err("degraded window must end after it begins");
            }
            if d.service_multiplier < 2 {
                return Err("degraded link needs a service multiplier of at least 2");
            }
        }
        if let Some(s) = &self.stalls {
            if s.per_1024 == 0 || s.per_1024 > 1024 {
                return Err("transient stalls need a per-1024 rate in 1..=1024");
            }
            if s.stall_cycles == 0 {
                return Err("transient stalls need a positive duration");
            }
        }
        Ok(())
    }
}

/// One routing epoch of a fault plan: from `start` until the next
/// epoch's start the set of downed links is constant, so one recomputed
/// topology serves every access in the window.
#[derive(Debug, Clone)]
pub(crate) struct FaultEpoch {
    /// First cycle of the epoch.
    pub(crate) start: u64,
    /// Routing topology excluding the links down in this epoch; `None`
    /// when no link is down (canonical routing, zero-cost lookup).
    pub(crate) topo: Option<Topology>,
    /// Lowest-numbered link down in this epoch — names the fault in
    /// [`crate::SimError::LinkDown`] when even the PCIe fallback is
    /// refused.
    pub(crate) first_down: u32,
}

/// Precomputes the routing epochs of a plan over a topology: one entry
/// per maximal window with a constant downed-link set, sorted by start
/// (the first always starts at cycle 0). Empty — meaning "always route
/// canonically" — when the plan schedules no outages; degradations and
/// stalls never change routing.
pub(crate) fn build_epochs(plan: &FaultPlan, topo: &Topology) -> Vec<FaultEpoch> {
    if plan.link_downs.is_empty() {
        return Vec::new();
    }
    let mut bounds = vec![0u64];
    for d in &plan.link_downs {
        bounds.push(d.at);
        if d.recover_at != u64::MAX {
            bounds.push(d.recover_at);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut epochs: Vec<FaultEpoch> = Vec::new();
    let mut prev_down: Option<Vec<LinkId>> = None;
    for &start in &bounds {
        let mut down: Vec<LinkId> = plan
            .link_downs
            .iter()
            .filter(|d| d.at <= start && start < d.recover_at)
            .map(|d| LinkId(d.link))
            .collect();
        down.sort_unstable();
        down.dedup();
        if prev_down.as_deref() == Some(&down) {
            continue; // the downed set did not change: merge the epochs
        }
        epochs.push(FaultEpoch {
            start,
            first_down: down.first().map_or(0, |l| l.0),
            topo: if down.is_empty() {
                None
            } else {
                Some(topo.excluding_links(&down))
            },
        });
        prev_down = Some(down);
    }
    epochs
}

/// Runtime fault state owned by [`crate::fabric::Fabric`]: the plan's
/// windows re-sorted per link for O(windows-per-link) hot-path scans,
/// plus the stall-stream counter.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Per-link `(at, recover_at)` outage windows, sorted by start.
    downs: Vec<Vec<(u64, u64)>>,
    /// Per-link `(at, until, service_multiplier)` windows, sorted by
    /// start.
    degraded: Vec<Vec<(u64, u64, u64)>>,
    stalls: Option<TransientStalls>,
    /// Hop counter indexing the stall draw stream; rewound by
    /// [`FaultState::reset`] so engine runs replay identically.
    stall_counter: u64,
}

impl FaultState {
    /// Builds the runtime state for a topology with `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan ([`FaultPlan::validate`]) or one naming
    /// a link the topology does not have.
    pub(crate) fn new(plan: &FaultPlan, num_links: usize) -> Self {
        if let Err(reason) = plan.validate() {
            panic!("{reason}");
        }
        if let Some(l) = plan.max_link() {
            assert!(
                (l as usize) < num_links,
                "fault plan names link {l} but the topology has {num_links} links"
            );
        }
        let mut downs = vec![Vec::new(); num_links];
        for d in &plan.link_downs {
            downs[d.link as usize].push((d.at, d.recover_at));
        }
        let mut degraded = vec![Vec::new(); num_links];
        for d in &plan.degraded {
            degraded[d.link as usize].push((d.at, d.until, u64::from(d.service_multiplier)));
        }
        for w in &mut downs {
            w.sort_unstable();
        }
        for w in &mut degraded {
            w.sort_unstable();
        }
        FaultState {
            downs,
            degraded,
            stalls: plan.stalls,
            stall_counter: 0,
        }
    }

    /// Rewinds the stall stream for a new engine run (agent clocks
    /// restart at zero, so the draw sequence must replay).
    pub(crate) fn reset(&mut self) {
        self.stall_counter = 0;
    }

    /// Applies this hop's faults to a line arriving at link `l` at `t`
    /// with healthy service `base_service`. Returns the (possibly
    /// delayed) arrival time and the (possibly inflated) service
    /// cycles, in fixed order: outage wait (the line stalls at the dead
    /// link until recovery — saturating, so a permanent failure pins
    /// the arrival at `u64::MAX`), then the transient-stall draw (one
    /// counter tick per hop whenever stalls are configured, hit or
    /// miss), then the degradation multiplier evaluated at the delayed
    /// arrival. Counters land in `fs`.
    #[inline]
    pub(crate) fn apply_hop(
        &mut self,
        l: LinkId,
        t: u64,
        base_service: u64,
        fs: &mut FaultStats,
    ) -> (u64, u64) {
        let li = l.index();
        let mut arr = t;
        for &(at, rec) in &self.downs[li] {
            if at > arr {
                break;
            }
            if arr < rec {
                fs.down_waits += 1;
                fs.down_wait_cycles = fs.down_wait_cycles.saturating_add(rec - arr);
                arr = rec;
            }
        }
        if let Some(s) = self.stalls {
            // Keyed on the hop counter *and* the (512-cycle-windowed)
            // arrival time: transient faults are a property of when the
            // line crosses the link, not of how many lines crossed
            // before it. An identical replay (same hops, same clocks)
            // draws identically, but a time-shifted replay — e.g. a
            // backed-off retransmission round — gets an independent
            // draw instead of deterministically re-hitting the stalls
            // that killed the first attempt.
            let window = (arr >> 9).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let draw = crate::draw::splitmix64(s.seed ^ self.stall_counter ^ window) % 1024;
            self.stall_counter += 1;
            if draw < s.per_1024 {
                fs.transient_stalls += 1;
                fs.stall_cycles += s.stall_cycles;
                arr = arr.saturating_add(s.stall_cycles);
            }
        }
        let mut service = base_service;
        for &(at, until, mult) in &self.degraded[li] {
            if at > arr {
                break;
            }
            if arr < until {
                service = base_service * mult;
                fs.degraded_hops += 1;
                fs.degraded_extra_cycles += service - base_service;
                break;
            }
        }
        (arr, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        Topology::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn empty_plan_is_off_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan, FaultPlan::default());
        assert!(plan.pcie_fallback);
        assert_eq!(plan.max_link(), None);
        plan.validate().unwrap();
        assert!(build_epochs(&plan, &line3()).is_empty());
    }

    #[test]
    fn builders_compose_and_enable() {
        let plan = FaultPlan::none()
            .with_link_down(0, 100, 200)
            .with_degraded(1, 50, 150, 4)
            .with_stalls(7, 32, 500)
            .without_pcie_fallback();
        assert!(plan.enabled());
        assert!(!plan.pcie_fallback);
        assert_eq!(plan.max_link(), Some(1));
        plan.validate().unwrap();
        assert!(FaultPlan::none().with_stalls(7, 32, 500).enabled());
        assert!(FaultPlan::none().with_degraded(0, 0, 1, 2).enabled());
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        let cases = [
            (
                FaultPlan::none().with_link_down(0, 100, 100),
                "link outage must recover after it begins",
            ),
            (
                FaultPlan::none().with_degraded(0, 100, 90, 2),
                "degraded window must end after it begins",
            ),
            (
                FaultPlan::none().with_degraded(0, 0, 100, 1),
                "degraded link needs a service multiplier of at least 2",
            ),
            (
                FaultPlan::none().with_stalls(1, 0, 10),
                "transient stalls need a per-1024 rate in 1..=1024",
            ),
            (
                FaultPlan::none().with_stalls(1, 2000, 10),
                "transient stalls need a per-1024 rate in 1..=1024",
            ),
            (
                FaultPlan::none().with_stalls(1, 16, 0),
                "transient stalls need a positive duration",
            ),
        ];
        for (plan, msg) in cases {
            assert_eq!(plan.validate(), Err(msg));
        }
    }

    #[test]
    fn epochs_cover_outage_boundaries_and_reroute() {
        use crate::address::GpuId;
        let topo = line3();
        // Link 0 = (0,1) down over [1000, 2000).
        let plan = FaultPlan::none().with_link_down(0, 1000, 2000);
        let epochs = build_epochs(&plan, &topo);
        assert_eq!(epochs.len(), 3);
        assert_eq!(
            epochs.iter().map(|e| e.start).collect::<Vec<_>>(),
            vec![0, 1000, 2000]
        );
        assert!(epochs[0].topo.is_none(), "healthy before the outage");
        assert!(epochs[2].topo.is_none(), "healthy after recovery");
        let down = epochs[1].topo.as_ref().unwrap();
        assert_eq!(epochs[1].first_down, 0);
        // The 0-1-2 line loses (0,1): GPU0 is cut off, 1-2 still routes.
        assert!(down.path(GpuId::new(0), GpuId::new(1)).is_empty());
        assert_eq!(down.path(GpuId::new(1), GpuId::new(2)).len(), 1);
    }

    #[test]
    fn permanent_failures_and_equal_sets_merge_epochs() {
        let topo = line3();
        // Two overlapping permanent outages of the same link: one
        // boundary each, identical downed sets collapse.
        let plan = FaultPlan::none()
            .with_link_down(1, 500, u64::MAX)
            .with_link_down(1, 700, u64::MAX);
        let epochs = build_epochs(&plan, &topo);
        assert_eq!(
            epochs.iter().map(|e| e.start).collect::<Vec<_>>(),
            vec![0, 500],
            "the 700 boundary changes nothing and merges away"
        );
        assert!(epochs[1].topo.is_some());
        assert_eq!(epochs[1].first_down, 1);
    }

    #[test]
    fn apply_hop_waits_out_outages() {
        let plan = FaultPlan::none().with_link_down(0, 100, 400);
        let mut st = FaultState::new(&plan, 2);
        let mut fs = FaultStats::default();
        // Before the outage: untouched.
        assert_eq!(st.apply_hop(LinkId(0), 50, 10, &mut fs), (50, 10));
        // Inside: delayed to recovery.
        assert_eq!(st.apply_hop(LinkId(0), 250, 10, &mut fs), (400, 10));
        // After: untouched again; other links never affected.
        assert_eq!(st.apply_hop(LinkId(0), 450, 10, &mut fs), (450, 10));
        assert_eq!(st.apply_hop(LinkId(1), 250, 10, &mut fs), (250, 10));
        assert_eq!(fs.down_waits, 1);
        assert_eq!(fs.down_wait_cycles, 150);
    }

    #[test]
    fn apply_hop_chains_back_to_back_outages() {
        let plan = FaultPlan::none()
            .with_link_down(0, 100, 200)
            .with_link_down(0, 200, 300);
        let mut st = FaultState::new(&plan, 1);
        let mut fs = FaultStats::default();
        // Arriving in the first window rides out both.
        assert_eq!(st.apply_hop(LinkId(0), 150, 10, &mut fs).0, 300);
        assert_eq!(fs.down_waits, 2);
        assert_eq!(fs.down_wait_cycles, 50 + 100);
    }

    #[test]
    fn permanent_outage_saturates() {
        let plan = FaultPlan::none().with_link_down(0, 100, u64::MAX);
        let mut st = FaultState::new(&plan, 1);
        let mut fs = FaultStats::default();
        assert_eq!(st.apply_hop(LinkId(0), 500, 10, &mut fs).0, u64::MAX);
    }

    #[test]
    fn apply_hop_multiplies_degraded_service() {
        let plan = FaultPlan::none().with_degraded(0, 100, 400, 4);
        let mut st = FaultState::new(&plan, 1);
        let mut fs = FaultStats::default();
        assert_eq!(st.apply_hop(LinkId(0), 50, 10, &mut fs), (50, 10));
        assert_eq!(st.apply_hop(LinkId(0), 250, 10, &mut fs), (250, 40));
        assert_eq!(st.apply_hop(LinkId(0), 400, 10, &mut fs), (400, 10));
        assert_eq!(fs.degraded_hops, 1);
        assert_eq!(fs.degraded_extra_cycles, 30);
    }

    #[test]
    fn stalls_are_seeded_deterministic_and_rewindable() {
        let plan = FaultPlan::none().with_stalls(42, 256, 700);
        let mut st = FaultState::new(&plan, 1);
        let mut fs = FaultStats::default();
        let draws: Vec<u64> = (0..64)
            .map(|i| st.apply_hop(LinkId(0), i * 1000, 10, &mut fs).0 - i * 1000)
            .collect();
        assert!(draws.iter().all(|&d| d == 0 || d == 700));
        assert!(draws.contains(&700), "some hops stall");
        assert!(draws.contains(&0), "some hops pass");
        assert_eq!(
            fs.stall_cycles,
            700 * fs.transient_stalls,
            "counters agree"
        );
        // Reset rewinds the stream: the same draws replay.
        st.reset();
        let mut fs2 = FaultStats::default();
        let again: Vec<u64> = (0..64)
            .map(|i| st.apply_hop(LinkId(0), i * 1000, 10, &mut fs2).0 - i * 1000)
            .collect();
        assert_eq!(draws, again);
        // A different seed gives a different stream.
        let mut other = FaultState::new(&FaultPlan::none().with_stalls(43, 256, 700), 1);
        let theirs: Vec<u64> = (0..64)
            .map(|i| other.apply_hop(LinkId(0), i * 1000, 10, &mut fs2).0 - i * 1000)
            .collect();
        assert_ne!(draws, theirs);
    }

    #[test]
    #[should_panic(expected = "names link 5")]
    fn state_rejects_out_of_range_links() {
        let plan = FaultPlan::none().with_link_down(5, 0, 10);
        let _ = FaultState::new(&plan, 2);
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        for plan in [
            FaultPlan::none(),
            FaultPlan::none().with_link_down(3, 1000, u64::MAX),
            FaultPlan::none()
                .with_link_down(0, 100, 200)
                .with_degraded(1, 50, 150, 4)
                .with_stalls(7, 32, 500)
                .without_pcie_fallback(),
        ] {
            let back = FaultPlan::from_value(&plan.to_value()).unwrap();
            assert_eq!(back, plan);
        }
    }
}
