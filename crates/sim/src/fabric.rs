//! Timed interconnect fabric: per-link bandwidth, occupancy and queueing.
//!
//! PR 1/PR 2 modelled the interconnect as a scalar — a per-hop latency
//! adder plus one per-home-GPU queue counter. This module promotes every
//! NVLink edge of the [`Topology`] (and the PCIe root complex, shared by
//! all GPUs as the fallback transport) to a **timed queueing resource**:
//!
//! - each link serves one cache line per [`FabricConfig`] service period
//!   (its bandwidth expressed in core cycles per 128 B line);
//! - a link remembers the cycle until which it is busy (`busy_until`);
//!   a request arriving earlier waits for the residual occupancy window —
//!   deterministic FCFS in **engine processing order**, at op
//!   granularity. Scalar ops are processed in global-timestamp order,
//!   but a warp-wide `LoadBatch` books all of its lines' future issue
//!   slots atomically when its op executes, so another agent's op with
//!   a timestamp inside that span queues behind the whole booked burst.
//!   That models a warp's transfers being committed to the link engine
//!   at issue, and is exactly the saturation the congestion channel's
//!   spy observes;
//! - a multi-hop request traverses its route **store-and-forward**: the
//!   arrival time at link *k+1* is the departure time from link *k*, so
//!   congestion anywhere on the route delays the whole transfer;
//! - per-link bytes, request counts, busy cycles and queue-wait cycles
//!   are surfaced through [`crate::stats::SystemStats`].
//!
//! This is the substrate of the paper's second channel family: a
//! bandwidth trojan saturating one link is observable to any tenant whose
//! route shares that link, purely through the tenant's own transfer
//! latency — no shared cache set required
//! (`gpubox_attacks::covert::LinkCongestionMedium`).
//!
//! # QoS / defence layer
//!
//! Every link grant can optionally pass through the QoS pipeline of
//! [`crate::qos`] before booking its occupancy window — the defence
//! side of the congestion channel (per-tenant token-bucket **rate
//! limiting**, epoch **pacing** / seeded grant **jitter**, and
//! **valiant routing** that detours lines through pseudo-random
//! intermediates). The whole layer sits behind [`FabricConfig::qos`]
//! and is off by default: a [`QosConfig::off`] fabric is bit-identical
//! to the undefended model, and the per-hop service order is always
//! *token release → shaping → occupancy wait*. See the [`crate::qos`]
//! module docs for the defence taxonomy and
//! `ext_fabric_defense` for the security/performance frontier measured
//! against both covert-channel families.
//!
//! # Determinism and cost
//!
//! The fabric consumes **no RNG** and performs **no allocation** after
//! construction: routes are precomputed [`LinkId`] slices inside
//! [`Topology`], and traversal walks them updating fixed-size arrays
//! (QoS token buckets are preallocated per process at
//! `create_process` time; jitter and valiant picks come from
//! counter-indexed splitmix64 streams, not the system RNG). With
//! [`FabricConfig::enabled`]`== false` (the default) the fabric is
//! never consulted and simulations are bit-identical to the pre-fabric
//! model — asserted against a golden fingerprint in `sim_benches`.

use crate::fault::{FaultPlan, FaultState};
use crate::qos::{QosConfig, QosState};
use crate::stats::SystemStats;
use crate::system::ProcessId;
use crate::telemetry::{TraceKind, TraceSink};
use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};

/// Fabric model configuration.
///
/// Defaults to *disabled*, which reproduces the scalar interconnect model
/// exactly (no latency terms, no bookkeeping). [`FabricConfig::nvlink_v1`]
/// enables the model with constants calibrated to the DGX-1's NVLink-V1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Whether remote accesses traverse the timed link model.
    pub enabled: bool,
    /// Cycles one NVLink link is occupied per 128 B line. NVLink-V1
    /// moves ~20 GB/s per link ≈ 13.5 B/cycle at 1.48 GHz, i.e. ~10
    /// cycles per line.
    pub nvlink_service_cycles_per_line: u32,
    /// Cycles the shared PCIe root complex is occupied per line (PCIe
    /// 3.0 x16 shared by all GPUs; far slower than a dedicated link).
    pub pcie_service_cycles_per_line: u32,
    /// Whether each NVLink edge models its two directions as independent
    /// occupancy windows (NVLink is full-duplex: each direction has its
    /// own lanes, so an `a → b` stream does not serialise against
    /// `b → a` traffic). `false` — the default, and the PR 3 behaviour
    /// every golden fingerprint was captured under — shares one window
    /// per edge, modelling a half-duplex link. Per-direction
    /// bytes/requests/busy/queue *counters* are maintained in
    /// [`SystemStats`] either way; only the timing changes.
    pub per_direction: bool,
    /// QoS / defence layer (rate limiting, shaping, valiant routing);
    /// [`QosConfig::off`] — the default — reproduces the undefended
    /// fabric bit-for-bit.
    pub qos: QosConfig,
    /// Deterministic fault-injection plan ([`crate::fault`]): scheduled
    /// link outages with per-epoch rerouting, degraded links and seeded
    /// transient stalls. [`FaultPlan::none`] — the default — reproduces
    /// the healthy fabric bit-for-bit.
    pub faults: FaultPlan,
}

impl FabricConfig {
    /// Disabled fabric: the scalar PR 2 interconnect model.
    pub fn disabled() -> Self {
        FabricConfig {
            enabled: false,
            nvlink_service_cycles_per_line: 0,
            pcie_service_cycles_per_line: 0,
            per_direction: false,
            qos: QosConfig::off(),
            faults: FaultPlan::none(),
        }
    }

    /// Enabled fabric with NVLink-V1 / PCIe-3.0 constants.
    pub fn nvlink_v1() -> Self {
        FabricConfig {
            enabled: true,
            nvlink_service_cycles_per_line: 10,
            pcie_service_cycles_per_line: 60,
            per_direction: false,
            qos: QosConfig::off(),
            faults: FaultPlan::none(),
        }
    }

    /// Enables full-duplex links (builder-style): independent occupancy
    /// windows per direction.
    #[must_use]
    pub fn with_per_direction(mut self) -> Self {
        self.per_direction = true;
        self
    }

    /// Replaces the QoS / defence configuration (builder-style).
    #[must_use]
    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = qos;
        self
    }

    /// Replaces the fault-injection plan (builder-style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::disabled()
    }
}

/// Runtime occupancy state of every link plus the PCIe root complex.
#[derive(Debug, Clone)]
pub struct Fabric {
    enabled: bool,
    per_direction: bool,
    nv_service: u64,
    pcie_service: u64,
    /// Cycle until which each NVLink link (or link direction) is busy.
    /// One entry per link in shared-window mode; two consecutive entries
    /// per link (`2·link + direction`) in per-direction mode.
    busy_until: Vec<u64>,
    /// Cycle until which the shared PCIe root complex is busy.
    pcie_busy_until: u64,
    /// Whether any QoS component is active (fast path check).
    qos_enabled: bool,
    /// `(tenant, link)` scope of the rate-limit / shaping pipeline;
    /// `scope_all` short-circuits the per-hop mask test for the
    /// default (always-on) scope.
    qos_scope: crate::qos::QosScope,
    scope_all: bool,
    /// QoS / defence runtime state (token buckets, shaping streams,
    /// valiant counters); inert when `qos_enabled` is false.
    qos: QosState,
    /// Fault-injection runtime state ([`crate::fault`]): per-link
    /// outage/degradation windows and the transient-stall stream.
    /// `None` — the healthy fabric — costs nothing per hop.
    faults: Option<FaultState>,
}

impl Fabric {
    /// Builds the fabric state for a topology (one occupancy window per
    /// link, or two in [`FabricConfig::per_direction`] mode). A disabled
    /// config allocates no per-link state.
    ///
    /// # Panics
    ///
    /// Panics when the config carries an invalid [`FaultPlan`]
    /// ([`FaultPlan::validate`]) or one naming a link the topology does
    /// not have.
    pub fn new(topo: &Topology, cfg: &FabricConfig) -> Self {
        let windows = topo.num_links() * if cfg.per_direction { 2 } else { 1 };
        Fabric {
            enabled: cfg.enabled,
            per_direction: cfg.per_direction,
            nv_service: u64::from(cfg.nvlink_service_cycles_per_line),
            pcie_service: u64::from(cfg.pcie_service_cycles_per_line),
            busy_until: if cfg.enabled { vec![0; windows] } else { Vec::new() },
            pcie_busy_until: 0,
            qos_enabled: cfg.enabled && cfg.qos.enabled(),
            qos_scope: cfg.qos.scope,
            scope_all: cfg.qos.scope.is_all(),
            qos: QosState::new(&cfg.qos, topo, windows),
            faults: (cfg.enabled && cfg.faults.enabled())
                .then(|| FaultState::new(&cfg.faults, topo.num_links())),
        }
    }

    /// Whether the timed link model is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether any QoS / defence component is active.
    pub fn qos_enabled(&self) -> bool {
        self.qos_enabled
    }

    /// Registers one more process with the QoS layer (its token buckets
    /// start full). [`crate::MultiGpuSystem::create_process`] calls this
    /// for every process; direct [`Fabric`] users driving
    /// [`Fabric::traverse`] with rate limiting enabled must do the same
    /// for every [`ProcessId`] they pass.
    pub fn register_process(&mut self) {
        self.qos.register_process();
    }

    /// Clears all occupancy windows and QoS state (engine runs restart
    /// agent clocks at zero, so stale absolute timestamps must not leak
    /// across runs; token buckets refill and the shaping/valiant
    /// streams rewind).
    pub fn reset(&mut self) {
        for b in &mut self.busy_until {
            *b = 0;
        }
        self.pcie_busy_until = 0;
        self.qos.reset();
        if let Some(f) = &mut self.faults {
            f.reset();
        }
    }

    /// Picks (and consumes one counter tick of) the valiant
    /// intermediate for a `src → dst` line, when
    /// [`crate::qos::RoutingPolicy::Valiant`] is configured and the
    /// topology admits one; `None` means the canonical path is used.
    #[inline]
    pub fn valiant_pick(
        &mut self,
        topo: &Topology,
        src: crate::address::GpuId,
        dst: crate::address::GpuId,
    ) -> Option<crate::address::GpuId> {
        if !self.qos_enabled {
            return None;
        }
        self.qos.valiant_pick(topo, src, dst)
    }

    /// Sends one line along `path` starting at cycle `now`, store-and-
    /// forward across every link. `dirs` gives each hop's traversal
    /// direction (from [`Topology::path_dirs`], aligned with `path`):
    /// in shared-window mode it only routes the per-direction statistics,
    /// in [`FabricConfig::per_direction`] mode it also selects which of
    /// the link's two occupancy windows the hop books. `pid` is the
    /// tenant charged by the QoS layer's token buckets (unused when QoS
    /// is off). When a [`FaultPlan`] is active each hop first applies
    /// its faults — outage wait, then transient stall, then degraded
    /// service (see [`crate::fault`]) — and the delayed arrival then
    /// enters the QoS pipeline, which per hop is:
    ///
    /// - the **token bucket** decides whether the line is in budget.
    ///   An in-budget line books the occupancy window exactly like the
    ///   undefended fabric. An **over-budget** line is re-paced to its
    ///   refill horizon and crosses in the link's *spare capacity*
    ///   there: it completes at `horizon + service` but books no
    ///   occupancy window others could queue behind — the sustained
    ///   trickle (≤ the configured rate) neither saturates the link
    ///   observably nor (via the scalar `busy_until`) starves tenants
    ///   whose ops are processed later. The throttled tenant still
    ///   pays the full delay and self-clocks down to the sustained
    ///   rate.
    /// - **traffic shaping** perturbs the grant of in-budget lines
    ///   (when the link may start serving — bounded by the epoch /
    ///   jitter span);
    /// - the **occupancy wait** serialises in-budget grants against
    ///   each other.
    ///
    /// A link's `queue_cycles` keeps meaning "waited for the
    /// resource"; the QoS delays are broken out in
    /// [`crate::stats::QosStats`]. Returns the extra cycles beyond
    /// `now` until the line was delivered past the last link, and
    /// records per-link and per-direction bytes/busy/queue statistics.
    ///
    /// When `trace` is enabled each hop additionally emits
    /// [`TraceKind::HopServe`] plus per-cause fault/QoS delay records
    /// (attributed by diffing the stats counters around the fault and
    /// QoS sub-steps, so those layers need no hooks of their own). The
    /// hooks consume no RNG and change no timing — a traced run is
    /// bit-identical to an untraced one.
    ///
    /// Must only be called on an enabled fabric with a non-empty path.
    // The hot-path signature deliberately takes everything by argument
    // (no context struct) so the borrow checker can split the system's
    // fields at the call sites.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn traverse(
        &mut self,
        pid: ProcessId,
        path: &[LinkId],
        dirs: &[bool],
        now: u64,
        line_bytes: u64,
        stats: &mut SystemStats,
        trace: &mut TraceSink,
    ) -> u64 {
        debug_assert!(self.enabled, "traverse on a disabled fabric");
        debug_assert_eq!(path.len(), dirs.len(), "one direction bit per hop");
        let tracing = trace.is_enabled();
        let mut t = now;
        for (&l, &rev) in path.iter().zip(dirs) {
            let w = if self.per_direction {
                l.index() * 2 + usize::from(rev)
            } else {
                l.index()
            };
            // Faults first: a line reaching a down link waits out the
            // outage (stale routes stall mid-transfer), the transient
            // stall stream may delay it, and a degraded window inflates
            // this hop's service time. The (possibly delayed) arrival
            // then enters the QoS pipeline unchanged.
            let mut service = self.nv_service;
            if let Some(fs) = &mut self.faults {
                let before = if tracing {
                    *stats.fault()
                } else {
                    Default::default()
                };
                let arrived = t;
                let (arr, svc) = fs.apply_hop(l, t, self.nv_service, stats.fault_mut());
                t = arr;
                service = svc;
                if tracing {
                    let after = stats.fault();
                    let link = u64::from(l.0);
                    if after.down_waits > before.down_waits {
                        let wait = after.down_wait_cycles - before.down_wait_cycles;
                        trace.record(TraceKind::FaultDownWait, arrived, pid.0, wait, link);
                    }
                    if after.transient_stalls > before.transient_stalls {
                        let stall = after.stall_cycles - before.stall_cycles;
                        trace.record(TraceKind::FaultStall, arrived, pid.0, stall, link);
                    }
                    if after.degraded_hops > before.degraded_hops {
                        let extra = after.degraded_extra_cycles - before.degraded_extra_cycles;
                        trace.record(TraceKind::FaultDegraded, arrived, pid.0, extra, link);
                    }
                }
            }
            // Scoped QoS: the rate-limit / shaping pipeline only acts
            // on `(tenant, link)` pairs inside the configured scope —
            // the detect-then-throttle response narrows it to alarmed
            // links. The default all-ones scope takes the
            // `scope_all` short-circuit, bit-identical to PR 5.
            let qos_here =
                self.qos_enabled && (self.scope_all || self.qos_scope.covers(pid, l));
            let qos_before = if tracing && qos_here {
                *stats.qos()
            } else {
                Default::default()
            };
            let horizon = if qos_here {
                self.qos
                    .delivery_horizon(pid, w, t, line_bytes, stats.qos_mut())
            } else {
                t
            };
            let (start, queued, occupied) = if horizon > t {
                // Over budget: re-paced into spare capacity at the
                // refill horizon — no observable occupancy window, so
                // no busy/queue accounting either (utilisation keeps
                // meaning "cycles the bookable windows were held").
                (horizon, 0, 0)
            } else {
                let granted = if qos_here {
                    self.qos.shaped_grant(t, stats.qos_mut())
                } else {
                    t
                };
                let busy = &mut self.busy_until[w];
                let s = granted.max(*busy);
                *busy = s.saturating_add(service);
                (s, s - granted, service)
            };
            if tracing {
                let link = u64::from(l.0);
                if qos_here {
                    let after = stats.qos();
                    let throttle =
                        after.throttle_delay_cycles - qos_before.throttle_delay_cycles;
                    if throttle > 0 {
                        trace.record(TraceKind::QosThrottle, t, pid.0, throttle, link);
                    }
                    let pace = after.pacing_delay_cycles - qos_before.pacing_delay_cycles;
                    if pace > 0 {
                        trace.record(TraceKind::QosPace, t, pid.0, pace, link);
                    }
                    let jitter = after.jitter_delay_cycles - qos_before.jitter_delay_cycles;
                    if jitter > 0 {
                        trace.record(TraceKind::QosJitter, t, pid.0, jitter, link);
                    }
                }
                trace.record(TraceKind::HopServe, start, pid.0, link, queued);
            }
            let st = stats.link_mut(l);
            st.bytes += line_bytes;
            st.requests += 1;
            st.busy_cycles += occupied;
            st.queue_cycles += queued;
            let sd = stats.link_dir_mut(l, rev);
            sd.bytes += line_bytes;
            sd.requests += 1;
            sd.busy_cycles += occupied;
            sd.queue_cycles += queued;
            t = start.saturating_add(service);
        }
        t - now
    }

    /// Sends one line through the shared PCIe root complex starting at
    /// cycle `now`; returns the extra cycles beyond `now` (queue wait +
    /// serialisation) and records root-complex statistics (plus a
    /// [`TraceKind::PcieServe`] record when `trace` is enabled).
    #[inline]
    pub fn traverse_pcie(
        &mut self,
        pid: ProcessId,
        now: u64,
        line_bytes: u64,
        stats: &mut SystemStats,
        trace: &mut TraceSink,
    ) -> u64 {
        debug_assert!(self.enabled, "traverse on a disabled fabric");
        let start = now.max(self.pcie_busy_until);
        self.pcie_busy_until = start + self.pcie_service;
        trace.record(
            TraceKind::PcieServe,
            start,
            pid.0,
            start - now,
            self.pcie_service,
        );
        let st = stats.pcie_root_mut();
        st.bytes += line_bytes;
        st.requests += 1;
        st.busy_cycles += self.pcie_service;
        st.queue_cycles += start - now;
        start + self.pcie_service - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Topology, Fabric, SystemStats) {
        // 0-1-2 line: two links.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let fabric = Fabric::new(&topo, &FabricConfig::nvlink_v1());
        let stats = SystemStats::new(3, topo.num_links());
        (topo, fabric, stats)
    }

    /// `traverse` with the topology's own direction bits for the route.
    fn go(
        topo: &Topology,
        fabric: &mut Fabric,
        stats: &mut SystemStats,
        a: u8,
        b: u8,
        now: u64,
    ) -> u64 {
        use crate::address::GpuId;
        let (src, dst) = (GpuId::new(a), GpuId::new(b));
        fabric.traverse(
            ProcessId(0),
            topo.path(src, dst),
            topo.path_dirs(src, dst),
            now,
            128,
            stats,
            &mut TraceSink::disabled(),
        )
    }

    #[test]
    fn idle_links_cost_only_serialisation() {
        let (topo, mut fabric, mut stats) = fixture();
        let extra = go(&topo, &mut fabric, &mut stats, 0, 2, 1_000);
        assert_eq!(extra, 20, "two idle links: 2 x 10 service cycles");
        assert_eq!(stats.link(LinkId(0)).unwrap().queue_cycles, 0);
        assert_eq!(stats.link(LinkId(0)).unwrap().bytes, 128);
    }

    #[test]
    fn back_to_back_lines_queue_on_the_link() {
        use crate::address::GpuId;
        let (topo, mut fabric, mut stats) = fixture();
        // Three lines all arriving at cycle 0: FCFS serialisation.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 20);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 30);
        let l = stats.link(topo.link_between(GpuId::new(0), GpuId::new(1)).unwrap());
        assert_eq!(l.unwrap().queue_cycles, 10 + 20);
        assert_eq!(l.unwrap().busy_cycles, 30);
    }

    #[test]
    fn store_and_forward_propagates_congestion() {
        let (topo, mut fabric, mut stats) = fixture();
        // Saturate link (1,2) directly.
        go(&topo, &mut fabric, &mut stats, 1, 2, 0); // busy until 10
        go(&topo, &mut fabric, &mut stats, 1, 2, 0); // busy until 20
        // A 2-hop transfer 0->2 at cycle 0: link (0,1) free (10 cycles),
        // arrives at (1,2) at 10, waits until 20, departs 30.
        let extra = go(&topo, &mut fabric, &mut stats, 0, 2, 0);
        assert_eq!(extra, 30);
    }

    #[test]
    fn shared_window_serialises_opposing_directions() {
        use crate::address::GpuId;
        let (topo, mut fabric, mut stats) = fixture();
        // Default (half-duplex) mode: a 1->0 line queues behind a 0->1
        // line on the same edge.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 1, 0, 0), 20);
        // Both directions were counted separately even in shared mode.
        let l = topo.link_between(GpuId::new(0), GpuId::new(1)).unwrap();
        let fwd = stats.link_dir(l, false).unwrap();
        let rev = stats.link_dir(l, true).unwrap();
        assert_eq!((fwd.requests, fwd.queue_cycles), (1, 0));
        assert_eq!((rev.requests, rev.queue_cycles), (1, 10));
        assert_eq!(stats.link(l).unwrap().requests, 2, "aggregate still kept");
    }

    #[test]
    fn per_direction_windows_are_independent() {
        use crate::address::GpuId;
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut fabric = Fabric::new(&topo, &FabricConfig::nvlink_v1().with_per_direction());
        let mut stats = SystemStats::new(3, topo.num_links());
        // Full-duplex mode: opposing directions never queue on each other…
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 1, 0, 0), 10);
        // …but same-direction traffic still does.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 20);
        let l = topo.link_between(GpuId::new(0), GpuId::new(1)).unwrap();
        assert_eq!(stats.link_dir(l, false).unwrap().queue_cycles, 10);
        assert_eq!(stats.link_dir(l, true).unwrap().queue_cycles, 0);
        assert_eq!(stats.link(l).unwrap().busy_cycles, 30);
    }

    #[test]
    fn pcie_root_complex_is_one_shared_queue() {
        let (_topo, mut fabric, mut stats) = fixture();
        let mut trace = TraceSink::disabled();
        assert_eq!(
            fabric.traverse_pcie(ProcessId(0), 0, 128, &mut stats, &mut trace),
            60
        );
        assert_eq!(
            fabric.traverse_pcie(ProcessId(0), 0, 128, &mut stats, &mut trace),
            120
        );
        assert_eq!(stats.pcie_root().queue_cycles, 60);
        assert_eq!(stats.pcie_root().bytes, 256);
    }

    #[test]
    fn reset_clears_occupancy() {
        let (topo, mut fabric, mut stats) = fixture();
        go(&topo, &mut fabric, &mut stats, 0, 1, 0);
        go(&topo, &mut fabric, &mut stats, 0, 1, 0);
        fabric.reset();
        assert_eq!(
            go(&topo, &mut fabric, &mut stats, 0, 1, 0),
            10,
            "post-reset traversal sees idle links"
        );
    }

    #[test]
    fn rate_limited_traversals_wait_for_the_refill_horizon() {
        use crate::qos::QosConfig;
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        // 128 B burst, 128 B/kcycle sustained: the second back-to-back
        // line on a link waits 1024 cycles for its tokens.
        let cfg = FabricConfig::nvlink_v1()
            .with_qos(QosConfig::off().with_rate_limit(128, 128));
        let mut fabric = Fabric::new(&topo, &cfg);
        fabric.register_process();
        let mut stats = SystemStats::new(3, topo.num_links());
        assert!(fabric.qos_enabled());
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        // The second line is over budget: re-paced to its refill
        // horizon, crossing in spare capacity there.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 1024 + 10);
        let q = stats.qos();
        assert_eq!(q.passed_bytes, 128);
        assert_eq!(q.shaped_bytes, 128);
        assert_eq!(q.throttle_delay_cycles, 1024);
        // Flow regulation: the shaped line occupied no observable
        // window (no queue wait, no busy cycles), so later tenants can
        // never queue behind the token wait and utilisation stays a
        // true occupancy measure.
        assert_eq!(stats.link(LinkId(0)).unwrap().queue_cycles, 0);
        assert_eq!(stats.link(LinkId(0)).unwrap().busy_cycles, 10);
        assert_eq!(stats.link(LinkId(0)).unwrap().bytes, 256, "bytes still counted");
    }

    #[test]
    fn scoped_qos_only_throttles_covered_pairs() {
        use crate::qos::{QosConfig, QosScope};
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        // Rate limit scoped to link 1 only: link 0 traffic is never
        // touched, link 1 traffic pays the refill horizon.
        let cfg = FabricConfig::nvlink_v1().with_qos(
            QosConfig::off()
                .with_rate_limit(128, 128)
                .with_scope(QosScope::links_mask(0b10)),
        );
        let mut fabric = Fabric::new(&topo, &cfg);
        fabric.register_process();
        let mut stats = SystemStats::new(3, topo.num_links());
        // Two back-to-back lines over link 0 (out of scope): second
        // queues on occupancy, no throttle.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 20);
        assert_eq!(stats.qos().throttle_delay_cycles, 0);
        // Two back-to-back lines over link 1 (in scope): second is
        // re-paced to the token refill horizon.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 1, 2, 0), 10);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 1, 2, 0), 1024 + 10);
        assert_eq!(stats.qos().throttle_delay_cycles, 1024);
    }

    #[test]
    fn scoped_qos_exempts_uncovered_tenants() {
        use crate::qos::{QosConfig, QosScope};
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        // Only tenant 1 is throttled.
        let scope = QosScope {
            tenants: 0b10,
            links: u64::MAX,
        };
        let cfg = FabricConfig::nvlink_v1()
            .with_qos(QosConfig::off().with_rate_limit(128, 128).with_scope(scope));
        let mut fabric = Fabric::new(&topo, &cfg);
        fabric.register_process();
        fabric.register_process();
        let mut stats = SystemStats::new(3, topo.num_links());
        let mut trace = TraceSink::disabled();
        let (src, dst) = (crate::address::GpuId::new(0), crate::address::GpuId::new(1));
        let mut send = |pid: u32, now: u64, fabric: &mut Fabric, stats: &mut SystemStats| {
            fabric.traverse(
                ProcessId(pid),
                topo.path(src, dst),
                topo.path_dirs(src, dst),
                now,
                128,
                stats,
                &mut trace,
            )
        };
        // Tenant 0 is out of scope: back-to-back lines only queue on
        // occupancy (latency 10 then 20), never on tokens.
        assert_eq!(send(0, 0, &mut fabric, &mut stats), 10);
        assert_eq!(send(0, 0, &mut fabric, &mut stats), 20);
        assert_eq!(stats.qos().throttle_delay_cycles, 0);
        // Tenant 1 is in scope: its second line hits the rate limit.
        assert_eq!(send(1, 2000, &mut fabric, &mut stats), 10);
        assert!(send(1, 2000, &mut fabric, &mut stats) >= 1024);
        assert!(stats.qos().throttle_delay_cycles > 0);
    }

    #[test]
    fn default_scope_matches_unscoped_qos_bit_for_bit() {
        use crate::qos::{QosConfig, QosScope};
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let base = QosConfig::off().with_rate_limit(128, 256).with_pacing(500);
        let run = |qos: QosConfig| {
            let cfg = FabricConfig::nvlink_v1().with_qos(qos);
            let mut fabric = Fabric::new(&topo, &cfg);
            fabric.register_process();
            let mut stats = SystemStats::new(3, topo.num_links());
            let mut out = Vec::new();
            for i in 0..6 {
                out.push(go(&topo, &mut fabric, &mut stats, 0, 2, i * 37));
            }
            (out, *stats.qos())
        };
        assert_eq!(run(base), run(base.with_scope(QosScope::all())));
    }

    #[test]
    fn paced_traversals_start_on_epoch_boundaries() {
        use crate::qos::QosConfig;
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = FabricConfig::nvlink_v1().with_qos(QosConfig::off().with_pacing(1000));
        let mut fabric = Fabric::new(&topo, &cfg);
        let mut stats = SystemStats::new(3, topo.num_links());
        // Arrives at 1: granted at the next epoch boundary (1000).
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 1), 1000 - 1 + 10);
        assert_eq!(stats.qos().pacing_delay_cycles, 999);
        // A 2-hop line pays the grid on every hop: first hop granted at
        // 2000 (busy until 2010), second arrives 2010, granted 3000.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 2, 1500), 3010 - 1500);
    }

    #[test]
    fn qos_off_config_keeps_fabric_behaviour_and_counters() {
        let (topo, mut fabric, mut stats) = fixture();
        assert!(!fabric.qos_enabled());
        go(&topo, &mut fabric, &mut stats, 0, 2, 0);
        assert_eq!(*stats.qos(), crate::stats::QosStats::default());
        assert_eq!(*stats.fault(), crate::stats::FaultStats::default());
    }

    #[test]
    fn down_link_stalls_lines_until_recovery() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        // Link (0,1) down over [100, 400).
        let cfg = FabricConfig::nvlink_v1()
            .with_faults(FaultPlan::none().with_link_down(0, 100, 400));
        let mut fabric = Fabric::new(&topo, &cfg);
        let mut stats = SystemStats::new(3, topo.num_links());
        // Before the outage: the healthy cost.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 10);
        // During: the line waits at the dead link until 400, then serves.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 150), 400 - 150 + 10);
        let f = stats.fault();
        assert_eq!(f.down_waits, 1);
        assert_eq!(f.down_wait_cycles, 250);
        // Other links are untouched by the outage.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 1, 2, 150), 10);
    }

    #[test]
    fn degraded_link_serves_at_the_multiplier() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = FabricConfig::nvlink_v1()
            .with_faults(FaultPlan::none().with_degraded(0, 0, 1_000, 4));
        let mut fabric = Fabric::new(&topo, &cfg);
        let mut stats = SystemStats::new(3, topo.num_links());
        // 4× service while degraded, and the inflated occupancy windows
        // queue follow-up lines 4× further out.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 40);
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 0), 80);
        assert_eq!(stats.link(LinkId(0)).unwrap().busy_cycles, 80);
        assert_eq!(stats.fault().degraded_hops, 2);
        assert_eq!(stats.fault().degraded_extra_cycles, 60);
        // After the window the link is healthy again.
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 2_000), 10);
    }

    #[test]
    fn transient_stalls_hit_deterministically_and_reset_rewinds() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        // per_1024 = 1024: every hop stalls, so the cost is exact.
        let cfg = FabricConfig::nvlink_v1()
            .with_faults(FaultPlan::none().with_stalls(7, 1024, 5));
        let mut fabric = Fabric::new(&topo, &cfg);
        let mut stats = SystemStats::new(3, topo.num_links());
        assert_eq!(go(&topo, &mut fabric, &mut stats, 0, 1, 1_000), 15);
        assert_eq!(stats.fault().transient_stalls, 1);
        assert_eq!(stats.fault().stall_cycles, 5);
        // A fractional rate replays bit-identically after reset.
        let cfg = FabricConfig::nvlink_v1()
            .with_faults(FaultPlan::none().with_stalls(7, 512, 5));
        let mut fabric = Fabric::new(&topo, &cfg);
        let run = |fabric: &mut Fabric, stats: &mut SystemStats| -> Vec<u64> {
            (0..32)
                .map(|i| go(&topo, fabric, stats, 0, 2, i * 10_000))
                .collect()
        };
        let first = run(&mut fabric, &mut stats);
        fabric.reset();
        let second = run(&mut fabric, &mut stats);
        assert_eq!(first, second);
        assert!(first.iter().any(|&x| x > 20), "some hops stalled");
        assert!(first.contains(&20), "some hops passed clean");
    }

    #[test]
    #[should_panic(expected = "link outage must recover")]
    fn invalid_fault_plan_panics_at_construction() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let cfg = FabricConfig::nvlink_v1()
            .with_faults(FaultPlan::none().with_link_down(0, 50, 50));
        let _ = Fabric::new(&topo, &cfg);
    }

    #[test]
    fn fault_plan_on_disabled_fabric_is_inert() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let cfg = FabricConfig::disabled()
            .with_faults(FaultPlan::none().with_link_down(0, 0, 100));
        let fabric = Fabric::new(&topo, &cfg);
        assert!(!fabric.enabled());
    }
}
