//! The multi-GPU box: processes, the NUMA access path, and ground truth.
//!
//! [`MultiGpuSystem`] implements the behaviour the paper reverse engineers
//! (Sec. III): an access to a virtual address is translated to a physical
//! frame on its *home* GPU; the request travels over NVLink if the home GPU
//! differs from the issuing GPU; it is then looked up in **the home GPU's
//! L2** (never the local one — caching locally would require coherence);
//! the latency seen by the issuing warp encodes route × hit/miss.

use crate::address::{GpuId, PhysAddr, PhysLoc, SetIndex, VirtAddr};
use crate::cache::L2Cache;
use crate::config::SystemConfig;
use crate::draw::{
    coin, indexed_draw, IndexedRng, SALT_CONGESTION, SALT_GPU_STREAM, SALT_JITTER, SALT_SPIKE,
    SALT_VICTIM,
};
use crate::error::{SimError, SimResult};
use crate::fabric::Fabric;
use crate::fault::{build_epochs, FaultEpoch, FaultPlan};
use crate::memory::Hbm;
use crate::pressure::PressureTracker;
use crate::sm::{KernelId, KernelLaunch, SmArray};
use crate::stats::{LinkStats, SystemStats};
use crate::telemetry::{TraceKind, TraceSink};
use crate::timing::LatencyModel;
use crate::topology::{LinkId, LinkKind, Route};
use crate::vm::{AddressSpace, Mapping};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Handle to a process created on the box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Identifier of an issuing agent (a thread block / concurrent actor) used
/// for contention accounting. Each process gets a default agent; the event
/// engine assigns one per concurrent agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub u32);

/// Ground-truth annotation of one access. **Attack code must not consult
/// this** — it exists for tests, calibration and experiment bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOracle {
    /// Whether the access hit in the home GPU's L2.
    pub hit: bool,
    /// Home GPU that served the access.
    pub home: GpuId,
    /// Cache set the line maps to.
    pub set: SetIndex,
    /// Route the request took.
    pub route: Route,
}

/// Result of one timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The 8-byte word read (for stores, the value written).
    pub value: u64,
    /// Latency in cycles as a `clock()`-style measurement would see it.
    pub latency: u32,
    /// Ground truth (not available to a real attacker).
    pub oracle: AccessOracle,
}

/// Default per-process TLB entries: an eviction-set probe touches one
/// line per page, so a 16-way probe walks 16 distinct pages — 64 entries
/// keep a trojan/spy pair's working sets resident simultaneously.
const DEFAULT_TLB_ENTRIES: usize = 64;

/// Direct-mapped software TLB over a process's page table, indexed by
/// `vpn & mask`. This is a *simulator implementation* cache, not modelled
/// hardware: its size has no observable effect on simulated latencies or
/// random draws, only on host-side speed. The one-entry version
/// (`entries == 1`) is the benches' baseline rung.
#[derive(Debug, Clone)]
struct DirectTlb {
    mask: u64,
    /// `(vpn, mapping)` per slot; vpn `u64::MAX` = empty.
    slots: Vec<(u64, Mapping)>,
}

impl DirectTlb {
    fn new(entries: usize, home: GpuId) -> Self {
        assert!(
            entries.is_power_of_two(),
            "TLB entries must be a power of two, got {entries}"
        );
        DirectTlb {
            mask: entries as u64 - 1,
            slots: vec![
                (
                    u64::MAX,
                    Mapping {
                        gpu: home,
                        frame_base: PhysAddr(0),
                    }
                );
                entries
            ],
        }
    }
}

#[derive(Debug)]
struct Process {
    home: GpuId,
    aspace: AddressSpace,
    peers: HashSet<GpuId>,
    /// MIG-style L2 partition `(index, count)` this process is confined
    /// to, if the defence of paper Sec. VII is enabled.
    partition: Option<(u32, u32)>,
    /// Software TLB over the page table: probe loops walk one line per
    /// page across a small set of pages, so the access paths almost never
    /// pay the full page-table lookup. Mappings are immutable once
    /// created and peer grants are never revoked, so a cached entry never
    /// goes stale.
    tlb: DirectTlb,
}

impl Process {
    /// TLB-cached page translation with the peer-access check — the
    /// single source of truth for both the scalar and the batched access
    /// paths. Entries are cached only after passing the peer check, so a
    /// TLB hit needs no re-check (grants are never revoked).
    ///
    /// `va` is only used to name the faulting address in errors.
    #[inline]
    fn translate_page(&mut self, vpn: u64, va: VirtAddr) -> SimResult<Mapping> {
        let slot = (vpn & self.tlb.mask) as usize;
        let e = self.tlb.slots[slot];
        if e.0 == vpn {
            return Ok(e.1);
        }
        let m = self
            .aspace
            .lookup_page(vpn)
            .ok_or(SimError::UnmappedAddress(va))?;
        if m.gpu != self.home && !self.peers.contains(&m.gpu) {
            return Err(SimError::PeerAccessNotEnabled { remote: m.gpu });
        }
        self.tlb.slots[slot] = (vpn, m);
        Ok(m)
    }
}

#[derive(Debug)]
struct GpuDevice {
    l2: L2Cache,
    hbm: Hbm,
    sms: SmArray,
}

/// The simulated multi-GPU machine.
#[derive(Debug)]
pub struct MultiGpuSystem {
    cfg: SystemConfig,
    gpus: Vec<GpuDevice>,
    processes: Vec<Process>,
    latency: LatencyModel,
    pressure: Vec<PressureTracker>,
    remote_pressure: Vec<PressureTracker>,
    congested_until: Vec<u64>,
    /// Timed per-link interconnect state; inert when the config leaves
    /// the fabric disabled (the scalar PR 2 model).
    fabric: Fabric,
    /// Precomputed routing epochs of the fault plan's scheduled link
    /// outages ([`crate::fault`]), sorted by start cycle; empty — the
    /// common case — means "always route canonically". Rebuilt by
    /// [`MultiGpuSystem::set_fault_plan`]; the per-access lookup is a
    /// binary search, so the steady state stays allocation-free.
    fault_epochs: Vec<FaultEpoch>,
    stats: SystemStats,
    /// Cycle-accurate event tracer ([`crate::telemetry`]). Disabled by
    /// default: every hook is then one branch, no draws, no timing change
    /// — a traced run is bit-identical to an untraced one either way.
    trace: TraceSink,
    /// Frame placement stream ([`Hbm::alloc_frame`]) — its only consumer,
    /// so placement does not depend on how many accesses came before a
    /// `malloc`.
    rng: ChaCha8Rng,
    /// Per-home-GPU noise stream keys, derived from the phase key (the
    /// boot seed, or the seed [`MultiGpuSystem::canonicalize_phase`]
    /// derives).
    noise_keys: Vec<u64>,
    /// Per-home-GPU access counters: access `i` homed on GPU `g` draws
    /// every random decision at `(noise_keys[g], salt, i)`.
    noise_index: Vec<u64>,
    next_agent: u32,
    tlb_entries: usize,
    /// Whether contention bookkeeping can ever be observed. False for
    /// noiseless configs (`contention_per_actor`, `contention_spike_prob`
    /// and `nvlink_queue_per_req` all zero): pressure then feeds no
    /// latency term, no congestion draw and no statistic, so the window
    /// trackers are skipped entirely (and not even built).
    track_pressure: bool,
}

impl MultiGpuSystem {
    /// Boots a box from a configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use gpubox_sim::{MultiGpuSystem, SystemConfig, GpuId};
    /// let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
    /// let pid = sys.create_process(GpuId::new(0));
    /// let buf = sys.malloc_on(pid, GpuId::new(0), 4096)?;
    /// let acc = sys.access(pid, sys.default_agent(pid), buf, 0, None)?;
    /// assert!(!acc.oracle.hit); // cold access misses
    /// # Ok::<(), gpubox_sim::SimError>(())
    /// ```
    pub fn new(cfg: SystemConfig) -> Self {
        let gpus = (0..cfg.num_gpus)
            .map(|i| GpuDevice {
                l2: L2Cache::new(&cfg.cache),
                hbm: Hbm::new(GpuId::new(i), cfg.hbm_bytes, cfg.page_size),
                sms: SmArray::new(cfg.sm.clone()),
            })
            .collect();
        let latency = LatencyModel::new(cfg.timing.clone());
        let track_pressure = cfg.timing.contention_per_actor > 0
            || cfg.timing.contention_spike_prob > 0.0
            || cfg.timing.nvlink_queue_per_req > 0;
        // Untracked boxes never index the trackers, so they get none.
        let trackers = if track_pressure { cfg.num_gpus } else { 0 };
        let pressure = (0..trackers).map(|_| PressureTracker::default()).collect();
        let remote_pressure = (0..trackers).map(|_| PressureTracker::default()).collect();
        let congested_until = vec![0u64; cfg.num_gpus as usize];
        let fabric = Fabric::new(&cfg.topology, &cfg.fabric);
        let fault_epochs = if cfg.fabric.enabled {
            build_epochs(&cfg.fabric.faults, &cfg.topology)
        } else {
            Vec::new()
        };
        let stats = SystemStats::new(cfg.num_gpus, cfg.topology.num_links());
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let seed = cfg.seed;
        let gpus_n = cfg.num_gpus as usize;
        let mut sys = MultiGpuSystem {
            cfg,
            gpus,
            processes: Vec::new(),
            latency,
            pressure,
            remote_pressure,
            congested_until,
            fabric,
            fault_epochs,
            stats,
            trace: TraceSink::disabled(),
            rng,
            noise_keys: vec![0; gpus_n],
            noise_index: vec![0; gpus_n],
            next_agent: 0,
            tlb_entries: DEFAULT_TLB_ENTRIES,
            track_pressure,
        };
        sys.rekey_noise(seed);
        sys
    }

    /// Derives every GPU's noise stream key from `phase_key` and restarts
    /// the access counters.
    fn rekey_noise(&mut self, phase_key: u64) {
        for (g, k) in self.noise_keys.iter_mut().enumerate() {
            *k = indexed_draw(phase_key, SALT_GPU_STREAM, g as u64);
        }
        self.noise_index.fill(0);
    }

    /// Resizes every process's software TLB (and that of processes created
    /// later) to `entries` slots (a power of two).
    ///
    /// This is a host-side performance knob only: simulated latencies,
    /// cache state and random draws are bit-identical for every size
    /// (`tlb_size_never_changes_observable_results` checks it).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[cfg(test)]
    pub(crate) fn set_tlb_entries(&mut self, entries: usize) {
        self.tlb_entries = entries;
        for p in &mut self.processes {
            p.tlb = DirectTlb::new(entries, p.home);
        }
    }

    /// The configuration this box was booted with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The latency model (for cycle→seconds conversion etc.).
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Resets statistics counters (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The cycle-accurate event tracer (read side: drain
    /// [`TraceSink::records`] for export).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the tracer, for pipeline-level events recorded
    /// outside the box (the covert transport does this) or for
    /// clearing/disabling it.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Enables cycle-accurate event tracing into a preallocated ring of
    /// at least `capacity` records (see [`crate::telemetry`]). This is
    /// the tracer's only allocation: recording afterwards is
    /// allocation-free, draws nothing and changes no timing, so a
    /// traced run stays bit-identical to an untraced one.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// Whether event tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Clears transient timing state (pressure windows, congestion
    /// episodes, fabric link occupancy). Agent-local clocks restart from
    /// zero for every [`crate::engine::Engine`] run, so stale timestamps
    /// from a previous run must not leak into the next one; the engine
    /// calls this on construction.
    ///
    /// The per-GPU noise counters keep running: rewinding them here would
    /// replay identical jitter on every engine run. Only
    /// [`MultiGpuSystem::canonicalize_phase`] restarts them.
    pub fn reset_timing_state(&mut self) {
        for t in &mut self.pressure {
            t.clear();
        }
        for t in &mut self.remote_pressure {
            t.clear();
        }
        for c in &mut self.congested_until {
            *c = 0;
        }
        self.fabric.reset();
    }

    /// Collapses the box to a canonical phase boundary: flushes every
    /// GPU's L2 (contents and per-set counters), clears transient timing
    /// state, resets statistics, reseeds the frame-placement RNG and
    /// re-keys the access noise streams (counters back to zero), both
    /// deterministically from `cfg.seed ^ tag` (splitmix64-mixed so
    /// distinct tags give unrelated streams).
    ///
    /// The point is *path-independence*: two runs that reach the same
    /// boundary with the same processes and allocations — no matter how
    /// many accesses each issued to get there — behave bit-identically
    /// afterwards. The offline-phase cache relies on this: a prepare that
    /// reuses cached page classes (issuing no discovery accesses) and one
    /// that derives them from scratch canonicalise to the same state, so
    /// downstream channel output is asserted equal. Frame placement is
    /// the one piece of history that survives (allocations are not
    /// undone), which is why both paths must malloc identically first.
    pub fn canonicalize_phase(&mut self, tag: u64) {
        // Node pooling (fleet) recycles a box through this boundary and
        // asserts the next tenant epoch is bit-identical to a freshly
        // built node's, so everything observable must rewind: the trace
        // ring is emptied (enablement and storage kept — the boundary's
        // own PhaseMark becomes record zero, exactly as on a fresh node)
        // and the agent-id counter restarts.
        self.trace.clear();
        self.next_agent = 0;
        self.trace
            .record(TraceKind::PhaseMark, 0, crate::telemetry::NO_PROCESS, tag, 0);
        for g in &mut self.gpus {
            g.l2.flush();
        }
        self.reset_timing_state();
        self.reset_stats();
        let mut z = (self.cfg.seed ^ tag).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let phase_key = z ^ (z >> 31);
        self.rng = ChaCha8Rng::seed_from_u64(phase_key);
        self.rekey_noise(phase_key);
    }

    /// Whether the timed per-link fabric model is active.
    pub fn fabric_enabled(&self) -> bool {
        self.fabric.enabled()
    }

    /// Deploys (or retracts) a fabric QoS / defence configuration
    /// **at runtime**: rate limiting, traffic shaping and valiant
    /// routing take effect from the next access on, with fresh token
    /// buckets for every existing process. This is the
    /// "defence switched on after the attacker calibrated" scenario of
    /// `ext_fabric_defense`; bake the config into
    /// [`crate::fabric::FabricConfig::with_qos`] instead when the
    /// offline attack phase should re-derive its thresholds under the
    /// defence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FabricDisabled`] when the system was booted
    /// without the timed link fabric — QoS has nothing to act on
    /// there — and [`SimError::InvalidQosConfig`] for degenerate
    /// parameters (zero rate, epoch or span).
    pub fn set_qos(&mut self, qos: crate::qos::QosConfig) -> SimResult<()> {
        if !self.fabric.enabled() {
            return Err(SimError::FabricDisabled);
        }
        qos.validate().map_err(SimError::InvalidQosConfig)?;
        self.cfg.fabric.qos = qos;
        self.fabric = Fabric::new(&self.cfg.topology, &self.cfg.fabric);
        for _ in 0..self.processes.len() {
            self.fabric.register_process();
        }
        Ok(())
    }

    /// Deploys (or retracts, with [`FaultPlan::none`]) a fault-injection
    /// plan **at runtime**: scheduled link outages (with per-epoch
    /// rerouting and PCIe fallback), degraded links and seeded transient
    /// stalls take effect from the next access on. Fabric occupancy
    /// state is rebuilt (token buckets refill for every existing
    /// process) and the outage routing epochs are precomputed here, so
    /// the access paths stay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FabricDisabled`] when the system was booted
    /// without the timed link fabric — faults have nothing to act on
    /// there — [`SimError::InvalidFaultPlan`] for degenerate parameters
    /// ([`FaultPlan::validate`]), and [`SimError::NoSuchLink`] when the
    /// plan names a link the topology does not have.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> SimResult<()> {
        if !self.fabric.enabled() {
            return Err(SimError::FabricDisabled);
        }
        plan.validate().map_err(SimError::InvalidFaultPlan)?;
        if let Some(l) = plan.max_link() {
            if (l as usize) >= self.cfg.topology.num_links() {
                return Err(SimError::NoSuchLink(l));
            }
        }
        self.cfg.fabric.faults = plan;
        self.fabric = Fabric::new(&self.cfg.topology, &self.cfg.fabric);
        for _ in 0..self.processes.len() {
            self.fabric.register_process();
        }
        self.fault_epochs = build_epochs(&self.cfg.fabric.faults, &self.cfg.topology);
        if self.trace.is_enabled() {
            // Put each *installed* outage window in the trace next to
            // the stalls later *observed* inside it.
            for d in &self.cfg.fabric.faults.link_downs {
                self.trace.record(
                    TraceKind::FaultEpoch,
                    d.at,
                    crate::telemetry::NO_PROCESS,
                    d.recover_at,
                    u64::from(d.link),
                );
            }
        }
        Ok(())
    }

    /// Epoch-aware route resolution: with no outage epochs (the common
    /// case, and always when faults are off) this is exactly
    /// [`crate::topology::Topology::route`] on the canonical topology.
    /// Otherwise the epoch covering `now` decides: the surviving graph's
    /// route (counting a reroute when it changed the canonical NVLink
    /// path), the PCIe root complex when the pair is partitioned, or —
    /// when the plan refuses the fallback — [`SimError::LinkDown`].
    fn resolve_route(
        &mut self,
        pid: ProcessId,
        issuer: GpuId,
        home: GpuId,
        now: u64,
    ) -> SimResult<Route> {
        if issuer == home || self.fault_epochs.is_empty() {
            return Ok(self.cfg.topology.route(issuer, home));
        }
        // Epochs start at cycle 0 and are sorted, so the partition point
        // is always ≥ 1.
        let idx = self.fault_epochs.partition_point(|e| e.start <= now) - 1;
        let ep = &self.fault_epochs[idx];
        let Some(topo) = &ep.topo else {
            return Ok(self.cfg.topology.route(issuer, home));
        };
        let route = topo.route(issuer, home);
        if self.cfg.topology.route(issuer, home).kind == LinkKind::NvLink {
            match route.kind {
                LinkKind::NvLink => {
                    if topo.path(issuer, home) != self.cfg.topology.path(issuer, home) {
                        self.stats.fault_mut().reroutes += 1;
                        self.trace.record(
                            TraceKind::FaultReroute,
                            now,
                            pid.0,
                            issuer.index() as u64,
                            home.index() as u64,
                        );
                    }
                }
                LinkKind::Pcie => {
                    if self.cfg.fabric.faults.pcie_fallback {
                        self.stats.fault_mut().pcie_fallbacks += 1;
                        self.trace.record(
                            TraceKind::PcieFallback,
                            now,
                            pid.0,
                            issuer.index() as u64,
                            home.index() as u64,
                        );
                    } else {
                        self.stats.fault_mut().refused_accesses += 1;
                        return Err(SimError::LinkDown(ep.first_down));
                    }
                }
                LinkKind::Local => {}
            }
        }
        Ok(route)
    }

    /// Counters of one NVLink link (bytes, requests, busy/queue cycles);
    /// all zero unless the fabric model is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchLink`] when the id is not a link of this
    /// system's topology.
    pub fn link_stats(&self, l: LinkId) -> SimResult<&LinkStats> {
        self.stats.link(l).ok_or(SimError::NoSuchLink(l.0))
    }

    /// Creates a process whose kernels run on `home`.
    ///
    /// # Panics
    ///
    /// Panics if `home` does not exist.
    pub fn create_process(&mut self, home: GpuId) -> ProcessId {
        assert!(home.index() < self.gpus.len(), "no such gpu {home}");
        let pid = ProcessId(self.processes.len() as u32);
        self.processes.push(Process {
            home,
            aspace: AddressSpace::new(self.cfg.page_size),
            peers: HashSet::new(),
            partition: None,
            tlb: DirectTlb::new(self.tlb_entries, home),
        });
        // The QoS layer's token buckets are per (process, link window):
        // allocating them here keeps the engine's steady-state loop
        // allocation-free.
        self.fabric.register_process();
        pid
    }

    /// The default contention agent of a process (one per process).
    pub fn default_agent(&self, pid: ProcessId) -> AgentId {
        AgentId(pid.0)
    }

    /// Allocates a fresh agent id for an additional concurrent actor
    /// (thread block) — used by the event engine.
    pub fn new_agent(&mut self) -> AgentId {
        self.next_agent += 1;
        AgentId(1_000_000 + self.next_agent)
    }

    /// The GPU a process's kernels run on.
    pub fn process_home(&self, pid: ProcessId) -> GpuId {
        self.processes[pid.0 as usize].home
    }

    /// Confines a process to MIG-style L2 partition `index` of `count`
    /// equal slices (the Sec. VII isolation defence). All of the process's
    /// lines — local or arriving over NVLink — cache only within its
    /// slice, so processes in different partitions cannot contend.
    ///
    /// # Panics
    ///
    /// Panics if `index >= count` or `count` is 0 or exceeds the set count.
    pub fn set_cache_partition(&mut self, pid: ProcessId, index: u32, count: u32) {
        assert!(count > 0 && index < count, "bad partition {index}/{count}");
        assert!(
            u64::from(count) <= self.cfg.cache.num_sets(),
            "more partitions than sets"
        );
        self.processes[pid.0 as usize].partition = Some((index, count));
    }

    fn process(&self, pid: ProcessId) -> SimResult<&Process> {
        self.processes
            .get(pid.0 as usize)
            .ok_or(SimError::NoSuchProcess(pid.0))
    }

    /// Mirrors `cudaDeviceEnablePeerAccess`: allows `pid` to map and access
    /// memory on `remote`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PeerAccessUnavailable`] when the GPUs share no
    /// direct NVLink (the DGX-1 runtime behaviour the paper reports) unless
    /// [`SystemConfig::allow_indirect_peer`] is set.
    pub fn enable_peer_access(&mut self, pid: ProcessId, remote: GpuId) -> SimResult<()> {
        if remote.index() >= self.gpus.len() {
            return Err(SimError::NoSuchGpu(remote));
        }
        let home = self.process(pid)?.home;
        if home != remote
            && !self.cfg.topology.direct_nvlink(home, remote)
            && !self.cfg.allow_indirect_peer
        {
            return Err(SimError::PeerAccessUnavailable {
                from: home,
                to: remote,
            });
        }
        self.processes[pid.0 as usize].peers.insert(remote);
        Ok(())
    }

    /// Allocates `bytes` of device memory homed on `gpu` and returns the
    /// virtual base address. Pages get random physical frames.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidAllocation`] for zero-size requests.
    /// - [`SimError::PeerAccessNotEnabled`] when allocating on a GPU other
    ///   than the process home without peer access.
    /// - [`SimError::OutOfMemory`] when the target HBM is full.
    pub fn malloc_on(&mut self, pid: ProcessId, gpu: GpuId, bytes: u64) -> SimResult<VirtAddr> {
        if bytes == 0 {
            return Err(SimError::InvalidAllocation(bytes));
        }
        if gpu.index() >= self.gpus.len() {
            return Err(SimError::NoSuchGpu(gpu));
        }
        let home = self.process(pid)?.home;
        if gpu != home && !self.process(pid)?.peers.contains(&gpu) {
            return Err(SimError::PeerAccessNotEnabled { remote: gpu });
        }
        let pages = bytes.div_ceil(self.cfg.page_size);
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            let f = self.gpus[gpu.index()].hbm.alloc_frame(&mut self.rng)?;
            let base = self.gpus[gpu.index()].hbm.frame_base(f);
            frames.push((gpu, base));
        }
        Ok(self.processes[pid.0 as usize].aspace.map_region(&frames))
    }

    /// Performs one timed access. `write` carries the value for a store
    /// (the L2 is write-allocate, so loads and stores behave identically
    /// for cache state). `now` is the issuing agent's current clock.
    ///
    /// This is the simulator's analogue of the paper's `__ldcg()` loads:
    /// L1 is bypassed and everything is cached in the home GPU's L2.
    ///
    /// # Errors
    ///
    /// Propagates translation and peer-access errors.
    pub fn access(
        &mut self,
        pid: ProcessId,
        agent: AgentId,
        va: VirtAddr,
        now: u64,
        write: Option<u64>,
    ) -> SimResult<MemAccess> {
        debug_assert!(self.cfg.page_size.is_power_of_two());
        let page_shift = self.cfg.page_size.trailing_zeros();
        let page_mask = self.cfg.page_size - 1;
        let (home, issuer, partition) = {
            let p = self
                .processes
                .get_mut(pid.0 as usize)
                .ok_or(SimError::NoSuchProcess(pid.0))?;
            let m = p.translate_page(va.0 >> page_shift, va)?;
            (
                PhysLoc {
                    gpu: m.gpu,
                    addr: PhysAddr(m.frame_base.0 + (va.0 & page_mask)),
                },
                p.home,
                p.partition,
            )
        };
        let route = self.resolve_route(pid, issuer, home.gpu, now)?;
        let (hit, set, latency) =
            self.access_resolved(pid, issuer, home.gpu, home.addr, partition, agent, now, route);

        // Backing store (no draws, no timing effect — order relative to the
        // timing pass is unobservable).
        let dev = &mut self.gpus[home.gpu.index()];
        let value = match write {
            Some(v) => {
                dev.hbm.write_word(home.addr, v);
                v
            }
            None => dev.hbm.read_word(home.addr),
        };

        Ok(MemAccess {
            value,
            latency,
            oracle: AccessOracle {
                hit,
                home: home.gpu,
                set,
                route,
            },
        })
    }

    /// The shared access core once the physical location is known: cache
    /// lookup (counters and replacement metadata update in the same pass,
    /// and the landing set comes back with the outcome — no second set
    /// lookup), contention pressure, latency, congestion episodes, fabric
    /// traversal and statistics.
    ///
    /// Randomness is counter-indexed ([`crate::draw`]): the access takes
    /// the next index `i` of its home GPU's counter — once, whichever
    /// branches run — and each random decision is the draw at
    /// `(noise_keys[home], salt, i)` with its own salt: the victim way
    /// (random replacement only), the jitter, the spike size inside a
    /// congestion episode and the coin that opens one. No decision can
    /// shift another, nor any later access's. The fabric traversal —
    /// including the whole QoS layer, whose streams are counter-indexed
    /// too — draws nothing from these streams.
    #[allow(clippy::too_many_arguments)] // flat parameter list keeps the hot path monomorphic
    fn access_resolved(
        &mut self,
        pid: ProcessId,
        issuer: GpuId,
        home: GpuId,
        pa: PhysAddr,
        partition: Option<(u32, u32)>,
        agent: AgentId,
        now: u64,
        route: Route,
    ) -> (bool, SetIndex, u32) {
        let window = self.cfg.timing.contention_window;
        let key = self.noise_keys[home.index()];
        let i = self.noise_index[home.index()];
        self.noise_index[home.index()] = i + 1;

        // Cache lookup on the HOME GPU's L2 — the paper's key finding.
        let (outcome, set) = self.gpus[home.index()].l2.access_located(
            pa,
            &mut IndexedRng::new(key, SALT_VICTIM, i),
            partition,
        );
        let hit = outcome.is_hit();
        if self.trace.is_enabled() {
            let set_w = set.raw() as u64;
            match outcome {
                crate::cache::AccessOutcome::Hit => {
                    self.trace.record(TraceKind::L2Hit, now, pid.0, set_w, pa.0);
                }
                crate::cache::AccessOutcome::Miss { evicted } => {
                    self.trace.record(TraceKind::L2Miss, now, pid.0, set_w, pa.0);
                    if let Some(e) = evicted {
                        self.trace.record(TraceKind::L2Evict, now, pid.0, set_w, e);
                    }
                }
            }
        }

        // Contention pressure on the home GPU's L2/ports. When no timing
        // term can observe pressure (noiseless configs) the window
        // trackers are skipped wholesale — `pressure == 0` then produces
        // the same latency and no congestion draw.
        let pressure = if self.track_pressure {
            let tracker = &mut self.pressure[home.index()];
            let p = tracker.pressure(now, agent, window);
            tracker.record(now, agent, window);
            p
        } else {
            0
        };

        // Fault epochs: the routing table covering this access's issue
        // time (`None` = canonical). A batch access may carry a route
        // resolved at batch start into a later epoch; paths below then
        // come from the issue-time epoch, falling back to the canonical
        // path (and its down-link stall) when the epoch has none.
        let epoch_topo = if self.fault_epochs.is_empty() {
            None
        } else {
            let idx = self.fault_epochs.partition_point(|e| e.start <= now) - 1;
            self.fault_epochs[idx].topo.as_ref()
        };

        // Valiant routing (QoS defence): pick this line's intermediate
        // *before* the latency draw so the per-hop latency term covers
        // the hops actually traversed. The pick draws from the QoS
        // layer's own stream, so the canonical path — and every QoS-off
        // simulation — is untouched.
        // Suspended during outage epochs: a detour segment could cross a
        // failed link the rerouted table avoids.
        let mut fabric_route = route;
        let mut valiant_mid = None;
        if home != issuer
            && self.fabric.enabled()
            && route.kind == LinkKind::NvLink
            && epoch_topo.is_none()
        {
            if let Some(mid) = self.fabric.valiant_pick(&self.cfg.topology, issuer, home) {
                let hops = (self.cfg.topology.path(issuer, mid).len()
                    + self.cfg.topology.path(mid, home).len()) as u32;
                let q = self.stats.qos_mut();
                q.valiant_detours += 1;
                q.valiant_extra_hops += u64::from(hops - route.hops);
                self.trace.record(
                    TraceKind::ValiantDetour,
                    now,
                    pid.0,
                    mid.index() as u64,
                    u64::from(hops),
                );
                fabric_route = Route {
                    kind: LinkKind::NvLink,
                    hops,
                };
                valiant_mid = Some(mid);
            }
        }

        let jitter_draw = if self.latency.is_jittered() {
            indexed_draw(key, SALT_JITTER, i)
        } else {
            0
        };
        let mut latency = self
            .latency
            .access_latency(fabric_route, hit, pressure, jitter_draw);
        if self.track_pressure {
            // NVLink serialisation: concurrent remote requesters to the
            // same home GPU queue on the link. This scalar term is the
            // pre-fabric approximation of link queueing; when the timed
            // fabric is enabled the same physical contention is modelled
            // per-link via occupancy windows below, so the approximation
            // is skipped rather than double-charged.
            if home != issuer && !self.fabric.enabled() {
                let rt = &mut self.remote_pressure[home.index()];
                let rp = rt.pressure(now, agent, window);
                rt.record(now, agent, window);
                latency =
                    latency.saturating_add(self.cfg.timing.nvlink_queue_per_req.saturating_mul(rp));
            }
            // Bursty congestion episodes: under pressure, an access can
            // tip the home GPU's ports into a congested burst during which
            // every access pays a penalty. Whole-slot corruption of the
            // covert channel (the Fig. 9 error growth) comes from these
            // episodes. Every term saturates, so extreme timing configs
            // clamp at `u32::MAX` instead of wrapping to hit-like values.
            let t = &self.cfg.timing;
            if now < self.congested_until[home.index()] {
                let d = indexed_draw(key, SALT_SPIKE, i) as u32;
                let spike = t
                    .contention_spike_cycles
                    .saturating_add(d % (t.contention_spike_cycles / 2 + 1));
                latency = latency.saturating_add(spike);
            } else if pressure > 0
                && t.contention_spike_prob > 0.0
                && coin(
                    indexed_draw(key, SALT_CONGESTION, i),
                    (t.contention_spike_prob * f64::from(pressure)).min(1.0),
                )
            {
                self.congested_until[home.index()] = now.saturating_add(t.congestion_cycles);
                self.stats.gpu_mut(home).congestion_episodes += 1;
                latency = latency.saturating_add(t.contention_spike_cycles);
            }
        }

        // Timed fabric: route the line across the physical links of the
        // shortest path (or through the PCIe root complex), accumulating
        // queue waits and per-link serialisation store-and-forward. Off
        // by default; draws nothing from the noise streams when on.
        if home != issuer && self.fabric.enabled() {
            let line = self.cfg.cache.line_size;
            let extra = match route.kind {
                LinkKind::NvLink => match valiant_mid {
                    // Valiant detour: two canonical segments traversed
                    // store-and-forward through the intermediate.
                    Some(mid) => {
                        let p1 = self.cfg.topology.path(issuer, mid);
                        let d1 = self.cfg.topology.path_dirs(issuer, mid);
                        let e1 = self.fabric.traverse(
                            pid,
                            p1,
                            d1,
                            now,
                            line,
                            &mut self.stats,
                            &mut self.trace,
                        );
                        let p2 = self.cfg.topology.path(mid, home);
                        let d2 = self.cfg.topology.path_dirs(mid, home);
                        e1 + self.fabric.traverse(
                            pid,
                            p2,
                            d2,
                            now + e1,
                            line,
                            &mut self.stats,
                            &mut self.trace,
                        )
                    }
                    None => {
                        let topo = epoch_topo.unwrap_or(&self.cfg.topology);
                        let mut path = topo.path(issuer, home);
                        let mut dirs = topo.path_dirs(issuer, home);
                        if path.is_empty() {
                            // A stale NVLink route carried into an epoch
                            // that partitions the pair: the in-flight
                            // line follows the canonical path and stalls
                            // at the dead link until recovery.
                            path = self.cfg.topology.path(issuer, home);
                            dirs = self.cfg.topology.path_dirs(issuer, home);
                        }
                        self.fabric.traverse(
                            pid,
                            path,
                            dirs,
                            now,
                            line,
                            &mut self.stats,
                            &mut self.trace,
                        )
                    }
                },
                LinkKind::Pcie => {
                    self.fabric
                        .traverse_pcie(pid, now, line, &mut self.stats, &mut self.trace)
                }
                LinkKind::Local => 0,
            };
            latency = latency.saturating_add(u32::try_from(extra).unwrap_or(u32::MAX));
        }

        // Statistics.
        let st = self.stats.gpu_mut(home);
        if hit {
            st.l2_hits += 1;
        } else {
            st.l2_misses += 1;
        }
        if home != issuer {
            st.remote_served += 1;
            match route.kind {
                // Bytes are counted once per traversed hop: a 2-hop line
                // crosses two physical links and costs the fabric twice
                // the bandwidth of a direct transfer (valiant detours
                // charge the hops actually walked).
                LinkKind::NvLink => {
                    self.stats.gpu_mut(issuer).nvlink_bytes +=
                        self.cfg.cache.line_size * u64::from(fabric_route.hops)
                }
                LinkKind::Pcie => self.stats.gpu_mut(issuer).pcie_accesses += 1,
                // A local route cannot serve a remote access.
                LinkKind::Local => debug_assert!(false, "local route with home != issuer"),
            }
        }
        self.stats.gpu_mut(issuer).issued_accesses += 1;

        (hit, set, latency)
    }

    /// Issues a warp-parallel batch of loads (all 32 threads of a block
    /// issuing together, as the covert channel's probe does). Returns the
    /// per-line latencies and the total duration: loads overlap, separated
    /// by the issue gap, so the batch completes much faster than a serial
    /// pointer chase.
    ///
    /// Convenience wrapper over [`MultiGpuSystem::access_batch_into`] that
    /// allocates the latency buffer; hot loops that probe repeatedly
    /// should hold a buffer and call `access_batch_into` directly.
    ///
    /// # Errors
    ///
    /// Fails on the first address that does not translate.
    pub fn access_batch(
        &mut self,
        pid: ProcessId,
        agent: AgentId,
        vas: &[VirtAddr],
        now: u64,
    ) -> SimResult<BatchAccess> {
        let mut latencies = Vec::with_capacity(vas.len());
        let summary = self.access_batch_into(pid, agent, vas, now, &mut latencies)?;
        Ok(BatchAccess {
            latencies,
            duration: summary.duration,
            hits: summary.hits,
        })
    }

    /// The true batched access path: translates once per virtual page and
    /// streams line accesses, appending one latency per line to the
    /// caller-provided buffer with no per-access allocation or page-table
    /// lookup.
    ///
    /// Consecutive probe addresses overwhelmingly stay within one GPU
    /// page (eviction sets are built from page-class lines), so the
    /// translation cache hits almost always; on a page change the mapping
    /// and route are recomputed once.
    ///
    /// # Errors
    ///
    /// Fails on the first address whose page does not translate or whose
    /// home GPU lacks peer access.
    pub fn access_batch_into(
        &mut self,
        pid: ProcessId,
        agent: AgentId,
        vas: &[VirtAddr],
        now: u64,
        latencies: &mut Vec<u32>,
    ) -> SimResult<BatchSummary> {
        let (issuer, partition) = {
            let p = self.process(pid)?;
            (p.home, p.partition)
        };
        let page_size = self.cfg.page_size;
        debug_assert!(page_size.is_power_of_two(), "page size is a power of two");
        let page_shift = page_size.trailing_zeros();
        let page_mask = page_size - 1;
        let gap = self.latency.issue_gap() as u64;

        let mut duration = 0u64;
        let mut hits = 0u32;
        // Page-translation cache: `u64::MAX` is unreachable as a VPN.
        let mut cached_vpn = u64::MAX;
        let mut cached = Mapping {
            gpu: issuer,
            frame_base: PhysAddr(0),
        };
        let mut route = Route::local();
        latencies.reserve(vas.len());

        for (i, &va) in vas.iter().enumerate() {
            let vpn = va.0 >> page_shift;
            if vpn != cached_vpn {
                let m = self.processes[pid.0 as usize].translate_page(vpn, va)?;
                // Routes are resolved against the fault epoch at batch
                // start: a warp commits its transfers to the link engine
                // when it issues, so lines of a batch that straddles an
                // outage boundary follow their already-resolved route
                // and stall at the dead link (down-wait) rather than
                // rerouting mid-batch.
                route = self.resolve_route(pid, issuer, m.gpu, now)?;
                cached_vpn = vpn;
                cached = m;
            }
            let pa = PhysAddr(cached.frame_base.0 + (va.0 & page_mask));
            let issue_at = now + gap * i as u64;
            let (hit, _set, latency) =
                self.access_resolved(pid, issuer, cached.gpu, pa, partition, agent, issue_at, route);
            hits += u32::from(hit);
            duration = duration.max(gap * i as u64 + u64::from(latency));
            latencies.push(latency);
        }
        Ok(BatchSummary { duration, hits })
    }

    /// Host-side initialisation of device memory (`cudaMemcpy`-style DMA):
    /// writes words starting at `va` without touching the L2 or the clock.
    ///
    /// # Errors
    ///
    /// Fails if any address in the range does not translate.
    pub fn write_words(&mut self, pid: ProcessId, va: VirtAddr, words: &[u64]) -> SimResult<()> {
        for (i, &w) in words.iter().enumerate() {
            let loc = self
                .process(pid)?
                .aspace
                .translate(va.offset(8 * i as u64))?;
            self.gpus[loc.gpu.index()].hbm.write_word(loc.addr, w);
        }
        Ok(())
    }

    /// Host-side read of one device word (no timing, no cache effect).
    ///
    /// # Errors
    ///
    /// Fails if the address does not translate.
    pub fn read_word(&self, pid: ProcessId, va: VirtAddr) -> SimResult<u64> {
        let loc = self.process(pid)?.aspace.translate(va)?;
        Ok(self.gpus[loc.gpu.index()].hbm.read_word(loc.addr))
    }

    /// Ground truth: the physical cache set a virtual address maps to.
    /// Attack code must not call this; experiments use it for validation.
    ///
    /// # Errors
    ///
    /// Fails if the address does not translate.
    pub fn oracle_set_of(&self, pid: ProcessId, va: VirtAddr) -> SimResult<(GpuId, SetIndex)> {
        let p = self.process(pid)?;
        let loc = p.aspace.translate(va)?;
        Ok((
            loc.gpu,
            self.gpus[loc.gpu.index()]
                .l2
                .set_of_partitioned(loc.addr, p.partition),
        ))
    }

    /// Ground truth: whether the line containing `va` is resident in its
    /// home L2.
    ///
    /// # Errors
    ///
    /// Fails if the address does not translate.
    pub fn oracle_resident(&self, pid: ProcessId, va: VirtAddr) -> SimResult<bool> {
        let p = self.process(pid)?;
        let loc = p.aspace.translate(va)?;
        Ok(self.gpus[loc.gpu.index()]
            .l2
            .probe_resident_partitioned(loc.addr, p.partition))
    }

    /// Ground-truth per-set `(hits, misses)` of one GPU's L2.
    pub fn oracle_set_stats(&self, gpu: GpuId, set: SetIndex) -> (u64, u64) {
        self.gpus[gpu.index()].l2.set_stats(set)
    }

    /// Flushes one GPU's L2 (between experiment repetitions).
    pub fn flush_l2(&mut self, gpu: GpuId) {
        self.gpus[gpu.index()].l2.flush();
    }

    /// Launches a kernel on a GPU's SM array (resource accounting only).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InsufficientSmResources`] when it does not fit.
    pub fn launch_kernel(&mut self, gpu: GpuId, launch: KernelLaunch) -> SimResult<KernelId> {
        self.gpus[gpu.index()].sms.launch(launch)
    }

    /// Terminates a resident kernel.
    pub fn terminate_kernel(&mut self, gpu: GpuId, id: KernelId) {
        self.gpus[gpu.index()].sms.terminate(id);
    }

    /// Whether a kernel of the given shape could launch right now.
    pub fn can_launch(&self, gpu: GpuId, launch: &KernelLaunch) -> bool {
        self.gpus[gpu.index()].sms.can_launch(launch)
    }

    /// The SM array of one GPU (read-only).
    pub fn sm_array(&self, gpu: GpuId) -> &SmArray {
        &self.gpus[gpu.index()].sms
    }

    /// Physical address of `va` — for experiment bookkeeping only.
    ///
    /// # Errors
    ///
    /// Fails if the address does not translate.
    pub fn oracle_translate(&self, pid: ProcessId, va: VirtAddr) -> SimResult<(GpuId, PhysAddr)> {
        let loc = self.process(pid)?.aspace.translate(va)?;
        Ok((loc.gpu, loc.addr))
    }
}

/// Result of a warp-parallel batch access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAccess {
    /// Per-line latency as each thread's `clock()` pair would report.
    pub latencies: Vec<u32>,
    /// Cycles until the whole batch completed (with issue-gap overlap).
    pub duration: u64,
    /// Ground truth: how many lines hit.
    pub hits: u32,
}

/// Aggregate result of [`MultiGpuSystem::access_batch_into`]; per-line
/// latencies land in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Cycles until the whole batch completed (with issue-gap overlap).
    pub duration: u64,
    /// Ground truth: how many lines hit.
    pub hits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::{Agent, Engine, Op, OpResult, ProbeStage};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn boot() -> MultiGpuSystem {
        MultiGpuSystem::new(SystemConfig::small_test().noiseless())
    }

    #[test]
    fn local_access_miss_then_hit_timing() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        let a = sys.default_agent(p);
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let cold = sys.access(p, a, buf, 0, None).unwrap();
        let warm = sys.access(p, a, buf, 1000, None).unwrap();
        assert!(!cold.oracle.hit);
        assert!(warm.oracle.hit);
        assert_eq!(cold.latency, 450);
        assert_eq!(warm.latency, 270);
    }

    #[test]
    fn remote_access_cached_on_home_gpu() {
        let mut sys = boot();
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        let cold = sys
            .access(spy, sys.default_agent(spy), buf, 0, None)
            .unwrap();
        let warm = sys
            .access(spy, sys.default_agent(spy), buf, 2000, None)
            .unwrap();
        // Served by GPU0 (home), over one NVLink hop.
        assert_eq!(cold.oracle.home, GpuId::new(0));
        assert_eq!(cold.latency, 950);
        assert_eq!(warm.latency, 630);
        // The line is resident in GPU0's L2 — visible to a GPU0 process too.
        let local = sys.create_process(GpuId::new(0));
        assert_eq!(sys.stats().gpu(GpuId::new(0)).remote_served, 2);
        let _ = local;
    }

    #[test]
    fn peer_access_required_for_remote_malloc() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(1));
        let err = sys.malloc_on(p, GpuId::new(0), 4096).unwrap_err();
        assert_eq!(
            err,
            SimError::PeerAccessNotEnabled {
                remote: GpuId::new(0)
            }
        );
    }

    #[test]
    fn non_nvlink_peer_access_refused() {
        // On a DGX-1, GPU0 and GPU5 are two hops apart — the runtime
        // refuses peer access (paper Sec. III-A).
        let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let err = sys.enable_peer_access(p, GpuId::new(5)).unwrap_err();
        assert_eq!(
            err,
            SimError::PeerAccessUnavailable {
                from: GpuId::new(0),
                to: GpuId::new(5)
            }
        );
        assert!(sys.enable_peer_access(p, GpuId::new(1)).is_ok());
    }

    #[test]
    fn cross_process_contention_on_shared_home_cache() {
        // Trojan on GPU0, spy on GPU1; both buffers homed on GPU0. Trojan
        // filling a set evicts the spy's lines there — the covert channel's
        // physical mechanism.
        let mut sys = boot();
        let trojan = sys.create_process(GpuId::new(0));
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        // Big allocations so both cover many sets.
        let tb = sys.malloc_on(trojan, GpuId::new(0), 1 << 20).unwrap();
        let sb = sys.malloc_on(spy, GpuId::new(0), 1 << 20).unwrap();

        // Find a spy line and a trojan line in the same set (via oracle).
        let (_, target_set) = sys.oracle_set_of(spy, sb).unwrap();
        let line = sys.config().cache.line_size;
        let ways = sys.config().cache.ways as u64;
        let mut trojan_same_set = Vec::new();
        for k in 0..(1u64 << 20) / line {
            let va = tb.offset(k * line);
            if sys.oracle_set_of(trojan, va).unwrap().1 == target_set {
                trojan_same_set.push(va);
            }
            if trojan_same_set.len() as u64 > ways {
                break;
            }
        }
        assert!(
            trojan_same_set.len() as u64 > ways,
            "need >16 conflicting lines"
        );

        // Spy caches its line; trojan fills the set; spy must now miss.
        sys.access(spy, sys.default_agent(spy), sb, 0, None)
            .unwrap();
        assert!(sys.oracle_resident(spy, sb).unwrap());
        for (i, &va) in trojan_same_set.iter().enumerate() {
            sys.access(trojan, sys.default_agent(trojan), va, 100 + i as u64, None)
                .unwrap();
        }
        assert!(
            !sys.oracle_resident(spy, sb).unwrap(),
            "trojan must evict spy line"
        );
        let probe = sys
            .access(spy, sys.default_agent(spy), sb, 10_000, None)
            .unwrap();
        assert_eq!(probe.latency, 950, "spy sees a remote miss = bit 1");
    }

    #[test]
    fn write_words_then_timed_reads() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        let a = sys.default_agent(p);
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        sys.write_words(p, buf, &[7, 8, 9]).unwrap();
        assert_eq!(sys.access(p, a, buf.offset(8), 0, None).unwrap().value, 8);
        assert_eq!(sys.read_word(p, buf.offset(16)).unwrap(), 9);
    }

    #[test]
    fn batch_access_overlaps_latencies() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        let a = sys.default_agent(p);
        let buf = sys.malloc_on(p, GpuId::new(0), 64 * 1024).unwrap();
        let line = sys.config().cache.line_size;
        let vas: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * line)).collect();
        let b = sys.access_batch(p, a, &vas, 0).unwrap();
        assert_eq!(b.latencies.len(), 16);
        let serial: u64 = b.latencies.iter().map(|&l| u64::from(l)).sum();
        assert!(
            b.duration < serial,
            "batch should overlap: {} vs {serial}",
            b.duration
        );
    }

    #[test]
    fn zero_byte_malloc_rejected() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        assert_eq!(
            sys.malloc_on(p, GpuId::new(0), 0),
            Err(SimError::InvalidAllocation(0))
        );
    }

    #[test]
    fn stats_track_issued_and_nvlink() {
        let mut sys = boot();
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        sys.access(spy, sys.default_agent(spy), buf, 0, None)
            .unwrap();
        assert_eq!(sys.stats().gpu(GpuId::new(1)).issued_accesses, 1);
        assert_eq!(sys.stats().gpu(GpuId::new(1)).nvlink_bytes, 128);
        assert_eq!(sys.stats().gpu(GpuId::new(0)).l2_misses, 1);
    }

    #[test]
    fn flush_l2_restores_cold_state() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        let a = sys.default_agent(p);
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        sys.access(p, a, buf, 0, None).unwrap();
        sys.flush_l2(GpuId::new(0));
        let acc = sys.access(p, a, buf, 100, None).unwrap();
        assert!(!acc.oracle.hit);
    }

    #[test]
    fn partitioned_processes_cannot_contend() {
        // Sec. VII defence: disjoint L2 slices isolate the processes.
        let mut sys = boot();
        let a = sys.create_process(GpuId::new(0));
        let b = sys.create_process(GpuId::new(0));
        sys.set_cache_partition(a, 0, 2);
        sys.set_cache_partition(b, 1, 2);
        let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
        let bbuf = sys.malloc_on(b, GpuId::new(0), 256 * 1024).unwrap();
        sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
        assert!(sys.oracle_resident(a, abuf).unwrap());
        // b sweeps its whole buffer — with only 32 sets per slice this
        // floods b's slice completely.
        for k in 0..(256 * 1024 / 128) {
            sys.access(b, sys.default_agent(b), bbuf.offset(k * 128), 100 + k, None)
                .unwrap();
        }
        assert!(
            sys.oracle_resident(a, abuf).unwrap(),
            "a's line must survive b's flood in the other slice"
        );
    }

    #[test]
    fn same_partition_processes_still_contend() {
        let mut sys = boot();
        let a = sys.create_process(GpuId::new(0));
        let b = sys.create_process(GpuId::new(0));
        sys.set_cache_partition(a, 1, 2);
        sys.set_cache_partition(b, 1, 2);
        let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
        let bbuf = sys.malloc_on(b, GpuId::new(0), 512 * 1024).unwrap();
        sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
        for k in 0..(512 * 1024 / 128) {
            sys.access(b, sys.default_agent(b), bbuf.offset(k * 128), 100 + k, None)
                .unwrap();
        }
        assert!(
            !sys.oracle_resident(a, abuf).unwrap(),
            "co-partitioned flood must evict a's line"
        );
    }

    #[test]
    #[should_panic(expected = "bad partition")]
    fn invalid_partition_rejected() {
        let mut sys = boot();
        let p = sys.create_process(GpuId::new(0));
        sys.set_cache_partition(p, 2, 2);
    }

    #[test]
    fn tlb_size_never_changes_observable_results() {
        // The software TLB is a host-side cache: any size must produce
        // bit-identical latencies and random draws. Run the same
        // jittered sequence with a one-entry TLB
        // and the default, over scalar and batched paths.
        let run = |entries: usize| -> Vec<u32> {
            let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
            sys.set_tlb_entries(entries);
            let p = sys.create_process(GpuId::new(0));
            let a = sys.default_agent(p);
            let buf = sys.malloc_on(p, GpuId::new(0), 64 * 1024).unwrap();
            let vas: Vec<VirtAddr> = (0..32).map(|i| buf.offset(i * 128 * 13)).collect();
            let mut lats = Vec::new();
            for (i, &va) in vas.iter().enumerate() {
                lats.push(sys.access(p, a, va, 300 * i as u64, None).unwrap().latency);
            }
            let mut lat_buf = Vec::new();
            sys.access_batch_into(p, a, &vas, 50_000, &mut lat_buf).unwrap();
            lats.extend(lat_buf);
            lats
        };
        assert_eq!(run(1), run(64));
    }

    #[test]
    fn indirect_peer_knob_allows_multi_hop() {
        // The same 2-hop pair the refusal test uses, with the policy knob
        // flipped: peer access is granted and routed over NVLink.
        let mut cfg = SystemConfig::dgx1().noiseless();
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(0));
        sys.enable_peer_access(p, GpuId::new(5)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(5), 4096).unwrap();
        let acc = sys.access(p, sys.default_agent(p), buf, 0, None).unwrap();
        assert_eq!(acc.oracle.route.kind, crate::topology::LinkKind::NvLink);
        assert_eq!(acc.oracle.route.hops, 2);
    }

    #[test]
    fn fabric_off_keeps_latency_and_links_untouched() {
        let mut sys = boot();
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        let acc = sys.access(spy, sys.default_agent(spy), buf, 0, None).unwrap();
        assert_eq!(acc.latency, 950, "scalar model latency unchanged");
        assert!(!sys.fabric_enabled());
        let l = sys.link_stats(LinkId(0)).unwrap();
        assert_eq!(*l, LinkStats::default(), "no bookkeeping with fabric off");
    }

    #[test]
    fn fabric_remote_access_pays_link_serialisation() {
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        let cold = sys.access(spy, sys.default_agent(spy), buf, 0, None).unwrap();
        let warm = sys
            .access(spy, sys.default_agent(spy), buf, 2000, None)
            .unwrap();
        // One idle link: 10 service cycles on top of the scalar clusters.
        assert_eq!(cold.latency, 960);
        assert_eq!(warm.latency, 640);
        let link = sys.config().topology.link_between(GpuId::new(1), GpuId::new(0)).unwrap();
        let ls = *sys.link_stats(link).unwrap();
        assert_eq!(ls.requests, 2);
        assert_eq!(ls.bytes, 256);
        assert_eq!(ls.busy_cycles, 20);
        assert_eq!(ls.queue_cycles, 0);
    }

    #[test]
    fn fabric_multi_hop_counts_every_traversed_link() {
        let mut cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        cfg.num_gpus = 3;
        cfg.topology = crate::topology::Topology::from_edges(3, &[(0, 1), (1, 2)]);
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(2));
        sys.enable_peer_access(p, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let cold = sys.access(p, sys.default_agent(p), buf, 0, None).unwrap();
        // 2-hop miss (1450) + 2 idle link traversals (20).
        assert_eq!(cold.latency, 1470);
        // Both links on the path carry the line; the issuer's byte
        // counter records one line per traversed hop.
        for l in 0..2 {
            let ls = *sys.link_stats(LinkId(l)).unwrap();
            assert_eq!(ls.bytes, 128, "link {l} carries the line once");
        }
        assert_eq!(sys.stats().gpu(GpuId::new(2)).nvlink_bytes, 256);
    }

    #[test]
    fn fabric_concurrent_requesters_queue_deterministically() {
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        let a = sys.create_process(GpuId::new(1));
        let b = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(a, GpuId::new(0)).unwrap();
        sys.enable_peer_access(b, GpuId::new(0)).unwrap();
        let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
        let bbuf = sys.malloc_on(b, GpuId::new(0), 4096).unwrap();
        // Two cold misses arriving at the same cycle on the same link:
        // the second serialises behind the first's occupancy window.
        let first = sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
        let second = sys.access(b, sys.default_agent(b), bbuf, 0, None).unwrap();
        assert_eq!(first.latency, 960);
        assert_eq!(second.latency, 970, "10 cycles of queue wait");
        let link = sys.config().topology.link_between(GpuId::new(1), GpuId::new(0)).unwrap();
        assert_eq!(sys.link_stats(link).unwrap().queue_cycles, 10);
    }

    #[test]
    fn fabric_per_direction_unserialises_opposing_traffic() {
        // Two processes on opposite GPUs, each reading memory homed on
        // the other: their transfers cross the same edge in opposite
        // directions at the same cycle.
        let run = |per_direction: bool| {
            let fabric = if per_direction {
                crate::fabric::FabricConfig::nvlink_v1().with_per_direction()
            } else {
                crate::fabric::FabricConfig::nvlink_v1()
            };
            let cfg = SystemConfig::small_test().noiseless().with_fabric(fabric);
            let mut sys = MultiGpuSystem::new(cfg);
            let a = sys.create_process(GpuId::new(1));
            let b = sys.create_process(GpuId::new(0));
            sys.enable_peer_access(a, GpuId::new(0)).unwrap();
            sys.enable_peer_access(b, GpuId::new(1)).unwrap();
            let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
            let bbuf = sys.malloc_on(b, GpuId::new(1), 4096).unwrap();
            let first = sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
            let second = sys.access(b, sys.default_agent(b), bbuf, 0, None).unwrap();
            let link = sys
                .config()
                .topology
                .link_between(GpuId::new(0), GpuId::new(1))
                .unwrap();
            (first.latency, second.latency, *sys.link_stats(link).unwrap())
        };
        // Half-duplex (default): the opposing line queues 10 cycles.
        let (f, s, ls) = run(false);
        assert_eq!((f, s), (960, 970));
        assert_eq!(ls.queue_cycles, 10);
        // Full-duplex: both directions start immediately.
        let (f, s, ls) = run(true);
        assert_eq!((f, s), (960, 960));
        assert_eq!(ls.queue_cycles, 0);
        assert_eq!(ls.busy_cycles, 20, "each direction served one line");
    }

    #[test]
    fn fabric_pcie_fallback_uses_shared_root_complex() {
        let mut cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        cfg.topology = crate::topology::Topology::from_edges(2, &[]);
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(p, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        // PCIe cold (2350) + 60 root-complex service cycles.
        let acc = sys.access(p, sys.default_agent(p), buf, 0, None).unwrap();
        assert_eq!(acc.latency, 2410);
        assert_eq!(sys.stats().pcie_root().requests, 1);
        assert_eq!(sys.stats().pcie_root().bytes, 128);
        assert_eq!(sys.link_stats(LinkId(0)), Err(SimError::NoSuchLink(0)));
    }

    #[test]
    fn qos_rate_limit_delays_over_budget_traffic_only() {
        use crate::qos::QosConfig;
        // 256 B burst, 128 B/kcycle sustained on the single link.
        let cfg = SystemConfig::small_test().noiseless().with_fabric(
            crate::fabric::FabricConfig::nvlink_v1()
                .with_qos(QosConfig::off().with_rate_limit(128, 256)),
        );
        let mut sys = MultiGpuSystem::new(cfg);
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 64 * 1024).unwrap();
        let a = sys.default_agent(spy);
        // Two lines fit the bucket: identical to the undefended fabric.
        assert_eq!(sys.access(spy, a, buf, 0, None).unwrap().latency, 960);
        assert_eq!(
            sys.access(spy, a, buf.offset(128), 0, None).unwrap().latency,
            970,
            "in-budget line pays only the occupancy queue"
        );
        // The third is over budget: re-paced to the refill horizon
        // (128 B at 128 B/kcycle = 1024 cycles) and served in spare
        // capacity there.
        let third = sys.access(spy, a, buf.offset(256), 0, None).unwrap();
        assert_eq!(third.latency, 950 + 1024 + 10);
        let q = *sys.stats().qos();
        assert_eq!(q.passed_bytes, 256);
        assert_eq!(q.shaped_bytes, 128);
        assert_eq!(q.throttle_delay_cycles, 1024);
    }

    #[test]
    fn qos_rate_limit_is_per_tenant() {
        use crate::qos::QosConfig;
        let cfg = SystemConfig::small_test().noiseless().with_fabric(
            crate::fabric::FabricConfig::nvlink_v1()
                .with_qos(QosConfig::off().with_rate_limit(128, 128)),
        );
        let mut sys = MultiGpuSystem::new(cfg);
        let a = sys.create_process(GpuId::new(1));
        let b = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(a, GpuId::new(0)).unwrap();
        sys.enable_peer_access(b, GpuId::new(0)).unwrap();
        let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
        let bbuf = sys.malloc_on(b, GpuId::new(0), 4096).unwrap();
        // Tenant a exhausts its own bucket …
        sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
        let again = sys.access(a, sys.default_agent(a), abuf, 5, None).unwrap();
        assert!(again.latency > 1000, "a is throttled: {}", again.latency);
        // … but tenant b's budget is untouched, and a's throttled line
        // occupied no observable window: b pays only the occupancy
        // serialisation behind a's first (in-budget) crossing.
        let other = sys.access(b, sys.default_agent(b), bbuf, 5, None).unwrap();
        assert_eq!(other.latency, 965);
    }

    #[test]
    fn qos_valiant_routing_detours_and_spreads_load() {
        use crate::qos::QosConfig;
        let mut cfg = SystemConfig::dgx1()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1())
            .with_qos(QosConfig::off().with_valiant(3));
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(0));
        sys.enable_peer_access(p, GpuId::new(1)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(1), 1 << 20).unwrap();
        let a = sys.default_agent(p);
        for i in 0..64u64 {
            let acc = sys.access(p, a, buf.offset(i * 128), i * 2_000, None).unwrap();
            // The oracle keeps reporting the canonical route.
            assert_eq!(acc.oracle.route.hops, 1);
        }
        let q = *sys.stats().qos();
        assert_eq!(q.valiant_detours, 64, "every remote line detours");
        assert!(q.valiant_extra_hops >= 64, "detours walk extra hops");
        // The load spreads over many links instead of only (0,1).
        let used = sys
            .stats()
            .links()
            .iter()
            .filter(|l| l.requests > 0)
            .count();
        assert!(used >= 4, "valiant must spread across links, used {used}");
        // nvlink_bytes charges the hops actually walked.
        let walked = 64 + q.valiant_extra_hops;
        assert_eq!(sys.stats().gpu(GpuId::new(0)).nvlink_bytes, 128 * walked);
    }

    #[test]
    fn qos_deploys_at_runtime_and_requires_the_fabric() {
        use crate::qos::QosConfig;
        let mut sys = boot();
        assert_eq!(
            sys.set_qos(QosConfig::off().with_pacing(1000)),
            Err(SimError::FabricDisabled)
        );
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        let mut fab_sys = MultiGpuSystem::new(cfg);
        assert_eq!(
            fab_sys.set_qos(QosConfig::off().with_rate_limit(0, 128)),
            Err(SimError::InvalidQosConfig("rate limit needs a positive rate")),
            "degenerate configs come back as errors, not panics"
        );
        assert_eq!(
            fab_sys.set_qos(QosConfig::off().with_pacing(0)),
            Err(SimError::InvalidQosConfig("pacing needs a positive epoch"))
        );
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        let a = sys.default_agent(spy);
        assert_eq!(sys.access(spy, a, buf, 1, None).unwrap().latency, 960);
        // Defence switched on mid-life: pacing quantises the next grant
        // (arrival 2001 → epoch boundary 3000), buckets cover the
        // already-existing process.
        sys.set_qos(QosConfig::off().with_pacing(1000)).unwrap();
        let acc = sys.access(spy, a, buf, 2_001, None).unwrap();
        assert_eq!(acc.latency, 630 + 999 + 10);
        // And retracting it restores the undefended fabric.
        sys.set_qos(QosConfig::off()).unwrap();
        let acc = sys.access(spy, a, buf, 10_001, None).unwrap();
        assert_eq!(acc.latency, 640);
    }

    #[test]
    fn fault_link_down_reroutes_over_survivors() {
        use crate::fault::FaultPlan;
        // Triangle 0-1-2: the direct (0,1) link has a 2-hop detour via 2.
        let mut cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1().with_faults(
                FaultPlan::none().with_link_down(0, 10_000, u64::MAX),
            ));
        cfg.num_gpus = 3;
        cfg.topology = crate::topology::Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(p, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let a = sys.default_agent(p);
        // Healthy epoch: the direct link, usual fabric-on latency.
        let before = sys.access(p, a, buf, 0, None).unwrap();
        assert_eq!(before.latency, 960);
        assert_eq!(before.oracle.route.hops, 1);
        // Outage epoch: rerouted over 1-2-0, two hops, counted.
        let after = sys.access(p, a, buf, 20_000, None).unwrap();
        assert_eq!(after.oracle.route.kind, LinkKind::NvLink);
        assert_eq!(after.oracle.route.hops, 2);
        assert_eq!(sys.stats().fault().reroutes, 1);
        // Warm 2-hop over two idle links: 630 + 360 + 2·10.
        assert_eq!(after.latency, 630 + 360 + 20);
        // The dead link carried nothing new; the detour links did.
        assert_eq!(sys.link_stats(LinkId(0)).unwrap().requests, 1);
        assert_eq!(sys.link_stats(LinkId(1)).unwrap().requests, 1);
        assert_eq!(sys.link_stats(LinkId(2)).unwrap().requests, 1);
    }

    #[test]
    fn fault_partition_falls_back_to_pcie_or_refuses() {
        use crate::fault::FaultPlan;
        // 2-GPU box with a single link: downing it partitions the pair.
        let boot_with = |plan: FaultPlan| {
            let cfg = SystemConfig::small_test()
                .noiseless()
                .with_fabric(crate::fabric::FabricConfig::nvlink_v1().with_faults(plan));
            let mut sys = MultiGpuSystem::new(cfg);
            let p = sys.create_process(GpuId::new(1));
            sys.enable_peer_access(p, GpuId::new(0)).unwrap();
            let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
            (sys, p, buf)
        };
        // Default plan: the access silently degrades to PCIe.
        let plan = FaultPlan::none().with_link_down(0, 1_000, 2_000);
        let (mut sys, p, buf) = boot_with(plan.clone());
        let a = sys.default_agent(p);
        let acc = sys.access(p, a, buf, 1_500, None).unwrap();
        assert_eq!(acc.oracle.route.kind, LinkKind::Pcie);
        assert_eq!(sys.stats().fault().pcie_fallbacks, 1);
        assert_eq!(sys.stats().pcie_root().requests, 1);
        // After recovery the NVLink route is back.
        let acc = sys.access(p, a, buf, 3_000, None).unwrap();
        assert_eq!(acc.oracle.route.kind, LinkKind::NvLink);
        // Refusing the fallback turns the access into an error.
        let (mut sys, p, buf) = boot_with(plan.without_pcie_fallback());
        let a = sys.default_agent(p);
        assert_eq!(
            sys.access(p, a, buf, 1_500, None).unwrap_err(),
            SimError::LinkDown(0)
        );
        assert_eq!(sys.stats().fault().refused_accesses, 1);
        // Outside the outage window the access still works.
        assert!(sys.access(p, a, buf, 2_500, None).is_ok());
    }

    #[test]
    fn fault_plan_deploys_at_runtime_and_requires_the_fabric() {
        use crate::fault::FaultPlan;
        let mut sys = boot();
        assert_eq!(
            sys.set_fault_plan(FaultPlan::none().with_link_down(0, 0, 100)),
            Err(SimError::FabricDisabled)
        );
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(crate::fabric::FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        assert_eq!(
            sys.set_fault_plan(FaultPlan::none().with_link_down(0, 100, 100)),
            Err(SimError::InvalidFaultPlan(
                "link outage must recover after it begins"
            )),
            "degenerate plans come back as errors, not panics"
        );
        assert_eq!(
            sys.set_fault_plan(FaultPlan::none().with_link_down(7, 0, 100)),
            Err(SimError::NoSuchLink(7)),
            "plans must name links of this topology"
        );
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
        let a = sys.default_agent(spy);
        assert_eq!(sys.access(spy, a, buf, 1, None).unwrap().latency, 960);
        // Fault plan deployed mid-life: the single link goes down, the
        // already-existing process's next access degrades to PCIe.
        sys.set_fault_plan(FaultPlan::none().with_link_down(0, 2_000, 4_000))
            .unwrap();
        let acc = sys.access(spy, a, buf, 3_000, None).unwrap();
        assert_eq!(acc.oracle.route.kind, LinkKind::Pcie);
        assert_eq!(sys.stats().fault().pcie_fallbacks, 1);
        // Retracting the plan restores the healthy fabric.
        sys.set_fault_plan(FaultPlan::none()).unwrap();
        let acc = sys.access(spy, a, buf, 3_000, None).unwrap();
        assert_eq!(acc.oracle.route.kind, LinkKind::NvLink);
        assert_eq!(acc.latency, 640);
    }

    #[test]
    fn pressure_raises_latency_for_concurrent_agents() {
        let mut cfg = SystemConfig::small_test();
        cfg.timing.jitter_sigma = 0.0;
        cfg.timing.contention_spike_prob = 0.0;
        let mut sys = MultiGpuSystem::new(cfg);
        let p = sys.create_process(GpuId::new(0));
        let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let a1 = sys.default_agent(p);
        let a2 = sys.new_agent();
        sys.access(p, a1, buf, 0, None).unwrap();
        // a2 accesses at the same time window: sees pressure from a1.
        let acc = sys.access(p, a2, buf, 100, None).unwrap();
        assert!(
            acc.latency > 270,
            "contended hit should exceed 270: {}",
            acc.latency
        );
    }

    /// Latencies of `n` scalar hits on one warm line of GPU 0, with an
    /// access homed on GPU 2 interleaved after every fourth when `extra`.
    fn gpu0_latencies(extra: bool, n: u64) -> Vec<u32> {
        let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(21));
        let p0 = sys.create_process(GpuId::new(0));
        let p2 = sys.create_process(GpuId::new(2));
        let b0 = sys.malloc_on(p0, GpuId::new(0), 1 << 16).unwrap();
        let b2 = sys.malloc_on(p2, GpuId::new(2), 1 << 16).unwrap();
        let (a0, a2) = (sys.default_agent(p0), sys.default_agent(p2));
        let mut lats = Vec::new();
        for i in 0..n {
            let t = i * 500;
            let acc = sys
                .access(p0, a0, b0.offset((i % 8) * 128), t, None)
                .unwrap();
            lats.push(acc.latency);
            if extra && i % 4 == 0 {
                sys.access(p2, a2, b2.offset(i * 128), t + 100, None)
                    .unwrap();
            }
        }
        lats
    }

    #[test]
    fn another_gpus_accesses_leave_this_gpus_noise_untouched() {
        let alone = gpu0_latencies(false, 256);
        assert_eq!(alone, gpu0_latencies(true, 256));
        assert!(alone.iter().any(|&l| l != alone[8]), "jitter expected");
    }

    /// Issues `left` loads of `line` and records every latency.
    struct Recorder {
        pid: ProcessId,
        line: VirtAddr,
        left: u32,
        seen: Rc<RefCell<Vec<u32>>>,
    }

    impl Agent for Recorder {
        fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            Op::Load(self.line)
        }

        fn on_result(&mut self, res: &OpResult<'_>) {
            self.seen.borrow_mut().extend_from_slice(res.latencies);
        }

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    #[test]
    fn back_to_back_engine_runs_see_fresh_jitter() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let p = sys.create_process(GpuId::new(0));
        let line = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        sys.access(p, sys.default_agent(p), line, 0, None).unwrap();
        let mut run = || {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let mut eng = Engine::new(&mut sys);
            eng.add_agent(
                Box::new(Recorder {
                    pid: p,
                    line,
                    left: 64,
                    seen: seen.clone(),
                }),
                0,
            );
            eng.run(u64::MAX).unwrap();
            seen.take()
        };
        let first = run();
        let second = run();
        assert_eq!(first.len(), 64);
        assert_ne!(
            first, second,
            "the engine must not rewind the noise counters"
        );
    }

    #[test]
    fn noiseless_box_draws_no_noise() {
        let draws_during = |cfg: SystemConfig| {
            let mut sys = MultiGpuSystem::new(cfg);
            let p = sys.create_process(GpuId::new(1));
            sys.enable_peer_access(p, GpuId::new(0)).unwrap();
            let local = sys.malloc_on(p, GpuId::new(1), 1 << 16).unwrap();
            let remote = sys.malloc_on(p, GpuId::new(0), 1 << 16).unwrap();
            let (a, b) = (sys.default_agent(p), sys.new_agent());
            let before = crate::draw::DRAWS.with(|c| c.get());
            for i in 0..512u64 {
                sys.access(p, a, local.offset((i * 128 * 7) % (1 << 16)), i * 50, None)
                    .unwrap();
                sys.access(p, b, remote.offset((i * 128 * 5) % (1 << 16)), i * 50, None)
                    .unwrap();
            }
            crate::draw::DRAWS.with(|c| c.get()) - before
        };
        assert_eq!(draws_during(SystemConfig::small_test().noiseless()), 0);
        assert!(draws_during(SystemConfig::small_test()) >= 1024);
    }
}
