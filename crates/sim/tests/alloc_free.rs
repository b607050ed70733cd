//! Counting-allocator proof that the engine's steady-state loop is
//! allocation-free.
//!
//! A `#[global_allocator]` wrapper counts every `alloc`/`realloc`. The
//! test warms an engine (first batches size the scratch buffers, first
//! stores materialise HBM frame backing), snapshots the counter, runs
//! thousands more ops across **every op kind** (`Load`, `Store`,
//! `Compute`, `LoadBatch`) at agent counts from the paper's trojan/spy
//! pair up to multi-tenant mixes, and asserts the counter did not move. These scenarios use noiseless timing, which skips the
//! contention-pressure trackers entirely.
//!
//! A second scenario runs the same loop on the **default noisy timing**
//! (jitter, contention pressure, congestion episodes, the scalar NVLink
//! queue term) with local and remote issuers, so both the home GPU's
//! pressure tracker and its NVLink tracker are live: their windows grow
//! to steady state during warm-up and are reused, never reallocated.
//!
//! A third scenario set proves the same for the **timed link fabric**:
//! remote single-hop, multi-hop (3-GPU line topology) and PCIe-fallback
//! (a disconnected fourth GPU) accesses with `FabricConfig::nvlink_v1()`
//! enabled — route lookups are precomputed slices and link occupancy is a
//! fixed array, so the fabric adds zero steady-state allocations.
//!
//! A fourth set proves it for the **QoS / defence layer** with each
//! mechanism enabled in turn — token-bucket rate limiting, epoch
//! pacing, seeded grant jitter, and valiant routing: buckets are
//! preallocated per process at `create_process` time, the shaping and
//! valiant streams are counter-indexed splitmix64 (no RNG object, no
//! state growth), and valiant detours reuse the topology's precomputed
//! path slices.
//!
//! A fifth set proves it for the **fault-injection layer** with an
//! active `FaultPlan` (always-on transient stalls plus a degraded
//! window and a link outage both scheduled *inside* the measured run):
//! fault epochs and their rerouted topologies are precomputed when the
//! plan is installed, the per-access epoch lookup is a binary search
//! over a fixed slice, and stall draws are counter-indexed splitmix64
//! — so even while the outage is forcing PCIe fallbacks and reroutes,
//! the steady-state loop allocates nothing.
//!
//! A sixth set proves it for the **event tracer** running on top of the
//! full fault + QoS stack: the ring buffer is allocated once at
//! `enable_tracing` time, and the record path is a branch plus a masked
//! store that silently overwrites the oldest record when the ring wraps
//! — so even at maximum event rate (every hop, stall, reroute and
//! engine op recorded) the measured window allocates nothing.
//!
//! A seventh set proves it for the **fleet layer**: after pool warm-up
//! (node buffers pre-allocated at boot, front-end queues and scratch
//! pre-sized, first recycle generation folded), the whole serial fleet
//! loop — Poisson/Zipf arrival draws, O(log n) placement decisions,
//! node stepping through `access_batch_into`, departure processing and
//! in-place node recycling via `canonicalize_phase` — allocates
//! nothing. This is the claim that makes node *pooling* (reuse, not
//! reconstruction) worth having.
//!
//! The counter is **thread-local**: the engine loop under test runs on
//! the test's own thread, while the libtest main thread keeps doing its
//! own bookkeeping (event messages, stdout buffering) concurrently — a
//! process-global counter picks those up and turns the assertion into a
//! rare, load-dependent flake. Per-thread counting measures exactly the
//! loop and nothing else.

use gpubox_sim::{
    run_windowed, Agent, ChannelAware, Engine, FabricConfig, FaultPlan, FleetConfig, FleetRunner,
    GpuId, Monitor, MonitorConfig, MultiGpuSystem, Op, OpResult, Pack, PlacementPolicy, ProbeStage,
    ProcessId, QosConfig, RandomPlacement, SystemConfig, Topology, VirtAddr,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations observed on *this* thread (const-initialised so the
    /// TLS access itself never allocates).
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

fn count_one() {
    // `try_with` so allocations during TLS teardown are ignored rather
    // than panicking.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cycles through Load → Store → Compute → LoadBatch over a fixed line
/// list, forever (the engine deadline bounds it). Holds no growing state.
struct AllKindsAgent {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    step: usize,
}

impl Agent for AllKindsAgent {
    fn next_op(&mut self, _now: u64, stage: &mut ProbeStage) -> Op {
        let line = self.lines[self.step % self.lines.len()];
        let op = match self.step % 4 {
            0 => Op::Load(line),
            1 => Op::Store(line, self.step as u64),
            2 => Op::Compute(150),
            _ => {
                stage.extend_from_slice(&self.lines);
                Op::LoadBatch
            }
        };
        self.step += 1;
        op
    }

    fn on_result(&mut self, _res: &OpResult<'_>) {}

    fn process(&self) -> ProcessId {
        self.pid
    }
}

#[test]
fn engine_steady_state_loop_is_allocation_free() {
    // Trojan/spy-scale agent counts (the paper's regime) and
    // multi-tenant mixes.
    for agents in [2, 3, 6, 8] {
        let allocs = steady_state_allocs(SystemConfig::small_test().noiseless(), agents);
        assert_eq!(
            allocs, 0,
            "engine steady-state loop allocated {allocs} times ({agents} agents)"
        );
        let allocs = fabric_steady_state_allocs(agents, QosConfig::off());
        assert_eq!(
            allocs, 0,
            "fabric-enabled steady-state loop allocated {allocs} times ({agents} agents)"
        );
    }
}

#[test]
fn noisy_steady_state_loop_is_allocation_free() {
    for agents in [2, 4, 8] {
        let allocs = steady_state_allocs(SystemConfig::small_test(), agents);
        assert_eq!(
            allocs, 0,
            "noisy steady-state loop allocated {allocs} times ({agents} agents)"
        );
    }
}

#[test]
fn fault_steady_state_loop_is_allocation_free() {
    // Every fault mechanism at once, live inside the measured window
    // (warm-up ends at 600k, measurement runs to 6.6M): stalls fire
    // throughout, link (0,1) degrades over [700k, 3M), and link (1,2)
    // goes down over [3M, 5M) — which partitions GPU2's agents from
    // GPU0 and forces their traffic through the PCIe fallback.
    let plan = FaultPlan::none()
        .with_stalls(7, 16, 450)
        .with_degraded(0, 700_000, 3_000_000, 4)
        .with_link_down(1, 3_000_000, 5_000_000);
    let allocs = fabric_steady_state_allocs_under(4, QosConfig::off(), plan);
    assert_eq!(
        allocs, 0,
        "fault-injected steady-state loop allocated {allocs} times"
    );
}

#[test]
fn traced_steady_state_loop_is_allocation_free() {
    // The fault scenario's full stack plus every QoS mechanism, with the
    // tracer on and a small (4Ki-record) ring: the measured window emits
    // orders of magnitude more records than the ring holds, so the test
    // also proves that wrapping is allocation-free.
    let plan = FaultPlan::none()
        .with_stalls(7, 16, 450)
        .with_degraded(0, 700_000, 3_000_000, 4)
        .with_link_down(1, 3_000_000, 5_000_000);
    let qos = QosConfig::off()
        .with_rate_limit(640, 1024)
        .with_jitter(900, 17)
        .with_valiant(23);
    let allocs = fabric_steady_state_allocs_traced(4, qos, plan, true);
    assert_eq!(
        allocs, 0,
        "traced steady-state loop allocated {allocs} times"
    );
}

#[test]
fn qos_steady_state_loop_is_allocation_free() {
    // Each defence mechanism in turn, plus the full stack at once.
    // Deliberately tight budgets so the rate limiter
    // actually shapes traffic inside the measured window.
    let qos_configs = [
        ("rate limit", QosConfig::off().with_rate_limit(640, 1024)),
        ("pacing", QosConfig::off().with_pacing(700)),
        ("jitter", QosConfig::off().with_jitter(900, 17)),
        ("valiant", QosConfig::off().with_valiant(23)),
        (
            "all combined",
            QosConfig::off()
                .with_rate_limit(640, 1024)
                .with_jitter(900, 17)
                .with_valiant(23),
        ),
    ];
    for (label, qos) in qos_configs {
        let allocs = fabric_steady_state_allocs(4, qos);
        assert_eq!(
            allocs, 0,
            "QoS ({label}) steady-state loop allocated {allocs} times"
        );
    }
}

#[test]
fn monitored_steady_state_loop_is_allocation_free() {
    // The online covert-channel monitor on top of the fabric scenario:
    // the engine is stepped in 1500-cycle windows and every window's
    // cumulative stats are diffed into the EWMA/CUSUM/periodicity
    // detectors. All detector state (rings, per-channel estimates, the
    // alarm list) is preallocated at `Monitor::new`, so the whole
    // windowed observe loop must not allocate once warm.
    let allocs = monitored_steady_state_allocs(4);
    assert_eq!(
        allocs, 0,
        "monitored steady-state loop allocated {allocs} times"
    );
}

#[test]
fn fleet_steady_state_is_allocation_free_after_pool_warmup() {
    // Every placement policy: the policies differ in index queries and
    // hint state, but none may allocate once the pool is warm.
    type PolicyCtor = fn() -> Box<dyn PlacementPolicy>;
    let policies: [(&str, PolicyCtor); 3] = [
        ("pack", || Box::new(Pack)),
        ("random", || Box::new(RandomPlacement::new(5))),
        ("channel_aware", || Box::new(ChannelAware::new(16))),
    ];
    for (label, policy) in policies {
        let allocs = fleet_steady_state_allocs(policy());
        assert_eq!(
            allocs, 0,
            "fleet steady-state loop allocated {allocs} times (policy {label})"
        );
    }
}

/// Boots an 8-node fleet at moderate load, warms the pool until job
/// churn and node recycling have both engaged (every scratch sized,
/// every buffer materialised, the stats accumulator shaped), snapshots
/// the counter and runs 4x longer. Serial stepping (`threads = 1`):
/// parallel mode allocates only its per-epoch scoped worker threads,
/// which is bounded and outside the claim.
fn fleet_steady_state_allocs(policy: Box<dyn PlacementPolicy>) -> u64 {
    // Moderate load so nodes actually drain and recycle: pooling is
    // the path under test, not just slot churn.
    let mut cfg = FleetConfig::new(8, 99).with_target_utilization(0.45);
    cfg.horizon = 4_000_000;
    cfg.epoch = 25_000;
    let mut runner = FleetRunner::new(cfg, policy);
    runner.run_until(1_000_000);
    assert!(
        runner.exposure().nodes_recycled > 0,
        "warm-up must exercise the recycle path so its first fold is paid"
    );
    assert!(runner.exposure().placed > 20, "warm-up must churn jobs");
    let recycled_before = runner.exposure().nodes_recycled;
    let before = alloc_calls();
    runner.run_until(4_000_000);
    let allocs = alloc_calls() - before;
    assert!(
        runner.exposure().nodes_recycled > recycled_before,
        "measured window must recycle nodes, or the claim is vacuous"
    );
    allocs
}

/// Runs `agents` concurrent [`AllKindsAgent`]s on a box booted from `cfg`:
/// warm-up run (sizes every scratch buffer, materialises
/// store-backing HBM frames, fills pressure windows when `cfg` is noisy,
/// builds the heap), snapshot, measured run. Returns the allocation
/// count of the measured run.
fn steady_state_allocs(cfg: SystemConfig, agents: usize) -> u64 {
    let mut sys = MultiGpuSystem::new(cfg);
    let p0 = sys.create_process(GpuId::new(0));
    let p1 = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p1, GpuId::new(0)).unwrap();

    let mut plans = Vec::new();
    for a in 0..agents {
        // Alternate local (GPU0) and remote (GPU1→GPU0) issuers so both
        // the local and NVLink paths are exercised.
        let pid = if a % 2 == 0 { p0 } else { p1 };
        let buf = sys.malloc_on(pid, GpuId::new(0), 16 * 4096).unwrap();
        let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 4096)).collect();
        plans.push((pid, lines, (a as u64) * 37));
    }
    measure(sys, plans)
}

/// As [`steady_state_allocs`], on a fabric-enabled 4-GPU box whose
/// topology is a 0-1-2 NVLink line plus a disconnected GPU3: agents
/// cycle through local (GPU0→GPU0), direct-link (GPU1→GPU0), two-hop
/// (GPU2→GPU0) and PCIe-fallback (GPU3→GPU0) issuers, so every fabric
/// traversal shape runs under the counting allocator — with the given
/// QoS / defence configuration layered on top.
fn fabric_steady_state_allocs(agents: usize, qos: QosConfig) -> u64 {
    fabric_steady_state_allocs_under(agents, qos, FaultPlan::none())
}

/// As [`fabric_steady_state_allocs`] with a fault-injection plan
/// installed on the fabric.
fn fabric_steady_state_allocs_under(agents: usize, qos: QosConfig, faults: FaultPlan) -> u64 {
    fabric_steady_state_allocs_traced(agents, qos, faults, false)
}

/// As [`fabric_steady_state_allocs_under`], optionally with the event
/// tracer on (a deliberately small ring, so the measured window wraps it
/// many times over).
fn fabric_steady_state_allocs_traced(
    agents: usize,
    qos: QosConfig,
    faults: FaultPlan,
    traced: bool,
) -> u64 {
    let mut cfg = SystemConfig::small_test()
        .noiseless()
        .with_fabric(FabricConfig::nvlink_v1().with_qos(qos).with_faults(faults));
    cfg.num_gpus = 4;
    cfg.topology = Topology::from_edges(4, &[(0, 1), (1, 2)]);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    if traced {
        sys.enable_tracing(1 << 12);
    }
    let pids: Vec<ProcessId> = (0..4)
        .map(|g| sys.create_process(GpuId::new(g)))
        .collect();
    for &pid in &pids[1..] {
        sys.enable_peer_access(pid, GpuId::new(0)).unwrap();
    }

    let mut plans = Vec::new();
    for a in 0..agents {
        let pid = pids[a % 4];
        let buf = sys.malloc_on(pid, GpuId::new(0), 16 * 4096).unwrap();
        let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 4096)).collect();
        plans.push((pid, lines, (a as u64) * 37));
    }
    measure(sys, plans)
}

/// The fabric scenario of [`fabric_steady_state_allocs`], but driven
/// through [`gpubox_sim::run_windowed`] with a [`gpubox_sim::Monitor`]
/// observing every 1500-cycle window: warm-up past the detector
/// calibration phase, snapshot, then a 10x longer monitored run.
fn monitored_steady_state_allocs(agents: usize) -> u64 {
    let mut cfg = SystemConfig::small_test()
        .noiseless()
        .with_fabric(FabricConfig::nvlink_v1());
    cfg.num_gpus = 4;
    cfg.topology = Topology::from_edges(4, &[(0, 1), (1, 2)]);
    cfg.allow_indirect_peer = true;
    let num_links = cfg.topology.num_links();
    let mut sys = MultiGpuSystem::new(cfg);
    let pids: Vec<ProcessId> = (0..4)
        .map(|g| sys.create_process(GpuId::new(g)))
        .collect();
    for &pid in &pids[1..] {
        sys.enable_peer_access(pid, GpuId::new(0)).unwrap();
    }
    let mut plans = Vec::new();
    for a in 0..agents {
        let pid = pids[a % 4];
        let buf = sys.malloc_on(pid, GpuId::new(0), 16 * 4096).unwrap();
        let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 4096)).collect();
        plans.push((pid, lines, (a as u64) * 37));
    }
    let mut mon = Monitor::new(MonitorConfig::default(), num_links, 4);
    let mut eng = Engine::new(&mut sys);
    for (pid, lines, start) in plans {
        eng.add_agent(
            Box::new(AllKindsAgent {
                pid,
                lines,
                step: 0,
            }),
            start,
        );
    }
    // Warm-up: past detector calibration (64 windows × 1500 cycles)
    // and every engine scratch sizing.
    run_windowed(&mut eng, &mut mon, 600_000, None).unwrap();
    let before = alloc_calls();
    run_windowed(&mut eng, &mut mon, 6_000_000, None).unwrap();
    let allocs = alloc_calls() - before;
    assert!(
        mon.windows_observed() >= 4000,
        "measured run must actually observe windows, or the claim is vacuous"
    );
    allocs
}

/// Warm-up run, snapshot, measured run; returns the measured count.
fn measure(mut sys: MultiGpuSystem, plans: Vec<(ProcessId, Vec<VirtAddr>, u64)>) -> u64 {
    let mut eng = Engine::new(&mut sys);
    for (pid, lines, start) in plans {
        eng.add_agent(
            Box::new(AllKindsAgent {
                pid,
                lines,
                step: 0,
            }),
            start,
        );
    }

    eng.run(600_000).unwrap();
    let before = alloc_calls();
    eng.run(6_000_000).unwrap();
    alloc_calls() - before
}
