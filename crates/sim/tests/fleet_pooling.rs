//! Node-pool reuse contract: a pooled node's second tenant epoch must
//! be **bit-identical** to a freshly built node's first epoch.
//!
//! The fleet runner never reconstructs a node — when its last job
//! departs, the node is recycled in place via `canonicalize_phase`.
//! That only works if the boundary rewinds *everything* a tenant epoch
//! can observe: L2 contents, timing state, stats, the frame-placement
//! RNG and the noise-draw counters — and
//! (the PR-9 fix) the trace ring and the agent-id counter, which
//! previously leaked the first tenant's history into the second epoch.
//! The fingerprint below folds latencies, batch summaries, serialized
//! stats, every trace record, the trace `recorded()` count and a fresh
//! agent-id probe, on a node with the timed fabric, QoS-free transient
//! stalls and tracing all enabled — the full observable surface.

use gpubox_sim::{
    AgentId, FabricConfig, FaultPlan, GpuId, MultiGpuSystem, ProcessId, SystemConfig, VirtAddr,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

struct PoolNode {
    sys: MultiGpuSystem,
    pid: ProcessId,
    local: VirtAddr,
    remote: VirtAddr,
}

/// Boots a 2-GPU node the way the fleet does — processes and buffers
/// pre-created — with the timed fabric, a transient-stall fault plan
/// and tracing enabled so every resettable subsystem is live.
fn boot(seed: u64) -> PoolNode {
    let cfg = SystemConfig::small_test()
        .noiseless()
        .with_seed(seed)
        .with_fabric(FabricConfig::nvlink_v1());
    let mut sys = MultiGpuSystem::new(cfg);
    let pid = sys.create_process(GpuId::new(0));
    sys.enable_peer_access(pid, GpuId::new(1)).unwrap();
    let local = sys.malloc_on(pid, GpuId::new(0), 64 * 1024).unwrap();
    let remote = sys.malloc_on(pid, GpuId::new(1), 64 * 1024).unwrap();
    sys.enable_tracing(4096);
    sys.set_fault_plan(FaultPlan::none().with_stalls(7, 64, 40))
        .unwrap();
    PoolNode {
        sys,
        pid,
        local,
        remote,
    }
}

/// One deterministic tenant epoch: `batches` mixed local/remote probe
/// batches with a per-epoch address stride, fingerprinting everything a
/// tenant could observe.
fn tenant_epoch(node: &mut PoolNode, batches: u64, stride: u64) -> u64 {
    let agent = node.sys.default_agent(node.pid);
    let mut addrs = Vec::new();
    let mut lats = Vec::new();
    let mut h = FNV_OFFSET;
    let mut now = 0u64;
    for b in 0..batches {
        addrs.clear();
        let base = if b % 4 == 3 { node.remote } else { node.local };
        for k in 0..16u64 {
            addrs.push(base.offset(((b * stride + k * 7) % 512) * 128));
        }
        lats.clear();
        let s = node
            .sys
            .access_batch_into(node.pid, agent, &addrs, now, &mut lats)
            .unwrap();
        now += s.duration + 100;
        h = fnv(h, s.duration);
        h = fnv(h, u64::from(s.hits));
        for &l in &lats {
            h = fnv(h, u64::from(l));
        }
    }
    // Trace stream: contents and lifetime count both matter (a stale
    // ring head shows up here even if the records happen to match).
    h = fnv(h, node.sys.trace().recorded());
    for r in node.sys.trace().records() {
        h = fnv(h, r.cycle);
        h = fnv(h, r.a);
        h = fnv(h, r.b);
        h = fnv(h, u64::from(r.process));
        h = fnv(h, r.kind as u8 as u64);
    }
    // Agent-id counter: a fresh node and a recycled node must hand the
    // engine the same ids.
    let AgentId(probe) = node.sys.new_agent();
    h = fnv(h, u64::from(probe));
    // Full stats surface via the serialized form.
    for b in serde_json::to_string(node.sys.stats()).unwrap().into_bytes() {
        h = fnv(h, u64::from(b));
    }
    h
}

const EPOCH_TAG: u64 = 0xF1EE7;

#[test]
fn pooled_second_epoch_matches_fresh_node() {
    // Fresh node: boot → canonicalize → tenant epoch.
    let mut fresh = boot(1234);
    fresh.sys.canonicalize_phase(EPOCH_TAG);
    let fp_fresh = tenant_epoch(&mut fresh, 50, 31);

    // Pooled node: boot → a *different* first tenant epoch (more
    // batches, different stride, extra agent churn) → recycle →
    // the same second epoch.
    let mut pooled = boot(1234);
    pooled.sys.canonicalize_phase(99);
    let _ = tenant_epoch(&mut pooled, 83, 13);
    let _ = pooled.sys.new_agent();
    pooled.sys.canonicalize_phase(EPOCH_TAG);
    let fp_pooled = tenant_epoch(&mut pooled, 50, 31);

    assert_eq!(
        fp_fresh, fp_pooled,
        "a recycled node's epoch must be bit-identical to a fresh node's"
    );
}

#[test]
fn canonicalize_resets_trace_ring_and_agent_counter() {
    let mut node = boot(77);
    let _ = tenant_epoch(&mut node, 20, 5);
    assert!(
        node.sys.trace().recorded() > 1,
        "epoch must have recorded events"
    );
    node.sys.canonicalize_phase(42);
    // The boundary's own PhaseMark is record zero — exactly the state
    // of a freshly canonicalized node.
    assert_eq!(node.sys.trace().recorded(), 1);
    let records = node.sys.trace().records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].a, 42, "the surviving record is this PhaseMark");
    assert!(node.sys.tracing_enabled(), "enablement survives recycling");
    let AgentId(first) = node.sys.new_agent();
    let mut fresh = boot(77);
    fresh.sys.canonicalize_phase(42);
    let AgentId(fresh_first) = fresh.sys.new_agent();
    assert_eq!(first, fresh_first, "agent ids restart at the boundary");
}
