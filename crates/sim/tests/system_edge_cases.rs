//! Edge-case integration tests for the simulator's less-travelled paths:
//! PCIe fallback, multi-hop NVLink, out-of-memory, cross-process
//! isolation, engine error propagation and config serialisation.

use gpubox_sim::{
    Agent, Engine, GpuId, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessId, SimError,
    SystemConfig, Topology, VirtAddr,
};

#[test]
fn pcie_fallback_used_when_no_nvlink_route() {
    // Two GPUs with no NVLink edges at all; indirect peer allowed so the
    // runtime routes over PCIe.
    let mut cfg = SystemConfig::small_test().noiseless();
    cfg.topology = Topology::from_edges(2, &[]);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
    let acc = sys.access(spy, sys.default_agent(spy), buf, 0, None).unwrap();
    // PCIe cold access: l2_hit + dram + pcie_round_trip = 270+180+1900.
    assert_eq!(acc.latency, 2350);
    assert_eq!(sys.stats().gpu(GpuId::new(1)).pcie_accesses, 1);
    assert_eq!(sys.stats().gpu(GpuId::new(1)).nvlink_bytes, 0);
}

#[test]
fn two_hop_nvlink_latency_scales_per_hop() {
    // A 3-node line topology: 0-1-2; peer access 0<->2 is 2 hops.
    let mut cfg = SystemConfig::small_test().noiseless();
    cfg.num_gpus = 3;
    cfg.topology = Topology::from_edges(3, &[(0, 1), (1, 2)]);
    cfg.allow_indirect_peer = true;
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(2));
    sys.enable_peer_access(p, GpuId::new(0)).unwrap();
    let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
    let cold = sys.access(p, sys.default_agent(p), buf, 0, None).unwrap();
    let warm = sys.access(p, sys.default_agent(p), buf, 5000, None).unwrap();
    // hit = 270 + 2*360 = 990; miss = 270+180+2*(360+140) = 1450.
    assert_eq!(cold.latency, 1450);
    assert_eq!(warm.latency, 990);
}

#[test]
fn out_of_memory_surfaces_from_malloc() {
    let mut cfg = SystemConfig::small_test();
    cfg.hbm_bytes = 8 * 4096; // 8 frames only
    let mut sys = MultiGpuSystem::new(cfg);
    let p = sys.create_process(GpuId::new(0));
    sys.malloc_on(p, GpuId::new(0), 8 * 4096).unwrap();
    let err = sys.malloc_on(p, GpuId::new(0), 4096).unwrap_err();
    assert_eq!(err, SimError::OutOfMemory(GpuId::new(0)));
}

#[test]
fn address_spaces_are_per_process() {
    // One process's virtual addresses mean nothing to another process.
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let a = sys.create_process(GpuId::new(0));
    let b = sys.create_process(GpuId::new(0));
    let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
    // b has no mapping at a's address (fresh address space).
    let err = sys.access(b, sys.default_agent(b), abuf, 0, None).unwrap_err();
    assert!(matches!(err, SimError::UnmappedAddress(_)));
}

#[test]
fn engine_propagates_agent_errors() {
    struct BadAgent(ProcessId);
    impl Agent for BadAgent {
        fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
            Op::Load(VirtAddr(0xDEAD_0000)) // never mapped
        }
        fn on_result(&mut self, _res: &OpResult<'_>) {}
        fn process(&self) -> ProcessId {
            self.0
        }
    }
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let p = sys.create_process(GpuId::new(0));
    let mut eng = Engine::new(&mut sys);
    eng.add_agent(Box::new(BadAgent(p)), 0);
    let err = eng.run(1_000_000).unwrap_err();
    assert!(matches!(err, SimError::UnmappedAddress(_)));
}

#[test]
fn write_words_spans_page_boundaries() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let p = sys.create_process(GpuId::new(0));
    // Two pages; write a run of words crossing the 4 KiB boundary.
    let buf = sys.malloc_on(p, GpuId::new(0), 2 * 4096).unwrap();
    let words: Vec<u64> = (0..32).map(|i| 0x1000 + i).collect();
    let start = buf.offset(4096 - 16 * 8);
    sys.write_words(p, start, &words).unwrap();
    for (i, &w) in words.iter().enumerate() {
        assert_eq!(sys.read_word(p, start.offset(8 * i as u64)).unwrap(), w);
    }
}

#[test]
fn flush_only_affects_target_gpu() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let a = sys.create_process(GpuId::new(0));
    let b = sys.create_process(GpuId::new(1));
    let abuf = sys.malloc_on(a, GpuId::new(0), 4096).unwrap();
    let bbuf = sys.malloc_on(b, GpuId::new(1), 4096).unwrap();
    sys.access(a, sys.default_agent(a), abuf, 0, None).unwrap();
    sys.access(b, sys.default_agent(b), bbuf, 0, None).unwrap();
    sys.flush_l2(GpuId::new(0));
    assert!(!sys.oracle_resident(a, abuf).unwrap());
    assert!(sys.oracle_resident(b, bbuf).unwrap());
}

#[test]
fn stats_reset_keeps_cache_contents() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let p = sys.create_process(GpuId::new(0));
    let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
    sys.access(p, sys.default_agent(p), buf, 0, None).unwrap();
    sys.reset_stats();
    assert_eq!(sys.stats().total().issued_accesses, 0);
    // The line is still cached: next access hits.
    let acc = sys.access(p, sys.default_agent(p), buf, 1000, None).unwrap();
    assert!(acc.oracle.hit);
}

#[test]
fn system_config_serde_round_trip() {
    let cfg = SystemConfig::dgx1();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SystemConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.num_gpus, cfg.num_gpus);
    assert_eq!(back.cache.num_sets(), cfg.cache.num_sets());
    assert_eq!(back.timing.l2_hit, cfg.timing.l2_hit);
    assert!(back.topology.direct_nvlink(GpuId::new(0), GpuId::new(4)));
}

#[test]
fn accessing_unknown_process_fails() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let ghost = ProcessId(99);
    let err = sys
        .access(ghost, gpubox_sim::AgentId(0), VirtAddr(4096), 0, None)
        .unwrap_err();
    assert_eq!(err, SimError::NoSuchProcess(99));
}

#[test]
fn store_then_load_through_the_timed_path_is_coherent() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let writer = sys.create_process(GpuId::new(0));
    let reader = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(reader, GpuId::new(0)).unwrap();
    // Reader maps memory on GPU0; writer cannot see it, but the same
    // process writing and reading over NVLink must be coherent.
    let buf = sys.malloc_on(reader, GpuId::new(0), 4096).unwrap();
    sys.access(reader, sys.default_agent(reader), buf, 0, Some(0x5EC2E7)).unwrap();
    let acc = sys.access(reader, sys.default_agent(reader), buf, 2000, None).unwrap();
    assert_eq!(acc.value, 0x5EC2E7);
    assert!(acc.oracle.hit, "write-allocate: the store cached the line");
    let _ = writer;
}

/// A noiseless small box with extreme contention terms switched on.
fn extreme_timing_box(configure: impl FnOnce(&mut SystemConfig)) -> MultiGpuSystem {
    let mut cfg = SystemConfig::small_test().noiseless();
    configure(&mut cfg);
    MultiGpuSystem::new(cfg)
}

#[test]
fn extreme_nvlink_queue_saturates_instead_of_wrapping() {
    // Three concurrent remote requesters ahead of the fourth: a queue
    // term of 3 × (u32::MAX / 2) does not fit a u32.
    let mut sys = extreme_timing_box(|cfg| cfg.timing.nvlink_queue_per_req = u32::MAX / 2);
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let buf = sys.malloc_on(spy, GpuId::new(0), 4096).unwrap();
    let agents = [
        sys.default_agent(spy),
        sys.new_agent(),
        sys.new_agent(),
        sys.new_agent(),
    ];
    let latencies: Vec<u32> = agents
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            sys.access(spy, a, buf, 10 * i as u64, None)
                .unwrap()
                .latency
        })
        .collect();
    // Cold miss, then hits queued behind 1, 2 and 3 requesters.
    let hit = sys.config().timing.expected_hit(1);
    assert_eq!(latencies[0], sys.config().timing.expected_miss(1));
    assert_eq!(latencies[1], hit + u32::MAX / 2);
    assert_eq!(latencies[2], u32::MAX, "2 × (u32::MAX / 2) + hit saturates");
    assert_eq!(latencies[3], u32::MAX, "3 × (u32::MAX / 2) saturates");
}

#[test]
fn extreme_congestion_spikes_saturate_instead_of_wrapping() {
    // Every pressured access starts an episode that never ends, and each
    // spike alone nearly fills a u32.
    let mut sys = extreme_timing_box(|cfg| {
        cfg.timing.contention_spike_prob = 1.0;
        cfg.timing.contention_spike_cycles = u32::MAX - 7;
        cfg.timing.congestion_cycles = u64::MAX;
    });
    let p = sys.create_process(GpuId::new(0));
    let buf = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
    let (a, b) = (sys.default_agent(p), sys.new_agent());
    // Alone on the GPU: no pressure, no episode.
    let first = sys.access(p, a, buf, 0, None).unwrap();
    assert_eq!(first.latency, sys.config().timing.expected_miss(0));
    // A second agent sees pressure 1: the episode-opening spike saturates.
    let opening = sys.access(p, b, buf, 100, None).unwrap();
    assert_eq!(opening.latency, u32::MAX);
    // Inside the (never-ending) episode: spike plus random extra saturates.
    for t in [200, 1 << 40, u64::MAX - 1] {
        assert_eq!(sys.access(p, a, buf, t, None).unwrap().latency, u32::MAX);
    }
    assert_eq!(sys.stats().gpu(GpuId::new(0)).congestion_episodes, 1);
}
