//! The two covert-channel workloads: L2 Prime+Probe on the default noisy
//! DGX-1 (fabric off), and NVLink link congestion on the timed fabric.

use gpubox_attacks::timing_re::measure_timing;
use gpubox_attacks::{
    classify_pages_fast, redecode_traces, transmit_over, BoundaryPolicy, ChannelMedium,
    ChannelParams, ChannelReport, L2SetMedium, LinkChannel, LinkCongestionMedium, Locality,
    Pipeline, ScanConfig, SetPair,
};
use gpubox_bench::{AttackSetup, ATTACK_BUFFER_BYTES};
use gpubox_sim::{
    FabricConfig, GpuId, MultiGpuSystem, ProcessCtx, ProcessId, SchedulerKind, SystemConfig,
    VirtAddr,
};

use crate::trace::Tracer;
use crate::workload::{access_loop, seeded_bits, sim_counts, Check, Counts, UnitOut, Workload};

/// Bit-error rate above which a payload counts as failed: the gate the
/// repository's channel experiments apply.
const BER_GATE: f64 = 0.05;

/// Canonical phase the modelled L2s are reset to after set-up, whichever
/// set-up path ran.
const SETUP_TAG: u64 = 0xBE0C_0000_0000_0001;
/// Canonical phase every measured unit starts from.
const UNIT_TAG: u64 = 0xBE0C_0000_0000_0002;

/// Accesses per fixed-loop latency probe.
const PROBE_ACCESSES: u64 = 200_000;

/// Sends `payload` over `medium`, and in a traced run re-decodes the
/// same traces with the same pipeline to time the decoder on its own.
fn transmit_unit(
    sys: &mut MultiGpuSystem,
    medium: &dyn ChannelMedium,
    payload: &[u8],
    params: &ChannelParams,
    pipeline: &Pipeline,
    t: &mut Tracer,
    check: &mut Check,
) -> UnitOut {
    sys.canonicalize_phase(UNIT_TAG);
    let rep: ChannelReport = t.span("covert.transmit", |_| {
        transmit_over(sys, medium, payload, params, pipeline, SchedulerKind::Auto)
            .expect("transmission")
    });
    if t.enabled() {
        let (decoded, _) = t.span("covert.decode", |_| {
            redecode_traces(&rep.traces, params, pipeline, payload.len())
        });
        check.require(
            decoded == rep.received,
            "re-decoding the traces with the same pipeline reproduces the received bits",
        );
    }
    let bits = payload.len() as u64;
    let failed = if rep.error_rate > BER_GATE { bits } else { 0 };
    let mut counts = sim_counts(sys.stats());
    counts.push(("covert.bits", bits as f64));
    counts.push(("covert.bit_errors", rep.bit_errors as f64));
    counts.push((
        "covert.sim_bandwidth_mb_s",
        rep.bandwidth_bytes_per_sec / 1e6,
    ));
    counts.push(("covert.listen_cycles", rep.listen_cycles as f64));
    counts.push(("covert.duration_cycles", rep.duration_cycles as f64));
    UnitOut {
        ops: bits,
        failed,
        counts,
    }
}

/// `covert_l2_noisy`: Prime+Probe over four aligned L2 set pairs, trojan
/// on GPU0 and spy on GPU1, on the default noisy DGX-1.
#[derive(Debug)]
pub struct CovertL2 {
    /// Workload seed: system seed and payload.
    pub seed: u64,
    /// Payload bits per unit.
    pub bits: usize,
}

/// Prepared L2 channel.
#[derive(Debug)]
pub struct L2State {
    setup: AttackSetup,
    pairs: Vec<SetPair>,
    payload: Vec<u8>,
}

impl CovertL2 {
    fn config(&self) -> SystemConfig {
        SystemConfig::dgx1().with_seed(self.seed)
    }

    /// `AttackSetup::prepare_with_cache`'s cache-miss path, call by call,
    /// so each layer gets its own span.
    fn traced_prepare(&self, t: &mut Tracer) -> AttackSetup {
        let (trojan_gpu, spy_gpu) = (GpuId::new(0), GpuId::new(1));
        let mut sys = MultiGpuSystem::new(self.config());
        let thresholds = t.span("timing_re", |_| {
            measure_timing(&mut sys, trojan_gpu, spy_gpu, 48).expect("timing reverse engineering")
        });
        let thresholds = thresholds.thresholds;
        let trojan = sys.create_process(trojan_gpu);
        let spy = sys.create_process(spy_gpu);
        sys.enable_peer_access(spy, trojan_gpu)
            .expect("peer access");
        let trojan_buf = sys
            .malloc_on(trojan, trojan_gpu, ATTACK_BUFFER_BYTES)
            .expect("trojan buffer");
        let spy_buf = sys
            .malloc_on(spy, trojan_gpu, ATTACK_BUFFER_BYTES)
            .expect("spy buffer");
        let issued_before = sys.stats().total().issued_accesses;
        let (trojan_classes, spy_classes) = t.span("eviction", |_| {
            let mut classify = |pid: ProcessId, buf: VirtAddr, loc: Locality| {
                let (page, line) = (sys.config().page_size, sys.config().cache.line_size);
                let ways = sys.config().cache.ways as usize;
                let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
                classify_pages_fast(
                    &mut ctx,
                    buf,
                    ATTACK_BUFFER_BYTES,
                    page,
                    line,
                    ways,
                    &thresholds,
                    loc,
                    &ScanConfig::classify_default(),
                )
                .expect("page classification")
            };
            (
                classify(trojan, trojan_buf, Locality::Local),
                classify(spy, spy_buf, Locality::Remote),
            )
        });
        t.count(
            "eviction.sim_accesses",
            (sys.stats().total().issued_accesses - issued_before) as f64,
        );
        AttackSetup {
            sys,
            trojan,
            spy,
            trojan_classes,
            spy_classes,
            thresholds,
            offline_cached: false,
        }
    }
}

impl Workload for CovertL2 {
    type State = L2State;

    fn setup(&self, t: &mut Tracer) -> L2State {
        let mut setup = if t.enabled() {
            self.traced_prepare(t)
        } else {
            AttackSetup::prepare_with_cache(self.config(), GpuId::new(0), GpuId::new(1), None)
        };
        setup.sys.canonicalize_phase(SETUP_TAG);
        let pairs = t.span("alignment", |_| setup.aligned_pairs(4));
        L2State {
            setup,
            pairs,
            payload: seeded_bits(self.seed, self.bits),
        }
    }

    fn unit(&self, st: &mut L2State, t: &mut Tracer, check: &mut Check) -> UnitOut {
        let medium = L2SetMedium {
            trojan: st.setup.trojan,
            spy: st.setup.spy,
            pairs: &st.pairs,
            thresholds: st.setup.thresholds,
        };
        let pipeline = Pipeline::vote(BoundaryPolicy::TwoMeans);
        transmit_unit(
            &mut st.setup.sys,
            &medium,
            &st.payload,
            &ChannelParams::default(),
            &pipeline,
            t,
            check,
        )
    }

    fn probe(&self, st: &mut L2State, t: &mut Tracer, check: &mut Check) -> Counts {
        // The traced set-up replays prepare_with_cache call by call; it
        // must derive exactly what the real entry point derives.
        let real =
            AttackSetup::prepare_with_cache(self.config(), GpuId::new(0), GpuId::new(1), None);
        check.require(
            real.thresholds == st.setup.thresholds
                && real.trojan_classes.classes == st.setup.trojan_classes.classes
                && real.spy_classes.classes == st.setup.spy_classes.classes,
            "traced set-up derives the same thresholds and page classes as prepare_with_cache",
        );
        let s = &mut st.setup;
        let local = access_loop(
            &mut s.sys,
            s.trojan,
            s.trojan_classes.base,
            PROBE_ACCESSES,
            t,
        );
        let remote = access_loop(&mut s.sys, s.spy, s.spy_classes.base, PROBE_ACCESSES, t);
        vec![
            ("sim.access_ns_local", local),
            ("sim.access_ns_remote", remote),
        ]
    }
}

/// `covert_link_fabric`: link-congestion channel on the fabric-enabled
/// DGX-1. Trojan on GPU1 and spy on GPU0 both read GPU5's memory; their
/// routes share link (1,5).
#[derive(Debug)]
pub struct CovertLink {
    /// Workload seed: system seed and payload.
    pub seed: u64,
    /// Payload bits per unit.
    pub bits: usize,
}

/// Booted link channel.
#[derive(Debug)]
pub struct LinkState {
    sys: MultiGpuSystem,
    trojan: ProcessId,
    spy: ProcessId,
    trojan_lines: Vec<VirtAddr>,
    spy_lines: Vec<VirtAddr>,
    payload: Vec<u8>,
}

/// GPU whose memory both link-channel parties read.
const LINK_HOME: u8 = 5;

impl CovertLink {
    fn params() -> ChannelParams {
        ChannelParams {
            spy_gap: 300,
            ..Default::default()
        }
    }
}

impl Workload for CovertLink {
    type State = LinkState;

    fn setup(&self, _t: &mut Tracer) -> LinkState {
        let mut cfg = SystemConfig::dgx1()
            .with_seed(self.seed)
            .with_fabric(FabricConfig::nvlink_v1());
        cfg.allow_indirect_peer = true;
        let mut sys = MultiGpuSystem::new(cfg);
        let page = sys.config().page_size;
        let trojan = sys.create_process(GpuId::new(1));
        let spy = sys.create_process(GpuId::new(0));
        sys.enable_peer_access(trojan, GpuId::new(LINK_HOME))
            .expect("peer access");
        sys.enable_peer_access(spy, GpuId::new(LINK_HOME))
            .expect("peer access");
        let tb = sys
            .malloc_on(trojan, GpuId::new(LINK_HOME), 32 * page)
            .expect("trojan buffer");
        let sb = sys
            .malloc_on(spy, GpuId::new(LINK_HOME), 2 * page)
            .expect("spy buffer");
        LinkState {
            sys,
            trojan,
            spy,
            trojan_lines: (0..32).map(|i| tb.offset(i * page)).collect(),
            spy_lines: (0..2).map(|i| sb.offset(i * page)).collect(),
            payload: seeded_bits(self.seed, self.bits),
        }
    }

    fn unit(&self, st: &mut LinkState, t: &mut Tracer, check: &mut Check) -> UnitOut {
        let medium = LinkCongestionMedium {
            trojan: st.trojan,
            spy: st.spy,
            channel: LinkChannel {
                trojan_lines: &st.trojan_lines,
                spy_lines: &st.spy_lines,
                trojan_streams: 4,
            },
        };
        let pipeline = Pipeline::vote(BoundaryPolicy::Quantile);
        transmit_unit(
            &mut st.sys,
            &medium,
            &st.payload,
            &Self::params(),
            &pipeline,
            t,
            check,
        )
    }

    fn probe(&self, st: &mut LinkState, t: &mut Tracer, _check: &mut Check) -> Counts {
        let sys = &mut st.sys;
        let local_pid = sys.create_process(GpuId::new(LINK_HOME));
        let local_buf = sys
            .malloc_on(local_pid, GpuId::new(LINK_HOME), 2 * sys.config().page_size)
            .expect("local probe buffer");
        let local = access_loop(sys, local_pid, local_buf, PROBE_ACCESSES, t);
        // GPU1 -> GPU5 is one NVLink hop; GPU0 -> GPU5 is two (0-1-5).
        let remote = access_loop(sys, st.trojan, st.trojan_lines[0], PROBE_ACCESSES, t);
        let two_hop = access_loop(sys, st.spy, st.spy_lines[0], PROBE_ACCESSES, t);
        vec![
            ("sim.access_ns_local", local),
            ("sim.access_ns_remote", remote),
            ("sim.access_ns_2hop", two_hop),
        ]
    }
}
