//! Shared experiment scaffolding: boots a DGX-1, runs the offline
//! reverse-engineering pipeline, and hands out aligned eviction sets.
//! It also holds the one copy of each fixture the channel experiments
//! share:
//!
//! - [`fabric_dgx1`]: the noisy fabric-enabled DGX-1 (timed NVLink
//!   fabric, indirect peer routing) with a QoS configuration layered on;
//! - [`LinkEndpoints`] and [`link_params`]: the trojan/spy pair of the
//!   NVLink link-congestion channel and its DGX-1 channel parameters;
//! - [`single_link_channel`]: the noiseless one-link box the fault
//!   experiments run the link-congestion channel on;
//! - [`BenignMix`]: the 8-tenant fabric-crossing benign mix the
//!   monitors and defences are measured against;
//! - [`seeded_payload`]: the seeded pseudorandom payload every sweep
//!   transmits.
//!
//! The offline phase here is the **production path**: group-testing page
//! classification ([`gpubox_attacks::classify_pages_fast`]) and an
//! [`OfflineCache`] consulted by every default `prepare*` entry point, so
//! sweeps that boot identical configurations stop re-deriving identical
//! artifacts. Both the derive and the reuse path end by collapsing the
//! system to a canonical phase boundary
//! ([`MultiGpuSystem::canonicalize_phase`]), which makes a cached prepare
//! bit-identical to an uncached one for everything downstream — asserted
//! by `ext_fabric_defense` at its L2 baseline sweep point.

use gpubox_attacks::timing_re::measure_timing;
use gpubox_attacks::{
    align_classes, classify_pages_fast, offline_fingerprint, verify_classes_against_oracle,
    AlignmentConfig, CacheOutcome, ChannelParams, L2SetMedium, LinkChannel, LinkCongestionMedium,
    Locality, OfflineArtifacts, OfflineCache, PageClasses, ScanConfig, SetPair, Thresholds,
};
use gpubox_sim::{
    Agent, Engine, FabricConfig, GpuId, MultiGpuSystem, NoiseAgent, NoiseConfig, ProcessCtx,
    ProcessId, QosConfig, SystemConfig, VirtAddr,
};
use gpubox_workloads::{agent_for, Histogram, VectorAdd};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The standard experiment scale: attacker buffers of this many bytes on
/// the target GPU (256 pages of 64 KiB → ~64 pages per alignment class).
pub const ATTACK_BUFFER_BYTES: u64 = 16 * 1024 * 1024;

/// Phase tag for [`MultiGpuSystem::canonicalize_phase`] at the end of the
/// offline phase (arbitrary, fixed: part of the repo's determinism
/// contract).
const OFFLINE_PHASE_TAG: u64 = 0x0FF1_14E5_E55A_0001;

/// A fully prepared cross-GPU attack: trojan on GPU0, spy on GPU1, both
/// with classified page buffers on GPU0 and derived thresholds.
#[derive(Debug)]
pub struct AttackSetup {
    /// The simulated box.
    pub sys: MultiGpuSystem,
    /// Trojan process (on GPU0, the target).
    pub trojan: ProcessId,
    /// Spy process (on GPU1).
    pub spy: ProcessId,
    /// Trojan-side page classes over its GPU0 buffer.
    pub trojan_classes: PageClasses,
    /// Spy-side page classes over its GPU0 buffer.
    pub spy_classes: PageClasses,
    /// Derived timing thresholds.
    pub thresholds: Thresholds,
    /// Whether the page classes came from the offline cache (true) or
    /// were derived by discovery this boot (false).
    pub offline_cached: bool,
}

impl AttackSetup {
    /// Runs the full offline phase on a fresh DGX-1 (seeded), trojan on
    /// GPU0 and spy on GPU1.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors — experiment binaries treat those as
    /// fatal misconfiguration.
    pub fn prepare(seed: u64) -> Self {
        Self::prepare_between(
            SystemConfig::dgx1().with_seed(seed),
            GpuId::new(0),
            GpuId::new(1),
        )
    }

    /// The **fabric-enabled** prepare path: a DGX-1 with the timed
    /// per-link interconnect on ([`FabricConfig::nvlink_v1`]) and
    /// indirect peer routing allowed, so multi-hop GPU pairs work and
    /// remote traffic pays real per-link occupancy. This is the
    /// one-config base on which both channel families — Prime+Probe
    /// over shared L2 sets and NVLink-link congestion — can be staged
    /// and compared head-to-head (`ext_two_hop_channel`).
    ///
    /// The offline reverse-engineering phase runs with the fabric
    /// already enabled, so the derived thresholds absorb the link
    /// serialisation the same way a real attacker's calibration would.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors.
    pub fn prepare_fabric(seed: u64, trojan_gpu: GpuId, spy_gpu: GpuId) -> Self {
        Self::prepare_fabric_qos(seed, trojan_gpu, spy_gpu, QosConfig::off())
    }

    /// As [`AttackSetup::prepare_fabric`] with a fabric QoS / defence
    /// configuration active **from boot**: the whole offline phase —
    /// timing reverse engineering, eviction-set discovery, alignment —
    /// runs under the defence, so the derived thresholds absorb
    /// whatever constant latency shifts the defence introduces. This is
    /// the *adaptive attacker* of `ext_fabric_defense`: a defence only
    /// counts as effective if it survives an attacker that recalibrates
    /// against it.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors — including the offline phase
    /// *collapsing under the defence* (timing clusters no longer
    /// separable, too few aligned pairs), which the defence experiment
    /// treats as the strongest possible outcome.
    pub fn prepare_fabric_qos(seed: u64, trojan_gpu: GpuId, spy_gpu: GpuId, qos: QosConfig) -> Self {
        Self::prepare_between(fabric_dgx1(seed, qos), trojan_gpu, spy_gpu)
    }

    /// As [`AttackSetup::prepare`], for an arbitrary configuration and
    /// GPU pair (the trojan's GPU is the attack target whose L2 carries
    /// the channel). Consults the process-wide [`OfflineCache`].
    ///
    /// # Panics
    ///
    /// Panics on simulator errors.
    pub fn prepare_between(cfg: SystemConfig, trojan_gpu: GpuId, spy_gpu: GpuId) -> Self {
        Self::prepare_with_cache(cfg, trojan_gpu, spy_gpu, Some(OfflineCache::global()))
    }

    /// As [`AttackSetup::prepare_between`] with explicit control over the
    /// offline cache: `Some(cache)` memoises/reuses artifacts there,
    /// `None` always derives (benchmarks measuring discovery cost, and
    /// equivalence tests, need a guaranteed derivation).
    ///
    /// Both paths run the cheap timing reverse engineering live (its
    /// ~200 accesses leave the frame-placement RNG untouched, so the
    /// frame pool is identical between hit and miss runs), allocate both
    /// attack buffers, and end
    /// with [`MultiGpuSystem::canonicalize_phase`] — so a cache hit is
    /// bit-identical to a derivation for everything that follows.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors, and on a cached entry failing its
    /// first-reuse oracle verification.
    pub fn prepare_with_cache(
        cfg: SystemConfig,
        trojan_gpu: GpuId,
        spy_gpu: GpuId,
        cache: Option<&OfflineCache>,
    ) -> Self {
        let mut sys = MultiGpuSystem::new(cfg);
        let timing =
            measure_timing(&mut sys, trojan_gpu, spy_gpu, 48).expect("timing reverse engineering");
        let thresholds = timing.thresholds;

        let trojan = sys.create_process(trojan_gpu);
        let spy = sys.create_process(spy_gpu);
        sys.enable_peer_access(spy, trojan_gpu)
            .expect("peer access");

        let page = sys.config().page_size;
        let line = sys.config().cache.line_size;
        let ways = sys.config().cache.ways as usize;
        let scan = ScanConfig::classify_default();

        // Both buffers are allocated before any (potentially skipped)
        // discovery access: allocation draws placement RNG and consumes
        // frames, so it must happen identically on the hit and miss
        // paths for the post-offline state to be canonical.
        let trojan_buf = sys
            .malloc_on(trojan, trojan_gpu, ATTACK_BUFFER_BYTES)
            .expect("trojan buffer");
        let spy_buf = sys
            .malloc_on(spy, trojan_gpu, ATTACK_BUFFER_BYTES)
            .expect("spy buffer");

        let fp = offline_fingerprint(
            sys.config(),
            &[
                1, // role: trojan/spy attack pair
                trojan_gpu.index() as u64,
                spy_gpu.index() as u64,
                ATTACK_BUFFER_BYTES,
                scan.skip as u64,
                u64::from(scan.votes),
            ],
        );
        let num_pages = ATTACK_BUFFER_BYTES / page;
        let outcome = match cache {
            Some(c) => c.lookup(fp),
            None => CacheOutcome::Miss,
        };
        let (trojan_classes, spy_classes, offline_cached) = match outcome {
            CacheOutcome::Hit(art) => (art.classes[0].clone(), art.classes[1].clone(), true),
            CacheOutcome::FirstReuse(art) => {
                assert_eq!(
                    art.thresholds, thresholds,
                    "cached thresholds diverge from a fresh derivation"
                );
                assert_eq!(art.classes[0].base, trojan_buf, "trojan buffer moved");
                assert_eq!(art.classes[1].base, spy_buf, "spy buffer moved");
                verify_classes_against_oracle(&sys, trojan, &art.classes[0], num_pages)
                    .expect("cached trojan classes fail oracle verification");
                verify_classes_against_oracle(&sys, spy, &art.classes[1], num_pages)
                    .expect("cached spy classes fail oracle verification");
                (art.classes[0].clone(), art.classes[1].clone(), true)
            }
            CacheOutcome::Miss => {
                let trojan_classes = {
                    let mut ctx = ProcessCtx::new(&mut sys, trojan, 0);
                    classify_pages_fast(
                        &mut ctx,
                        trojan_buf,
                        ATTACK_BUFFER_BYTES,
                        page,
                        line,
                        ways,
                        &thresholds,
                        Locality::Local,
                        &scan,
                    )
                    .expect("trojan page classification")
                };
                let spy_classes = {
                    let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
                    classify_pages_fast(
                        &mut ctx,
                        spy_buf,
                        ATTACK_BUFFER_BYTES,
                        page,
                        line,
                        ways,
                        &thresholds,
                        Locality::Remote,
                        &scan,
                    )
                    .expect("spy page classification")
                };
                if let Some(c) = cache {
                    c.insert(
                        fp,
                        OfflineArtifacts {
                            thresholds,
                            classes: vec![trojan_classes.clone(), spy_classes.clone()],
                        },
                    );
                }
                (trojan_classes, spy_classes, false)
            }
        };

        sys.canonicalize_phase(OFFLINE_PHASE_TAG);
        AttackSetup {
            sys,
            trojan,
            spy,
            trojan_classes,
            spy_classes,
            thresholds,
            offline_cached,
        }
    }

    /// Runs the Algorithm-2 alignment protocol and returns `count` aligned
    /// set pairs.
    ///
    /// # Panics
    ///
    /// Panics if alignment fails to pair enough classes.
    pub fn aligned_pairs(&mut self, count: usize) -> Vec<SetPair> {
        let ways = self.sys.config().cache.ways as usize;
        let matches = align_classes(
            &mut self.sys,
            self.trojan,
            &self.trojan_classes,
            self.spy,
            &self.spy_classes,
            ways,
            &AlignmentConfig::default(),
        )
        .expect("alignment protocol");
        let pairs = gpubox_attacks::paired_sets(
            &self.trojan_classes,
            &self.spy_classes,
            &matches,
            count,
            ways,
        );
        assert!(
            pairs.len() >= count,
            "only {} aligned pairs available",
            pairs.len()
        );
        pairs
            .into_iter()
            .map(|(t, s)| SetPair { trojan: t, spy: s })
            .collect()
    }

    /// The Prime+Probe medium between this setup's trojan and spy over
    /// `pairs` (from [`AttackSetup::aligned_pairs`]).
    pub fn medium<'p>(&self, pairs: &'p [SetPair]) -> L2SetMedium<'p> {
        L2SetMedium {
            trojan: self.trojan,
            spy: self.spy,
            pairs,
            thresholds: self.thresholds,
        }
    }
}

/// The fabric-enabled DGX-1 every fabric experiment shares: full timing
/// noise, the timed per-link interconnect ([`FabricConfig::nvlink_v1`])
/// running `qos`, and indirect peer routing allowed, so GPUs in
/// different quads can reach each other's memory over 2-hop routes.
pub fn fabric_dgx1(seed: u64, qos: QosConfig) -> SystemConfig {
    let mut cfg = SystemConfig::dgx1()
        .with_seed(seed)
        .with_fabric(FabricConfig::nvlink_v1().with_qos(qos));
    cfg.allow_indirect_peer = true;
    cfg
}

/// `bits` pseudorandom payload bits drawn from `seed`: the receiver
/// never sees them, so decoding them back is genuine transmission, not
/// a constant.
pub fn seeded_payload(seed: u64, bits: usize) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..bits).map(|_| (rng.gen::<u32>() & 1) as u8).collect()
}

/// Pages in the trojan's buffer of a [`LinkEndpoints`] pair: every
/// transfer burst streams one line of each.
const LINK_TROJAN_PAGES: u64 = 32;

/// Channel parameters of the link-congestion channel on the DGX-1: the
/// default slot with a 300-cycle gap between spy transfers.
pub fn link_params() -> ChannelParams {
    ChannelParams {
        spy_gap: 300,
        ..Default::default()
    }
}

/// Both endpoints of an NVLink link-congestion channel: a trojan and a
/// spy, each streaming its own buffer homed on one GPU, so the channel
/// runs over whatever links their two routes share. One line per page,
/// so every line is a distinct remote transfer.
#[derive(Debug, Clone)]
pub struct LinkEndpoints {
    /// Trojan process.
    pub trojan: ProcessId,
    /// Spy process.
    pub spy: ProcessId,
    /// One line per page of the trojan's 32-page buffer.
    pub trojan_lines: Vec<VirtAddr>,
    /// One line per page of the spy's buffer.
    pub spy_lines: Vec<VirtAddr>,
}

impl LinkEndpoints {
    /// Creates the trojan on `trojan_gpu` and the spy on `spy_gpu`,
    /// gives both peer access to `home`, and allocates there 32 trojan
    /// pages, then `spy_pages` spy pages. This order of process creation
    /// and allocation fixes the frame placement every link-channel
    /// golden was captured under.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors (no route to `home`, out of frames).
    pub fn new(
        sys: &mut MultiGpuSystem,
        trojan_gpu: GpuId,
        spy_gpu: GpuId,
        home: GpuId,
        spy_pages: u64,
    ) -> Self {
        let page = sys.config().page_size;
        let trojan = sys.create_process(trojan_gpu);
        let spy = sys.create_process(spy_gpu);
        sys.enable_peer_access(trojan, home).expect("trojan peer access");
        sys.enable_peer_access(spy, home).expect("spy peer access");
        let tb = sys
            .malloc_on(trojan, home, LINK_TROJAN_PAGES * page)
            .expect("trojan buffer");
        let sb = sys.malloc_on(spy, home, spy_pages * page).expect("spy buffer");
        LinkEndpoints {
            trojan,
            spy,
            trojan_lines: (0..LINK_TROJAN_PAGES).map(|i| tb.offset(i * page)).collect(),
            spy_lines: (0..spy_pages).map(|i| sb.offset(i * page)).collect(),
        }
    }

    /// The link-congestion medium between these endpoints, the trojan
    /// driving `trojan_streams` concurrent transfer streams.
    pub fn medium(&self, trojan_streams: usize) -> LinkCongestionMedium<'_> {
        LinkCongestionMedium {
            trojan: self.trojan,
            spy: self.spy,
            channel: LinkChannel {
                trojan_lines: &self.trojan_lines,
                spy_lines: &self.spy_lines,
                trojan_streams,
            },
        }
    }
}

/// The link-congestion channel on a noiseless two-GPU box with the timed
/// fabric ([`FabricConfig::nvlink_v1`]) and seed `seed`: both endpoints
/// on GPU1 with buffers homed on GPU0 (8 spy pages), so every transfer
/// crosses the box's only NVLink link and downing it forces the PCIe
/// fallback. Returned with its channel parameters: the default slot with
/// a 600-cycle gap between spy transfers.
pub fn single_link_channel(seed: u64) -> (MultiGpuSystem, LinkEndpoints, ChannelParams) {
    let cfg = SystemConfig::small_test()
        .noiseless()
        .with_seed(seed)
        .with_fabric(FabricConfig::nvlink_v1());
    let mut sys = MultiGpuSystem::new(cfg);
    let ends = LinkEndpoints::new(&mut sys, GpuId::new(1), GpuId::new(1), GpuId::new(0), 8);
    let params = ChannelParams {
        spy_gap: 600,
        ..Default::default()
    };
    (sys, ends, params)
}

/// The benign multi-tenant mix the fabric monitors and defences are
/// measured against. Eight tenants, two per GPU on GPUs 0-3 (tenant `t`
/// on GPU `t % 4`):
///
/// - `t % 4 == 0`: a vectoradd trace replay over `2048 + 256·t`
///   elements;
/// - `t % 4 == 1`: a 32-bin histogram trace replay over `2048 + 256·t`
///   elements;
/// - `t % 4 >= 2`: a bursty noise kernel (24-access bursts, idle
///   `2500 + 173·t` cycles between them) over a 128 KiB buffer homed on
///   GPU `t % 4 + 4`, one NVLink hop away — so half the mix streams
///   over the fabric.
///
/// The replays are sized to outlive the experiments' measured windows.
pub struct BenignMix {
    agents: Vec<Box<dyn Agent>>,
}

impl BenignMix {
    /// Creates the eight tenants' processes, buffers and agents on
    /// `sys`.
    ///
    /// # Panics
    ///
    /// Panics on simulator errors.
    pub fn new(sys: &mut MultiGpuSystem) -> Self {
        let agents = (0..8usize)
            .map(|t| -> Box<dyn Agent> {
                let pid = sys.create_process(GpuId::new((t % 4) as u8));
                let elems = 2048 + 256 * t;
                match t % 4 {
                    0 => Box::new(agent_for(sys, pid, &VectorAdd::new(elems)).unwrap()),
                    1 => Box::new(agent_for(sys, pid, &Histogram::new(elems, 32)).unwrap()),
                    _ => {
                        let remote = GpuId::new((t % 4 + 4) as u8);
                        sys.enable_peer_access(pid, remote).unwrap();
                        let buf = sys.malloc_on(pid, remote, 128 * 1024).unwrap();
                        Box::new(NoiseAgent::new(
                            pid,
                            buf,
                            1024,
                            128,
                            NoiseConfig {
                                burst_len: 24,
                                idle_between_bursts: 2_500 + 173 * t as u64,
                                seed: 11 + t as u64,
                            },
                        ))
                    }
                }
            })
            .collect();
        BenignMix { agents }
    }

    /// Adds the tenants to `eng`, tenant `i` launching at cycle `53·i`.
    pub fn launch(self, eng: &mut Engine<'_>) {
        for (i, a) in self.agents.into_iter().enumerate() {
            eng.add_agent(a, 53 * i as u64);
        }
    }
}

/// A spy-only setup for side-channel experiments: spy on `spy_gpu`
/// monitoring `monitored` sets of `target_gpu`'s L2.
#[derive(Debug)]
pub struct SideChannelSetup {
    /// The simulated box.
    pub sys: MultiGpuSystem,
    /// Spy process.
    pub spy: ProcessId,
    /// Spy eviction sets (one per monitored physical set).
    pub monitored: Vec<gpubox_attacks::EvictionSet>,
    /// Derived thresholds.
    pub thresholds: Thresholds,
}

impl SideChannelSetup {
    /// Prepares a spy on GPU1 monitoring `sets` cache sets of GPU0,
    /// consulting the process-wide [`OfflineCache`] (the cached classes
    /// are independent of `sets`, so sweeps over the monitored-set count
    /// reuse one derivation).
    ///
    /// # Panics
    ///
    /// Panics on simulator errors, and on a cached entry failing its
    /// first-reuse oracle verification.
    pub fn prepare(seed: u64, sets: usize) -> Self {
        let cfg = SystemConfig::dgx1().with_seed(seed);
        let mut sys = MultiGpuSystem::new(cfg);
        let timing = measure_timing(&mut sys, GpuId::new(1), GpuId::new(0), 48)
            .expect("timing reverse engineering");
        let thresholds = timing.thresholds;
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0))
            .expect("peer access");
        let page = sys.config().page_size;
        let line = sys.config().cache.line_size;
        let ways = sys.config().cache.ways as usize;
        let scan = ScanConfig::classify_default();
        let buf = sys
            .malloc_on(spy, GpuId::new(0), ATTACK_BUFFER_BYTES)
            .expect("spy buffer");
        let fp = offline_fingerprint(
            sys.config(),
            &[
                2, // role: spy-only side-channel setup
                ATTACK_BUFFER_BYTES,
                scan.skip as u64,
                u64::from(scan.votes),
            ],
        );
        let cache = OfflineCache::global();
        let num_pages = ATTACK_BUFFER_BYTES / page;
        let classes = match cache.lookup(fp) {
            CacheOutcome::Hit(art) => art.classes[0].clone(),
            CacheOutcome::FirstReuse(art) => {
                assert_eq!(
                    art.thresholds, thresholds,
                    "cached thresholds diverge from a fresh derivation"
                );
                assert_eq!(art.classes[0].base, buf, "spy buffer moved");
                verify_classes_against_oracle(&sys, spy, &art.classes[0], num_pages)
                    .expect("cached spy classes fail oracle verification");
                art.classes[0].clone()
            }
            CacheOutcome::Miss => {
                let classes = {
                    let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
                    classify_pages_fast(
                        &mut ctx,
                        buf,
                        ATTACK_BUFFER_BYTES,
                        page,
                        line,
                        ways,
                        &thresholds,
                        Locality::Remote,
                        &scan,
                    )
                    .expect("spy page classification")
                };
                cache.insert(
                    fp,
                    OfflineArtifacts {
                        thresholds,
                        classes: vec![classes.clone()],
                    },
                );
                classes
            }
        };
        sys.canonicalize_phase(OFFLINE_PHASE_TAG);
        let monitored = classes.enumerate_sets(sets, ways);
        assert_eq!(monitored.len(), sets, "buffer too small for {sets} sets");
        SideChannelSetup {
            sys,
            spy,
            monitored,
            thresholds,
        }
    }
}

/// The most any capture watches, in cycles, whatever the victim: about
/// 2.9x the longest one (QR at the default sizes). Captures end on the
/// spy's own observation ([`gpubox_attacks::side::IDLE_END_CYCLES`]
/// after the victim goes quiet); the budget only bounds a victim that
/// never does.
pub const CAPTURE_BUDGET_CYCLES: u64 = 1 << 29;

/// Builds a victim's replay agent plus the recorder's watch budget,
/// [`CAPTURE_BUDGET_CYCLES`] for every victim.
///
/// # Panics
///
/// Panics on allocation failure.
pub fn victim_with_duration(
    sys: &mut MultiGpuSystem,
    pid: ProcessId,
    workload: &dyn gpubox_workloads::Workload,
) -> (gpubox_workloads::TraceAgent, u64) {
    let trace = {
        let mut ctx = ProcessCtx::new(sys, pid, 0);
        workload.build(&mut ctx).expect("victim trace build")
    };
    (
        gpubox_workloads::TraceAgent::new(pid, &trace),
        CAPTURE_BUDGET_CYCLES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_setup_produces_aligned_pairs() {
        let mut setup = AttackSetup::prepare(101);
        // Every class should have plenty of pages at DGX scale.
        assert!(setup.trojan_classes.classes.len() >= 2);
        let pairs = setup.aligned_pairs(4);
        assert_eq!(pairs.len(), 4);
        for p in &pairs {
            let t = setup
                .sys
                .oracle_set_of(setup.trojan, p.trojan.lines()[0])
                .unwrap();
            let s = setup
                .sys
                .oracle_set_of(setup.spy, p.spy.lines()[0])
                .unwrap();
            assert_eq!(t, s, "pair must share a physical set");
        }
    }

    #[test]
    fn fabric_setup_pairs_multi_hop_gpus() {
        // GPU0 and GPU5 sit in different quads with no direct link: the
        // fabric-enabled path must still align sets across the 2-hop
        // route (and would panic at `enable_peer_access` without
        // `allow_indirect_peer`).
        let mut setup = AttackSetup::prepare_fabric(77, GpuId::new(0), GpuId::new(5));
        assert!(setup.sys.fabric_enabled());
        let pairs = setup.aligned_pairs(2);
        for p in &pairs {
            let t = setup
                .sys
                .oracle_set_of(setup.trojan, p.trojan.lines()[0])
                .unwrap();
            let s = setup.sys.oracle_set_of(setup.spy, p.spy.lines()[0]).unwrap();
            assert_eq!(t, s, "pair must share a physical set");
        }
    }

    #[test]
    fn side_setup_monitors_distinct_sets() {
        let setup = SideChannelSetup::prepare(55, 64);
        let mut seen = std::collections::HashSet::new();
        for es in &setup.monitored {
            let s = setup.sys.oracle_set_of(setup.spy, es.lines()[0]).unwrap();
            assert!(seen.insert(s));
        }
    }
}
