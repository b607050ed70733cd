//! Equivalence of the two eviction-set discovery paths.
//!
//! The faithful Algorithm-1 scan ([`classify_pages`]) and the
//! group-testing production scan ([`classify_pages_fast`]) must produce
//! identical [`PageClasses`] — the production path buys speed, never a
//! different answer. This file checks that three ways:
//!
//! 1. a property test over randomized cache geometries (set count ×
//!    associativity × page size × locality), with the fast path's output
//!    additionally checked against the simulator's address oracle;
//! 2. an exact classic-vs-fast comparison at full DGX-1 scale, local and
//!    remote;
//! 3. a transmission over fast-path-discovered sets, asserting the
//!    channel decodes near-cleanly over them.

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::timing_re::measure_timing;
use gpubox_attacks::{
    align_classes, classify_pages, classify_pages_fast, paired_sets, transmit,
    verify_classes_against_oracle, AlignmentConfig, BoundaryPolicy, ChannelParams, L2SetMedium,
    Locality, PageClasses, Pipeline, ScanConfig, SetPair, Thresholds,
};
use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};
use proptest::prelude::*;

/// A 2-GPU box with an arbitrary L2 geometry (always 128 B lines, LRU).
fn geometry_cfg(sets: u64, ways: u32, page: u64, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test().with_seed(seed).noiseless();
    cfg.cache.size_bytes = sets * 128 * u64::from(ways);
    cfg.cache.ways = ways;
    cfg.page_size = page;
    cfg
}

/// Classifies a fresh buffer on a fresh system with either classifier.
fn classify_on(cfg: &SystemConfig, remote: bool, pages: u64, fast: bool) -> PageClasses {
    let mut sys = MultiGpuSystem::new(cfg.clone());
    let home = GpuId::new(0);
    let (pid, loc) = if remote {
        let pid = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(pid, home).unwrap();
        (pid, Locality::Remote)
    } else {
        (sys.create_process(home), Locality::Local)
    };
    let page = cfg.page_size;
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    let buf = ctx.malloc_on(home, pages * page).unwrap();
    let thr = Thresholds::paper_defaults();
    let scan = ScanConfig::classify_default();
    let ways = cfg.cache.ways as usize;
    let f = if fast {
        classify_pages_fast
    } else {
        classify_pages
    };
    f(
        &mut ctx,
        buf,
        pages * page,
        page,
        128,
        ways,
        &thr,
        loc,
        &scan,
    )
    .unwrap()
}

/// Oracle check on the fast path's result, on its own fresh system (same
/// seed → same placement).
fn oracle_check(cfg: &SystemConfig, remote: bool, pages: u64, classes: &PageClasses) {
    let mut sys = MultiGpuSystem::new(cfg.clone());
    let home = GpuId::new(0);
    let pid = if remote {
        let pid = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(pid, home).unwrap();
        pid
    } else {
        sys.create_process(home)
    };
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    let buf = ctx.malloc_on(home, pages * cfg.page_size).unwrap();
    assert_eq!(buf, classes.base, "placement must replay identically");
    verify_classes_against_oracle(&sys, pid, classes, pages).expect("oracle verification");
}

proptest! {
    // Each case boots three simulators and runs both classifiers; keep
    // the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across geometries and localities the production classifier equals
    /// the faithful one and matches the address oracle exactly.
    #[test]
    fn classifiers_agree_across_geometries(
        sets_idx in 0usize..3,
        ways_idx in 0usize..3,
        page_idx in 0usize..2,
        remote in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let sets = [32u64, 64, 128][sets_idx];
        let ways = [4u32, 8, 16][ways_idx];
        let page = [2048u64, 4096][page_idx];
        let lines_per_page = page / 128;
        prop_assume!(lines_per_page <= sets); // ≥1 alignment class
        let classes_n = sets / lines_per_page;
        // Algorithm 1's recovery step needs ≥ 2·ways − 1 pages per class
        // (its serial scan silently absorbs the first `ways − 1` same-set
        // candidates and recovers them only once it has `ways − 1` visible
        // conflicts to group-test with); below that it fragments classes,
        // while the grouped path stays oracle-exact. Equality is only
        // claimed where the faithful path itself is correct.
        let pages = classes_n * (2 * u64::from(ways) + 8);
        let cfg = geometry_cfg(sets, ways, page, seed);

        let classic = classify_on(&cfg, remote, pages, false);
        let fast = classify_on(&cfg, remote, pages, true);
        prop_assert_eq!(&classic.base, &fast.base);
        prop_assert_eq!(&classic.classes, &fast.classes,
            "classifiers diverge at sets={} ways={} page={} remote={}",
            sets, ways, page, remote);
        oracle_check(&cfg, remote, pages, &fast);
    }
}

/// Full DGX-1 scale (jittered timing, 16 MiB buffer, 256 pages): the two
/// classifiers agree bit-for-bit, locally and over NVLink.
#[test]
fn classifiers_agree_on_dgx1() {
    let cfg = SystemConfig::dgx1().with_seed(4242);
    let pages = 16 * 1024 * 1024 / cfg.page_size;
    for remote in [false, true] {
        let classic = classify_on(&cfg, remote, pages, false);
        let fast = classify_on(&cfg, remote, pages, true);
        assert_eq!(classic.base, fast.base);
        assert_eq!(
            classic.classes, fast.classes,
            "classifiers diverge on DGX-1 (remote={remote})"
        );
        oracle_check(&cfg, remote, pages, &fast);
    }
}

/// One fast-path attack preparation on a fresh DGX-1.
fn prepare_fast(seed: u64) -> (MultiGpuSystem, gpubox_sim::ProcessId, gpubox_sim::ProcessId, Vec<SetPair>, Thresholds) {
    let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(seed));
    let timing = measure_timing(&mut sys, GpuId::new(0), GpuId::new(1), 48).unwrap();
    let thr = timing.thresholds;
    let trojan = sys.create_process(GpuId::new(0));
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let bytes = 16 * 1024 * 1024u64;
    let page = sys.config().page_size;
    let scan = ScanConfig::classify_default();
    let tclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, trojan, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages_fast(&mut ctx, b, bytes, page, 128, 16, &thr, Locality::Local, &scan)
            .unwrap()
    };
    let sclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages_fast(&mut ctx, b, bytes, page, 128, 16, &thr, Locality::Remote, &scan)
            .unwrap()
    };
    let matches = align_classes(
        &mut sys,
        trojan,
        &tclasses,
        spy,
        &sclasses,
        16,
        &AlignmentConfig::default(),
    )
    .unwrap();
    let pairs = paired_sets(&tclasses, &sclasses, &matches, 4, 16)
        .into_iter()
        .map(|(t, s)| SetPair { trojan: t, spy: s })
        .collect();
    (sys, trojan, spy, pairs, thr)
}

/// The covert channel over fast-path-discovered sets recovers the bits.
#[test]
fn fast_sets_transmit_cleanly() {
    let payload = bits_from_bytes(b"grouped discovery feeds both schedulers");
    let params = ChannelParams::default();
    let (mut sys, trojan, spy, pairs, thr) = prepare_fast(31337);
    let medium = L2SetMedium {
        trojan,
        spy,
        pairs: &pairs,
        thresholds: thr,
    };
    let pipeline = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let rep = transmit(&mut sys, &medium, &payload, &params, &pipeline).unwrap();
    assert!(
        rep.error_rate < 0.05,
        "channel over fast-path sets should be near-clean, got {:.3}",
        rep.error_rate
    );
}

