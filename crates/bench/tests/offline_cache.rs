//! The offline cache must be invisible to everything downstream: a
//! prepare that reuses cached page classes has to leave the simulator in
//! a state bit-identical to a prepare that derived them — same aligned
//! pairs, same channel bits, same cycle counts.

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, OfflineCache, Pipeline};
use gpubox_bench::AttackSetup;
use gpubox_sim::{GpuId, SystemConfig};

fn channel_run(setup: &mut AttackSetup) -> (Vec<u8>, usize, u64) {
    let pairs = setup.aligned_pairs(4);
    let payload = bits_from_bytes(b"cache transparency probe");
    let medium = setup.medium(&pairs);
    let rep = transmit(
        &mut setup.sys,
        &medium,
        &payload,
        &ChannelParams::default(),
        &Pipeline::vote(BoundaryPolicy::TwoMeans),
    )
    .unwrap();
    (rep.received, rep.bit_errors, rep.duration_cycles)
}

#[test]
fn cached_prepare_is_bit_identical_to_derivation() {
    let cache = OfflineCache::new();
    let cfg = || SystemConfig::dgx1().with_seed(2026);
    let prep = |c| AttackSetup::prepare_with_cache(cfg(), GpuId::new(0), GpuId::new(1), c);

    // Miss: derives and populates the cache.
    let mut derived = prep(Some(&cache));
    assert!(!derived.offline_cached, "first prepare must derive");

    // First reuse: skips discovery, oracle-verifies the cached classes.
    let mut reused = prep(Some(&cache));
    assert!(reused.offline_cached, "second prepare must hit the cache");
    assert_eq!(derived.thresholds, reused.thresholds);
    assert_eq!(derived.trojan_classes.classes, reused.trojan_classes.classes);
    assert_eq!(derived.spy_classes.classes, reused.spy_classes.classes);

    // A cache-free prepare of the same config, as ground truth.
    let mut uncached = prep(None);
    assert!(!uncached.offline_cached);

    // Everything downstream — alignment, transmission, cycle counts —
    // must be bit-identical across all three.
    let a = channel_run(&mut derived);
    let b = channel_run(&mut reused);
    let c = channel_run(&mut uncached);
    assert_eq!(a, b, "cached reuse diverged from its own derivation run");
    assert_eq!(a, c, "cache participation changed the channel");

    let (hits, misses) = cache.stats();
    assert_eq!((hits, misses), (1, 1));
}

#[test]
fn distinct_configs_do_not_share_cache_entries() {
    let cache = OfflineCache::new();
    let s1 = AttackSetup::prepare_with_cache(
        SystemConfig::dgx1().with_seed(7),
        GpuId::new(0),
        GpuId::new(1),
        Some(&cache),
    );
    // Different seed → different placement → different fingerprint.
    let s2 = AttackSetup::prepare_with_cache(
        SystemConfig::dgx1().with_seed(8),
        GpuId::new(0),
        GpuId::new(1),
        Some(&cache),
    );
    // Different GPU pair under the same seed is also a different entry.
    let s3 = AttackSetup::prepare_with_cache(
        SystemConfig::dgx1().with_seed(7),
        GpuId::new(0),
        GpuId::new(2),
        Some(&cache),
    );
    assert!(!s1.offline_cached && !s2.offline_cached && !s3.offline_cached);
    let (hits, misses) = cache.stats();
    assert_eq!((hits, misses), (0, 3));
}
