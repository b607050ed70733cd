//! Edge-case tests for the attack crate: protocol corner cases, scan
//! bounds, and probe classification on unusual layouts.

use gpubox_attacks::covert::{ChannelParams, ProbeSample};
use gpubox_attacks::{
    classify_pages, discover_conflicts, BoundaryPolicy, Decoder, EvictionSet, Locality,
    ScanConfig, Thresholds,
};
use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig, VirtAddr};

#[test]
fn scan_respects_max_conflicts_cap() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let pid = sys.create_process(GpuId::new(0));
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    let buf = ctx.malloc_on(GpuId::new(0), 96 * 4096).unwrap();
    let candidates: Vec<VirtAddr> = (1..96u64).map(|p| buf.offset(p * 4096)).collect();
    let cfg = ScanConfig { skip: 16, max_conflicts: 3, votes: 1 };
    let found = discover_conflicts(
        &mut ctx,
        buf,
        &candidates,
        &Thresholds::paper_defaults(),
        Locality::Local,
        &cfg,
    )
    .unwrap();
    assert_eq!(found.len(), 3, "cap must stop the scan early");
}

#[test]
fn scan_with_no_conflicts_returns_empty() {
    // Candidates in different sets than the target: a page's other lines.
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let pid = sys.create_process(GpuId::new(0));
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    let buf = ctx.malloc_on(GpuId::new(0), 4096).unwrap();
    // All candidates are inside the target's own page at different line
    // offsets — page-consecutive indexing guarantees distinct sets.
    let candidates: Vec<VirtAddr> = (1..32u64).map(|l| buf.offset(l * 128)).collect();
    let found = discover_conflicts(
        &mut ctx,
        buf,
        &candidates,
        &Thresholds::paper_defaults(),
        Locality::Local,
        &ScanConfig::default(),
    )
    .unwrap();
    assert!(found.is_empty(), "no same-set candidates exist: {found:?}");
}

#[test]
fn votes_make_scans_robust_to_jitter() {
    // With jitter on (default small_test) and 3 votes, classification of
    // page classes still matches ground truth.
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let pid = sys.create_process(GpuId::new(0));
    let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
    let buf = ctx.malloc_on(GpuId::new(0), 64 * 4096).unwrap();
    let candidates: Vec<VirtAddr> = (1..64u64).map(|p| buf.offset(p * 4096)).collect();
    let cfg = ScanConfig { skip: 16, max_conflicts: 0, votes: 3 };
    let found = discover_conflicts(
        &mut ctx,
        buf,
        &candidates,
        &Thresholds::paper_defaults(),
        Locality::Local,
        &cfg,
    )
    .unwrap();
    let (_, tset) = ctx.system().oracle_set_of(pid, buf).unwrap();
    for va in &found {
        assert_eq!(ctx.system().oracle_set_of(pid, *va).unwrap().1, tset);
    }
    assert!(!found.is_empty());
}

#[test]
fn decoder_handles_single_probe_per_slot() {
    let params = ChannelParams { slot_cycles: 2000, ..Default::default() };
    let payload = vec![1u8, 0, 0, 1, 1, 0, 1, 0];
    let frame = params.frame(&payload);
    let samples: Vec<ProbeSample> = frame
        .iter()
        .enumerate()
        .map(|(i, &b)| ProbeSample {
            at: i as u64 * 2000 + 700,
            misses: if b == 1 { 16 } else { 0 },
            lines: 16,
            mean_latency: if b == 1 { 950 } else { 630 },
        })
        .collect();
    let dec = Decoder::Vote(BoundaryPolicy::TwoMeans).decode(&samples, &params, payload.len());
    assert_eq!(dec.payload, payload);
}

#[test]
fn decoder_fills_missing_tail_slots_with_zero() {
    let params = ChannelParams::default();
    let payload = vec![1u8, 1, 1, 1];
    let frame = params.frame(&payload);
    // Drop all samples for the final two payload slots.
    let cutoff = (frame.len() - 2) as u64 * params.slot_cycles;
    let samples: Vec<ProbeSample> = frame
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| {
            (0..3u64).map(move |p| ProbeSample {
                at: i as u64 * 6000 + p * 2000 + 10,
                misses: if b == 1 { 15 } else { 1 },
                lines: 16,
                mean_latency: if b == 1 { 950 } else { 630 },
            })
        })
        .filter(|s| s.at < cutoff)
        .collect();
    let dec = Decoder::Vote(BoundaryPolicy::TwoMeans).decode(&samples, &params, payload.len());
    assert_eq!(dec.payload.len(), payload.len());
    assert_eq!(&dec.payload[..2], &[1, 1], "received slots decode");
    assert_eq!(&dec.payload[2..], &[0, 0], "missing slots default to 0");
}

#[test]
fn eviction_set_probe_classifies_remote_hits_and_misses() {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let thr = Thresholds::paper_defaults();
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let bytes = 96 * 4096u64;
    let classes = {
        let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Remote, &ScanConfig::classify_default()).unwrap()
    };
    let es: EvictionSet = classes.eviction_set(0, 0, 16);
    // Classification left lines resident; flush for a cold start.
    sys.flush_l2(GpuId::new(0));
    let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
    // Cold probe: all 16 lines miss.
    let cold = es.probe(&mut ctx, &thr, Locality::Remote).unwrap();
    assert_eq!(cold.misses, 16);
    // Warm probe: all hit.
    let warm = es.probe(&mut ctx, &thr, Locality::Remote).unwrap();
    assert_eq!(warm.misses, 0);
}

#[test]
fn thresholds_serde_round_trip() {
    let t = Thresholds { local_miss: 333, remote_miss: 777 };
    let json = serde_json::to_string(&t).unwrap();
    let back: Thresholds = serde_json::from_str(&json).unwrap();
    assert_eq!(back, t);
}

#[test]
fn empty_payload_transmits_without_panicking() {
    use gpubox_attacks::covert::bits_from_bytes;
    use gpubox_attacks::{transmit, L2SetMedium, Pipeline, SetPair};

    let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
    let thr = Thresholds::paper_defaults();
    let trojan = sys.create_process(GpuId::new(0));
    let spy = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
    let bytes = 96 * 4096u64;
    let tclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, trojan, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Local, &ScanConfig::classify_default()).unwrap()
    };
    let sclasses = {
        let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
        let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
        classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Remote, &ScanConfig::classify_default()).unwrap()
    };
    // Pairing via ground truth is irrelevant here — any pair works for an
    // empty payload; use matching (class 0, offset 0) representatives.
    let pair = SetPair {
        trojan: tclasses.eviction_set(0, 0, 16),
        spy: sclasses.eviction_set(0, 0, 16),
    };
    let pairs = [pair];
    let medium = L2SetMedium {
        trojan,
        spy,
        pairs: &pairs,
        thresholds: thr,
    };
    let rep = transmit(
        &mut sys,
        &medium,
        &bits_from_bytes(b""),
        &ChannelParams::default(),
        &Pipeline::vote(BoundaryPolicy::TwoMeans),
    )
    .unwrap();
    assert_eq!(rep.sent.len(), 0);
    assert_eq!(rep.received.len(), 0);
    assert_eq!(rep.bit_errors, 0);
}
