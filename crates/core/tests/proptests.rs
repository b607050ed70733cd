//! Property-based tests for the attack crate's protocol and data layers.

use gpubox_attacks::covert::{
    bits_from_bytes, bytes_from_bits, stripe_bits, unstripe_bits, ChannelParams,
};
use gpubox_attacks::{BoundaryPolicy, Decoder, Thresholds};

/// The Prime+Probe channel's receive path.
const VOTE: Decoder = Decoder::Vote(BoundaryPolicy::TwoMeans);
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bytes → bits → bytes is the identity.
    #[test]
    fn bits_bytes_roundtrip(data in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(bytes_from_bits(&bits_from_bytes(&data)), data);
    }

    /// Striping over any k reassembles exactly.
    #[test]
    fn stripe_roundtrip(
        bits in prop::collection::vec(0u8..=1, 0..300),
        k in 1usize..12,
    ) {
        let stripes = stripe_bits(&bits, k);
        prop_assert_eq!(stripes.len(), k);
        let total: usize = stripes.iter().map(Vec::len).sum();
        prop_assert_eq!(total, bits.len());
        prop_assert_eq!(unstripe_bits(&stripes, bits.len()), bits);
    }

    /// A clean synthetic trace decodes exactly, for any payload, phase
    /// offset and probe density.
    #[test]
    fn decoder_exact_on_clean_traces(
        payload in prop::collection::vec(0u8..=1, 1..120),
        phase_frac in 0u64..100,
        probes_per_slot in 2u64..6,
    ) {
        let params = ChannelParams::default();
        let frame = params.frame(&payload);
        let phase = params.slot_cycles * phase_frac / 100;
        let mut samples = Vec::new();
        for (i, &b) in frame.iter().enumerate() {
            for p in 0..probes_per_slot {
                let at = phase
                    + i as u64 * params.slot_cycles
                    + p * (params.slot_cycles / probes_per_slot)
                    + 1;
                samples.push(gpubox_attacks::covert::ProbeSample {
                    at,
                    misses: if b == 1 { 15 } else { 1 },
                    lines: 16,
                    mean_latency: if b == 1 { 950 } else { 630 },
                });
            }
        }
        let dec = VOTE.decode(&samples, &params, payload.len());
        prop_assert_eq!(dec.payload, payload);
    }

    /// The decoder never panics and always returns the requested number of
    /// bits, even on garbage traces.
    #[test]
    fn decoder_total_on_garbage(
        samples in prop::collection::vec(
            (0u64..1_000_000, 0u32..=16, 200u32..1500),
            0..200,
        ),
        payload_bits in 0usize..64,
    ) {
        let params = ChannelParams::default();
        let mut probe_samples: Vec<_> = samples
            .iter()
            .map(|&(at, misses, lat)| gpubox_attacks::covert::ProbeSample {
                at,
                misses,
                lines: 16,
                mean_latency: lat,
            })
            .collect();
        probe_samples.sort_by_key(|s| s.at);
        let dec = VOTE.decode(&probe_samples, &params, payload_bits);
        prop_assert_eq!(dec.payload.len(), payload_bits);
        prop_assert!(dec.payload.iter().all(|&b| b <= 1));
    }

    /// Threshold classification is monotone in latency.
    #[test]
    fn thresholds_monotone(cycles in 0u32..2000) {
        let t = Thresholds::paper_defaults();
        if t.is_local_miss(cycles) {
            prop_assert!(t.is_local_miss(cycles + 1));
        }
        if t.is_remote_miss(cycles) {
            prop_assert!(t.is_remote_miss(cycles + 1));
        }
        // Remote boundary sits above the local one.
        prop_assert!(t.remote_miss > t.local_miss);
    }

    /// Miss counting equals the number of latencies over the boundary.
    #[test]
    fn miss_counts_match_filter(lats in prop::collection::vec(100u32..1500, 0..64)) {
        let t = Thresholds::paper_defaults();
        let expect = lats.iter().filter(|&&l| l >= t.remote_miss).count();
        prop_assert_eq!(t.count_remote_misses(&lats), expect);
        let expect_l = lats.iter().filter(|&&l| l >= t.local_miss).count();
        prop_assert_eq!(t.count_local_misses(&lats), expect_l);
    }
}
