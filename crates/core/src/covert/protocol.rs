//! Channel parameters, bit (de)framing and the slot decoder.

use serde::{Deserialize, Serialize};

/// Parameters both covert endpoints agree on out of band (they are two
/// halves of one malicious application, so shared constants are fine —
/// the paper tunes them the same way, Sec. IV-C).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Bit-slot duration in trojan-clock cycles.
    pub slot_cycles: u64,
    /// Cycles the spy idles between probes (0 = probe back to back).
    pub spy_gap: u64,
    /// Number of alternating `1010…` preamble bits used for slot-phase
    /// recovery.
    pub preamble_bits: usize,
    /// Fraction of a probe's lines that must miss for the probe to vote
    /// "1".
    pub miss_vote_fraction: f64,
    /// Evasion knob: percentage of each `1` slot the trojan actively
    /// drives contention for (100 = the full slot, the paper's
    /// behaviour). A stealthy trojan trades channel SNR for a smaller
    /// per-window contention footprint to slip under online detectors.
    pub trojan_duty_pct: u32,
    /// Evasion knob: exclusive upper bound of a deterministic
    /// (counter-indexed, per-bit) offset added to each slot's active
    /// phase, in cycles (0 = none). Smears the trojan's slot clock to
    /// blunt autocorrelation detectors.
    pub trojan_slot_jitter: u64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams {
            slot_cycles: 6_000,
            spy_gap: 0,
            preamble_bits: 16,
            miss_vote_fraction: 0.5,
            trojan_duty_pct: 100,
            trojan_slot_jitter: 0,
        }
    }
}

impl ChannelParams {
    /// The preamble pattern: alternating bits starting with 1.
    pub fn preamble(&self) -> Vec<u8> {
        (0..self.preamble_bits).map(|i| (1 - i % 2) as u8).collect()
    }

    /// Frames a payload stripe: preamble followed by payload bits.
    pub fn frame(&self, payload: &[u8]) -> Vec<u8> {
        let mut f = self.preamble();
        f.extend_from_slice(payload);
        f
    }
}

/// Sequence-number width of a resilient frame, bits. 8 bits bound one
/// transmission to 256 frames — far beyond what a covert-channel
/// payload needs per [`crate::covert::transmit_resilient`] call.
pub const SEQ_BITS: usize = 8;

/// CRC width of a resilient frame, bits (CRC-8, polynomial `0x07`).
pub const CRC_BITS: usize = 8;

/// CRC-8 over a bit stream: polynomial `x⁸+x²+x+1` (`0x07`), zero
/// initial value, bits consumed MSB-first — over the bit expansion of
/// `"123456789"` this is the standard check value `0xF4`. Operating on
/// bits (not bytes) lets frames carry chunk sizes that are not byte
/// multiples.
pub fn crc8_bits(bits: &[u8]) -> u8 {
    let mut reg = 0u8;
    for &b in bits {
        let feedback = (reg >> 7) ^ (b & 1);
        reg <<= 1;
        if feedback == 1 {
            reg ^= 0x07;
        }
    }
    reg
}

/// Builds one resilient frame body: `seq` (MSB-first, [`SEQ_BITS`] wide)
/// ‖ `chunk` ‖ the *complement* of the CRC-8 over both ([`CRC_BITS`]).
/// Storing the complement (the usual final-XOR trick) keeps an
/// all-zero bit stream from verifying — a silent channel decodes to
/// zeros, whose plain CRC is also zero, and would otherwise
/// self-certify as frame 0 carrying a zero chunk. The body goes
/// through the pipeline's coding stage and the lane preamble like any
/// other payload; [`open_frame`] inverts it on the receive side.
pub fn seal_frame(seq: u8, chunk: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(SEQ_BITS + chunk.len() + CRC_BITS);
    for i in (0..SEQ_BITS).rev() {
        f.push((seq >> i) & 1);
    }
    f.extend_from_slice(chunk);
    let crc = !crc8_bits(&f);
    for i in (0..CRC_BITS).rev() {
        f.push((crc >> i) & 1);
    }
    f
}

/// Parses and verifies a resilient frame body of `chunk_bits` payload
/// bits: checks the length and the CRC, and returns the sequence number
/// and the chunk. `None` means the frame is corrupt (any bit error
/// the coding stage could not repair) and must be retransmitted.
pub fn open_frame(bits: &[u8], chunk_bits: usize) -> Option<(u8, &[u8])> {
    if bits.len() != SEQ_BITS + chunk_bits + CRC_BITS {
        return None;
    }
    let (body, crc_bits) = bits.split_at(SEQ_BITS + chunk_bits);
    let got = crc_bits.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1));
    if !crc8_bits(body) != got {
        return None;
    }
    let seq = body[..SEQ_BITS].iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1));
    Some((seq, &body[SEQ_BITS..]))
}

/// Unpacks bytes into bits, MSB first (the order the Fig. 10 message trace
/// uses).
pub fn bits_from_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Packs bits (MSB first) back into bytes; trailing partial bytes are
/// dropped.
pub fn bytes_from_bits(bits: &[u8]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1)))
        .collect()
}

/// Distributes payload bits round-robin over `k` parallel set stripes.
/// Generic over the element type so per-bit confidences can ride the
/// same round-robin permutation as the bits themselves.
pub fn stripe_bits<T: Copy>(bits: &[T], k: usize) -> Vec<Vec<T>> {
    let mut stripes = vec![Vec::with_capacity(bits.len() / k + 1); k];
    for (i, &b) in bits.iter().enumerate() {
        stripes[i % k].push(b);
    }
    stripes
}

/// Reassembles round-robin stripes into one bit stream of length `total`.
pub fn unstripe_bits<T: Copy + Default>(stripes: &[Vec<T>], total: usize) -> Vec<T> {
    let k = stripes.len();
    (0..total)
        .map(|i| stripes[i % k].get(i / k).copied().unwrap_or_default())
        .collect()
}

/// One probe observation from the spy: when it started and how many of the
/// set's lines were classified as misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeSample {
    /// Spy-local clock at probe start.
    pub at: u64,
    /// Misses among the probed lines.
    pub misses: u32,
    /// Lines probed.
    pub lines: u32,
    /// Mean per-line latency of the probe (for the Fig. 10 trace).
    pub mean_latency: u32,
}

impl ProbeSample {
    /// The probe's binary vote under the protocol's miss fraction.
    pub fn vote(&self, miss_fraction: f64) -> u8 {
        u8::from(f64::from(self.misses) >= miss_fraction * f64::from(self.lines))
    }

    /// The probe's binary vote against an adaptive latency boundary.
    pub fn vote_boundary(&self, boundary: f64) -> u8 {
        u8::from(f64::from(self.mean_latency) >= boundary)
    }
}

/// Self-calibrates the hit/miss decision boundary from the spy's own
/// probe-mean distribution (1-D 2-means). Under port contention both
/// levels shift upward together; clustering the observed bimodal
/// distribution cancels the shift, which a fixed threshold cannot do.
pub fn adaptive_boundary(samples: &[ProbeSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let vals: Vec<f64> = samples.iter().map(|s| f64::from(s.mean_latency)).collect();
    let lo0 = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi0 = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    two_means_boundary(&vals, lo0, hi0)
}

/// Decision boundary for **baseline-plus-tail** latency distributions —
/// the link-congestion channel's shape. There, a `0` probe pays a fixed
/// uncongested route latency (a tight baseline), while a `1` probe's
/// queue wait depends on how deep the trojan's bookings run when it
/// arrives: the `1` level is a broad heavy tail, not a second tight
/// cluster. 2-means ([`adaptive_boundary`]) mislocates such a boundary —
/// the tail's far end drags the upper centroid out until moderate `1`
/// samples fall in the baseline cluster. Instead, anchor on robust
/// quantiles: the boundary sits 35% of the way from the 20th percentile
/// (the baseline) towards the 90th (the typical congested level), i.e.
/// just above the baseline but clear of its noise. Degenerate
/// single-level traces (no trojan active) collapse to `p90 + 1`, so
/// every probe votes 0.
pub fn robust_boundary(samples: &[ProbeSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut vals: Vec<f64> = samples.iter().map(|s| f64::from(s.mean_latency)).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lo = vals[(vals.len() - 1) * 2 / 10];
    let hi = vals[(vals.len() - 1) * 9 / 10];
    if (hi - lo) < 1.0 {
        return hi + 1.0;
    }
    lo + 0.35 * (hi - lo)
}

/// Lloyd iterations of 1-D 2-means from the given initial centroids;
/// returns the midpoint of the converged pair.
fn two_means_boundary(vals: &[f64], lo0: f64, hi0: f64) -> f64 {
    let (mut lo, mut hi) = (lo0, hi0);
    if (hi - lo) < 1.0 {
        return hi + 1.0;
    }
    for _ in 0..32 {
        let mid = (lo + hi) / 2.0;
        let (mut sl, mut nl, mut sh, mut nh) = (0.0, 0usize, 0.0, 0usize);
        for &v in vals {
            if v < mid {
                sl += v;
                nl += 1;
            } else {
                sh += v;
                nh += 1;
            }
        }
        if nl == 0 || nh == 0 {
            break;
        }
        let (nlo, nhi) = (sl / nl as f64, sh / nh as f64);
        if (nlo - lo).abs() < 1e-9 && (nhi - hi).abs() < 1e-9 {
            break;
        }
        lo = nlo;
        hi = nhi;
    }
    (lo + hi) / 2.0
}

/// Output of decoding one stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedStripe {
    /// Recovered payload bits (preamble stripped).
    pub payload: Vec<u8>,
    /// Estimated slot phase offset in cycles.
    pub phase: u64,
    /// How many preamble bits matched after phase lock (sync quality).
    pub preamble_matches: usize,
}

/// Decodes a spy probe trace into payload bits against the decision
/// `boundary` (a [`super::BoundaryPolicy`] picks it: [`adaptive_boundary`]
/// for the Prime+Probe channel's two tight clusters, [`robust_boundary`]
/// for the congestion channel's long queue-wait tail).
///
/// The decoder knows `params` (shared constants) and the payload length,
/// but must recover the slot *phase* from the alternating preamble — the
/// synchronisation challenge the paper describes (Sec. IV-C: "we tune
/// parameters on the trojan side ... to synchronize the communication").
pub fn decode_trace_with_boundary(
    samples: &[ProbeSample],
    params: &ChannelParams,
    payload_bits: usize,
    boundary: f64,
) -> DecodedStripe {
    let preamble = params.preamble();
    let total_slots = preamble.len() + payload_bits;
    if samples.is_empty() {
        return DecodedStripe {
            payload: vec![0; payload_bits],
            phase: 0,
            preamble_matches: 0,
        };
    }
    let t0 = samples[0].at;
    let slot = params.slot_cycles;

    // Phase search: try candidate offsets across one slot. Primary score:
    // preamble agreement of majority-voted slots; tiebreak: vote margin
    // (how far slot vote fractions sit from 50%), which centres the slot
    // windows between bit transitions.
    let steps = 64u64;
    let mut best = (0u64, usize::MAX, f64::NEG_INFINITY, 0usize);
    for step in 0..steps {
        let phase = slot * step / steps;
        let (slots, margin) = vote_slots_scored(
            samples,
            t0 + phase,
            slot,
            total_slots,
            boundary,
            preamble.len(),
        );
        let matches = slots
            .iter()
            .zip(&preamble)
            .filter(|(got, want)| got.map(|g| g == **want).unwrap_or(false))
            .count();
        let err = preamble.len() - matches;
        if err < best.1 || (err == best.1 && margin > best.2) {
            best = (phase, err, margin, matches);
        }
    }
    let (phase, _, _, preamble_matches) = best;
    let slots = vote_slots(samples, t0 + phase, slot, total_slots, boundary);
    let payload = slots[preamble.len()..]
        .iter()
        .map(|s| s.unwrap_or(0))
        .collect();
    DecodedStripe {
        payload,
        phase,
        preamble_matches,
    }
}

/// Majority-votes the probe samples falling inside each slot window.
/// `None` for slots with no samples.
fn vote_slots(
    samples: &[ProbeSample],
    start: u64,
    slot: u64,
    total_slots: usize,
    boundary: f64,
) -> Vec<Option<u8>> {
    vote_slots_scored(samples, start, slot, total_slots, boundary, 0).0
}

/// As [`vote_slots`], also returning the mean vote margin (distance of the
/// slot vote fraction from 50%) over the first `margin_slots` slots.
fn vote_slots_scored(
    samples: &[ProbeSample],
    start: u64,
    slot: u64,
    total_slots: usize,
    boundary: f64,
    margin_slots: usize,
) -> (Vec<Option<u8>>, f64) {
    let mut ones = vec![0u32; total_slots];
    let mut counts = vec![0u32; total_slots];
    for s in samples {
        if s.at < start {
            continue;
        }
        let idx = ((s.at - start) / slot) as usize;
        if idx >= total_slots {
            break;
        }
        counts[idx] += 1;
        ones[idx] += u32::from(s.vote_boundary(boundary));
    }
    let votes: Vec<Option<u8>> = (0..total_slots)
        .map(|i| (counts[i] > 0).then(|| u8::from(ones[i] * 2 > counts[i])))
        .collect();
    let mut margin = 0.0;
    let mut n = 0usize;
    for i in 0..margin_slots.min(total_slots) {
        if counts[i] > 0 {
            let frac = f64::from(ones[i]) / f64::from(counts[i]);
            margin += (frac - 0.5).abs();
            n += 1;
        }
    }
    (votes, if n > 0 { margin / n as f64 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::super::pipeline::{BoundaryPolicy, Decoder};
    use super::*;

    /// The Prime+Probe channel's receive path.
    const VOTE: Decoder = Decoder::Vote(BoundaryPolicy::TwoMeans);

    #[test]
    fn bits_round_trip_bytes() {
        let msg = b"Hello! How are you?".to_vec();
        let bits = bits_from_bytes(&msg);
        assert_eq!(bits.len(), msg.len() * 8);
        assert_eq!(bytes_from_bits(&bits), msg);
    }

    #[test]
    fn crc8_matches_the_standard_check_value() {
        assert_eq!(crc8_bits(&bits_from_bytes(b"123456789")), 0xF4);
        assert_eq!(crc8_bits(&[]), 0);
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let chunk: Vec<u8> = (0..16).map(|i| u8::from(i % 3 == 0)).collect();
        let frame = seal_frame(0xA5, &chunk);
        assert_eq!(frame.len(), SEQ_BITS + chunk.len() + CRC_BITS);
        let (seq, got) = open_frame(&frame, chunk.len()).expect("clean frame must verify");
        assert_eq!(seq, 0xA5);
        assert_eq!(got, &chunk[..]);
        // Any single-bit flip — in the seq, the chunk or the CRC — is
        // caught (CRC-8 detects all single-bit errors).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 1;
            assert_eq!(open_frame(&bad, chunk.len()), None, "flip at {i}");
        }
        // A wrong length never verifies.
        assert_eq!(open_frame(&frame[1..], chunk.len()), None);
        assert_eq!(open_frame(&frame, chunk.len() - 1), None);
        // A silent (all-zero) channel must not self-certify as frame 0
        // with a zero chunk — the stored CRC complement prevents it.
        assert_eq!(open_frame(&vec![0; frame.len()], chunk.len()), None);
    }

    #[test]
    fn stripes_round_trip() {
        let bits: Vec<u8> = (0..37).map(|i| (i % 3 == 0) as u8).collect();
        for k in [1, 2, 4, 5] {
            let s = stripe_bits(&bits, k);
            assert_eq!(unstripe_bits(&s, bits.len()), bits);
        }
    }

    #[test]
    fn preamble_alternates_starting_with_one() {
        let p = ChannelParams::default().preamble();
        assert_eq!(&p[..4], &[1, 0, 1, 0]);
    }

    fn synth_samples(
        frame: &[u8],
        slot: u64,
        phase: u64,
        probes_per_slot: u64,
    ) -> Vec<ProbeSample> {
        let mut out = Vec::new();
        for (i, &b) in frame.iter().enumerate() {
            for p in 0..probes_per_slot {
                let at = phase + i as u64 * slot + p * (slot / probes_per_slot) + 3;
                out.push(ProbeSample {
                    at,
                    misses: if b == 1 { 14 } else { 1 },
                    lines: 16,
                    mean_latency: if b == 1 { 950 } else { 630 },
                });
            }
        }
        out
    }

    #[test]
    fn decoder_recovers_clean_frame() {
        let params = ChannelParams::default();
        let payload = bits_from_bytes(b"hi");
        let frame = params.frame(&payload);
        let samples = synth_samples(&frame, params.slot_cycles, 0, 3);
        let dec = VOTE.decode(&samples, &params, payload.len());
        assert_eq!(dec.payload, payload);
        assert_eq!(dec.preamble_matches, params.preamble_bits);
    }

    #[test]
    fn decoder_locks_phase_despite_offset() {
        let params = ChannelParams::default();
        let payload = bits_from_bytes(&[0b1011_0010]);
        let frame = params.frame(&payload);
        // Probes start mid-slot: phase offset of 40% of a slot.
        let samples = synth_samples(&frame, params.slot_cycles, params.slot_cycles * 2 / 5, 4);
        let dec = VOTE.decode(&samples, &params, payload.len());
        assert_eq!(dec.payload, payload, "phase-shifted frame must decode");
    }

    #[test]
    fn decoder_tolerates_sparse_noise() {
        let params = ChannelParams::default();
        let payload = bits_from_bytes(b"noise");
        let frame = params.frame(&payload);
        let mut samples = synth_samples(&frame, params.slot_cycles, 100, 4);
        // Flip every 13th probe's misses.
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 13 == 0 {
                s.misses = 16 - s.misses;
            }
        }
        let dec = VOTE.decode(&samples, &params, payload.len());
        let errs = dec
            .payload
            .iter()
            .zip(&payload)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            errs <= 1,
            "majority voting should absorb sparse flips, got {errs}"
        );
    }

    #[test]
    fn empty_trace_decodes_to_zeros() {
        let params = ChannelParams::default();
        let dec = VOTE.decode(&[], &params, 8);
        assert_eq!(dec.payload, vec![0; 8]);
    }

    fn sample_with_mean(mean: u32) -> ProbeSample {
        ProbeSample {
            at: 0,
            misses: 0,
            lines: 2,
            mean_latency: mean,
        }
    }

    #[test]
    fn robust_boundary_survives_outlier_tail() {
        // Two genuine levels (640 / 1067) plus a thin far tail, the
        // link-congestion channel's distribution shape. Min/max-init
        // 2-means puts the boundary above the `1` level; quantile init
        // lands between the levels.
        let mut samples: Vec<ProbeSample> = Vec::new();
        for _ in 0..60 {
            samples.push(sample_with_mean(640));
        }
        for _ in 0..40 {
            samples.push(sample_with_mean(1067));
        }
        for _ in 0..3 {
            samples.push(sample_with_mean(1900));
        }
        let naive = adaptive_boundary(&samples);
        let robust = robust_boundary(&samples);
        assert!(naive > 1067.0, "min/max init collapses the levels: {naive}");
        assert!(
            robust > 640.0 && robust < 1067.0,
            "quantile init separates the levels: {robust}"
        );
    }

    #[test]
    fn robust_boundary_degenerate_cases() {
        assert_eq!(robust_boundary(&[]), 0.0);
        // A single level: boundary lands above it, so everything votes 0.
        let flat: Vec<ProbeSample> = (0..10).map(|_| sample_with_mean(640)).collect();
        assert!(robust_boundary(&flat) > 640.0);
    }
}
