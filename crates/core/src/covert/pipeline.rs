//! The receive-side stage stack: decision boundary → slot decoder →
//! optional ECC/interleave, composable with any [`ChannelMedium`].
//!
//! [`ChannelMedium`]: super::medium::ChannelMedium
//!
//! The receive path factors into three orthogonal stages, so any
//! combination runs on any medium:
//!
//! - [`BoundaryPolicy`] — how the hit/miss (idle/congested) decision
//!   level is self-calibrated from the spy's own trace;
//! - [`Decoder`] — how probe samples inside a slot window combine into
//!   a bit: per-sample majority vote, or the matched filter
//!   ([`matched_filter_decode`]) that soft-combines the whole window;
//! - [`Coding`] — an optional forward-error-correction layer
//!   (Hamming(7,4) + block interleaving from [`super::ecc`]) applied to
//!   the payload before striping and inverted after reassembly.
//!
//! A [`Pipeline`] bundles a decoder and a coding layer. Each channel
//! family's baseline receive path is a per-sample vote:
//! [`Pipeline::vote`]`(TwoMeans)` for the Prime+Probe channel's tight
//! hit/miss clusters, [`Pipeline::vote`]`(Quantile)` for the congestion
//! channel's heavy tail (pinned by `tests/channel_fingerprints.rs`).

use super::ecc::{deinterleave, ecc_decode, ecc_decode_soft, ecc_encode, interleave};
use super::protocol::{
    adaptive_boundary, decode_trace_with_boundary, robust_boundary, ChannelParams, DecodedStripe,
    ProbeSample,
};

/// How the decision boundary between the two latency levels is
/// self-calibrated from the spy's observed probe-mean distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// 1-D 2-means clustering ([`adaptive_boundary`]) — the right shape
    /// for two tight clusters (the Prime+Probe channel's hit/miss
    /// levels), and robust to both levels shifting together under port
    /// contention.
    TwoMeans,
    /// Quantile-anchored ([`robust_boundary`]) — the right shape for a
    /// tight baseline plus a heavy congested tail (the link-congestion
    /// channel), where 2-means mislocates the boundary.
    Quantile,
}

impl BoundaryPolicy {
    /// Computes the decision boundary for a trace.
    pub fn boundary(&self, samples: &[ProbeSample]) -> f64 {
        match self {
            BoundaryPolicy::TwoMeans => adaptive_boundary(samples),
            BoundaryPolicy::Quantile => robust_boundary(samples),
        }
    }
}

/// How the samples inside each slot window are combined into a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoder {
    /// Each sample votes 0/1 against the boundary; the slot takes the
    /// majority. This is the PR 3 decoder for both channel families.
    Vote(BoundaryPolicy),
    /// Matched filter over the slot window ([`matched_filter_decode`]):
    /// samples contribute *soft* scores (normalised latency, clamped to
    /// the level span) weighted towards the slot centre, and the summed
    /// filter output is thresholded once per slot. Cuts the
    /// tenant-noise error floor the per-sample vote hits: a hard vote
    /// throws away how far each sample sits from the boundary and
    /// weights boundary-overrun samples at the slot edges the same as
    /// mid-slot evidence.
    MatchedFilter(BoundaryPolicy),
}

impl Decoder {
    /// Decodes one stripe's probe trace into `payload_bits` bits.
    pub fn decode(
        &self,
        samples: &[ProbeSample],
        params: &ChannelParams,
        payload_bits: usize,
    ) -> DecodedStripe {
        match self {
            Decoder::Vote(policy) => {
                decode_trace_with_boundary(samples, params, payload_bits, policy.boundary(samples))
            }
            Decoder::MatchedFilter(policy) => {
                matched_filter_decode(samples, params, payload_bits, policy.boundary(samples))
            }
        }
    }

    /// As [`Decoder::decode`], also returning per-bit confidences for a
    /// soft-decision coding stage ([`Coding::Hamming74Soft`]). The
    /// matched filter reports the quantised distance of each slot's
    /// filter response from its threshold — exactly the margin it
    /// otherwise discards at the slot decision; the vote decoder has no
    /// soft output, so its bits come back uniformly confident and a
    /// soft coding stage degenerates to hard decoding (asserted in the
    /// unit tests).
    pub fn decode_soft(
        &self,
        samples: &[ProbeSample],
        params: &ChannelParams,
        payload_bits: usize,
    ) -> SoftStripe {
        match self {
            Decoder::Vote(_) => SoftStripe {
                stripe: self.decode(samples, params, payload_bits),
                confidence: vec![CONFIDENCE_SCALE; payload_bits],
            },
            Decoder::MatchedFilter(policy) => {
                matched_filter_decode_soft(samples, params, payload_bits, policy.boundary(samples))
            }
        }
    }
}

/// Confidences are quantised to `0..=CONFIDENCE_SCALE` (a filter
/// response exactly at the threshold scores 0; a full level away scores
/// the scale). Quantisation keeps stripe outputs `Eq`-comparable for
/// the bit-identity assertions the sweep binaries rely on.
pub const CONFIDENCE_SCALE: u16 = 10_000;

/// A decoded stripe plus the per-payload-bit confidence the decoder
/// would otherwise throw away at the slot threshold — the input of the
/// soft-decision coding stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftStripe {
    /// The hard bits (identical to what [`Decoder::decode`] returns).
    pub stripe: DecodedStripe,
    /// Per-payload-bit confidence, `0..=`[`CONFIDENCE_SCALE`]; slots
    /// with no samples score 0 (an erasure).
    pub confidence: Vec<u16>,
}

/// Optional forward-error-correction layer around the channel: encode
/// expands the payload before striping, decode inverts it after the
/// stripes are reassembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coding {
    /// Raw bits on the channel.
    None,
    /// Hamming(7,4) single-error correction behind a block interleaver
    /// of the given depth: an error *burst* of length `L` lands in at
    /// most `ceil(L/depth)` bits per codeword, which single-error
    /// correction can then repair — exactly the failure mode of
    /// congestion episodes on either medium.
    Hamming74 {
        /// Interleaver depth (rows); `0`/`1` means no interleaving.
        interleave_depth: usize,
    },
    /// As [`Coding::Hamming74`] on the encode side, but decoding feeds
    /// the decoder's per-bit confidences (the matched filter's slot
    /// margins, deinterleaved on the same permutation as the bits) into
    /// Chase-style least-confidence correction
    /// ([`super::ecc::hamming74_decode_soft`]): a codeword whose two
    /// errors sit on its two least-confident bits — which hard
    /// single-error correction is guaranteed to miscorrect — is
    /// repaired by flipping those bits instead. Never worse than
    /// [`Coding::Hamming74`] on the existing sweeps (asserted in
    /// `ext_ecc_channel`), identical to it under the vote decoder.
    Hamming74Soft {
        /// Interleaver depth (rows); `0`/`1` means no interleaving.
        interleave_depth: usize,
    },
}

impl Coding {
    /// Channel bits carrying `data_bits` payload bits under this coding
    /// (the interleaver pads its output to a whole number of columns).
    pub fn channel_bits(&self, data_bits: usize) -> usize {
        match self {
            Coding::None => data_bits,
            Coding::Hamming74 { interleave_depth }
            | Coding::Hamming74Soft { interleave_depth } => {
                let coded = data_bits.div_ceil(4) * 7;
                let d = (*interleave_depth).max(1);
                coded.div_ceil(d) * d
            }
        }
    }

    /// Encodes payload bits into channel bits.
    pub fn encode(&self, bits: &[u8]) -> Vec<u8> {
        match self {
            Coding::None => bits.to_vec(),
            Coding::Hamming74 { interleave_depth }
            | Coding::Hamming74Soft { interleave_depth } => {
                interleave(&ecc_encode(bits), (*interleave_depth).max(1))
            }
        }
    }

    /// Decodes channel bits back to `data_bits` payload bits; returns
    /// the bits and the number of codeword corrections applied (always
    /// 0 for [`Coding::None`]). [`Coding::Hamming74Soft`] without
    /// confidences decodes like [`Coding::Hamming74`] — use
    /// [`Coding::decode_with_confidence`] for the soft path.
    pub fn decode(&self, channel_bits: &[u8], data_bits: usize) -> (Vec<u8>, usize) {
        match self {
            Coding::None => {
                let mut out = channel_bits.to_vec();
                out.resize(data_bits, 0);
                (out, 0)
            }
            Coding::Hamming74 { interleave_depth }
            | Coding::Hamming74Soft { interleave_depth } => {
                let coded_len = data_bits.div_ceil(4) * 7;
                let coded = deinterleave(channel_bits, (*interleave_depth).max(1), coded_len);
                ecc_decode(&coded, data_bits)
            }
        }
    }

    /// As [`Coding::decode`] with per-channel-bit confidences (aligned
    /// with `channel_bits`). Only [`Coding::Hamming74Soft`] consumes
    /// them — the confidences are deinterleaved on the same permutation
    /// as the bits and drive least-confidence correction; the other
    /// variants ignore the confidences and defer to [`Coding::decode`].
    pub fn decode_with_confidence(
        &self,
        channel_bits: &[u8],
        confidence: &[u16],
        data_bits: usize,
    ) -> (Vec<u8>, usize) {
        match self {
            Coding::Hamming74Soft { interleave_depth } => {
                let d = (*interleave_depth).max(1);
                let coded_len = data_bits.div_ceil(4) * 7;
                let coded = deinterleave(channel_bits, d, coded_len);
                let conf = deinterleave(confidence, d, coded_len);
                ecc_decode_soft(&coded, &conf, data_bits)
            }
            _ => self.decode(channel_bits, data_bits),
        }
    }
}

/// A complete receive-side configuration: slot decoder plus coding
/// layer. Any pipeline runs over any [`ChannelMedium`] through
/// [`transmit`].
///
/// [`ChannelMedium`]: super::medium::ChannelMedium
/// [`transmit`]: super::medium::transmit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    /// Slot decoder stage.
    pub decoder: Decoder,
    /// Coding stage.
    pub coding: Coding,
}

impl Pipeline {
    /// Per-sample vote, no coding: each channel family's baseline
    /// receive path.
    pub fn vote(policy: BoundaryPolicy) -> Self {
        Pipeline {
            decoder: Decoder::Vote(policy),
            coding: Coding::None,
        }
    }

    /// Matched-filter slot decoding, no coding.
    pub fn matched_filter(policy: BoundaryPolicy) -> Self {
        Pipeline {
            decoder: Decoder::MatchedFilter(policy),
            coding: Coding::None,
        }
    }

    /// Adds a coding stage (builder-style).
    #[must_use]
    pub fn with_coding(mut self, coding: Coding) -> Self {
        self.coding = coding;
        self
    }
}

/// Matched-filter slot decoder.
///
/// The transmitted waveform inside one slot is (nominally) a
/// rectangular pulse: the trojan holds the medium busy for a `1` and
/// idle for a `0`, so the matched filter for the slot is an integrator
/// over the window. Three refinements adapt it to this channel's noise:
///
/// - **Soft scores.** Each sample contributes its latency normalised to
///   the trace's robust level span (20th → 90th percentile), clamped to
///   `[0, 1]`. Clamping bounds the influence of the heavy congested
///   tail (a far-tail queue wait counts like any other congested
///   sample), while sub-boundary but elevated samples contribute
///   fractional evidence a hard vote discards entirely.
/// - **Centre weighting.** Samples are weighted by a triangular window
///   over their position in the slot (floored at 0.1 so edge samples
///   still count). The trojan's bursts deliberately overrun the slot
///   boundary (to keep the link saturated to the slot edge), and the
///   spy's phase lock is only slot-quantised — both put misleading
///   samples at the window edges, exactly where the filter weighs
///   least.
/// - **Threshold transfer.** The slot decision threshold is the
///   boundary policy's raw-latency boundary mapped through the same
///   normalisation, so the decoder inherits the policy's placement
///   (2-means midpoint or quantile anchor) instead of assuming 0.5.
///
/// Degenerate traces (empty, or a single latency level) decode to all
/// zeros, matching the vote decoder's behaviour.
pub fn matched_filter_decode(
    samples: &[ProbeSample],
    params: &ChannelParams,
    payload_bits: usize,
    boundary: f64,
) -> DecodedStripe {
    matched_filter_decode_soft(samples, params, payload_bits, boundary).stripe
}

/// As [`matched_filter_decode`], additionally returning the quantised
/// per-bit margins `|response − θ|` — the confidence the hard slot
/// decision throws away, consumed by [`Coding::Hamming74Soft`]. Slots
/// with no samples (and degenerate traces) score 0: an erasure the
/// soft coding stage flips first.
pub fn matched_filter_decode_soft(
    samples: &[ProbeSample],
    params: &ChannelParams,
    payload_bits: usize,
    boundary: f64,
) -> SoftStripe {
    let preamble = params.preamble();
    let total_slots = preamble.len() + payload_bits;
    if samples.is_empty() {
        return SoftStripe {
            stripe: DecodedStripe {
                payload: vec![0; payload_bits],
                phase: 0,
                preamble_matches: 0,
            },
            confidence: vec![0; payload_bits],
        };
    }
    // Robust level span, shared with `robust_boundary`'s quantiles.
    let mut vals: Vec<f64> = samples.iter().map(|s| f64::from(s.mean_latency)).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lo = vals[(vals.len() - 1) * 2 / 10];
    let hi = vals[(vals.len() - 1) * 9 / 10];
    if (hi - lo) < 1.0 {
        // One level only: no signal, everything reads 0.
        return SoftStripe {
            stripe: DecodedStripe {
                payload: vec![0; payload_bits],
                phase: 0,
                preamble_matches: 0,
            },
            confidence: vec![0; payload_bits],
        };
    }
    let theta = ((boundary - lo) / (hi - lo)).clamp(0.05, 0.95);
    let score = |s: &ProbeSample| ((f64::from(s.mean_latency) - lo) / (hi - lo)).clamp(0.0, 1.0);

    let t0 = samples[0].at;
    let slot = params.slot_cycles;

    // Filter responses per slot for one candidate phase: triangular
    // centre weighting, floored so edge samples still contribute.
    let responses = |start: u64, out: &mut Vec<Option<f64>>| {
        let mut num = vec![0.0f64; total_slots];
        let mut den = vec![0.0f64; total_slots];
        for s in samples {
            if s.at < start {
                continue;
            }
            let idx = ((s.at - start) / slot) as usize;
            if idx >= total_slots {
                break;
            }
            let u = ((s.at - start) % slot) as f64 / slot as f64;
            let w = 0.1 + 0.9 * (1.0 - (2.0 * u - 1.0).abs());
            num[idx] += w * score(s);
            den[idx] += w;
        }
        out.clear();
        out.extend(
            (0..total_slots).map(|i| (den[i] > 0.0).then(|| num[i] / den[i])),
        );
    };

    // Phase search, mirroring the vote decoder: preamble agreement
    // first, mean filter margin |response − θ| as the tiebreak.
    let steps = 64u64;
    let mut resp = Vec::with_capacity(total_slots);
    let mut best = (0u64, usize::MAX, f64::NEG_INFINITY, 0usize);
    for step in 0..steps {
        let phase = slot * step / steps;
        responses(t0 + phase, &mut resp);
        let mut matches = 0usize;
        let mut margin = 0.0;
        let mut n = 0usize;
        for (i, want) in preamble.iter().enumerate() {
            if let Some(r) = resp[i] {
                let got = u8::from(r >= theta);
                matches += usize::from(got == *want);
                margin += (r - theta).abs();
                n += 1;
            }
        }
        let err = preamble.len() - matches;
        let margin = if n > 0 { margin / n as f64 } else { 0.0 };
        if err < best.1 || (err == best.1 && margin > best.2) {
            best = (phase, err, margin, matches);
        }
    }
    let (phase, _, _, preamble_matches) = best;
    responses(t0 + phase, &mut resp);
    let payload = resp[preamble.len()..]
        .iter()
        .map(|r| r.map_or(0, |r| u8::from(r >= theta)))
        .collect();
    // Quantised margin per payload slot; responses live in [0, 1] and
    // θ in [0.05, 0.95], so the margin is at most 0.95.
    let confidence = resp[preamble.len()..]
        .iter()
        .map(|r| r.map_or(0, |r| ((r - theta).abs() * f64::from(CONFIDENCE_SCALE)) as u16))
        .collect();
    SoftStripe {
        stripe: DecodedStripe {
            payload,
            phase,
            preamble_matches,
        },
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::super::protocol::bits_from_bytes;
    use super::*;

    fn synth_samples(
        frame: &[u8],
        slot: u64,
        phase: u64,
        probes_per_slot: u64,
        one: u32,
        zero: u32,
    ) -> Vec<ProbeSample> {
        let mut out = Vec::new();
        for (i, &b) in frame.iter().enumerate() {
            for p in 0..probes_per_slot {
                out.push(ProbeSample {
                    at: phase + i as u64 * slot + p * (slot / probes_per_slot) + 3,
                    misses: 0,
                    lines: 4,
                    mean_latency: if b == 1 { one } else { zero },
                });
            }
        }
        out
    }

    #[test]
    fn matched_filter_recovers_clean_frame() {
        let params = ChannelParams::default();
        let payload = bits_from_bytes(b"mf");
        let frame = params.frame(&payload);
        for policy in [BoundaryPolicy::TwoMeans, BoundaryPolicy::Quantile] {
            let samples = synth_samples(&frame, params.slot_cycles, 0, 4, 950, 630);
            let dec = Decoder::MatchedFilter(policy).decode(&samples, &params, payload.len());
            assert_eq!(dec.payload, payload, "{policy:?}");
            assert_eq!(dec.preamble_matches, params.preamble_bits);
        }
    }

    #[test]
    fn matched_filter_locks_phase_despite_offset() {
        let params = ChannelParams::default();
        let payload = bits_from_bytes(&[0b1011_0010]);
        let frame = params.frame(&payload);
        let samples =
            synth_samples(&frame, params.slot_cycles, params.slot_cycles * 2 / 5, 4, 950, 630);
        let dec =
            Decoder::MatchedFilter(BoundaryPolicy::Quantile).decode(&samples, &params, payload.len());
        assert_eq!(dec.payload, payload, "phase-shifted frame must decode");
    }

    #[test]
    fn matched_filter_outvotes_edge_noise() {
        // Samples near the slot edges lie (boundary-overrun pollution):
        // the first quarter of every 0-slot reads at the congested
        // level. Per-sample voting flips slots whose sample mix tips;
        // the centre-weighted soft filter keeps every bit.
        let params = ChannelParams::default();
        let payload = bits_from_bytes(b"edges");
        let frame = params.frame(&payload);
        let slot = params.slot_cycles;
        let mut samples = synth_samples(&frame, slot, 0, 8, 1100, 640);
        for s in &mut samples {
            let u = (s.at % slot) as f64 / slot as f64;
            if u < 0.28 && s.mean_latency == 640 {
                s.mean_latency = 1100;
            }
        }
        let mf = Decoder::MatchedFilter(BoundaryPolicy::Quantile)
            .decode(&samples, &params, payload.len());
        let errs = |dec: &DecodedStripe| {
            dec.payload
                .iter()
                .zip(&payload)
                .filter(|(a, b)| a != b)
                .count()
        };
        assert_eq!(errs(&mf), 0, "matched filter discounts edge pollution");
    }

    #[test]
    fn matched_filter_degenerate_traces_read_zero() {
        let params = ChannelParams::default();
        let dec = Decoder::MatchedFilter(BoundaryPolicy::Quantile).decode(&[], &params, 6);
        assert_eq!(dec.payload, vec![0; 6]);
        // Single-level trace: no signal.
        let flat: Vec<ProbeSample> = (0..200)
            .map(|i| ProbeSample {
                at: i * 500,
                misses: 0,
                lines: 4,
                mean_latency: 640,
            })
            .collect();
        let dec = Decoder::MatchedFilter(BoundaryPolicy::Quantile).decode(&flat, &params, 6);
        assert_eq!(dec.payload, vec![0; 6]);
    }

    #[test]
    fn matched_filter_soft_bits_match_hard_bits() {
        // The soft decoder's hard bits are exactly matched_filter_decode's
        // output — the confidences are additional, never behaviour-changing.
        let params = ChannelParams::default();
        let payload = bits_from_bytes(b"soft=hard");
        let frame = params.frame(&payload);
        let mut samples = synth_samples(&frame, params.slot_cycles, 100, 6, 950, 630);
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 7 == 0 {
                s.mean_latency = 790; // mid-level noise
            }
        }
        let soft = matched_filter_decode_soft(&samples, &params, payload.len(), 800.0);
        let hard = matched_filter_decode(&samples, &params, payload.len(), 800.0);
        assert_eq!(soft.stripe, hard);
        assert_eq!(soft.confidence.len(), payload.len());
        assert!(soft.confidence.iter().any(|&c| c > 0));
        assert!(soft.confidence.iter().all(|&c| c <= CONFIDENCE_SCALE));
    }

    #[test]
    fn soft_coding_repairs_low_confidence_double_errors() {
        // Craft a coded stream whose corruption pattern defeats hard
        // Hamming decoding (two flips inside one codeword) but marks
        // exactly the flipped bits as least-confident — the erasure
        // shape a congested slot with a marginal filter response
        // produces.
        let bits: Vec<u8> = (0..40).map(|i| u8::from(i % 3 == 0)).collect();
        let hard = Coding::Hamming74 { interleave_depth: 1 };
        let soft = Coding::Hamming74Soft { interleave_depth: 1 };
        let mut coded = soft.encode(&bits);
        assert_eq!(coded, hard.encode(&bits), "identical on the encode side");
        let mut confidence = vec![9000u16; coded.len()];
        for w in [0usize, 3, 6] {
            for p in [1usize, 4] {
                coded[w * 7 + p] ^= 1;
                confidence[w * 7 + p] = 30;
            }
        }
        let (hard_bits, _) = hard.decode(&coded, bits.len());
        let hard_errors = hard_bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(hard_errors > 0, "double errors must defeat hard decoding");
        let (soft_bits, corrections) =
            soft.decode_with_confidence(&coded, &confidence, bits.len());
        assert_eq!(soft_bits, bits, "least-confidence correction repairs them");
        assert!(corrections >= 3);
    }

    #[test]
    fn soft_coding_with_uniform_confidence_matches_hard() {
        let bits: Vec<u8> = (0..64).map(|i| u8::from(i % 5 < 2)).collect();
        let hard = Coding::Hamming74 { interleave_depth: 8 };
        let soft = Coding::Hamming74Soft { interleave_depth: 8 };
        let mut coded = hard.encode(&bits);
        for b in coded.iter_mut().skip(17).take(9) {
            *b ^= 1;
        }
        let confidence = vec![5000u16; coded.len()];
        assert_eq!(
            soft.decode_with_confidence(&coded, &confidence, bits.len()),
            hard.decode(&coded, bits.len()),
            "uniform confidences degenerate to hard decoding"
        );
    }

    #[test]
    fn coding_round_trips() {
        let bits: Vec<u8> = (0..101).map(|i| u8::from(i % 3 == 0)).collect();
        for coding in [
            Coding::None,
            Coding::Hamming74 { interleave_depth: 1 },
            Coding::Hamming74 { interleave_depth: 16 },
            Coding::Hamming74Soft { interleave_depth: 16 },
        ] {
            let coded = coding.encode(&bits);
            assert_eq!(coded.len(), coding.channel_bits(bits.len()), "{coding:?}");
            let (back, corrections) = coding.decode(&coded, bits.len());
            assert_eq!(back, bits, "{coding:?}");
            assert_eq!(corrections, 0, "clean channel needs no corrections");
        }
    }

    #[test]
    fn hamming_coding_corrects_a_burst() {
        let bits: Vec<u8> = (0..64).map(|i| u8::from(i % 5 < 2)).collect();
        let coding = Coding::Hamming74 { interleave_depth: 16 };
        let mut coded = coding.encode(&bits);
        for b in coded.iter_mut().skip(40).take(12) {
            *b ^= 1; // a 12-bit burst on the channel
        }
        let (back, corrections) = coding.decode(&coded, bits.len());
        assert_eq!(back, bits, "interleaving spreads the burst across codewords");
        assert!(corrections >= 12, "each flipped bit lands in its own codeword");
    }
}
