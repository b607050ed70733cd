//! A resilient covert transport: sequence-numbered, CRC-protected
//! frames with bounded, deterministically backed-off retransmission —
//! the protocol hardening evaluated against the fabric's fault
//! injection ([`gpubox_sim::fault`]).
//!
//! The plain pipeline ([`super::medium::transmit`]) sends one
//! monolithic frame and self-calibrates one decision boundary over the
//! whole trace. A scheduled link failure mid-transmission breaks both
//! assumptions at once: every slot inside the outage window reads at a
//! different level (rerouted paths, or the PCIe fallback's
//! round-trip), the mis-levelled samples drag the boundary off the
//! healthy levels, and errors smear far beyond the window itself. This
//! module layers classic transport mechanisms on the same media to
//! keep decoding through such faults:
//!
//! - **Framing** — the payload is cut into fixed-size chunks, each
//!   sealed as `seq ‖ chunk ‖ CRC-8` ([`super::protocol::seal_frame`])
//!   and coded independently by the pipeline's coding stage, so a
//!   fault corrupts *frames*, not the transmission.
//! - **Integrity + at-most-once delivery** — receive-side frames must
//!   pass the CRC *and* carry the sequence number expected at their
//!   stream position; anything else is dropped and retransmitted.
//!   Duplicates (a frame already delivered in an earlier round) are
//!   discarded by sequence number.
//! - **Sync-loss detection and resynchronisation** — a lane whose
//!   preamble agreement falls below
//!   [`RetryConfig::min_preamble_matches`] has lost slot sync (phase
//!   mis-lock, or a fault-induced mid-trace level shift dragging the
//!   self-calibrated boundary off the healthy levels). The receiver
//!   re-decodes against recalibrated boundaries — first one computed
//!   with far outliers fenced off (the fault's signature: a PCIe
//!   fallback window sits far above both healthy levels), then the
//!   alternate policy's (2-means ↔ quantile) — and keeps the best
//!   preamble lock; every retransmission round then re-locks phase
//!   from its own fresh preamble, so one lost round never
//!   desynchronises the stream.
//! - **Bounded retransmission with deterministic backoff** — frames
//!   still missing after a round are re-sent, up to
//!   [`RetryConfig::max_retries`] rounds, each round's launches
//!   deferred by a growing whole-slot backoff
//!   ([`RetryConfig::backoff_slots`]). Agent clocks restart at zero
//!   every round, so a scheduled fault window recurs at the same
//!   absolute time — the backoff shifts the (shorter) retransmission
//!   stream relative to that window instead of replaying the collision
//!   verbatim. No randomness anywhere: the whole exchange is
//!   bit-reproducible like the rest of the stack.

use super::agents::SpyTrace;
use super::medium::{listen_horizon, ChannelMedium, GRACE_SLOTS};
use super::pipeline::{matched_filter_decode, BoundaryPolicy, Decoder, Pipeline};
use super::protocol::{
    decode_trace_with_boundary, open_frame, seal_frame, ChannelParams, DecodedStripe, ProbeSample,
    CRC_BITS, SEQ_BITS,
};
use gpubox_sim::telemetry::{TraceKind, NO_PROCESS};
use gpubox_sim::{Engine, MultiGpuSystem, SimResult};

/// Retransmission policy of [`transmit_resilient`] — protocol constants
/// both endpoints share out of band, like [`ChannelParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Payload bits per frame (excluding the sequence number and CRC).
    /// Smaller frames localise fault damage better but pay more
    /// per-frame overhead ([`SEQ_BITS`] + [`CRC_BITS`] bits each).
    pub chunk_bits: usize,
    /// Retransmission rounds after the initial transmission. Frames
    /// still missing when the budget is exhausted decode as zeros.
    pub max_retries: usize,
    /// Whole-slot launch defer added per retransmission round: round
    /// `r` starts `r * backoff_slots` slots late, shifting it relative
    /// to any recurring fault window.
    pub backoff_slots: u64,
    /// Minimum preamble bits a lane's decode must match before its
    /// frames are trusted without a resynchronisation attempt.
    pub min_preamble_matches: usize,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            chunk_bits: 16,
            max_retries: 3,
            backoff_slots: 12,
            min_preamble_matches: 12,
        }
    }
}

/// Outcome of one resilient transmission.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// Payload bits handed to the transmitter.
    pub sent: Vec<u8>,
    /// Payload bits recovered (undelivered chunks read as zeros).
    pub received: Vec<u8>,
    /// Hamming distance between sent and received.
    pub bit_errors: usize,
    /// `bit_errors / sent.len()`.
    pub error_rate: f64,
    /// Frames the payload was cut into.
    pub frames_total: usize,
    /// Frames delivered with a verified CRC and the expected sequence
    /// number.
    pub frames_delivered: usize,
    /// Frame transmissions beyond the first round (the retry traffic).
    pub retransmissions: usize,
    /// Engine rounds run (1 = everything arrived first try).
    pub rounds: usize,
    /// Lane decodes whose preamble agreement fell below the sync
    /// threshold.
    pub sync_losses: usize,
    /// Sync losses the alternate-boundary re-decode improved.
    pub resyncs: usize,
    /// Frame slots that failed CRC/sequence verification.
    pub frame_failures: usize,
    /// Codeword corrections applied by the coding stage across rounds.
    pub ecc_corrections: usize,
    /// Sum of the rounds' engine end-of-run clocks — the total time the
    /// exchange occupied, backoffs included.
    pub duration_cycles: u64,
}

/// Runs the decoder's slot machinery with an explicitly supplied
/// decision boundary instead of the policy's self-calibrated one.
fn decode_with_boundary(
    d: &Decoder,
    samples: &[ProbeSample],
    params: &ChannelParams,
    payload_bits: usize,
    boundary: f64,
) -> DecodedStripe {
    match d {
        Decoder::Vote(_) => decode_trace_with_boundary(samples, params, payload_bits, boundary),
        Decoder::MatchedFilter(_) => {
            matched_filter_decode(samples, params, payload_bits, boundary)
        }
    }
}

/// The policy's boundary recomputed after fencing off far outliers
/// (Tukey fence at `q3 + 3·IQR` over the probe means). A fault window
/// mid-trace — rerouted hops, or the PCIe fallback's round-trip —
/// injects samples far above both healthy levels; fed into the global
/// calibration they drag the boundary over the healthy congested
/// level and corrupt *every* slot of the round, not just the window.
/// Calibrating on the fenced samples and decoding the full trace with
/// that boundary confines the damage to the faulted slots, whose
/// frames then fail CRC and are retransmitted.
fn fenced_boundary(policy: &BoundaryPolicy, samples: &[ProbeSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut vals: Vec<f64> = samples.iter().map(|s| f64::from(s.mean_latency)).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q1 = vals[(vals.len() - 1) / 4];
    let q3 = vals[(vals.len() - 1) * 3 / 4];
    let fence = q3 + 3.0 * (q3 - q1).max(1.0);
    let kept: Vec<ProbeSample> = samples
        .iter()
        .filter(|s| f64::from(s.mean_latency) <= fence)
        .copied()
        .collect();
    policy.boundary(&kept)
}

/// The decoder's boundary policy.
fn policy_of(d: &Decoder) -> BoundaryPolicy {
    match d {
        Decoder::Vote(p) | Decoder::MatchedFilter(p) => *p,
    }
}

/// The alternate boundary policy (2-means ↔ quantile).
fn alternate(p: BoundaryPolicy) -> BoundaryPolicy {
    match p {
        BoundaryPolicy::TwoMeans => BoundaryPolicy::Quantile,
        BoundaryPolicy::Quantile => BoundaryPolicy::TwoMeans,
    }
}

/// Transmits `payload` bits over `medium` with the resilient framing:
/// chunk → seal (`seq ‖ chunk ‖ CRC`) → code → stripe frames
/// round-robin over the medium's lanes → run → decode → verify →
/// retransmit what is missing, up to `retry.max_retries` extra rounds
/// with deterministic whole-slot backoff.
///
/// The naive counterpart for comparisons is
/// [`super::medium::transmit`] with the same pipeline: one
/// monolithic frame, no integrity check, no retry.
///
/// # Errors
///
/// Propagates medium preparation and simulator errors — including
/// [`gpubox_sim::SimError::LinkDown`] when a fault plan refuses the
/// PCIe fallback mid-round.
///
/// # Panics
///
/// Panics on a zero `chunk_bits`, a zero-lane medium, an empty payload
/// or a payload needing more than 256 frames (the sequence-number
/// space).
pub fn transmit_resilient(
    sys: &mut MultiGpuSystem,
    medium: &dyn ChannelMedium,
    payload: &[u8],
    params: &ChannelParams,
    pipeline: &Pipeline,
    retry: &RetryConfig,
) -> SimResult<ResilientReport> {
    assert!(retry.chunk_bits >= 1, "frames need at least one payload bit");
    assert!(!payload.is_empty(), "nothing to transmit");
    let k = medium.lanes();
    assert!(k >= 1, "medium must expose at least one lane");

    // Cut the payload into fixed-size chunks (the last zero-padded so
    // every frame is the same length on the channel).
    let chunks: Vec<Vec<u8>> = payload
        .chunks(retry.chunk_bits)
        .map(|c| {
            let mut chunk = c.to_vec();
            chunk.resize(retry.chunk_bits, 0);
            chunk
        })
        .collect();
    let frames_total = chunks.len();
    assert!(
        frames_total <= 1 << SEQ_BITS,
        "payload needs {frames_total} frames but sequence numbers address only {}",
        1usize << SEQ_BITS
    );
    let frame_plain_bits = SEQ_BITS + retry.chunk_bits + CRC_BITS;
    let frame_channel_bits = pipeline.coding.channel_bits(frame_plain_bits);

    let mut delivered: Vec<Option<Vec<u8>>> = vec![None; frames_total];
    let mut pending: Vec<usize> = (0..frames_total).collect();
    let mut report = ResilientReport {
        sent: payload.to_vec(),
        received: Vec::new(),
        bit_errors: 0,
        error_rate: 0.0,
        frames_total,
        frames_delivered: 0,
        retransmissions: 0,
        rounds: 0,
        sync_losses: 0,
        resyncs: 0,
        frame_failures: 0,
        ecc_corrections: 0,
        duration_cycles: 0,
    };

    for attempt in 0..=retry.max_retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            report.retransmissions += pending.len();
        }

        // Frames round-robin over lanes; each lane's stream is its
        // frames' channel bits back to back behind one preamble.
        let mut lane_frames: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &seq) in pending.iter().enumerate() {
            lane_frames[i % k].push(seq);
        }
        let lane_bits: Vec<Vec<u8>> = lane_frames
            .iter()
            .map(|frames| {
                let mut bits = Vec::with_capacity(frames.len() * frame_channel_bits);
                for &seq in frames {
                    bits.extend(pipeline.coding.encode(&seal_frame(seq as u8, &chunks[seq])));
                }
                bits
            })
            .collect();

        let defer = attempt as u64 * retry.backoff_slots * params.slot_cycles;
        let listen = listen_horizon(&lane_bits, params) + defer;
        if sys.tracing_enabled() {
            for &seq in &pending {
                sys.trace_mut()
                    .record(TraceKind::FrameSeal, defer, NO_PROCESS, seq as u64, attempt as u64);
            }
        }

        medium.prepare(sys)?;
        let mut eng = Engine::new(sys);
        let mut traces: Vec<Option<SpyTrace>> = Vec::with_capacity(k);
        for (lane, bits) in lane_bits.iter().enumerate() {
            if bits.is_empty() {
                traces.push(None);
                continue;
            }
            let frame = params.frame(bits);
            traces.push(Some(medium.install_lane(&mut eng, lane, &frame, params, listen, defer)));
        }
        let end = eng.run(listen + GRACE_SLOTS * params.slot_cycles)?;
        drop(eng);
        report.rounds += 1;
        report.duration_cycles += end;
        sys.trace_mut()
            .record(TraceKind::RetryRound, defer, NO_PROCESS, end, attempt as u64);

        for (lane, trace) in traces.iter().enumerate() {
            let Some(trace) = trace else { continue };
            let samples = trace.samples();
            let lane_channel_bits = lane_frames[lane].len() * frame_channel_bits;
            let mut dec = pipeline.decoder.decode(&samples, params, lane_channel_bits);
            if dec.preamble_matches < retry.min_preamble_matches.min(params.preamble_bits) {
                // Sync loss: the policy's global calibration mislocated
                // the boundary (a fault-window level shift) or the
                // phase lock failed. Re-decode against recalibrated
                // boundaries — the outlier-fenced one first (the fault
                // shape), then the alternate policy's two — and keep
                // the best preamble lock.
                report.sync_losses += 1;
                let policy = policy_of(&pipeline.decoder);
                let candidates = [
                    fenced_boundary(&policy, &samples),
                    fenced_boundary(&alternate(policy), &samples),
                    alternate(policy).boundary(&samples),
                ];
                let mut improved = false;
                for boundary in candidates {
                    if dec.preamble_matches == params.preamble_bits {
                        break;
                    }
                    let re = decode_with_boundary(
                        &pipeline.decoder,
                        &samples,
                        params,
                        lane_channel_bits,
                        boundary,
                    );
                    if re.preamble_matches > dec.preamble_matches {
                        dec = re;
                        improved = true;
                        sys.trace_mut().record(
                            TraceKind::BoundaryChosen,
                            defer,
                            NO_PROCESS,
                            boundary as u64,
                            lane as u64,
                        );
                    }
                }
                report.resyncs += usize::from(improved);
                sys.trace_mut().record(
                    TraceKind::Resync,
                    defer,
                    NO_PROCESS,
                    lane as u64,
                    u64::from(improved),
                );
            }
            for (j, &seq) in lane_frames[lane].iter().enumerate() {
                let coded = &dec.payload[j * frame_channel_bits..(j + 1) * frame_channel_bits];
                let (plain, corrections) = pipeline.coding.decode(coded, frame_plain_bits);
                report.ecc_corrections += corrections;
                match open_frame(&plain, retry.chunk_bits) {
                    Some((got_seq, chunk))
                        if usize::from(got_seq) == seq && delivered[seq].is_none() =>
                    {
                        delivered[seq] = Some(chunk.to_vec());
                        report.frames_delivered += 1;
                        sys.trace_mut()
                            .record(TraceKind::FrameOpen, end, NO_PROCESS, seq as u64, 1);
                    }
                    _ => {
                        report.frame_failures += 1;
                        sys.trace_mut()
                            .record(TraceKind::FrameOpen, end, NO_PROCESS, seq as u64, 0);
                    }
                }
            }
        }
        pending.retain(|&seq| delivered[seq].is_none());
    }

    let mut received: Vec<u8> = Vec::with_capacity(frames_total * retry.chunk_bits);
    for slot in &delivered {
        match slot {
            Some(chunk) => received.extend_from_slice(chunk),
            None => received.extend(std::iter::repeat_n(0, retry.chunk_bits)),
        }
    }
    received.truncate(payload.len());
    report.bit_errors = received.iter().zip(payload).filter(|(a, b)| a != b).count();
    report.error_rate = report.bit_errors as f64 / payload.len() as f64;
    report.received = received;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::super::channel::LinkChannel;
    use super::super::medium::LinkCongestionMedium;
    use super::super::protocol::bits_from_bytes;
    use super::*;
    use gpubox_sim::{
        FabricConfig, FaultPlan, GpuId, MultiGpuSystem, ProcessId, SystemConfig, VirtAddr,
    };

    fn link_fixture() -> (MultiGpuSystem, ProcessId, ProcessId, Vec<VirtAddr>, Vec<VirtAddr>) {
        let cfg = SystemConfig::small_test()
            .noiseless()
            .with_fabric(FabricConfig::nvlink_v1());
        let mut sys = MultiGpuSystem::new(cfg);
        let trojan = sys.create_process(GpuId::new(1));
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(trojan, GpuId::new(0)).unwrap();
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let tb = sys.malloc_on(trojan, GpuId::new(0), 32 * 4096).unwrap();
        let sb = sys.malloc_on(spy, GpuId::new(0), 8 * 4096).unwrap();
        let trojan_lines: Vec<VirtAddr> = (0..32).map(|i| tb.offset(i * 4096)).collect();
        let spy_lines: Vec<VirtAddr> = (0..8).map(|i| sb.offset(i * 4096)).collect();
        (sys, trojan, spy, trojan_lines, spy_lines)
    }

    fn link_params() -> ChannelParams {
        ChannelParams {
            spy_gap: 600,
            ..Default::default()
        }
    }

    #[test]
    fn clean_channel_delivers_everything_in_one_round() {
        let params = link_params();
        let (mut sys, trojan, spy, tl, sl) = link_fixture();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: 2,
            },
        };
        let payload = bits_from_bytes(b"reliable");
        let report = transmit_resilient(
            &mut sys,
            &medium,
            &payload,
            &params,
            &Pipeline::vote(BoundaryPolicy::Quantile),
            &RetryConfig::default(),
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.frames_delivered, report.frames_total);
        assert_eq!(report.frame_failures, 0);
        assert_eq!(report.received, payload);
    }

    #[test]
    fn mid_transmission_outage_is_survived_by_retransmission() {
        let params = link_params();
        let (mut sys, trojan, spy, tl, sl) = link_fixture();
        // 5 frames of 32 channel bits each → ~176 slots per round. Down
        // the (only) NVLink link over the last quarter of round 1: the
        // tail frames corrupt and must be retransmitted; the shorter,
        // backed-off retry rounds clear the window.
        let outage_from = 150 * params.slot_cycles;
        let outage_until = 176 * params.slot_cycles;
        sys.set_fault_plan(FaultPlan::none().with_link_down(0, outage_from, outage_until))
            .unwrap();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: 2,
            },
        };
        let payload = bits_from_bytes(b"survive it");
        let report = transmit_resilient(
            &mut sys,
            &medium,
            &payload,
            &params,
            &Pipeline::vote(BoundaryPolicy::Quantile),
            &RetryConfig {
                max_retries: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.bit_errors, 0,
            "frames lost to the outage must be retransmitted: {report:?}"
        );
        assert!(report.rounds > 1, "the outage must cost at least one retry");
        assert!(report.retransmissions > 0);
    }

    #[test]
    fn retry_budget_bounds_the_exchange() {
        let params = link_params();
        let (mut sys, trojan, spy, tl, _sl) = link_fixture();
        // A dead channel: the spy streams a *local* buffer, so its
        // route shares nothing with the trojan's and no slot ever
        // carries signal — every frame fails verification. The
        // exchange must stop after max_retries + 1 rounds, not spin.
        let lb = sys.malloc_on(spy, GpuId::new(1), 8 * 4096).unwrap();
        let local_lines: Vec<VirtAddr> = (0..8).map(|i| lb.offset(i * 4096)).collect();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &local_lines,
                trojan_streams: 2,
            },
        };
        let payload = bits_from_bytes(b"doomed");
        let report = transmit_resilient(
            &mut sys,
            &medium,
            &payload,
            &params,
            &Pipeline::vote(BoundaryPolicy::Quantile),
            &RetryConfig {
                max_retries: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.rounds, 2, "initial round plus exactly one retry");
        assert_eq!(
            report.frames_delivered, 0,
            "a dead channel must deliver nothing, not zeros that verify"
        );
        assert_eq!(report.received, vec![0; payload.len()]);
        assert!(report.frame_failures > 0);
    }
}
