//! End-to-end covert transmission and measurement (Fig. 9 / Fig. 10),
//! for both channel families: Prime+Probe over a shared L2 set
//! ([`transmit`]) and NVLink-link congestion over the timed fabric
//! ([`transmit_link`]). Both are thin wrappers over the
//! transport-agnostic [`transmit_over`] pipeline — kept bit-identical
//! to their pre-pipeline (PR 3) implementations, asserted by the golden
//! fingerprints in `tests/channel_fingerprints.rs`.

use super::medium::{transmit_over, ChannelMedium, L2SetMedium, LinkCongestionMedium};
use super::pipeline::{Coding, Pipeline};
use super::protocol::{ChannelParams, ProbeSample};
use crate::eviction::EvictionSet;
use crate::thresholds::Thresholds;
use gpubox_sim::{Engine, MultiGpuSystem, ProcessId, SchedulerKind, SimResult, VirtAddr};

/// One aligned (trojan, spy) eviction-set pair (from
/// [`crate::alignment::paired_sets`]).
#[derive(Debug, Clone)]
pub struct SetPair {
    /// The trojan's eviction set for the physical set.
    pub trojan: EvictionSet,
    /// The spy's eviction set for the same physical set.
    pub spy: EvictionSet,
}

/// Outcome of one covert transmission.
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Bits handed to the transmitter (payload only — before the
    /// pipeline's coding stage, before striping).
    pub sent: Vec<u8>,
    /// Bits recovered by the receiver (after decoding and the coding
    /// stage's correction).
    pub received: Vec<u8>,
    /// Hamming distance between sent and received.
    pub bit_errors: usize,
    /// `bit_errors / sent.len()`.
    pub error_rate: f64,
    /// Cycles from first to last activity (the engine's end-of-run
    /// clock, including the post-listen grace period).
    pub duration_cycles: u64,
    /// The spy's listen horizon — the true transmission window, and the
    /// span bandwidth is measured over.
    pub listen_cycles: u64,
    /// Payload bandwidth in bytes per second at the configured core
    /// clock, measured over the **listen span** for every medium. (The
    /// L2 channel historically divided by the engine's end-of-run clock
    /// instead, deflating Fig. 9-style numbers by the grace slots; the
    /// decoded bits are unaffected.)
    pub bandwidth_bytes_per_sec: f64,
    /// Codeword corrections applied by the pipeline's coding stage (0
    /// without coding).
    pub ecc_corrections: usize,
    /// Median spy-observed per-slot mean latency, as a log2-bucket
    /// floor (see [`gpubox_sim::telemetry::LogHistogram`] — exact to
    /// within one power of two), pooled across lanes.
    pub slot_latency_p50: u64,
    /// 95th percentile of the spy-observed per-slot mean latencies
    /// (log2-bucket floor).
    pub slot_latency_p95: u64,
    /// 99th percentile of the spy-observed per-slot mean latencies
    /// (log2-bucket floor).
    pub slot_latency_p99: u64,
    /// Raw per-lane spy traces (lane index → probe samples), e.g. for
    /// the Fig. 10 message trace.
    pub traces: Vec<Vec<ProbeSample>>,
}

/// Transmits `payload` bits from `trojan_pid` to `spy_pid` over the given
/// aligned set pairs (bits striped round-robin across pairs) and decodes
/// the spy's observations.
///
/// Equivalent to [`transmit_over`] with an [`L2SetMedium`] and that
/// medium's default pipeline (2-means boundary, per-sample vote, no
/// coding).
///
/// # Errors
///
/// Propagates simulator errors from either side.
pub fn transmit(
    sys: &mut MultiGpuSystem,
    trojan_pid: ProcessId,
    spy_pid: ProcessId,
    pairs: &[SetPair],
    payload: &[u8],
    params: &ChannelParams,
    thresholds: Thresholds,
) -> SimResult<ChannelReport> {
    assert!(!pairs.is_empty(), "need at least one aligned set pair");
    let medium = L2SetMedium {
        trojan: trojan_pid,
        spy: spy_pid,
        pairs,
        thresholds,
    };
    let pipeline = Pipeline {
        decoder: medium.default_decoder(),
        coding: Coding::None,
    };
    transmit_over(sys, &medium, payload, params, &pipeline, SchedulerKind::Auto)
}

/// Physical layer of one [`transmit_link`] transmission.
#[derive(Debug, Clone)]
pub struct LinkChannel<'a> {
    /// Remote lines of the trojan's buffer; every transfer burst streams
    /// all of them, saturating each link on their route.
    pub trojan_lines: &'a [VirtAddr],
    /// Remote lines of the spy's (disjoint) buffer, whose route must
    /// share at least one link with the trojan's for the channel to
    /// carry signal.
    pub spy_lines: &'a [VirtAddr],
    /// Concurrent trojan transfer streams (thread blocks). More streams
    /// push the shared link deeper into saturation, widening the latency
    /// gap the spy decodes — the sweep's *trojan intensity* axis.
    pub trojan_streams: usize,
}

/// Stages one link-congestion transmission on `sys` through the
/// [`LinkCongestionMedium`]: warms both working sets, builds an engine
/// under `sched`, and wires the spy at start 0 plus
/// `trojan_streams` staggered trojan streams, all sending the framed
/// `payload`. Returns the engine, the spy's trace handle and the spy's
/// listen horizon; the caller may add further agents (the sweep binary
/// adds background tenants) and must run the engine at least to the
/// listen horizon before decoding. [`transmit_link`] is the one-call
/// wrapper.
///
/// # Errors
///
/// Returns [`gpubox_sim::SimError::FabricDisabled`] when the system was
/// booted without the timed link fabric — the scalar interconnect model
/// has no per-link occupancy for this channel to modulate.
pub fn prepare_link_channel<'a>(
    sys: &'a mut MultiGpuSystem,
    trojan_pid: ProcessId,
    spy_pid: ProcessId,
    channel: &LinkChannel<'_>,
    payload: &[u8],
    params: &ChannelParams,
    sched: SchedulerKind,
) -> SimResult<(Engine<'a>, super::agents::SpyTrace, u64)> {
    let medium = LinkCongestionMedium {
        trojan: trojan_pid,
        spy: spy_pid,
        channel: channel.clone(),
    };
    let frame = params.frame(payload);
    let listen = (frame.len() as u64 + 4) * params.slot_cycles;
    medium.prepare(sys)?;
    let mut eng = Engine::with_scheduler(sys, sched);
    let trace = medium.install_lane(&mut eng, 0, &frame, params, listen);
    Ok((eng, trace, listen))
}

/// Transmits `payload` bits from `trojan_pid` to `spy_pid` through
/// **link congestion** on the timed fabric: the trojan saturates the
/// links on its route during `1` slots; the spy streams its own buffer
/// and decodes from its own per-probe mean latency (no shared cache
/// set). Framing, phase lock and decoding are the same pipeline
/// machinery as [`transmit`]; this medium's default pipeline anchors
/// the decision boundary on robust quantiles (the congested level is a
/// heavy tail, not a second tight cluster).
///
/// `sched` forces an engine scheduler; [`SchedulerKind::Auto`] is the
/// normal choice. Every choice yields the same channel (the engine's
/// scheduler-equivalence tests prove it).
///
/// # Errors
///
/// Returns [`gpubox_sim::SimError::FabricDisabled`] when the system was
/// booted without the timed link fabric. Propagates simulator errors
/// from either side.
pub fn transmit_link(
    sys: &mut MultiGpuSystem,
    trojan_pid: ProcessId,
    spy_pid: ProcessId,
    channel: &LinkChannel<'_>,
    payload: &[u8],
    params: &ChannelParams,
    sched: SchedulerKind,
) -> SimResult<ChannelReport> {
    let medium = LinkCongestionMedium {
        trojan: trojan_pid,
        spy: spy_pid,
        channel: channel.clone(),
    };
    let pipeline = Pipeline {
        decoder: medium.default_decoder(),
        coding: Coding::None,
    };
    transmit_over(sys, &medium, payload, params, &pipeline, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::{align_classes, paired_sets, AlignmentConfig};
    use crate::covert::pipeline::{BoundaryPolicy, Decoder};
    use crate::covert::protocol::bits_from_bytes;
    use crate::eviction::{classify_pages, Locality, ScanConfig};
    use gpubox_sim::{FabricConfig, GpuId, ProcessCtx, SimError, SystemConfig};

    fn channel_fixture(noiseless: bool) -> (MultiGpuSystem, ProcessId, ProcessId, Vec<SetPair>) {
        let cfg = if noiseless {
            SystemConfig::small_test().noiseless()
        } else {
            SystemConfig::small_test()
        };
        let mut sys = MultiGpuSystem::new(cfg);
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
        let pairs = paired_sets(&tclasses, &sclasses, &matches, 8, 16)
            .into_iter()
            .map(|(t, s)| SetPair { trojan: t, spy: s })
            .collect();
        (sys, trojan, spy, pairs)
    }

    #[test]
    fn single_set_transmission_is_error_free_noiseless() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = bits_from_bytes(b"Hi");
        let report = transmit(
            &mut sys,
            trojan,
            spy,
            &pairs[..1],
            &payload,
            &ChannelParams::default(),
            Thresholds::paper_defaults(),
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert!(report.bandwidth_bytes_per_sec > 0.0);
        assert_eq!(report.ecc_corrections, 0, "no coding stage configured");
        assert!(report.listen_cycles <= report.duration_cycles);
    }

    #[test]
    fn four_set_transmission_has_low_error_with_noise() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(false);
        let payload = bits_from_bytes(b"The quick brown fox jumps!");
        let report = transmit(
            &mut sys,
            trojan,
            spy,
            &pairs[..4],
            &payload,
            &ChannelParams::default(),
            Thresholds::paper_defaults(),
        )
        .unwrap();
        assert!(
            report.error_rate < 0.08,
            "error rate {} too high ({} errors)",
            report.error_rate,
            report.bit_errors
        );
    }

    #[test]
    fn more_sets_increase_bandwidth() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = bits_from_bytes(b"bandwidth scaling test!!");
        let params = ChannelParams::default();
        let thr = Thresholds::paper_defaults();
        let bw1 = transmit(&mut sys, trojan, spy, &pairs[..1], &payload, &params, thr)
            .unwrap()
            .bandwidth_bytes_per_sec;
        let bw4 = transmit(&mut sys, trojan, spy, &pairs[..4], &payload, &params, thr)
            .unwrap()
            .bandwidth_bytes_per_sec;
        assert!(bw4 > bw1 * 2.0, "bw1={bw1} bw4={bw4}");
    }

    /// Any decoder/coding combination runs on the L2 medium through the
    /// generic pipeline — here the matched filter plus Hamming(7,4).
    #[test]
    fn pipeline_combinations_run_on_the_l2_medium() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = bits_from_bytes(b"any stack on any medium");
        let medium = L2SetMedium {
            trojan,
            spy,
            pairs: &pairs[..4],
            thresholds: Thresholds::paper_defaults(),
        };
        let pipeline = Pipeline::matched_filter(BoundaryPolicy::TwoMeans)
            .with_coding(Coding::Hamming74 { interleave_depth: 8 });
        let report = transmit_over(
            &mut sys,
            &medium,
            &payload,
            &ChannelParams::default(),
            &pipeline,
            SchedulerKind::Auto,
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert_eq!(report.sent, payload, "report carries the data bits, not the code bits");
    }

    /// Trojan and spy processes on GPU1 with disjoint buffers homed on
    /// GPU0: both routes cross the single NVLink link of the two-GPU box.
    fn link_fixture(
        params: &ChannelParams,
    ) -> (MultiGpuSystem, ProcessId, ProcessId, Vec<VirtAddr>, Vec<VirtAddr>) {
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
        let _ = params;
        (sys, trojan, spy, trojan_lines, spy_lines)
    }

    fn link_params() -> ChannelParams {
        ChannelParams {
            spy_gap: 600,
            ..Default::default()
        }
    }

    #[test]
    fn link_channel_decodes_noiseless() {
        let params = link_params();
        let (mut sys, trojan, spy, tl, sl) = link_fixture(&params);
        let payload = bits_from_bytes(b"no shared set");
        let report = transmit_link(
            &mut sys,
            trojan,
            spy,
            &LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: 2,
            },
            &payload,
            &params,
            SchedulerKind::Auto,
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert!(report.bandwidth_bytes_per_sec > 0.0);
        // The spy never observed cache state: every sample reports zero
        // misses; decoding ran purely on transfer latency.
        assert!(report.traces[0].iter().all(|s| s.misses == 0));
    }

    /// The matched filter also decodes the link medium through the
    /// generic pipeline — any decoder on any medium.
    #[test]
    fn matched_filter_decodes_the_link_medium() {
        let params = link_params();
        let (mut sys, trojan, spy, tl, sl) = link_fixture(&params);
        let payload = bits_from_bytes(b"soft slots");
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: 3,
            },
        };
        let report = transmit_over(
            &mut sys,
            &medium,
            &payload,
            &params,
            &Pipeline::matched_filter(BoundaryPolicy::Quantile),
            SchedulerKind::Auto,
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
    }

    #[test]
    fn link_channel_requires_the_fabric() {
        let params = link_params();
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let trojan = sys.create_process(GpuId::new(1));
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(trojan, GpuId::new(0)).unwrap();
        let tb = sys.malloc_on(trojan, GpuId::new(0), 4096).unwrap();
        let err = transmit_link(
            &mut sys,
            trojan,
            spy,
            &LinkChannel {
                trojan_lines: &[tb],
                spy_lines: &[tb],
                trojan_streams: 1,
            },
            &[1, 0, 1],
            &params,
            SchedulerKind::Auto,
        )
        .unwrap_err();
        assert_eq!(err, SimError::FabricDisabled);
    }

    #[test]
    fn link_channel_is_scheduler_invariant() {
        let params = link_params();
        let payload = bits_from_bytes(b"sched");
        let mut runs = Vec::new();
        for sched in [SchedulerKind::Linear, SchedulerKind::Heap] {
            let (mut sys, trojan, spy, tl, sl) = link_fixture(&params);
            let report = transmit_link(
                &mut sys,
                trojan,
                spy,
                &LinkChannel {
                    trojan_lines: &tl,
                    spy_lines: &sl,
                    trojan_streams: 3,
                },
                &payload,
                &params,
                sched,
            )
            .unwrap();
            runs.push((report.received, report.duration_cycles, report.traces));
        }
        assert_eq!(runs[0], runs[1], "heap and linear channels must be bit-identical");
    }

    #[test]
    fn trace_levels_match_fig10() {
        // '0' slots show ~630-cycle probes, '1' slots ~950 (paper Fig. 10).
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = vec![1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1];
        let report = transmit(
            &mut sys,
            trojan,
            spy,
            &pairs[..1],
            &payload,
            &ChannelParams::default(),
            Thresholds::paper_defaults(),
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0);
        let trace = &report.traces[0];
        let ones: Vec<u32> = trace
            .iter()
            .filter(|s| s.misses > 8)
            .map(|s| s.mean_latency)
            .collect();
        let zeros: Vec<u32> = trace
            .iter()
            .filter(|s| s.misses <= 8)
            .map(|s| s.mean_latency)
            .collect();
        assert!(!ones.is_empty() && !zeros.is_empty());
        let avg = |v: &[u32]| v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
        assert!(
            (avg(&ones) - 950.0).abs() < 120.0,
            "one-level {}",
            avg(&ones)
        );
        assert!(
            (avg(&zeros) - 630.0).abs() < 120.0,
            "zero-level {}",
            avg(&zeros)
        );
    }

    /// The per-medium default decoders match what the PR 3 wrappers
    /// hard-wired.
    #[test]
    fn media_defaults_match_their_distribution_shapes() {
        let pairs: Vec<SetPair> = Vec::new();
        let l2 = L2SetMedium {
            trojan: ProcessId(0),
            spy: ProcessId(1),
            pairs: &pairs,
            thresholds: Thresholds::paper_defaults(),
        };
        assert_eq!(l2.default_decoder(), Decoder::Vote(BoundaryPolicy::TwoMeans));
        let link = LinkCongestionMedium {
            trojan: ProcessId(0),
            spy: ProcessId(1),
            channel: LinkChannel {
                trojan_lines: &[],
                spy_lines: &[],
                trojan_streams: 1,
            },
        };
        assert_eq!(link.default_decoder(), Decoder::Vote(BoundaryPolicy::Quantile));
    }
}
