//! Transport abstraction for the covert stack: a [`ChannelMedium`] owns
//! *what contends* (shared L2 sets, or a shared NVLink link), while a
//! [`Transmission`] owns everything transport-independent — framing,
//! striping across lanes, agent scheduling, the listen horizon and the
//! report. [`transmit`] is the one-call form: stage, run, report.
//!
//! Two media implement the paper's two channel families:
//!
//! - [`L2SetMedium`] — Prime+Probe over aligned L2 set pairs. One lane
//!   per pair; payload bits stripe round-robin across lanes (paper
//!   Sec. IV-B, the Fig. 9 bandwidth axis).
//! - [`LinkCongestionMedium`] — a bandwidth trojan saturating the links
//!   of its route and a throughput spy decoding its own transfer
//!   latency over the timed fabric. A single lane; *trojan streams*
//!   scale saturation instead of bandwidth.
//!
//! Callers that need more than one transmission in an engine, extra
//! agents around it, or their own run loop (a monitor observing every
//! window) stage a [`Transmission`] on an engine they own; the agents,
//! horizons and decoding stay exactly those of [`transmit`].

use super::agents::{SpyProbeAgent, SpyTrace, TrojanAgent};
use super::channel::{ChannelReport, LinkChannel, SetPair};
use super::link_agents::{LinkSpyAgent, LinkTrojanAgent};
use super::pipeline::Pipeline;
use super::protocol::{stripe_bits, unstripe_bits, ChannelParams, ProbeSample};
use crate::thresholds::Thresholds;
use gpubox_sim::{Engine, MultiGpuSystem, ProcessId, SchedulerKind, SimError, SimResult};

/// One contended transport the covert protocol can run over.
///
/// A medium contributes three things to a transmission: its lane count
/// (parallel stripes), system-level preparation (resource validation,
/// warm-up traffic), and the per-lane trojan/spy agent pair. Everything
/// else — framing, striping, the listen horizon, engine execution,
/// decoding, reporting — is the same for every medium and lives in
/// [`Transmission`].
pub trait ChannelMedium {
    /// Number of parallel stripe lanes (≥ 1). Payload bits are striped
    /// round-robin across lanes; each lane carries its own preamble.
    fn lanes(&self) -> usize;

    /// Validates the system configuration and issues warm-up traffic
    /// (runs before the engine is built, so it may use the system
    /// directly).
    ///
    /// # Errors
    ///
    /// Medium-specific configuration errors (e.g.
    /// [`SimError::FabricDisabled`]) and propagated simulator errors.
    fn prepare(&self, sys: &mut MultiGpuSystem) -> SimResult<()>;

    /// Wires lane `lane`'s transmitter and receiver into the engine:
    /// the spy listening until `listen`, and the trojan(s) sending
    /// `frame` (preamble already attached), both endpoints' launches
    /// shifted `defer` cycles later. `listen` is an absolute spy-clock
    /// horizon, so it already includes `defer`. Returns the spy's trace
    /// handle.
    ///
    /// A deferred launch lets a transmission start inside a running
    /// mix (a monitor's warm-up, benign tenants), and lets the
    /// resilient protocol ([`super::resilient::transmit_resilient`])
    /// shift retransmission rounds relative to a recurring fault window.
    fn install_lane(
        &self,
        eng: &mut Engine<'_>,
        lane: usize,
        frame: &[u8],
        params: &ChannelParams,
        listen: u64,
        defer: u64,
    ) -> SpyTrace;
}

/// Prime+Probe over aligned L2 set pairs (the paper's first channel
/// family): one lane per pair, trojan priming / spy probing the same
/// physical set from different GPUs.
#[derive(Debug, Clone)]
pub struct L2SetMedium<'a> {
    /// Trojan process (on the target GPU).
    pub trojan: ProcessId,
    /// Spy process.
    pub spy: ProcessId,
    /// Aligned set pairs, one lane each.
    pub pairs: &'a [SetPair],
    /// Timing thresholds for the spy's miss classification.
    pub thresholds: Thresholds,
}

impl ChannelMedium for L2SetMedium<'_> {
    fn lanes(&self) -> usize {
        self.pairs.len()
    }

    fn prepare(&self, _sys: &mut MultiGpuSystem) -> SimResult<()> {
        assert!(!self.pairs.is_empty(), "need at least one aligned set pair");
        Ok(())
    }

    fn install_lane(
        &self,
        eng: &mut Engine<'_>,
        lane: usize,
        frame: &[u8],
        params: &ChannelParams,
        listen: u64,
        defer: u64,
    ) -> SpyTrace {
        let pair = &self.pairs[lane];
        let trojan = TrojanAgent::new(self.trojan, &pair.trojan, frame.to_vec(), params);
        let spy = SpyProbeAgent::new(self.spy, &pair.spy, self.thresholds, params, listen);
        let trace = spy.trace();
        // The spy starts slightly before the trojan (it must be
        // listening when the preamble begins); the stagger also models
        // independent process launches. Both shift together under a
        // retransmission defer — the endpoints share the backoff
        // schedule the way they share every other protocol constant.
        eng.add_agent(Box::new(spy), defer);
        eng.add_agent(Box::new(trojan), defer + params.slot_cycles / 2 + 37 * lane as u64);
        trace
    }
}

/// NVLink congestion over the timed fabric (the paper's second channel
/// family): no shared cache state, only a shared link on the two
/// routes. A single lane; [`LinkChannel::trojan_streams`] concurrent
/// transmitters drive the link into saturation.
#[derive(Debug, Clone)]
pub struct LinkCongestionMedium<'a> {
    /// Trojan process.
    pub trojan: ProcessId,
    /// Spy process.
    pub spy: ProcessId,
    /// Physical layer: both sides' transfer lines and the trojan's
    /// stream count.
    pub channel: LinkChannel<'a>,
}

impl ChannelMedium for LinkCongestionMedium<'_> {
    fn lanes(&self) -> usize {
        1
    }

    fn prepare(&self, sys: &mut MultiGpuSystem) -> SimResult<()> {
        if !sys.fabric_enabled() {
            return Err(SimError::FabricDisabled);
        }
        assert!(
            self.channel.trojan_streams >= 1,
            "need at least one trojan stream"
        );
        assert!(
            !self.channel.trojan_lines.is_empty() && !self.channel.spy_lines.is_empty(),
            "need transfer lines on both sides"
        );
        // Warm both working sets so in-band samples measure link
        // queueing, not cold misses — the Prime+Probe channel gets the
        // same effect from its discovery phase.
        let mut scratch = Vec::new();
        let ta = sys.default_agent(self.trojan);
        sys.access_batch_into(self.trojan, ta, self.channel.trojan_lines, 0, &mut scratch)?;
        let sa = sys.default_agent(self.spy);
        scratch.clear();
        sys.access_batch_into(self.spy, sa, self.channel.spy_lines, 0, &mut scratch)?;
        Ok(())
    }

    fn install_lane(
        &self,
        eng: &mut Engine<'_>,
        _lane: usize,
        frame: &[u8],
        params: &ChannelParams,
        listen: u64,
        defer: u64,
    ) -> SpyTrace {
        let spy = LinkSpyAgent::new(self.spy, self.channel.spy_lines, params, listen);
        let trace = spy.trace();
        // The spy starts slightly before the trojan (it must be
        // listening when the preamble begins); trojan streams stagger
        // like independent thread-block launches. A retransmission
        // defer shifts spy and trojans together.
        eng.add_agent(Box::new(spy), defer);
        for s in 0..self.channel.trojan_streams {
            let trojan = LinkTrojanAgent::new(
                self.trojan,
                self.channel.trojan_lines,
                frame.to_vec(),
                params,
            );
            eng.add_agent(Box::new(trojan), defer + params.slot_cycles / 2 + 37 * s as u64);
        }
        trace
    }
}

/// Slots the engine keeps running past the spy's listen horizon, so
/// the last trojan bursts drain before a transmission is reported.
pub(crate) const GRACE_SLOTS: u64 = 16;

/// The spy's listen horizon for a set of stripes: every lane's frame
/// plus four slots of slack.
pub(super) fn listen_horizon(stripes: &[Vec<u8>], params: &ChannelParams) -> u64 {
    let max_frame = stripes.iter().map(Vec::len).max().unwrap_or(0) + params.preamble_bits;
    (max_frame as u64 + 4) * params.slot_cycles
}

/// One covert transmission staged on a caller-owned [`Engine`]: the
/// medium-independent transmit sequence split at the points a caller
/// may need to step in.
///
/// 1. [`Transmission::prepare`] encodes the payload through the
///    pipeline's coding stage, stripes the channel bits round-robin
///    over the medium's lanes, frames every stripe, and prepares the
///    medium (before the engine borrows the system).
/// 2. [`Transmission::install`] wires every lane's spy and trojan(s)
///    into the engine, launches shifted by `defer` cycles. Agents the
///    caller adds before or after keep their place in the engine's
///    `(clock, slot index)` tie-break order.
/// 3. The caller runs the engine — normally to
///    [`Transmission::grace_end`] — and drops it.
/// 4. [`Transmission::report`] decodes the recorded traces with the
///    pipeline into a [`ChannelReport`].
///
/// [`transmit`] is exactly these four steps at `defer == 0`.
pub struct Transmission<'a> {
    medium: &'a dyn ChannelMedium,
    payload: &'a [u8],
    params: &'a ChannelParams,
    pipeline: &'a Pipeline,
    /// Per-lane frames (preamble ‖ stripe).
    frames: Vec<Vec<u8>>,
    /// Listen horizon measured from the launch, before any defer.
    span: u64,
    defer: u64,
    traces: Vec<SpyTrace>,
}

impl std::fmt::Debug for Transmission<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transmission")
            .field("lanes", &self.frames.len())
            .field("span", &self.span)
            .field("defer", &self.defer)
            .finish_non_exhaustive()
    }
}

impl<'a> Transmission<'a> {
    /// Encodes, stripes and frames `payload` for `medium`, and runs the
    /// medium's preparation on `sys`.
    ///
    /// # Errors
    ///
    /// Propagates medium preparation errors (e.g.
    /// [`SimError::FabricDisabled`]).
    ///
    /// # Panics
    ///
    /// Panics if the medium reports zero lanes.
    pub fn prepare(
        sys: &mut MultiGpuSystem,
        medium: &'a dyn ChannelMedium,
        payload: &'a [u8],
        params: &'a ChannelParams,
        pipeline: &'a Pipeline,
    ) -> SimResult<Self> {
        let k = medium.lanes();
        assert!(k >= 1, "medium must expose at least one lane");
        let stripes = stripe_bits(&pipeline.coding.encode(payload), k);
        let span = listen_horizon(&stripes, params);
        medium.prepare(sys)?;
        Ok(Transmission {
            medium,
            payload,
            params,
            pipeline,
            frames: stripes.iter().map(|s| params.frame(s)).collect(),
            span,
            defer: 0,
            traces: Vec::new(),
        })
    }

    /// Wires every lane into `eng` with both endpoints' launches
    /// shifted `defer` cycles later, and returns the spy's listen
    /// horizon (absolute, so it includes `defer`).
    ///
    /// # Panics
    ///
    /// Panics if the transmission was already installed.
    pub fn install(&mut self, eng: &mut Engine<'_>, defer: u64) -> u64 {
        assert!(self.traces.is_empty(), "a transmission installs once");
        self.defer = defer;
        let (medium, params, listen) = (self.medium, self.params, self.listen());
        self.traces = self
            .frames
            .iter()
            .enumerate()
            .map(|(lane, frame)| medium.install_lane(eng, lane, frame, params, listen, defer))
            .collect();
        listen
    }

    /// The spy's listen horizon on the engine clock (including the
    /// install `defer`).
    fn listen(&self) -> u64 {
        self.defer + self.span
    }

    /// Where a transmission's run ends: the listen horizon plus a
    /// 16-slot grace period, so the last trojan bursts drain.
    pub fn grace_end(&self) -> u64 {
        self.listen() + GRACE_SLOTS * self.params.slot_cycles
    }

    /// The spies' trace handles, one per lane (empty before
    /// [`Transmission::install`]).
    pub fn traces(&self) -> &[SpyTrace] {
        &self.traces
    }

    /// Decodes the recorded traces with the pipeline (through
    /// [`redecode_traces`]) into a report; `end` is the engine's
    /// end-of-run clock. Bandwidth is measured over the listen span,
    /// which starts at the deferred launch.
    pub fn report(&self, sys: &MultiGpuSystem, end: u64) -> ChannelReport {
        let payload = self.payload;
        let sample_traces: Vec<Vec<ProbeSample>> =
            self.traces.iter().map(SpyTrace::samples).collect();
        let (received, ecc_corrections) =
            redecode_traces(&sample_traces, self.params, self.pipeline, payload.len());
        let bit_errors = received.iter().zip(payload).filter(|(a, b)| a != b).count();
        let secs = sys.latency_model().cycles_to_seconds(self.span);
        let lat = super::obs::slot_latency_histogram(&sample_traces);
        ChannelReport {
            sent: payload.to_vec(),
            received,
            bit_errors,
            error_rate: bit_errors as f64 / payload.len().max(1) as f64,
            duration_cycles: end,
            listen_cycles: self.span,
            bandwidth_bytes_per_sec: payload.len() as f64 / 8.0 / secs,
            ecc_corrections,
            slot_latency_p50: lat.p50(),
            slot_latency_p95: lat.p95(),
            slot_latency_p99: lat.p99(),
            traces: sample_traces,
        }
    }
}

/// Transmits `payload` bits over `medium` and decodes them with
/// `pipeline` — the one-call form of [`Transmission`]: prepare, build
/// an engine, install at defer 0, run to the grace end, report.
///
/// The report's `bandwidth_bytes_per_sec` is measured over the spy's
/// **listen span** (the true transmission window) for every medium; see
/// [`ChannelReport::listen_cycles`].
///
/// # Errors
///
/// Propagates medium preparation and simulator errors.
///
/// # Panics
///
/// Panics if the medium reports zero lanes.
pub fn transmit(
    sys: &mut MultiGpuSystem,
    medium: &dyn ChannelMedium,
    payload: &[u8],
    params: &ChannelParams,
    pipeline: &Pipeline,
) -> SimResult<ChannelReport> {
    let mut tx = Transmission::prepare(sys, medium, payload, params, pipeline)?;
    let mut eng = Engine::new(sys);
    tx.install(&mut eng, 0);
    let end = eng.run(tx.grace_end())?;
    drop(eng);
    Ok(tx.report(sys, end))
}

/// [`transmit`] with an ignored scheduler argument. Kept only because
/// perfbench still calls it; it is deleted once perfbench moves to
/// [`transmit`] (ROADMAP item 3).
///
/// # Errors
///
/// As [`transmit`].
#[doc(hidden)]
pub fn transmit_over(
    sys: &mut MultiGpuSystem,
    medium: &dyn ChannelMedium,
    payload: &[u8],
    params: &ChannelParams,
    pipeline: &Pipeline,
    _sched: SchedulerKind,
) -> SimResult<ChannelReport> {
    transmit(sys, medium, payload, params, pipeline)
}

/// Runs the complete receive path — per-lane slot decoding, round-robin
/// reassembly, coding inversion — over already-recorded per-lane traces
/// (e.g. [`ChannelReport::traces`]): the way to compare decoder/coding
/// stacks on the *same* transmission without re-running it. This is the
/// one implementation of the receive path; [`transmit`] itself
/// decodes through it, so an offline re-decode can never drift from the
/// live pipeline. Returns the received payload bits and the number of
/// codeword corrections the coding stage applied.
///
/// `payload_bits` must be the transmitted payload length; the number of
/// lanes is `traces.len()`.
pub fn redecode_traces(
    traces: &[Vec<ProbeSample>],
    params: &ChannelParams,
    pipeline: &Pipeline,
    payload_bits: usize,
) -> (Vec<u8>, usize) {
    if traces.is_empty() {
        return (vec![0; payload_bits], 0);
    }
    let k = traces.len();
    let channel_bits = pipeline.coding.channel_bits(payload_bits);
    // Lane lengths under round-robin striping of `channel_bits` bits.
    let lane_len = |i: usize| channel_bits / k + usize::from(i < channel_bits % k);

    // A soft coding stage consumes the decoder's per-bit confidences
    // (the matched filter's slot margins); everything else runs the
    // hard path.
    let soft = matches!(pipeline.coding, super::pipeline::Coding::Hamming74Soft { .. });
    let mut decoded_stripes = Vec::with_capacity(k);
    let mut confidence_stripes = Vec::with_capacity(if soft { k } else { 0 });
    for (lane, samples) in traces.iter().enumerate() {
        if soft {
            let dec = pipeline.decoder.decode_soft(samples, params, lane_len(lane));
            decoded_stripes.push(dec.stripe.payload);
            confidence_stripes.push(dec.confidence);
        } else {
            let dec = pipeline.decoder.decode(samples, params, lane_len(lane));
            decoded_stripes.push(dec.payload);
        }
    }
    let received_coded = unstripe_bits(&decoded_stripes, channel_bits);
    if soft {
        let confidence = unstripe_bits(&confidence_stripes, channel_bits);
        pipeline
            .coding
            .decode_with_confidence(&received_coded, &confidence, payload_bits)
    } else {
        pipeline.coding.decode(&received_coded, payload_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::{align_classes, paired_sets, AlignmentConfig};
    use crate::covert::pipeline::{BoundaryPolicy, Coding};
    use crate::covert::protocol::bits_from_bytes;
    use crate::eviction::{classify_pages, Locality, ScanConfig};
    use gpubox_sim::{FabricConfig, GpuId, ProcessCtx, SystemConfig, VirtAddr};

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

    fn l2_medium(trojan: ProcessId, spy: ProcessId, pairs: &[SetPair]) -> L2SetMedium<'_> {
        L2SetMedium {
            trojan,
            spy,
            pairs,
            thresholds: Thresholds::paper_defaults(),
        }
    }

    /// The Prime+Probe channel's receive stack: 2-means vote, no coding.
    fn send_l2(
        sys: &mut MultiGpuSystem,
        trojan: ProcessId,
        spy: ProcessId,
        pairs: &[SetPair],
        payload: &[u8],
    ) -> ChannelReport {
        let (params, pipeline) = (ChannelParams::default(), Pipeline::vote(BoundaryPolicy::TwoMeans));
        let medium = l2_medium(trojan, spy, pairs);
        transmit(sys, &medium, payload, &params, &pipeline).unwrap()
    }

    #[test]
    fn single_set_transmission_is_error_free_noiseless() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = bits_from_bytes(b"Hi");
        let report = send_l2(&mut sys, trojan, spy, &pairs[..1], &payload);
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert!(report.bandwidth_bytes_per_sec > 0.0);
        assert_eq!(report.ecc_corrections, 0, "no coding stage configured");
        assert!(report.listen_cycles <= report.duration_cycles);
    }

    #[test]
    fn four_set_transmission_has_low_error_with_noise() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(false);
        let payload = bits_from_bytes(b"The quick brown fox jumps!");
        let report = send_l2(&mut sys, trojan, spy, &pairs[..4], &payload);
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
        let bw1 = send_l2(&mut sys, trojan, spy, &pairs[..1], &payload).bandwidth_bytes_per_sec;
        let bw4 = send_l2(&mut sys, trojan, spy, &pairs[..4], &payload).bandwidth_bytes_per_sec;
        assert!(bw4 > bw1 * 2.0, "bw1={bw1} bw4={bw4}");
    }

    /// A deferred install is an exact time shift: every spy sample lands
    /// `defer` cycles later with identical contents, and the decoded
    /// payload is unchanged — including a defer that is not a whole
    /// number of slots.
    #[test]
    fn deferred_install_shifts_every_sample_exactly() {
        let payload = bits_from_bytes(b"deferred launch");
        let params = ChannelParams::default();
        let pipeline = Pipeline::vote(BoundaryPolicy::TwoMeans);
        let run = |defer: u64| {
            let (mut sys, trojan, spy, pairs) = channel_fixture(true);
            let medium = l2_medium(trojan, spy, &pairs[..4]);
            let mut tx =
                Transmission::prepare(&mut sys, &medium, &payload, &params, &pipeline).unwrap();
            let span = tx.listen();
            let mut eng = Engine::new(&mut sys);
            assert_eq!(tx.install(&mut eng, defer), span + defer);
            let end = eng.run(tx.grace_end()).unwrap();
            drop(eng);
            tx.report(&sys, end)
        };
        let base = run(0);
        assert_eq!(base.bit_errors, 0, "received {:?}", base.received);
        for defer in [6_000, 12_345, 120_000] {
            let shifted = run(defer);
            assert_eq!(shifted.received, base.received, "defer {defer}");
            assert_eq!(shifted.traces.len(), base.traces.len());
            for (lane, (b, s)) in base.traces.iter().zip(&shifted.traces).enumerate() {
                assert_eq!(b.len(), s.len(), "defer {defer}, lane {lane}");
                for (x, y) in b.iter().zip(s) {
                    assert_eq!(y.at, x.at + defer, "defer {defer}, lane {lane}");
                    assert_eq!(
                        (y.misses, y.lines, y.mean_latency),
                        (x.misses, x.lines, x.mean_latency),
                        "defer {defer}, lane {lane}, sample at {}",
                        x.at
                    );
                }
            }
        }
    }

    /// Any decoder/coding combination runs on the L2 medium through the
    /// generic pipeline — here the matched filter plus Hamming(7,4).
    #[test]
    fn pipeline_combinations_run_on_the_l2_medium() {
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = bits_from_bytes(b"any stack on any medium");
        let medium = l2_medium(trojan, spy, &pairs[..4]);
        let pipeline = Pipeline::matched_filter(BoundaryPolicy::TwoMeans)
            .with_coding(Coding::Hamming74 { interleave_depth: 8 });
        let report = transmit(
            &mut sys,
            &medium,
            &payload,
            &ChannelParams::default(),
            &pipeline,
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
        assert_eq!(report.sent, payload, "report carries the data bits, not the code bits");
    }

    /// Trojan and spy processes on GPU1 with disjoint buffers homed on
    /// GPU0: both routes cross the single NVLink link of the two-GPU box.
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

    /// The congestion channel's receive stack (quantile-anchored vote)
    /// over `streams` trojan streams on the link fixture.
    fn send_link(payload: &[u8], streams: usize) -> ChannelReport {
        let (mut sys, trojan, spy, tl, sl) = link_fixture();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &tl,
                spy_lines: &sl,
                trojan_streams: streams,
            },
        };
        let pipeline = Pipeline::vote(BoundaryPolicy::Quantile);
        transmit(&mut sys, &medium, payload, &link_params(), &pipeline).unwrap()
    }

    #[test]
    fn link_channel_decodes_noiseless() {
        let payload = bits_from_bytes(b"no shared set");
        let report = send_link(&payload, 2);
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
        let (mut sys, trojan, spy, tl, sl) = link_fixture();
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
        let report = transmit(
            &mut sys,
            &medium,
            &payload,
            &params,
            &Pipeline::matched_filter(BoundaryPolicy::Quantile),
        )
        .unwrap();
        assert_eq!(report.bit_errors, 0, "received {:?}", report.received);
    }

    #[test]
    fn link_channel_requires_the_fabric() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let trojan = sys.create_process(GpuId::new(1));
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(trojan, GpuId::new(0)).unwrap();
        let tb = sys.malloc_on(trojan, GpuId::new(0), 4096).unwrap();
        let medium = LinkCongestionMedium {
            trojan,
            spy,
            channel: LinkChannel {
                trojan_lines: &[tb],
                spy_lines: &[tb],
                trojan_streams: 1,
            },
        };
        let err = transmit(
            &mut sys,
            &medium,
            &[1, 0, 1],
            &link_params(),
            &Pipeline::vote(BoundaryPolicy::Quantile),
        )
        .unwrap_err();
        assert_eq!(err, SimError::FabricDisabled);
    }

    #[test]
    fn link_channel_decodes_three_trojan_streams() {
        let payload = bits_from_bytes(b"sched");
        let report = send_link(&payload, 3);
        assert_eq!(report.received, payload);
    }

    #[test]
    fn trace_levels_match_fig10() {
        // '0' slots show ~630-cycle probes, '1' slots ~950 (paper Fig. 10).
        let (mut sys, trojan, spy, pairs) = channel_fixture(true);
        let payload = vec![1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1];
        let report = send_l2(&mut sys, trojan, spy, &pairs[..1], &payload);
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
}
