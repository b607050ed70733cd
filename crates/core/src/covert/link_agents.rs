//! Bandwidth-trojan and throughput-spy agents for the **NVLink-congestion
//! covert channel** — the paper's second channel family.
//!
//! The Prime+Probe channel ([`crate::covert::TrojanAgent`] /
//! [`crate::covert::SpyProbeAgent`]) needs trojan and spy to
//! contend on the *same L2 cache set*. This channel needs no shared cache
//! state at all: trojan and spy only need routes that cross **one common
//! NVLink link** of the timed fabric
//! ([`gpubox_sim::fabric`]). To send a `1` the
//! [`LinkTrojanAgent`] saturates the link with back-to-back warp-wide
//! transfers of its *own* remote buffer (the lines stay L2-resident —
//! bandwidth is consumed whether or not they hit); to send a `0` it idles
//! on dummy arithmetic. The receiving [`LinkSpyAgent`] keeps streaming
//! its own, completely disjoint remote
//! buffer and watches nothing but **its own transfer latency**: when the
//! shared link is saturated its lines queue behind the trojan's occupancy
//! windows and the per-probe mean latency jumps by hundreds of cycles.
//!
//! Framing, slot pacing and decoding are shared with the Prime+Probe
//! channel through the unified pipeline
//! ([`crate::covert::transmit`]): the same alternating preamble
//! locks the slot phase, and this medium's default decoder anchors its
//! decision boundary on robust quantiles
//! ([`crate::covert::BoundaryPolicy::Quantile`]) because the congested
//! level is a heavy queue-wait tail rather than a second tight cluster;
//! the matched filter ([`crate::covert::Decoder::MatchedFilter`]) runs
//! on the same traces when tenant noise pushes the vote decoder's error
//! floor up.

use super::agents::SpyTrace;
use super::protocol::{ChannelParams, ProbeSample};
use gpubox_sim::{Agent, Op, OpResult, ProbeStage, ProcessId, VirtAddr};

/// The bandwidth trojan for one frame: paces bit slots on its own clock;
/// during a `1` slot it issues back-to-back warp-parallel transfers of
/// its burst lines (saturating every link on its route); during a `0`
/// slot it spins on dummy computation of comparable duration.
#[derive(Debug)]
pub struct LinkTrojanAgent {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    frame: Vec<u8>,
    slot_cycles: u64,
    start: Option<u64>,
    /// Estimated duration of one full-width transfer burst; adapts to
    /// the measured burst duration, so pacing stays calibrated even when
    /// the trojan's own bursts queue on the link.
    burst_estimate: u64,
    /// Whether the estimate may be updated from the next result (partial
    /// boundary bursts would corrupt it).
    full_burst: bool,
    bit_idx: usize,
    /// Evasion: percentage of a `1` slot actively driven.
    duty_pct: u32,
    /// Evasion: per-bit active-phase jitter span, cycles.
    slot_jitter: u64,
}

impl LinkTrojanAgent {
    /// Creates a transmitter sending `frame` by saturating the links on
    /// the route of `lines` (remote lines of the trojan's own buffer).
    pub fn new(pid: ProcessId, lines: &[VirtAddr], frame: Vec<u8>, params: &ChannelParams) -> Self {
        LinkTrojanAgent {
            pid,
            lines: lines.to_vec(),
            frame,
            slot_cycles: params.slot_cycles,
            start: None,
            burst_estimate: 900,
            full_burst: false,
            bit_idx: 0,
            duty_pct: params.trojan_duty_pct,
            slot_jitter: params.trojan_slot_jitter,
        }
    }
}

impl Agent for LinkTrojanAgent {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        let start = *self.start.get_or_insert(now);
        if self.bit_idx >= self.frame.len() {
            return Op::Done;
        }
        let slot_end = start + (self.bit_idx as u64 + 1) * self.slot_cycles;
        if now >= slot_end {
            self.bit_idx += 1;
            return self.next_op(now, stage);
        }
        let remaining = slot_end - now;
        if self.frame[self.bit_idx] == 1 {
            let (a0, a1) = super::agents::active_window(
                slot_end,
                self.slot_cycles,
                self.duty_pct,
                self.slot_jitter,
                self.bit_idx,
            );
            if now < a0 {
                // Evasion: idle until the jittered active phase opens.
                return Op::Compute(a0 - now);
            }
            if now >= a1 {
                // Evasion: duty budget spent; idle out the slot tail.
                return Op::Compute(slot_end - now);
            }
            let active_remaining = a1 - now;
            if active_remaining < self.burst_estimate {
                // Not enough room for a full burst: issue a proportionally
                // narrower one so the link stays saturated right up to the
                // slot boundary (an idle slot tail would hand the spy
                // uncongested samples inside a `1` slot), with bounded
                // overrun into the next slot.
                let n = (self.lines.len() as u64 * active_remaining / self.burst_estimate.max(1))
                    .clamp(1, self.lines.len() as u64) as usize;
                self.full_burst = false;
                stage.extend_from_slice(&self.lines[..n]);
                Op::LoadBatch
            } else {
                self.full_burst = true;
                stage.extend_from_slice(&self.lines);
                Op::LoadBatch
            }
        } else {
            Op::Compute(remaining.min(self.burst_estimate))
        }
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        if !res.latencies.is_empty() && self.full_burst {
            self.burst_estimate = (self.burst_estimate + res.duration) / 2;
        }
    }

    fn process(&self) -> ProcessId {
        self.pid
    }

    fn label(&self) -> &str {
        "link-trojan"
    }
}

/// The throughput spy: streams its own remote buffer warp-parallel (with
/// [`ChannelParams::spy_gap`] idle cycles between probes so its own
/// backlog drains off the link) and records per-probe mean latency.
///
/// The recorded [`ProbeSample::misses`] is always 0: unlike the
/// Prime+Probe spy this agent observes *no cache state* — decoding uses
/// only [`ProbeSample::mean_latency`] against the adaptive boundary.
///
/// # Dithered sampling
///
/// Each inter-probe gap is lengthened by a small deterministic dither
/// (a Weyl sequence over the probe index, up to [`SPY_DITHER_SPAN`]
/// cycles). Without it the spy's fixed probe period can phase-lock onto
/// the trojan's burst period: every queue wait lengthens exactly one
/// probe period, pushing the next probe past the link's busy window, so
/// a periodic spy settles into sampling only the idle gaps between
/// bursts and the channel goes silent. Dithering breaks the resonance
/// the way dithered sampling defeats aliasing in any measurement loop —
/// and stays bit-reproducible because the sequence depends only on the
/// probe index, not on an RNG.
#[derive(Debug)]
pub struct LinkSpyAgent {
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    gap: u64,
    stop_after: u64,
    trace: SpyTrace,
    gap_next: bool,
    probe_idx: u64,
}

/// Upper bound (exclusive) of the spy's per-probe gap dither, cycles.
/// Small relative to a slot (default 6000) so slot votes stay dense, but
/// wide and prime so no trojan burst period divides it.
pub const SPY_DITHER_SPAN: u64 = 509;

impl LinkSpyAgent {
    /// Creates a receiver streaming `lines` until its clock passes
    /// `stop_after`.
    pub fn new(pid: ProcessId, lines: &[VirtAddr], params: &ChannelParams, stop_after: u64) -> Self {
        LinkSpyAgent {
            pid,
            lines: lines.to_vec(),
            gap: params.spy_gap,
            stop_after,
            trace: SpyTrace::default(),
            gap_next: false,
            probe_idx: 0,
        }
    }

    /// Handle to the recorded trace.
    pub fn trace(&self) -> SpyTrace {
        self.trace.clone()
    }
}

impl Agent for LinkSpyAgent {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        if now >= self.stop_after {
            return Op::Done;
        }
        if self.gap_next {
            self.gap_next = false;
            // Weyl-sequence dither: probe_idx * golden-ratio constant,
            // folded into [0, SPY_DITHER_SPAN).
            let dither =
                (self.probe_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % SPY_DITHER_SPAN;
            return Op::Compute(self.gap + dither);
        }
        self.gap_next = true;
        self.probe_idx += 1;
        stage.extend_from_slice(&self.lines);
        Op::LoadBatch
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        if res.latencies.is_empty() {
            return;
        }
        let mean =
            res.latencies.iter().map(|&l| u64::from(l)).sum::<u64>() / res.latencies.len() as u64;
        self.trace.push(ProbeSample {
            at: res.started_at,
            misses: 0,
            lines: res.latencies.len() as u32,
            mean_latency: mean as u32,
        });
    }

    fn process(&self) -> ProcessId {
        self.pid
    }

    fn label(&self) -> &str {
        "link-spy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_trojan_bursts_during_one_bits() {
        let params = ChannelParams {
            slot_cycles: 5000,
            ..Default::default()
        };
        let lines = [VirtAddr(4096), VirtAddr(8192), VirtAddr(12288)];
        let mut t = LinkTrojanAgent::new(ProcessId(0), &lines, vec![1, 0], &params);
        let mut stage = ProbeStage::new();
        match t.next_op(0, &mut stage) {
            Op::LoadBatch => assert_eq!(stage.len(), 3, "whole burst staged"),
            other => panic!("expected transfer burst, got {other:?}"),
        }
        // Second slot is a 0: dummy computation, no memory traffic.
        stage.clear();
        match t.next_op(5000, &mut stage) {
            Op::Compute(c) => assert!(c <= 5000 && stage.is_empty()),
            other => panic!("expected compute, got {other:?}"),
        }
        assert_eq!(t.next_op(10_000, &mut stage), Op::Done);
    }

    #[test]
    fn link_spy_records_mean_latency_only() {
        let params = ChannelParams {
            spy_gap: 200,
            ..Default::default()
        };
        let lines = [VirtAddr(4096), VirtAddr(8192)];
        let mut s = LinkSpyAgent::new(ProcessId(1), &lines, &params, 10_000);
        let trace = s.trace();
        let mut stage = ProbeStage::new();
        assert!(matches!(s.next_op(0, &mut stage), Op::LoadBatch));
        assert_eq!(stage.len(), 2);
        s.on_result(&OpResult {
            started_at: 0,
            duration: 700,
            value: 0,
            latencies: &[650, 850],
        });
        let samples = trace.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].mean_latency, 750);
        assert_eq!(samples[0].misses, 0, "no cache observation at all");
        // Probe and gap alternate; the gap carries the sampling dither.
        stage.clear();
        match s.next_op(700, &mut stage) {
            Op::Compute(c) => assert!(
                (200..200 + SPY_DITHER_SPAN).contains(&c),
                "dithered gap out of range: {c}"
            ),
            other => panic!("expected dithered gap, got {other:?}"),
        }
        assert!(matches!(s.next_op(900, &mut stage), Op::LoadBatch));
        assert_eq!(s.next_op(20_000, &mut stage), Op::Done);
    }
}
