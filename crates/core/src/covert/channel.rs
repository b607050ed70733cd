//! The covert channels' shared vocabulary: the [`SetPair`] an
//! [`super::L2SetMedium`] lane primes and probes, the [`LinkChannel`]
//! physical layer of a [`super::LinkCongestionMedium`], and the
//! [`ChannelReport`] every transmission ([`super::transmit`],
//! [`super::Transmission::report`]) produces (Fig. 9 / Fig. 10).

use super::protocol::ProbeSample;
use crate::eviction::EvictionSet;
use gpubox_sim::VirtAddr;

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

/// Physical layer of one [`super::LinkCongestionMedium`] transmission.
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
