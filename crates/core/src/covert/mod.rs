//! The cross-GPU covert channels (paper Sec. IV/V, Fig. 8/9/10), built
//! as one transport-agnostic pipeline.
//!
//! The paper's core claim is that multi-GPU boxes leak over *several*
//! media with the same trojan/spy protocol on top. This module is
//! organised exactly that way — one protocol stack, pluggable media:
//!
//! ```text
//!   payload bits
//!        │ Coding          (optional Hamming(7,4) + interleave, ecc.rs)
//!        ▼
//!   channel bits ──stripe──► lane frames (preamble ‖ stripe)
//!        │                        │
//!        │                        ▼
//!        │     Transmission: ChannelMedium::install_lane (at defer)
//!        │            ┌───────────┴───────────┐
//!        │        L2SetMedium          LinkCongestionMedium
//!        │      (Prime+Probe on        (bandwidth trojan +
//!        │       aligned L2 sets)       throughput spy on the
//!        │                              timed NVLink fabric)
//!        │            └───────────┬───────────┘
//!        │                        ▼ engine run to listen + 16 grace slots
//!        │                        │ (shared slot pacing)
//!        │                   SpyTrace (ProbeSample stream per lane)
//!        │                        │
//!        │                        ▼
//!        │       Decoder: BoundaryPolicy (2-means | quantile) ×
//!        │                (per-sample Vote | MatchedFilter)
//!        ▼                        │
//!   Coding⁻¹ ◄────unstripe────────┘
//!        │
//!        ▼
//!   ChannelReport (bits, errors, listen-span bandwidth, traces)
//! ```
//!
//! - **Media** ([`medium`]): a [`ChannelMedium`] owns what contends —
//!   [`L2SetMedium`] primes/probes aligned L2 set pairs (one stripe
//!   lane per pair, Sec. IV-B), [`LinkCongestionMedium`] saturates a
//!   shared NVLink link and reads its own transfer latency (Sec. V, no
//!   shared cache state).
//! - **Transmission** ([`Transmission`], [`transmit`]): the one
//!   transmit path, and everything transport-independent — framing,
//!   striping, the listen horizon, agent launch order and reporting.
//!   [`transmit`] stages a transmission on its own engine and
//!   runs it; a caller that adds agents of its own (background
//!   tenants, benign mixes), runs several transmissions in one engine,
//!   drives the run itself (a monitor observing every window) or
//!   defers the launch stages a [`Transmission`] on an engine it owns.
//! - **Receive stack** ([`pipeline`]): a [`Decoder`] (per-sample
//!   majority [`Decoder::Vote`] or soft [`Decoder::MatchedFilter`] over
//!   slot windows) anchored by a [`BoundaryPolicy`] (2-means for tight
//!   hit/miss clusters, quantile for the congestion channel's heavy
//!   tail), plus an optional [`Coding`] stage folded in from [`ecc`].
//!   Any combination runs on any medium.
//! - **Resilient transport** ([`transmit_resilient`]): sequence-
//!   numbered, CRC-protected frames with sync-loss detection and
//!   bounded, deterministically backed-off retransmission on top of
//!   any medium — the protocol hardening that keeps decoding through
//!   the fabric's scheduled fault injection ([`gpubox_sim::fault`]).
//!
//! Both media share the slotted framing, alternating preamble phase
//! lock and self-calibrated decision boundaries of [`protocol`]; the
//! agents implementing the transmit side live in [`agents`] (L2) and
//! [`link_agents`] (fabric).

mod agents;
mod channel;
pub mod ecc;
mod link_agents;
mod medium;
pub mod obs;
mod pipeline;
mod protocol;
mod resilient;

pub use agents::{SpyProbeAgent, SpyTrace, TrojanAgent};
pub use channel::{ChannelReport, LinkChannel, SetPair};
pub use link_agents::{LinkSpyAgent, LinkTrojanAgent, SPY_DITHER_SPAN};
pub use medium::{
    redecode_traces, transmit, transmit_over, ChannelMedium, L2SetMedium, LinkCongestionMedium,
    Transmission,
};
pub use obs::{extract_anatomy, slot_latency_histogram, ChannelAnatomy};
pub use pipeline::{
    matched_filter_decode, matched_filter_decode_soft, BoundaryPolicy, Coding, Decoder, Pipeline,
    SoftStripe, CONFIDENCE_SCALE,
};
pub use protocol::{
    adaptive_boundary, bits_from_bytes, bytes_from_bits, crc8_bits, decode_trace_with_boundary,
    open_frame, robust_boundary, seal_frame, stripe_bits, unstripe_bits, ChannelParams,
    DecodedStripe, ProbeSample, CRC_BITS, SEQ_BITS,
};
pub use resilient::{transmit_resilient, ResilientReport, RetryConfig};
