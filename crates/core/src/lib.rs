//! # gpubox-attacks — cross-GPU covert and side channel attacks
//!
//! Reproduction of the attacks in *"Spy in the GPU-box: Covert and Side
//! Channel Attacks on Multi-GPU Systems"* (ISCA 2023), running on the
//! [`gpubox_sim`] DGX-1 model. The crate follows the paper's structure:
//!
//! 1. [`timing_re`] — reverse engineer the four local/remote × hit/miss
//!    latency clusters and derive decision [`Thresholds`] (Fig. 4).
//! 2. [`cache_re`] — derive line size, associativity, set count and the
//!    replacement policy from user space (Table I).
//! 3. [`eviction`] — eviction-set discovery: the paper's Algorithm 1
//!    pointer-chase scan (faithful-reproduction path) and the
//!    group-testing scan with warp-parallel batched probes (production
//!    path, Vila et al. S&P'19), page-class structure, aliasing
//!    detection and the Fig. 5 validation sweep. [`offline`] caches the
//!    derived artifacts across identically configured boots.
//! 4. [`alignment`] — Algorithm 2: pair trojan and spy eviction sets that
//!    share a physical cache set (Fig. 7).
//! 5. [`covert`] — the covert channels across GPUs, organised as one
//!    transport-agnostic pipeline: a `ChannelMedium` trait with two
//!    implementations (Prime+Probe over shared L2 sets — Fig. 8/9/10 —
//!    and NVLink congestion over the timed link fabric, no shared cache
//!    set), one generic `transmit` owning framing/striping/sync,
//!    and a composable receive stack (2-means or quantile boundary ×
//!    per-sample vote or matched filter × optional Hamming(7,4)+
//!    interleave coding).
//! 6. [`side`] — memorygram recording, application fingerprinting
//!    (Fig. 11/12) and MLP model extraction (Table II, Fig. 13/14/15).
//! 7. [`mitigation`] — SM-saturation noise exclusion (Sec. VI).
//!
//! ## End-to-end sketch
//!
//! ```no_run
//! use gpubox_attacks::timing_re;
//! use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};
//!
//! # fn main() -> Result<(), gpubox_sim::SimError> {
//! let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
//! // 1. One-time offline reverse engineering.
//! let timing = timing_re::measure_timing(&mut sys, GpuId::new(0), GpuId::new(1), 48)?;
//! let thr = timing.thresholds;
//! // 2-5. Discover eviction sets, align them, transmit covertly... see
//! // the `examples/` directory for the complete flows.
//! # let _ = thr;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alignment;
pub mod cache_re;
pub mod covert;
pub mod eviction;
pub mod mitigation;
pub mod offline;
pub mod runner;
pub mod side;
pub mod thresholds;
pub mod timing_re;

pub use alignment::{align_classes, paired_sets, AlignmentConfig, ClassMatch};
pub use cache_re::{derive_cache_architecture, CacheArchReport, DetectedPolicy};
pub use covert::{
    extract_anatomy, redecode_traces, slot_latency_histogram, transmit, transmit_over,
    transmit_resilient, BoundaryPolicy, ChannelAnatomy, ChannelMedium, ChannelParams,
    ChannelReport, Coding, Decoder, L2SetMedium, LinkChannel, LinkCongestionMedium, Pipeline,
    ResilientReport, RetryConfig, SetPair, Transmission,
};
pub use eviction::{
    classify_pages, classify_pages_fast, dedupe_aliased, discover_conflicts,
    discover_conflicts_grouped, sets_alias, validation_sweep, EvictionSet, Locality, PageClasses,
    ScanConfig,
};
pub use mitigation::ExclusiveOccupancy;
pub use offline::{
    offline_fingerprint, verify_classes_against_oracle, CacheOutcome, OfflineArtifacts,
    OfflineCache,
};
pub use runner::{trial_seed, Trial, TrialRunner};
pub use side::{record_memorygram, FingerprintDataset, RecorderConfig};
pub use thresholds::Thresholds;
pub use timing_re::{measure_timing, TimingReport};
