//! # gpubox-bench — experiment harness for the paper's tables and figures
//!
//! One binary per table/figure (see `src/bin/`), plus Criterion
//! microbenches under `benches/`. The [`setup`] module runs the shared
//! offline phase (timing reverse engineering, page classification,
//! alignment) at DGX-1 scale and holds the fixtures the channel
//! experiments share — the fabric DGX-1 config ([`fabric_dgx1`]), the
//! link-channel endpoints ([`LinkEndpoints`], [`link_params`]), the
//! benign tenant mix ([`BenignMix`]) and the seeded payload
//! ([`seeded_payload`]); [`report`] renders the same rows/series the
//! paper reports.

#![warn(missing_docs)]

pub mod report;
pub mod setup;

pub use setup::{
    fabric_dgx1, link_params, seeded_payload, single_link_channel, AttackSetup, BenignMix,
    LinkEndpoints, SideChannelSetup, ATTACK_BUFFER_BYTES,
};
