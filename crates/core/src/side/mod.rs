//! Side-channel attacks on a remote GPU (paper Sec. V).
//!
//! The spy allocates its eviction sets on the victim's GPU, probes them in
//! round-robin sweeps, and records a [`gpubox_classify::Memorygram`]: per
//! monitored set, per sweep, how many lines the victim displaced. Two
//! attacks consume the memorygram:
//!
//! - **Application fingerprinting** (Sec. V-A, Fig. 11/12): classify which
//!   of six HPC workloads runs on the victim GPU.
//! - **MLP model extraction** (Sec. V-B, Table II, Fig. 13/14/15): infer
//!   the hidden-layer width and the number of training epochs.

mod fingerprint;
mod mlp_extract;
mod recorder;

pub use fingerprint::{gram_features, FingerprintDataset, FingerprintReport};
pub use mlp_extract::{detect_epochs, summarize_mlp_gram, MlpGramStats};
pub use recorder::{record_memorygram, RecorderConfig, IDLE_END_CYCLES};
