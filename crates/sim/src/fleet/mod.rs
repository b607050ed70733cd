//! Fleet-scale serving simulation: a pool of shared-nothing
//! [`crate::system::MultiGpuSystem`] nodes behind an open-loop request
//! front-end, with pluggable placement policies and per-node exposure
//! metrics folded into one [`crate::telemetry::MetricSet`].
//!
//! The single-box model answers *how fast does the channel leak*; the
//! fleet layer answers the question the paper's threat model poses at
//! datacentre scale — **how often do attacker and victim co-reside, for
//! how long, and is that window long enough to move a frame** — as a
//! function of the scheduler's placement policy.
//!
//! # Arrival model
//!
//! [`arrivals::ArrivalStream`] is an open-loop Poisson process: job
//! inter-arrival times are exponential with a configurable mean, tenant
//! identity is Zipf-distributed (a few tenants dominate, the tail is
//! long — the serving-workload shape placement papers assume), and job
//! durations are uniform within configured bounds. Every quantity is a
//! pure function of `(seed, job index)` through counter-indexed
//! splitmix64 — the QoS-jitter idiom. No system RNG is consumed, so the
//! stream is bit-identical across placement policies and thread
//! counts, and job `i` is the same job in every sweep cell.
//!
//! # Determinism contract
//!
//! A fleet run is a deterministic function of its [`FleetConfig`]:
//!
//! 1. **Arrivals** are counter-indexed (above) — no draw order to race.
//! 2. **Placement** happens only on the serial front-end thread, at
//!    epoch boundaries, in arrival order; policies may keep state but
//!    draw randomness only from their own counter-indexed streams.
//! 3. **Node stepping** is shared-nothing: each node is an independent
//!    `MultiGpuSystem` whose jobs touch only that node's memory, so the
//!    order nodes are stepped in — and the number of worker threads
//!    stepping them — cannot change any node's observable state.
//! 4. Within a node, slots are stepped in `(next event time, slot)`
//!    order, found by a linear scan over the node's slots (one per GPU).
//!
//! `ext_fleet_placement` CI-gates the consequence: `--threads 1` and
//! `--threads N` emit byte-identical exposure tables.
//!
//! # Work stealing over node horizons
//!
//! Each epoch, the runner publishes the list of nodes with runnable
//! jobs and spawns `threads` scoped workers. Workers *claim* node
//! indices from one shared atomic counter and step each claimed node to
//! the epoch horizon — cheap dynamic load balancing (a fast node's
//! worker immediately steals the next index) without per-task queues.
//! Nodes live behind `Mutex` only to satisfy the borrow checker across
//! the scope; claims never collide, so the locks are uncontended.
//!
//! # Node pooling
//!
//! Nodes are never reconstructed. When a node's last job departs, its
//! [`crate::stats::SystemStats`] are folded into the fleet accumulator
//! and the node is recycled in place via
//! [`crate::system::MultiGpuSystem::canonicalize_phase`], which
//! restores the canonical post-boot state (L2s flushed, timing and
//! stats reset, trace ring emptied, agent counter rewound, RNG reseeded
//! from the generation tag). `tests/fleet_pooling.rs` asserts a pooled
//! node's second tenant epoch is bit-identical to a freshly built
//! node's, and `tests/alloc_free.rs` asserts the steady state performs
//! zero heap allocations after pool warm-up.

pub mod arrivals;
pub mod monitor;
pub mod placement;
pub mod runner;

pub use arrivals::{ArrivalConfig, ArrivalStream, JobSpec, TenantId};
pub use monitor::FleetMonitor;
pub use placement::{
    ChannelAware, Occupancy, Pack, PlacementPolicy, RandomPlacement, SlotAddr, Spread,
};
pub use runner::{Exposure, FleetConfig, FleetReport, FleetRunner};
