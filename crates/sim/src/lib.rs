//! # gpubox-sim — a discrete-event multi-GPU system simulator
//!
//! This crate is the hardware substrate for the reproduction of *"Spy in
//! the GPU-box: Covert and Side Channel Attacks on Multi-GPU Systems"*
//! (ISCA 2023). It models an NVIDIA DGX-1-class machine well enough to
//! host the paper's attacks end to end:
//!
//! - **NUMA L2 caching** (the paper's core reverse-engineering result):
//!   every physical page is cached in the L2 of the GPU whose HBM homes
//!   it, including accesses arriving over NVLink from peer GPUs.
//! - **Physically indexed, 16-way, 2048-set L2** with pluggable
//!   replacement (LRU / tree-PLRU / random) — paper Table I.
//! - **NVLink hybrid cube-mesh topology** with per-hop latency and a PCIe
//!   fallback — paper Fig. 1 — plus an optional **timed link fabric**
//!   ([`fabric`]): every NVLink edge is a queueing resource with per-link
//!   bandwidth and occupancy, remote accesses route hop-by-hop along
//!   deterministic shortest paths (multi-hop and PCIe fallback included),
//!   and per-link utilisation is surfaced in [`SystemStats`] — the
//!   substrate of the paper's NVLink-congestion covert channel. A
//!   composable **QoS / defence layer** ([`qos`]) adds per-tenant
//!   token-bucket link rate limiting, epoch pacing / seeded grant
//!   jitter, and valiant routing — the interconnect-side mitigations
//!   evaluated against both covert-channel families — and a
//!   deterministic **fault-injection layer** ([`fault`]) schedules link
//!   outages (with per-epoch rerouting and PCIe fallback), degraded
//!   links and seeded transient stalls for robustness evaluation.
//! - **Calibrated timing** reproducing the four Fig. 4 clusters
//!   (270 / 450 / 630 / 950 cycles) with Gaussian jitter and
//!   port-contention noise.
//! - **Randomised page-frame placement**, hiding cache-set indices from
//!   user space, so eviction sets must be *discovered*, not computed.
//! - **SM resources with a leftover block scheduler** for the Sec. VI
//!   noise-mitigation technique.
//! - A **discrete-event engine** interleaving concurrent agents (trojan,
//!   spy, victim, noise tenants) against the shared caches in true
//!   timestamp order.
//! - **Cycle-accurate telemetry** ([`telemetry`]): an allocation-free
//!   ring-buffer event tracer (off by default, bit-invisible when off)
//!   hooked into the engine, L2, fabric, QoS and fault layers, plus
//!   mergeable streaming metrics and Chrome `trace_event` / human
//!   timeline exporters.
//!
//! ## Quick example
//!
//! ```
//! use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};
//!
//! # fn main() -> Result<(), gpubox_sim::SimError> {
//! let mut sys = MultiGpuSystem::new(SystemConfig::dgx1());
//! // A spy on GPU1 allocates memory homed on GPU0 ...
//! let spy = sys.create_process(GpuId::new(1));
//! sys.enable_peer_access(spy, GpuId::new(0))?;
//! let buf = sys.malloc_on(spy, GpuId::new(0), 64 * 1024)?;
//! // ... and its accesses are cached in GPU0's L2, observable by timing.
//! let cold = sys.access(spy, sys.default_agent(spy), buf, 0, None)?;
//! let warm = sys.access(spy, sys.default_agent(spy), buf, 1_000, None)?;
//! assert!(cold.latency > warm.latency);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod cache;
#[doc(hidden)]
pub mod cache_reference;
pub mod config;
mod draw;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod fleet;
pub mod memory;
pub mod monitor;
pub mod noise;
mod pressure;
pub mod process;
pub mod qos;
pub mod replacement;
pub mod sm;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod timing;
pub mod topology;
pub mod vm;

pub use address::{FrameNumber, GpuId, PageNumber, PhysAddr, PhysLoc, SetIndex, SetMapper, VirtAddr};
pub use cache::{AccessOutcome, L2Cache, EMPTY_TAG};
pub use config::{CacheConfig, ReplacementKind, SmConfig, SystemConfig, TimingConfig};
pub use engine::{Agent, Engine, Op, OpResult, ProbeStage, SchedulerKind};
pub use error::{SimError, SimResult};
pub use fabric::{Fabric, FabricConfig};
pub use fault::{DegradedLink, FaultPlan, LinkDown, TransientStalls};
pub use fleet::{
    ArrivalConfig, ArrivalStream, ChannelAware, Exposure, FleetConfig, FleetMonitor, FleetReport,
    FleetRunner, JobSpec, Occupancy, Pack, PlacementPolicy, RandomPlacement, SlotAddr, Spread,
    TenantId,
};
pub use monitor::{run_windowed, Alarm, ChannelKind, DetectorKind, Monitor, MonitorConfig};
pub use noise::{NoiseAgent, NoiseConfig};
pub use process::ProcessCtx;
pub use qos::{QosConfig, QosScope, RateLimitConfig, RoutingPolicy, TrafficShaping};
pub use sm::{KernelId, KernelLaunch, SmArray};
pub use stats::{FaultStats, GpuStats, LinkStats, QosStats, SystemStats};
pub use system::{
    AccessOracle, AgentId, BatchAccess, BatchSummary, MemAccess, MultiGpuSystem, ProcessId,
};
pub use telemetry::{
    chrome_trace_json, human_timeline, validate_json, LogHistogram, MetricSet, TraceKind,
    TraceRecord, TraceSink, TraceSpan, NO_PROCESS,
};
pub use timing::LatencyModel;
pub use topology::{LinkId, LinkKind, Route, Topology};
