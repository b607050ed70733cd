//! The shared-nothing [`FleetRunner`]: a pool of `MultiGpuSystem` nodes
//! stepped independently to each epoch horizon, with work-stealing
//! fan-out over node horizons and allocation-free node pooling. See the
//! fleet module doc for the determinism contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::Serialize;

use super::arrivals::{ArrivalConfig, ArrivalStream, JobSpec};
use super::placement::{JobTag, Occupancy, PlacementPolicy, SlotAddr};
use crate::address::{GpuId, VirtAddr};
use crate::config::SystemConfig;
use crate::draw::{indexed_draw, SALT_JOB, SALT_NODE};
use crate::stats::SystemStats;
use crate::system::{AgentId, MultiGpuSystem, ProcessId};
use crate::telemetry::{LogHistogram, MetricSet};
use crate::topology::Topology;

/// Measured L2 Prime+Probe covert-channel goodput (`ext_two_hop_channel`,
/// Table 4 reproduction) used to convert co-residency windows into
/// frames-leaked exposure.
pub const L2_CHANNEL_BYTES_PER_SEC: f64 = 94_000.0;
/// Measured link-congestion covert-channel goodput (same source).
pub const LINK_CHANNEL_BYTES_PER_SEC: f64 = 28_600.0;
/// One resilient-transport frame on the wire: 32-bit payload plus
/// sequence/CRC framing.
pub const FRAME_BYTES: f64 = 8.0;

/// Per-slot job buffers: pages of node HBM each job's probe batches
/// land in (one local buffer on the home GPU, one remote buffer on a
/// link neighbour).
const FLEET_BUF_PAGES: u64 = 16;

/// Everything a fleet run depends on. Two runs with equal configs are
/// bit-identical regardless of `threads` (see the module determinism
/// contract) — `threads` deliberately feeds no seed.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Node count (each node is one independent `MultiGpuSystem`).
    pub nodes: u32,
    /// Per-node system config; every node is identical up to its seed.
    pub node: SystemConfig,
    /// The open-loop request front-end.
    pub arrivals: ArrivalConfig,
    /// Fleet-global cycle horizon the run simulates to.
    pub horizon: u64,
    /// Epoch length: placement happens at epoch boundaries, nodes are
    /// stepped one epoch at a time.
    pub epoch: u64,
    /// Probe lines per job batch (warp).
    pub probe_lines: u32,
    /// Minimum think time between a job's batches, in cycles.
    pub think_min: u64,
    /// Uniform extra think time drawn per batch, in cycles.
    pub think_spread: u64,
    /// Every `n`-th batch targets the job's remote (link-neighbour)
    /// buffer; 0 disables remote traffic.
    pub remote_every: u32,
    /// Worker threads stepping nodes (1 = fully serial).
    pub threads: usize,
    /// Master seed: node seeds, job keys and policy streams derive from
    /// it by counter-indexed splitmix64.
    pub seed: u64,
    /// Maintain a second, per-node `MetricSet` fold for the
    /// fold-equals-total gate (allocates at fold points; leave off in
    /// allocation-sensitive runs).
    pub verify_fold: bool,
}

impl FleetConfig {
    /// A fleet of `nodes` 4-GPU ring nodes under the default workload.
    pub fn new(nodes: u32, seed: u64) -> Self {
        FleetConfig {
            nodes,
            node: FleetConfig::ring_node_config(),
            arrivals: ArrivalConfig::default_workload(seed ^ 0x5EED),
            horizon: 4_000_000,
            epoch: 50_000,
            probe_lines: 16,
            think_min: 1_500,
            think_spread: 2_000,
            remote_every: 4,
            threads: 1,
            seed,
            verify_fold: false,
        }
    }

    /// The standard fleet node: a 4-GPU NVLink ring (every GPU has two
    /// link neighbours — the co-residency surface), small L2s for fast
    /// stepping, noiseless timing, fabric off.
    pub fn ring_node_config() -> SystemConfig {
        let mut cfg = SystemConfig::small_test().noiseless();
        cfg.num_gpus = 4;
        cfg.topology = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        cfg
    }

    /// Sets the arrival rate so the *offered load* targets `util`
    /// fraction of fleet GPU-slots busy (Little's law: rate = util ×
    /// slots / mean duration). Same-utilization comparisons across
    /// placement policies use this: the arrival stream depends only on
    /// the arrival config, so every policy sees the identical job
    /// sequence.
    #[must_use]
    pub fn with_target_utilization(mut self, util: f64) -> Self {
        assert!(util > 0.0, "target utilization must be positive");
        let slots = f64::from(self.nodes) * f64::from(u32::from(self.node.num_gpus));
        let mean_d = self.arrivals.mean_duration() as f64;
        self.arrivals.mean_interarrival = ((mean_d / (slots * util)).round() as u64).max(1);
        self
    }

    /// Total GPU slots across the fleet.
    pub fn total_slots(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.node.num_gpus)
    }
}

/// A job currently bound to a slot.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    /// Per-job splitmix64 stream key (derived from the placement index,
    /// so a job's access pattern is independent of which node ran it).
    key: u64,
    /// Draws consumed from the job stream.
    counter: u64,
    /// Next batch issue cycle.
    next_at: u64,
    /// Service end cycle (exclusive).
    ends_at: u64,
    /// Batches issued so far.
    batches: u64,
}

/// One GPU slot of a node: a pre-created process with pre-allocated
/// local and remote buffers, reused by every job placed on it.
#[derive(Debug)]
struct Slot {
    pid: ProcessId,
    agent: AgentId,
    local: VirtAddr,
    /// Buffer on a link-neighbour GPU (`None` if the GPU has no peer or
    /// remote traffic is disabled).
    remote: Option<VirtAddr>,
    job: Option<ActiveJob>,
}

/// One pooled fleet node plus its reusable stepping scratch.
struct Node {
    sys: MultiGpuSystem,
    slots: Vec<Slot>,
    /// Batch address scratch, reused every batch.
    addrs: Vec<VirtAddr>,
    /// Latency output scratch, reused every batch.
    lats: Vec<u32>,
    /// Lifetime batch counter (survives recycling).
    batches: u64,
    /// Lifetime line-access counter (survives recycling).
    accesses: u64,
}

/// Parameters a worker needs to step one node (copied out of the config
/// so workers never touch the runner).
#[derive(Clone, Copy)]
struct StepParams {
    probe_lines: u32,
    think_min: u64,
    think_spread: u64,
    remote_every: u32,
    line_size: u64,
    buf_lines: u64,
}

/// Fleet-level exposure accumulator. Plain fields + fixed histograms so
/// the hot path records without touching `MetricSet`'s string-keyed
/// maps; exported into one set at report time.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Exposure {
    /// Jobs emitted by the front-end within the horizon.
    pub arrived: u64,
    /// Jobs bound to a slot.
    pub placed: u64,
    /// Jobs whose service window completed within the horizon.
    pub completed: u64,
    /// Jobs still queued when the run ended.
    pub queued_end: u64,
    /// Cross-tenant link-adjacent co-residency windows observed.
    pub windows: u64,
    /// Total cross-tenant co-resident cycles (summed over windows).
    pub coresident_cycles: u64,
    /// Total job-occupied GPU-slot cycles (clipped to the horizon).
    pub occupied_cycles: u64,
    /// Windows long enough for the 94.0 KB/s L2 channel to move ≥1 frame.
    pub l2_exposed_windows: u64,
    /// Windows long enough for the 28.6 KB/s link channel to move ≥1 frame.
    pub link_exposed_windows: u64,
    /// Nodes recycled in place via `canonicalize_phase`.
    pub nodes_recycled: u64,
    /// Node-epochs stepped (the work-stealing unit).
    pub node_epochs: u64,
    /// Job batches issued fleet-wide.
    pub batches: u64,
    /// Probe-line accesses issued fleet-wide.
    pub accesses: u64,
    /// Attack-window duration distribution (cycles).
    pub window_hist: LogHistogram,
    /// Queue-wait distribution (cycles from arrival to placement).
    pub queue_wait_hist: LogHistogram,
}

impl Exposure {
    /// Fraction of occupied slot-cycles spent link-adjacent to a
    /// distinct tenant — the paper's co-residency probability.
    pub fn coresidency(&self) -> f64 {
        if self.occupied_cycles == 0 {
            0.0
        } else {
            self.coresident_cycles as f64 / self.occupied_cycles as f64
        }
    }

    /// Achieved slot utilization over `horizon` cycles and
    /// `total_slots` GPU slots.
    pub fn utilization(&self, horizon: u64, total_slots: u64) -> f64 {
        let denom = (horizon * total_slots) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.occupied_cycles as f64 / denom
        }
    }
}

/// What a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet counters/histograms plus the folded node counters, in one
    /// mergeable set.
    pub metrics: MetricSet,
    /// Node `SystemStats` folded across all nodes and generations.
    pub stats: SystemStats,
    /// The per-node `MetricSet` fold (only when
    /// [`FleetConfig::verify_fold`] was set) — compare against
    /// `stats.metric_set()` for the fold-equals-total gate.
    pub node_fold: Option<MetricSet>,
    /// The raw exposure accumulator.
    pub exposure: Exposure,
    /// Horizon the run covered.
    pub horizon: u64,
    /// GPU slots in the fleet.
    pub total_slots: u64,
}

impl FleetReport {
    /// Achieved slot utilization.
    pub fn utilization(&self) -> f64 {
        self.exposure.utilization(self.horizon, self.total_slots)
    }

    /// `Some(true)` iff the per-node `MetricSet` fold equals the folded
    /// `SystemStats` export; `None` when the run didn't maintain the
    /// second fold.
    pub fn fold_matches_total(&self) -> Option<bool> {
        self.node_fold
            .as_ref()
            .map(|f| *f == self.stats.metric_set())
    }

    /// The decoded exposure table row for this run — the byte-exact
    /// artifact CI diffs across thread counts. Deliberately excludes
    /// anything thread- or wall-clock-dependent.
    pub fn exposure_line(&self, label: &str) -> String {
        let e = &self.exposure;
        format!(
            "{label} arrived={} placed={} completed={} queued={} util={:.6} \
             coresidency={:.6} windows={} win_p50={} win_p95={} win_p99={} \
             l2_exposed={} link_exposed={} wait_p50={} wait_p95={} recycled={} \
             batches={} accesses={} l2_hits={} l2_misses={} nvlink_bytes={}",
            e.arrived,
            e.placed,
            e.completed,
            e.queued_end,
            self.utilization(),
            e.coresidency(),
            e.windows,
            e.window_hist.p50(),
            e.window_hist.p95(),
            e.window_hist.p99(),
            e.l2_exposed_windows,
            e.link_exposed_windows,
            e.queue_wait_hist.p50(),
            e.queue_wait_hist.p95(),
            e.nodes_recycled,
            e.batches,
            e.accesses,
            self.metrics.counter("gpu.l2_hits"),
            self.metrics.counter("gpu.l2_misses"),
            self.metrics.counter("gpu.nvlink_bytes"),
        )
    }
}

/// The shared-nothing fleet driver. Construct with a policy, then
/// either [`FleetRunner::run`] to the horizon or step incrementally
/// with [`FleetRunner::run_until`] + [`FleetRunner::finish`].
pub struct FleetRunner {
    cfg: FleetConfig,
    step: StepParams,
    /// `Mutex` purely so scoped workers can claim disjoint nodes; the
    /// claim protocol makes every lock uncontended.
    nodes: Vec<Mutex<Node>>,
    occ: Occupancy,
    policy: Box<dyn PlacementPolicy>,
    arrivals: ArrivalStream,
    /// One-job lookahead past the current epoch boundary.
    pending: Option<JobSpec>,
    /// FIFO of jobs that arrived while the fleet was full.
    queue: VecDeque<JobSpec>,
    /// Min-heap of `(end cycle, node, slot)` service completions.
    departures: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Jobs bound per node (drives the active-node list).
    active_per_node: Vec<u32>,
    /// Reused each epoch: indices of nodes with bound jobs.
    active_scratch: Vec<u32>,
    /// Reused each boundary: nodes whose last job just departed.
    emptied_scratch: Vec<u32>,
    /// Placements so far — the per-job stream key index.
    placements: u64,
    exp: Exposure,
    stats_accum: SystemStats,
    node_fold: Option<MetricSet>,
    l2_frame_cycles: u64,
    link_frame_cycles: u64,
    /// Recycle generation (the `canonicalize_phase` tag).
    generation: u64,
    now: u64,
}

impl std::fmt::Debug for FleetRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRunner")
            .field("nodes", &self.cfg.nodes)
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("placements", &self.placements)
            .finish_non_exhaustive()
    }
}

impl FleetRunner {
    /// Boots the pool: every node gets one process per GPU with a local
    /// and a link-neighbour buffer pre-allocated, so steady-state job
    /// churn allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on a zero node/epoch/thread count or a node config whose
    /// HBM cannot back the per-slot buffers.
    pub fn new(cfg: FleetConfig, policy: Box<dyn PlacementPolicy>) -> Self {
        assert!(cfg.nodes > 0, "empty fleet");
        assert!(cfg.epoch > 0, "zero epoch");
        assert!(cfg.threads > 0, "zero worker threads");
        let topo = cfg.node.topology.clone();
        let ngpus = cfg.node.num_gpus;
        let buf_bytes = FLEET_BUF_PAGES * cfg.node.page_size;
        let mut nodes = Vec::with_capacity(cfg.nodes as usize);
        for n in 0..cfg.nodes {
            let node_cfg = cfg
                .node
                .clone()
                .with_seed(indexed_draw(cfg.seed, SALT_NODE, u64::from(n)));
            let mut sys = MultiGpuSystem::new(node_cfg);
            let mut slots = Vec::with_capacity(usize::from(ngpus));
            for g in 0..ngpus {
                let gpu = GpuId::new(g);
                let pid = sys.create_process(gpu);
                let agent = sys.default_agent(pid);
                let local = sys
                    .malloc_on(pid, gpu, buf_bytes)
                    .expect("node HBM backs the local job buffer");
                let remote = match topo.peers(gpu).next() {
                    Some(peer) if cfg.remote_every > 0 => {
                        sys.enable_peer_access(pid, peer)
                            .expect("ring neighbours share a direct link");
                        Some(
                            sys.malloc_on(pid, peer, buf_bytes)
                                .expect("peer HBM backs the remote job buffer"),
                        )
                    }
                    _ => None,
                };
                slots.push(Slot {
                    pid,
                    agent,
                    local,
                    remote,
                    job: None,
                });
            }
            nodes.push(Mutex::new(Node {
                sys,
                slots,
                addrs: Vec::with_capacity(cfg.probe_lines as usize),
                lats: Vec::with_capacity(cfg.probe_lines as usize),
                batches: 0,
                accesses: 0,
            }));
        }
        let clock = cfg.node.timing.clock_hz;
        let frame_cycles =
            |rate: f64| -> u64 { (FRAME_BYTES / rate * clock).ceil() as u64 };
        let step = StepParams {
            probe_lines: cfg.probe_lines,
            think_min: cfg.think_min,
            think_spread: cfg.think_spread.max(1),
            remote_every: cfg.remote_every,
            line_size: cfg.node.cache.line_size,
            buf_lines: buf_bytes / cfg.node.cache.line_size,
        };
        let total_slots = cfg.total_slots() as usize;
        let arrivals = ArrivalStream::new(cfg.arrivals.clone());
        let node_fold = cfg.verify_fold.then(MetricSet::new);
        FleetRunner {
            occ: Occupancy::new(cfg.nodes, &topo),
            stats_accum: SystemStats::new(ngpus, topo.num_links()),
            arrivals,
            pending: None,
            queue: VecDeque::with_capacity(1024),
            departures: BinaryHeap::with_capacity(total_slots + 1),
            active_per_node: vec![0; cfg.nodes as usize],
            active_scratch: Vec::with_capacity(cfg.nodes as usize),
            emptied_scratch: Vec::with_capacity(cfg.nodes as usize),
            placements: 0,
            exp: Exposure::default(),
            node_fold,
            l2_frame_cycles: frame_cycles(L2_CHANNEL_BYTES_PER_SEC),
            link_frame_cycles: frame_cycles(LINK_CHANNEL_BYTES_PER_SEC),
            generation: 0,
            now: 0,
            step,
            policy,
            nodes,
            cfg,
        }
    }

    /// The runner's config.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Current fleet clock (last completed epoch boundary).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The exposure accumulator so far. Node-lifetime counters
    /// (`batches`, `accesses`) fold in only at [`FleetRunner::finish`];
    /// everything else is current.
    pub fn exposure(&self) -> &Exposure {
        &self.exp
    }

    /// Steps whole epochs until the boundary reaches `target` (clipped
    /// to the horizon). Allocation-free in the steady state when
    /// `threads == 1` (parallel mode allocates only the per-epoch
    /// scoped worker threads, never per job or per access).
    pub fn run_until(&mut self, target: u64) {
        let target = target.min(self.cfg.horizon);
        while self.now < target {
            let t0 = self.now;
            let t1 = (t0 + self.cfg.epoch).min(self.cfg.horizon);
            self.process_boundary(t0, t1);
            self.step_epoch(t1);
            self.now = t1;
        }
    }

    /// Runs to the horizon and produces the report.
    pub fn run(mut self) -> FleetReport {
        self.run_until(self.cfg.horizon);
        self.finish()
    }

    /// Final fold: drains in-horizon departures, folds every node's
    /// stats into the fleet accumulator and exports the metrics.
    pub fn finish(mut self) -> FleetReport {
        let horizon = self.cfg.horizon;
        self.emptied_scratch.clear();
        while let Some(&Reverse((end, n, s))) = self.departures.peek() {
            if end > horizon {
                break;
            }
            self.departures.pop();
            self.remove_job(n, s);
        }
        self.exp.queued_end = self.queue.len() as u64;
        for node in &mut self.nodes {
            let node = node.get_mut().expect("fleet workers never panic");
            self.stats_accum.merge(node.sys.stats());
            if let Some(fold) = &mut self.node_fold {
                fold.merge(&node.sys.stats().metric_set());
            }
            self.exp.batches += node.batches;
            self.exp.accesses += node.accesses;
        }
        let mut metrics = MetricSet::new();
        let e = &self.exp;
        metrics.add("fleet.jobs_arrived", e.arrived);
        metrics.add("fleet.jobs_placed", e.placed);
        metrics.add("fleet.jobs_completed", e.completed);
        metrics.add("fleet.jobs_queued_end", e.queued_end);
        metrics.add("fleet.attack_windows", e.windows);
        metrics.add("fleet.coresident_cycles", e.coresident_cycles);
        metrics.add("fleet.occupied_cycles", e.occupied_cycles);
        metrics.add("fleet.l2_exposed_windows", e.l2_exposed_windows);
        metrics.add("fleet.link_exposed_windows", e.link_exposed_windows);
        metrics.add("fleet.nodes_recycled", e.nodes_recycled);
        metrics.add("fleet.node_epochs", e.node_epochs);
        metrics.add("fleet.batches", e.batches);
        metrics.add("fleet.accesses", e.accesses);
        metrics.merge_histogram("fleet.attack_window_cycles", &e.window_hist);
        metrics.merge_histogram("fleet.queue_wait_cycles", &e.queue_wait_hist);
        metrics.merge(&self.stats_accum.metric_set());
        FleetReport {
            metrics,
            total_slots: self.cfg.total_slots(),
            horizon,
            stats: self.stats_accum,
            node_fold: self.node_fold,
            exposure: self.exp,
        }
    }

    /// Epoch-boundary front-end work, in a fixed order: departures due
    /// at `t0`, node recycling, queued jobs (FIFO, starting at `t0`),
    /// then fresh arrivals in `[t0, t1)`.
    fn process_boundary(&mut self, t0: u64, t1: u64) {
        self.emptied_scratch.clear();
        while let Some(&Reverse((end, n, s))) = self.departures.peek() {
            if end > t0 {
                break;
            }
            self.departures.pop();
            self.remove_job(n, s);
        }
        for i in 0..self.emptied_scratch.len() {
            let n = self.emptied_scratch[i];
            if self.active_per_node[n as usize] == 0 {
                self.recycle(n);
            }
        }
        while let Some(job) = self.queue.front().copied() {
            match self.policy.place(&self.occ, &job) {
                Some(addr) => {
                    self.queue.pop_front();
                    self.admit(job, addr, t0);
                }
                None => break,
            }
        }
        loop {
            let job = match self.pending.take() {
                Some(j) => j,
                None => self.arrivals.next_job(),
            };
            if job.at >= t1 {
                self.pending = Some(job);
                break;
            }
            self.exp.arrived += 1;
            // FIFO fairness: while older jobs queue, new ones join them.
            if self.queue.is_empty() {
                if let Some(addr) = self.policy.place(&self.occ, &job) {
                    self.admit(job, addr, job.at.max(t0));
                    continue;
                }
            }
            self.queue.push_back(job);
        }
    }

    /// Binds a job to a slot at `start`, recording its exposure windows
    /// against every link-adjacent cross-tenant occupant. Open-loop
    /// durations make the windows exact at placement time: both jobs'
    /// service ends are already known.
    fn admit(&mut self, job: JobSpec, addr: SlotAddr, start: u64) {
        let end = start + job.duration;
        let horizon = self.cfg.horizon;
        self.exp.placed += 1;
        self.exp.queue_wait_hist.record(start - job.at);
        self.exp.occupied_cycles += end.min(horizon).saturating_sub(start);
        for &ns in self.occ.adjacent_slots(addr.slot) {
            let Some(t) = self.occ.occupant(SlotAddr {
                node: addr.node,
                slot: ns,
            }) else {
                continue;
            };
            if t.tenant == job.tenant {
                continue;
            }
            let lo = start.max(t.start);
            let hi = end.min(t.end).min(horizon);
            if hi <= lo {
                continue;
            }
            let w = hi - lo;
            self.exp.windows += 1;
            self.exp.coresident_cycles += w;
            self.exp.window_hist.record(w);
            if w >= self.l2_frame_cycles {
                self.exp.l2_exposed_windows += 1;
            }
            if w >= self.link_frame_cycles {
                self.exp.link_exposed_windows += 1;
            }
        }
        self.occ.occupy(
            addr,
            JobTag {
                tenant: job.tenant,
                start,
                end,
            },
        );
        let key = indexed_draw(self.cfg.seed, SALT_JOB, self.placements);
        self.placements += 1;
        let node = self.nodes[addr.node as usize]
            .get_mut()
            .expect("fleet workers never panic");
        node.slots[addr.slot as usize].job = Some(ActiveJob {
            key,
            counter: 0,
            next_at: start,
            ends_at: end,
            batches: 0,
        });
        self.active_per_node[addr.node as usize] += 1;
        self.departures.push(Reverse((end, addr.node, addr.slot)));
    }

    /// Releases a slot whose job's service window ended.
    fn remove_job(&mut self, n: u32, s: u32) {
        self.occ.vacate(SlotAddr { node: n, slot: s });
        let node = self.nodes[n as usize]
            .get_mut()
            .expect("fleet workers never panic");
        node.slots[s as usize].job = None;
        self.exp.completed += 1;
        self.active_per_node[n as usize] -= 1;
        if self.active_per_node[n as usize] == 0 {
            self.emptied_scratch.push(n);
        }
    }

    /// Pools an emptied node: fold its stats, then restore the
    /// canonical state in place (`canonicalize_phase`) under a fresh
    /// generation tag. The node is never reconstructed.
    fn recycle(&mut self, n: u32) {
        let node = self.nodes[n as usize]
            .get_mut()
            .expect("fleet workers never panic");
        self.stats_accum.merge(node.sys.stats());
        if let Some(fold) = &mut self.node_fold {
            fold.merge(&node.sys.stats().metric_set());
        }
        self.generation += 1;
        node.sys.canonicalize_phase(self.generation);
        self.exp.nodes_recycled += 1;
    }

    /// Steps every node with bound jobs to `t1`. Serial when
    /// `threads == 1`; otherwise scoped workers claim node indices from
    /// one atomic cursor (work stealing over node horizons — a fast
    /// worker immediately takes the next unclaimed node).
    fn step_epoch(&mut self, t1: u64) {
        self.active_scratch.clear();
        for (i, &c) in self.active_per_node.iter().enumerate() {
            if c > 0 {
                self.active_scratch.push(i as u32);
            }
        }
        self.exp.node_epochs += self.active_scratch.len() as u64;
        let p = self.step;
        let workers = self.cfg.threads.min(self.active_scratch.len());
        if workers <= 1 {
            for &i in &self.active_scratch {
                let node = self.nodes[i as usize]
                    .get_mut()
                    .expect("fleet workers never panic");
                step_node(node, t1, p);
            }
            return;
        }
        let nodes = &self.nodes;
        let active = &self.active_scratch;
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&ni) = active.get(k) else { break };
                    let mut node = nodes[ni as usize]
                        .lock()
                        .expect("fleet workers never panic");
                    step_node(&mut node, t1, p);
                });
            }
        });
    }
}

/// Steps one node's jobs to `t1` in `(next event time, slot)` order,
/// found by a linear scan over the node's slots (one per GPU).
/// Shared-nothing: touches only this node's state, so step order across
/// nodes cannot matter.
fn step_node(node: &mut Node, t1: u64, p: StepParams) {
    loop {
        let mut best: Option<(u64, u32)> = None;
        for (i, s) in node.slots.iter().enumerate() {
            if let Some(j) = &s.job {
                if j.next_at < j.ends_at.min(t1) {
                    let key = (j.next_at, i as u32);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        let Some((_, i)) = best else { break };
        issue_batch(node, i as usize, p);
    }
}

/// Issues one probe batch for slot `i`'s job at its `next_at` cycle:
/// `probe_lines` counter-indexed addresses into the job's local buffer
/// (every `remote_every`-th batch, the link-neighbour buffer), then
/// advances the job by the batch duration plus a drawn think time.
fn issue_batch(node: &mut Node, i: usize, p: StepParams) {
    let s = &mut node.slots[i];
    let j = s.job.as_mut().expect("runnable slot has a job");
    let now = j.next_at;
    j.batches += 1;
    let use_remote = p.remote_every > 0
        && s.remote.is_some()
        && j.batches.is_multiple_of(u64::from(p.remote_every));
    let base = if use_remote {
        s.remote.expect("checked above")
    } else {
        s.local
    };
    node.addrs.clear();
    for _ in 0..p.probe_lines {
        let d = crate::draw::splitmix64(j.key.wrapping_add(j.counter));
        j.counter += 1;
        node.addrs.push(base.offset((d % p.buf_lines) * p.line_size));
    }
    node.lats.clear();
    let summary = node
        .sys
        .access_batch_into(s.pid, s.agent, &node.addrs, now, &mut node.lats)
        .expect("fleet jobs touch only their own pre-mapped buffers");
    let think =
        p.think_min + crate::draw::splitmix64(j.key.wrapping_add(j.counter)) % p.think_spread;
    j.counter += 1;
    j.next_at = now + summary.duration.max(1) + think;
    node.batches += 1;
    node.accesses += u64::from(p.probe_lines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::placement::{ChannelAware, Pack, RandomPlacement, Spread};

    fn tiny(seed: u64, threads: usize) -> FleetReport {
        let mut cfg = FleetConfig::new(6, seed).with_target_utilization(0.6);
        cfg.horizon = 600_000;
        cfg.threads = threads;
        cfg.verify_fold = true;
        FleetRunner::new(cfg, Box::new(Pack)).run()
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        let base = tiny(5, 1);
        let par = tiny(5, 4);
        assert!(base.exposure.placed > 0, "workload actually ran");
        assert_eq!(base.metrics, par.metrics, "thread count leaked into results");
        assert_eq!(base.exposure_line("x"), par.exposure_line("x"));
    }

    #[test]
    fn fold_equals_total() {
        let r = tiny(9, 2);
        assert!(r.exposure.nodes_recycled > 0, "pooling must engage");
        assert_eq!(r.fold_matches_total(), Some(true));
    }

    #[test]
    fn conservation_and_validity_across_policies() {
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(Pack),
            Box::new(Spread),
            Box::new(RandomPlacement::new(3)),
            Box::new(ChannelAware::new(16)),
        ];
        for policy in policies {
            let name = policy.name();
            let mut cfg = FleetConfig::new(4, 2).with_target_utilization(1.4);
            cfg.horizon = 400_000;
            let r = FleetRunner::new(cfg, policy).run();
            let e = &r.exposure;
            assert_eq!(
                e.placed + e.queued_end,
                e.arrived,
                "{name}: conservation (placed + queued == arrived)"
            );
            assert!(e.completed <= e.placed, "{name}");
            assert!(
                e.queued_end > 0,
                "{name}: overload (offered 1.4x) must leave a queue"
            );
        }
    }

    #[test]
    fn channel_aware_beats_pack_on_coresidency() {
        let run = |policy: Box<dyn PlacementPolicy>| {
            let mut cfg = FleetConfig::new(12, 17).with_target_utilization(0.5);
            cfg.horizon = 1_200_000;
            FleetRunner::new(cfg, policy).run()
        };
        let pack = run(Box::new(Pack));
        let ca = run(Box::new(ChannelAware::new(16)));
        let util_gap = (pack.utilization() - ca.utilization()).abs();
        assert!(
            util_gap < 0.02,
            "same offered load must give near-equal utilization (gap {util_gap})"
        );
        assert!(
            ca.exposure.coresident_cycles < pack.exposure.coresident_cycles,
            "channel-aware {} !< pack {}",
            ca.exposure.coresident_cycles,
            pack.exposure.coresident_cycles
        );
    }
}
