//! Discrete-event interleaver for concurrent agents.
//!
//! The covert channel (trojan + spy on different GPUs) and the side channel
//! (victim + spy) are concurrent programs contending on a shared L2. The
//! [`Engine`] runs a set of [`Agent`]s in global-timestamp order: it always
//! steps the agent whose local clock is furthest behind, so accesses hit
//! the shared caches in true time order.
//!
//! # The scratch-buffer op protocol
//!
//! Agents express their programs as a stream of [`Op`]s and receive an
//! [`OpResult`] per op — mirroring how a GPU kernel only observes its own
//! loads and `clock()` values. The protocol is designed so the steady-state
//! simulation loop performs **zero heap allocations**:
//!
//! - A warp-parallel probe is issued by *filling the engine's reusable
//!   [`ProbeStage`]* (handed to [`Agent::next_op`]) with the probe
//!   addresses and returning [`Op::LoadBatch`]. The staging buffer is
//!   cleared by the engine before every `next_op` call and its capacity is
//!   kept across ops, so an agent re-probing the same eviction set never
//!   allocates — the GoFetch-harness idiom of probe buffers owned by the
//!   driver and reused across every iteration.
//! - All batches are routed through
//!   [`MultiGpuSystem::access_batch_into`] with an engine-owned latency
//!   scratch buffer, and [`OpResult::latencies`] *borrows* from that
//!   scratch (`&[u32]`) instead of handing the agent an owned `Vec`.
//!   Scalar loads and stores reuse the same one-element scratch.
//!
//! The allocation-freedom of the warm loop is asserted by a
//! counting-allocator integration test (`tests/alloc_free.rs`).
//!
//! # Scheduling
//!
//! Picking the next agent is the engine's own hot path. Live agents sit in
//! one binary heap keyed `Reverse((clock, slot index))`: the top is the
//! agent furthest behind, ties on the clock go to the **lowest slot index**
//! (the order agents were added), and after a step the stepped slot is
//! sifted back into place through [`BinaryHeap::peek_mut`] (or popped when
//! it finished). Because the tie-break lives in the key, the interleaving is
//! a pure function of the agents' op streams. In debug builds [`Engine::run`]
//! checks every pick against a linear min-scan, and
//! `tests/scheduler_equivalence.rs` checks the law on randomized agent
//! mixes: the engine-order log of `(start clock, slot)` keys never
//! decreases and every agent finishes.

use crate::address::VirtAddr;
use crate::error::SimResult;
use crate::system::{AgentId, MultiGpuSystem, ProcessId};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// One operation an agent asks the machine to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A single (dependent) load, e.g. one pointer-chase step.
    Load(VirtAddr),
    /// A warp-parallel batch of loads (the covert-channel probe). The
    /// probe addresses are the ones the agent staged into the
    /// [`ProbeStage`] passed to [`Agent::next_op`]; an empty stage
    /// touches no memory and is charged one cycle (issuing an empty warp
    /// still takes a cycle — and a misbehaving agent must not be able to
    /// stall the global clock below the deadline forever).
    LoadBatch,
    /// A store.
    Store(VirtAddr, u64),
    /// Busy computation for the given cycles (dummy ops / trigonometric
    /// wait while sending a "0"). `Compute(0)` does not advance the clock;
    /// an agent must not emit it unboundedly.
    Compute(u64),
    /// The agent is finished.
    Done,
}

/// What the machine reports back for one op.
///
/// Borrows the engine's latency scratch buffer — valid only for the
/// duration of the [`Agent::on_result`] call; agents that need the
/// latencies later copy what they derive from them (a miss count, a mean),
/// which is what every attack agent does anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult<'a> {
    /// Agent-local time when the op started.
    pub started_at: u64,
    /// Cycles the op took.
    pub duration: u64,
    /// Value loaded (single loads) or 0.
    pub value: u64,
    /// Per-line latencies (one entry for `Load`/`Store`, n for
    /// `LoadBatch`, empty for `Compute`).
    pub latencies: &'a [u32],
}

/// Reusable probe-address staging buffer owned by the engine.
///
/// Handed to [`Agent::next_op`]; an agent issuing [`Op::LoadBatch`] writes
/// its probe addresses here (typically via
/// [`ProbeStage::extend_from_slice`] from a prebuilt eviction-set line
/// list). The engine clears it before every `next_op` call; capacity is
/// retained, so steady-state probing never allocates.
#[derive(Debug, Default)]
pub struct ProbeStage {
    addrs: Vec<VirtAddr>,
}

impl ProbeStage {
    /// Creates an empty stage (for driving agents manually in tests).
    pub fn new() -> Self {
        ProbeStage::default()
    }

    /// Appends one probe address.
    #[inline]
    pub fn push(&mut self, va: VirtAddr) {
        self.addrs.push(va);
    }

    /// Appends a prebuilt address list (the common eviction-set case).
    #[inline]
    pub fn extend_from_slice(&mut self, vas: &[VirtAddr]) {
        self.addrs.extend_from_slice(vas);
    }

    /// Empties the stage (the engine does this before every `next_op`).
    pub fn clear(&mut self) {
        self.addrs.clear();
    }

    /// Number of staged addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The staged addresses.
    pub fn as_slice(&self) -> &[VirtAddr] {
        &self.addrs
    }
}

/// A concurrent actor driven by the engine.
pub trait Agent {
    /// Returns the next operation. `now` is the agent's local clock. To
    /// issue a warp-parallel probe, fill `stage` (cleared by the engine
    /// beforehand) and return [`Op::LoadBatch`].
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op;

    /// Receives the result of the op previously returned. The borrowed
    /// latencies are only valid during this call.
    fn on_result(&mut self, res: &OpResult<'_>);

    /// The process this agent issues memory operations as.
    fn process(&self) -> ProcessId;

    /// Human-readable label for diagnostics.
    fn label(&self) -> &str {
        "agent"
    }
}

/// The engine's scheduler. It has one variant: the engine always runs the
/// `(clock, slot index)` heap described in the module docs.
///
/// Kept only because perfbench still calls
/// `transmit_over(.., SchedulerKind::Auto)`; it is deleted once perfbench
/// moves to `transmit` (ROADMAP item 3).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The one scheduler.
    #[default]
    Auto,
}

/// Consecutive zero-duration dispatches [`Engine::run`] tolerates before
/// declaring the simulation livelocked.
///
/// Every op except [`Op::Compute`]`(0)` advances its agent's clock (even
/// an empty [`Op::LoadBatch`] is charged one cycle), so a run can only
/// stop making progress when agents emit `Compute(0)` unboundedly. The
/// deadline cannot catch that — the clock never reaches it — so the
/// engine counts dispatches that leave the global minimum clock in place
/// and aborts with [`crate::SimError::Livelocked`] once the streak
/// exceeds this threshold. [`Op::Done`] counts as progress (it retires
/// an agent), and any clock-advancing op resets the streak. The value is
/// far above any legitimate same-cycle burst (a probe issues one op per
/// staged batch, not per line) while still tripping in well under a
/// second of wall time.
pub const LIVELOCK_THRESHOLD: u64 = 1 << 20;

struct Slot {
    agent: Box<dyn Agent>,
    agent_id: AgentId,
    clock: u64,
    done: bool,
}

/// Runs agents against a shared [`MultiGpuSystem`] in timestamp order.
pub struct Engine<'a> {
    sys: &'a mut MultiGpuSystem,
    slots: Vec<Slot>,
    /// Agent-fills-engine-scratch staging buffer for probe batches.
    stage: ProbeStage,
    /// Engine-owned latency scratch; `OpResult::latencies` borrows it.
    lat: Vec<u32>,
    /// Event queue of `Reverse((clock, slot index))` for live agents.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> Engine<'a> {
    /// Creates an engine over the system. Clears transient timing state
    /// (pressure windows, congestion) because agent clocks restart at zero.
    pub fn new(sys: &'a mut MultiGpuSystem) -> Self {
        sys.reset_timing_state();
        Engine {
            sys,
            slots: Vec::new(),
            stage: ProbeStage::default(),
            lat: Vec::with_capacity(64),
            heap: BinaryHeap::new(),
        }
    }

    /// The system being driven. Lets window-stepping callers (the
    /// [`crate::monitor`] stats-diffing loop) read cumulative stats
    /// between resumable [`Engine::run`] calls.
    pub fn system(&self) -> &MultiGpuSystem {
        self.sys
    }

    /// Mutable access to the system being driven — the detect-then-
    /// throttle response path deploys scoped QoS between windows via
    /// [`MultiGpuSystem::set_qos`] without tearing down the engine.
    pub fn system_mut(&mut self) -> &mut MultiGpuSystem {
        self.sys
    }

    /// Adds an agent starting at local time `start` (a launch offset models
    /// the two malicious processes not starting simultaneously).
    pub fn add_agent(&mut self, agent: Box<dyn Agent>, start: u64) {
        let agent_id = self.sys.new_agent();
        self.slots.push(Slot {
            agent,
            agent_id,
            clock: start,
            done: false,
        });
    }

    /// Rebuilds the heap from the live slots. Called at every
    /// [`Engine::run`] entry so agents added between runs are picked up;
    /// the heap's backing storage is retained across runs.
    fn prepare_heap(&mut self) {
        self.heap.clear();
        self.heap.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done)
                .map(|(i, s)| Reverse((s.clock, i))),
        );
    }

    /// Puts slot `i`, the heap top just stepped, back in place: one
    /// sift-down to its new clock, or a pop once it finished.
    fn reschedule(&mut self, i: usize) {
        let slot = &self.slots[i];
        let mut top = self.heap.peek_mut().expect("the stepped slot is live");
        debug_assert_eq!(top.0 .1, i, "heap top must be the slot just stepped");
        if slot.done {
            PeekMut::pop(top);
        } else {
            top.0 .0 = slot.clock;
        }
    }

    /// Runs until every agent is done or the next runnable agent's clock
    /// reaches `deadline` cycles.
    ///
    /// Returns the final *global* time: the maximum agent-local clock
    /// across all agents ever added, or `0` for an engine with no agents.
    /// Two deadline edge cases follow from that definition:
    ///
    /// - An agent added with a `start` offset at or beyond `deadline` is
    ///   never stepped (it issues no ops, and [`Engine::all_done`] stays
    ///   `false`), yet its start offset still counts as its local clock —
    ///   so the returned time can *exceed* `deadline`.
    /// - `run` may be called again with a later deadline to resume; agents
    ///   keep their clocks and completion state, and the heap is
    ///   rebuilt to include agents added in between.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error an agent's op produces, and
    /// returns [`crate::SimError::Livelocked`] when more than
    /// [`LIVELOCK_THRESHOLD`] consecutive dispatches fail to advance any
    /// clock (agents spinning on [`Op::Compute`]`(0)`), which a deadline
    /// alone can never terminate.
    pub fn run(&mut self, deadline: u64) -> SimResult<u64> {
        self.prepare_heap();
        let mut zero_streak: u64 = 0;
        while let Some(&Reverse((_, i))) = self.heap.peek() {
            #[cfg(debug_assertions)]
            {
                // Asserted stable tie-break: the pick is the lowest-index
                // live slot among those at the minimum clock.
                let best = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.done)
                    .map(|(j, s)| (s.clock, j))
                    .min();
                debug_assert_eq!(
                    best,
                    Some((self.slots[i].clock, i)),
                    "scheduler must pick the lowest-index agent at the minimum clock"
                );
            }
            if self.slots[i].clock >= deadline {
                break;
            }
            let now = self.slots[i].clock;
            self.stage.clear();
            let op = self.slots[i].agent.next_op(now, &mut self.stage);
            self.lat.clear();
            let (duration, value) = match op {
                Op::Done => {
                    self.slots[i].done = true;
                    self.reschedule(i);
                    zero_streak = 0;
                    continue;
                }
                Op::Compute(c) => (c, 0),
                Op::Load(va) => {
                    let pid = self.slots[i].agent.process();
                    let acc = self
                        .sys
                        .access(pid, self.slots[i].agent_id, va, now, None)?;
                    self.lat.push(acc.latency);
                    (u64::from(acc.latency), acc.value)
                }
                Op::Store(va, v) => {
                    let pid = self.slots[i].agent.process();
                    let acc = self
                        .sys
                        .access(pid, self.slots[i].agent_id, va, now, Some(v))?;
                    self.lat.push(acc.latency);
                    (u64::from(acc.latency), v)
                }
                Op::LoadBatch if self.stage.is_empty() => (1, 0),
                Op::LoadBatch => {
                    let pid = self.slots[i].agent.process();
                    let b = self.sys.access_batch_into(
                        pid,
                        self.slots[i].agent_id,
                        &self.stage.addrs,
                        now,
                        &mut self.lat,
                    )?;
                    (b.duration, 0)
                }
            };
            if self.sys.tracing_enabled() {
                // `Op::Done` never reaches here (its arm `continue`s).
                let code: u64 = match op {
                    Op::Compute(_) => 0,
                    Op::Load(_) => 1,
                    Op::Store(..) => 2,
                    Op::LoadBatch => 3,
                    Op::Done => unreachable!("Done short-circuits the dispatch"),
                };
                let pid = self.slots[i].agent.process();
                self.sys.trace_mut().record(
                    crate::telemetry::TraceKind::EngineOp,
                    now,
                    pid.0,
                    duration,
                    code,
                );
            }
            if duration == 0 {
                zero_streak += 1;
                if zero_streak > LIVELOCK_THRESHOLD {
                    return Err(crate::error::SimError::Livelocked { at: now });
                }
            } else {
                zero_streak = 0;
            }
            self.slots[i].clock = now + duration;
            self.reschedule(i);
            let res = OpResult {
                started_at: now,
                duration,
                value,
                latencies: &self.lat,
            };
            self.slots[i].agent.on_result(&res);
        }
        Ok(self.slots.iter().map(|s| s.clock).max().unwrap_or(0))
    }

    /// Whether every agent has finished.
    pub fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.done)
    }
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("agents", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::GpuId;
    use crate::config::SystemConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Touches a fixed list of addresses `reps` times.
    struct Toucher {
        pid: ProcessId,
        vas: Vec<VirtAddr>,
        reps: usize,
        idx: usize,
        observed: Vec<(u64, u32)>,
    }

    impl Agent for Toucher {
        fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
            if self.idx >= self.vas.len() * self.reps {
                return Op::Done;
            }
            let va = self.vas[self.idx % self.vas.len()];
            self.idx += 1;
            Op::Load(va)
        }

        fn on_result(&mut self, res: &OpResult<'_>) {
            self.observed.push((res.started_at, res.latencies[0]));
        }

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    #[test]
    fn two_agents_interleave_by_time() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p0 = sys.create_process(GpuId::new(0));
        let p1 = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(p1, GpuId::new(0)).unwrap();
        let b0 = sys.malloc_on(p0, GpuId::new(0), 4096).unwrap();
        let b1 = sys.malloc_on(p1, GpuId::new(0), 4096).unwrap();

        let a0 = Toucher {
            pid: p0,
            vas: vec![b0],
            reps: 50,
            idx: 0,
            observed: vec![],
        };
        let a1 = Toucher {
            pid: p1,
            vas: vec![b1],
            reps: 50,
            idx: 0,
            observed: vec![],
        };
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(a0), 0);
        eng.add_agent(Box::new(a1), 0);
        let end = eng.run(u64::MAX).unwrap();
        assert!(eng.all_done());
        assert!(end > 0);
    }

    #[test]
    fn deadline_stops_infinite_agent() {
        struct Forever(ProcessId, VirtAddr);
        impl Agent for Forever {
            fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
                Op::Load(self.1)
            }
            fn on_result(&mut self, _res: &OpResult<'_>) {}
            fn process(&self) -> ProcessId {
                self.0
            }
        }
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let b = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(Forever(p, b)), 0);
        let end = eng.run(100_000).unwrap();
        assert!(end >= 100_000);
        assert!(!eng.all_done());
    }

    #[test]
    fn compute_advances_without_memory_traffic() {
        struct Compute(ProcessId, bool);
        impl Agent for Compute {
            fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
                if self.1 {
                    Op::Done
                } else {
                    self.1 = true;
                    Op::Compute(1234)
                }
            }
            fn on_result(&mut self, res: &OpResult<'_>) {
                assert_eq!(res.duration, 1234);
                assert!(res.latencies.is_empty());
            }
            fn process(&self) -> ProcessId {
                self.0
            }
        }
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(Compute(p, false)), 10);
        let end = eng.run(u64::MAX).unwrap();
        assert_eq!(end, 10 + 1234);
        assert_eq!(sys.stats().total().issued_accesses, 0);
    }

    #[test]
    fn start_offsets_are_respected() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let b = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let a = Toucher {
            pid: p,
            vas: vec![b],
            reps: 1,
            idx: 0,
            observed: vec![],
        };
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(a), 5_000);
        let end = eng.run(u64::MAX).unwrap();
        assert!(end >= 5_000);
    }

    /// Probes a fixed line list via the staging buffer `reps` times and
    /// records per-probe latency counts into a shared log.
    struct StagedProber {
        pid: ProcessId,
        lines: Vec<VirtAddr>,
        reps: usize,
        issued: usize,
        lat_counts: Rc<RefCell<Vec<usize>>>,
    }

    impl Agent for StagedProber {
        fn next_op(&mut self, _now: u64, stage: &mut ProbeStage) -> Op {
            if self.issued >= self.reps {
                return Op::Done;
            }
            self.issued += 1;
            stage.extend_from_slice(&self.lines);
            Op::LoadBatch
        }

        fn on_result(&mut self, res: &OpResult<'_>) {
            self.lat_counts.borrow_mut().push(res.latencies.len());
        }

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    #[test]
    fn staged_batch_returns_one_latency_per_line() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let buf = sys.malloc_on(p, GpuId::new(0), 64 * 1024).unwrap();
        let lines: Vec<VirtAddr> = (0..16).map(|i| buf.offset(i * 128)).collect();
        let counts = Rc::new(RefCell::new(Vec::new()));
        let a = StagedProber {
            pid: p,
            lines,
            reps: 5,
            issued: 0,
            lat_counts: Rc::clone(&counts),
        };
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(a), 0);
        eng.run(u64::MAX).unwrap();
        assert_eq!(&*counts.borrow(), &[16, 16, 16, 16, 16]);
        assert_eq!(sys.stats().total().issued_accesses, 80);
    }

    #[test]
    fn empty_engine_returns_zero() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let mut eng = Engine::new(&mut sys);
        assert_eq!(eng.run(u64::MAX).unwrap(), 0);
        assert!(eng.all_done(), "vacuously done with no agents");
    }

    #[test]
    fn agents_starting_past_deadline_never_step() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let b = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let a = Toucher {
            pid: p,
            vas: vec![b],
            reps: 3,
            idx: 0,
            observed: vec![],
        };
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(a), 5_000);
        // Deadline below the launch offset: the agent issues nothing, yet
        // its start offset is still the final global time.
        let end = eng.run(1_000).unwrap();
        assert_eq!(end, 5_000);
        assert!(!eng.all_done());
        // Resuming with a later deadline completes it.
        let end = eng.run(u64::MAX).unwrap();
        assert!(eng.all_done());
        assert!(end > 5_000);
        assert_eq!(sys.stats().total().issued_accesses, 3);
    }

    #[test]
    fn empty_batches_cannot_stall_the_deadline() {
        // An agent that stages nothing forever: each empty probe is
        // charged one cycle, so the deadline still terminates the run.
        struct EmptyProber(ProcessId);
        impl Agent for EmptyProber {
            fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
                Op::LoadBatch
            }
            fn on_result(&mut self, res: &OpResult<'_>) {
                assert_eq!(res.duration, 1);
                assert!(res.latencies.is_empty());
            }
            fn process(&self) -> ProcessId {
                self.0
            }
        }
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(EmptyProber(p)), 0);
        let end = eng.run(1_000).unwrap();
        assert_eq!(end, 1_000);
        assert_eq!(sys.stats().total().issued_accesses, 0);
    }

    #[test]
    fn zero_deadline_steps_nothing() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let b = sys.malloc_on(p, GpuId::new(0), 4096).unwrap();
        let a = Toucher {
            pid: p,
            vas: vec![b],
            reps: 1,
            idx: 0,
            observed: vec![],
        };
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(a), 0);
        assert_eq!(eng.run(0).unwrap(), 0);
        assert_eq!(sys.stats().total().issued_accesses, 0);
    }

    /// Appends `(tag, now)` to a shared log on every op — captures the
    /// engine's interleaving order for tie-break/equivalence checks.
    struct LoggedCompute {
        pid: ProcessId,
        tag: usize,
        remaining: usize,
        step: u64,
        log: Rc<RefCell<Vec<(usize, u64)>>>,
    }

    impl Agent for LoggedCompute {
        fn next_op(&mut self, now: u64, _stage: &mut ProbeStage) -> Op {
            if self.remaining == 0 {
                return Op::Done;
            }
            self.remaining -= 1;
            self.log.borrow_mut().push((self.tag, now));
            Op::Compute(self.step)
        }

        fn on_result(&mut self, _res: &OpResult<'_>) {}

        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    #[test]
    fn equal_clocks_break_ties_by_slot_index() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new(&mut sys);
        for tag in 0..3 {
            eng.add_agent(
                Box::new(LoggedCompute {
                    pid: p,
                    tag,
                    remaining: 2,
                    step: 100,
                    log: Rc::clone(&log),
                }),
                0,
            );
        }
        eng.run(u64::MAX).unwrap();
        // All agents share every clock value; order must be slot order
        // within each time step.
        assert_eq!(
            &*log.borrow(),
            &[(0, 0), (1, 0), (2, 0), (0, 100), (1, 100), (2, 100)]
        );
    }

    #[test]
    fn livelocked_compute_zero_spinner_trips_the_watchdog() {
        // An agent that only ever emits `Compute(0)` never advances its
        // clock, so no deadline can end the run — the watchdog must.
        struct Spinner(ProcessId);
        impl Agent for Spinner {
            fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
                Op::Compute(0)
            }
            fn on_result(&mut self, _res: &OpResult<'_>) {}
            fn process(&self) -> ProcessId {
                self.0
            }
        }
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(Box::new(Spinner(p)), 7);
        let err = eng.run(u64::MAX).unwrap_err();
        assert_eq!(err, crate::error::SimError::Livelocked { at: 7 });
    }

    #[test]
    fn bounded_zero_duration_bursts_do_not_trip_the_watchdog() {
        // Long—but finite—same-cycle bursts are legitimate (an agent
        // polling its local clock before a timed wait); only an unbounded
        // streak is a livelock. Interleaving a clock-advancing op resets
        // the streak, so this run must complete.
        struct Burster {
            pid: ProcessId,
            rounds: usize,
        }
        impl Agent for Burster {
            fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
                if self.rounds == 0 {
                    return Op::Done;
                }
                self.rounds -= 1;
                // Three zero-cost polls, then one advancing cycle.
                if self.rounds.is_multiple_of(4) {
                    Op::Compute(1)
                } else {
                    Op::Compute(0)
                }
            }
            fn on_result(&mut self, _res: &OpResult<'_>) {}
            fn process(&self) -> ProcessId {
                self.pid
            }
        }
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let p = sys.create_process(GpuId::new(0));
        let mut eng = Engine::new(&mut sys);
        eng.add_agent(
            Box::new(Burster {
                pid: p,
                rounds: 4_000,
            }),
            0,
        );
        eng.run(u64::MAX).unwrap();
        assert!(eng.all_done());
    }
}
