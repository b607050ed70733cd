//! Memorygram capture: the spy's probe sweeps over monitored cache sets.
//!
//! The spy does not know how long its victim runs. It sweeps until it
//! has seen no miss in any monitored set for [`IDLE_END_CYCLES`] of
//! simulated time, then stops at the next sweep boundary. The capture
//! therefore spans the victim's activity plus one idle window.
//! [`RecorderConfig::duration`] only caps a capture whose victim never
//! goes quiet (e.g. a tenant that never stops).

use crate::eviction::EvictionSet;
use crate::thresholds::Thresholds;
use gpubox_classify::Memorygram;
use gpubox_sim::{
    Agent, Engine, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessId, SimResult, VirtAddr,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Idle cycles after which the spy ends a capture: no monitored set
/// missed for this long means the victim has stopped. It must exceed
/// the longest idle phase of any modelled victim, the MLP's 6,000,000
/// cycle gap between epochs, or the capture would end mid-run.
pub const IDLE_END_CYCLES: u64 = 8_000_000;

/// Recorder settings.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// The most the spy watches (budget), in cycles. A capture normally
    /// ends earlier, [`IDLE_END_CYCLES`] after the last sweep with a miss.
    pub duration: u64,
    /// Cycles the spy idles between sweeps (0 = continuous).
    pub sweep_gap: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            duration: 50_000_000,
            sweep_gap: 0,
        }
    }
}

/// The spy agent performing round-robin Prime+Probe sweeps.
#[derive(Debug)]
struct RecorderAgent {
    pid: ProcessId,
    sets: Vec<Vec<VirtAddr>>,
    thresholds: Thresholds,
    cfg: RecorderConfig,
    cur_set: usize,
    row: Vec<u8>,
    gram: Rc<RefCell<Memorygram>>,
    gap_next: bool,
    /// End clock of the latest sweep with at least one miss (the cold
    /// first sweep always has one).
    last_active: u64,
}

impl Agent for RecorderAgent {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        if now >= self.cfg.duration
            || (self.cur_set == 0 && now >= self.last_active + IDLE_END_CYCLES)
        {
            return Op::Done;
        }
        if self.gap_next {
            self.gap_next = false;
            return Op::Compute(self.cfg.sweep_gap.max(1));
        }
        stage.extend_from_slice(&self.sets[self.cur_set]);
        Op::LoadBatch
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        if res.latencies.is_empty() {
            return;
        }
        let misses = self.thresholds.count_remote_misses(res.latencies) as u8;
        self.row.push(misses);
        self.cur_set += 1;
        if self.cur_set >= self.sets.len() {
            self.cur_set = 0;
            if self.row.iter().any(|&m| m > 0) {
                self.last_active = res.started_at + res.duration;
            }
            self.gram
                .borrow_mut()
                .push_sweep(std::mem::take(&mut self.row));
            if self.cfg.sweep_gap > 0 {
                self.gap_next = true;
            }
        }
    }

    fn process(&self) -> ProcessId {
        self.pid
    }

    fn label(&self) -> &str {
        "memorygram-recorder"
    }
}

/// Records a memorygram of `victim` (and any extra agents, e.g. noise
/// tenants) as seen through the spy's eviction sets.
///
/// The spy probes each set warp-parallel, classifies per-line latencies
/// with the remote thresholds, and appends one row per full sweep. It
/// stops at the first sweep boundary [`IDLE_END_CYCLES`] after its last
/// sweep with a miss, or when `cfg.duration` runs out.
///
/// # Errors
///
/// Propagates simulator errors from any agent.
pub fn record_memorygram(
    sys: &mut MultiGpuSystem,
    spy_pid: ProcessId,
    sets: &[EvictionSet],
    thresholds: Thresholds,
    cfg: &RecorderConfig,
    victims: Vec<Box<dyn Agent>>,
) -> SimResult<Memorygram> {
    let (agent, gram) = RecorderAgent::new(spy_pid, sets, thresholds, cfg);
    run_capture(sys, Box::new(agent), gram, cfg.duration, victims)
}

impl RecorderAgent {
    /// A recorder over `sets` and the shared memorygram it fills.
    fn new(
        pid: ProcessId,
        sets: &[EvictionSet],
        thresholds: Thresholds,
        cfg: &RecorderConfig,
    ) -> (Self, Rc<RefCell<Memorygram>>) {
        let gram = Rc::new(RefCell::new(Memorygram::new(sets.len())));
        let agent = RecorderAgent {
            pid,
            sets: sets.iter().map(|s| s.lines().to_vec()).collect(),
            thresholds,
            cfg: cfg.clone(),
            cur_set: 0,
            row: Vec::with_capacity(sets.len()),
            gram: Rc::clone(&gram),
            gap_next: false,
            last_active: 0,
        };
        (agent, gram)
    }
}

/// Runs `spy` beside `victims` until the spy stops or `budget` cycles
/// pass, then hands back the memorygram it filled.
fn run_capture(
    sys: &mut MultiGpuSystem,
    spy: Box<dyn Agent>,
    gram: Rc<RefCell<Memorygram>>,
    budget: u64,
    victims: Vec<Box<dyn Agent>>,
) -> SimResult<Memorygram> {
    let mut eng = Engine::new(sys);
    eng.add_agent(spy, 0);
    for v in victims {
        eng.add_agent(v, 0);
    }
    eng.run(budget)?;
    // Dropping the engine drops the recorder agent and its handle, so the
    // memorygram moves out without a copy.
    drop(eng);
    Ok(Rc::try_unwrap(gram)
        .expect("the engine released the recorder")
        .into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::{classify_pages, Locality, ScanConfig};
    use gpubox_sim::{GpuId, NoiseAgent, NoiseConfig, ProcessCtx, SystemConfig};

    fn spy_sets(sys: &mut MultiGpuSystem) -> (ProcessId, Vec<EvictionSet>) {
        let thr = Thresholds::paper_defaults();
        let spy = sys.create_process(GpuId::new(1));
        sys.enable_peer_access(spy, GpuId::new(0)).unwrap();
        let bytes = 96 * 4096u64;
        let classes = {
            let mut ctx = ProcessCtx::new(sys, spy, 0);
            let b = ctx.malloc_on(GpuId::new(0), bytes).unwrap();
            classify_pages(&mut ctx, b, bytes, 4096, 128, 16, &thr, Locality::Remote, &ScanConfig::classify_default()).unwrap()
        };
        let sets = classes.enumerate_sets(32, 16);
        (spy, sets)
    }

    #[test]
    fn quiet_victim_gives_quiet_memorygram() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let (spy, sets) = spy_sets(&mut sys);
        let cfg = RecorderConfig {
            duration: 3_000_000,
            sweep_gap: 0,
        };
        let gram = record_memorygram(
            &mut sys,
            spy,
            &sets,
            Thresholds::paper_defaults(),
            &cfg,
            vec![],
        )
        .unwrap();
        assert!(gram.num_sweeps() > 3);
        // After the first (cold) sweep everything hits.
        let warm_misses: u64 = gram.misses_per_sweep()[1..].iter().sum();
        assert_eq!(warm_misses, 0, "no victim, no misses after warmup");
    }

    #[test]
    fn active_victim_lights_up_the_memorygram() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let (spy, sets) = spy_sets(&mut sys);
        // Victim on GPU0 hammering its own local buffer.
        let victim_pid = sys.create_process(GpuId::new(0));
        let vbuf = sys
            .malloc_on(victim_pid, GpuId::new(0), 256 * 1024)
            .unwrap();
        let victim = NoiseAgent::new(
            victim_pid,
            vbuf,
            2048,
            128,
            NoiseConfig {
                burst_len: 64,
                idle_between_bursts: 1_000,
                seed: 3,
            },
        );
        let cfg = RecorderConfig {
            duration: 3_000_000,
            sweep_gap: 0,
        };
        let gram = record_memorygram(
            &mut sys,
            spy,
            &sets,
            Thresholds::paper_defaults(),
            &cfg,
            vec![Box::new(victim)],
        )
        .unwrap();
        let total: u64 = gram.misses_per_sweep()[1..].iter().sum();
        assert!(total > 20, "victim activity must show up, got {total}");
    }

    /// Forwards to a recorder and logs the end clock of every sweep.
    struct Clocked {
        inner: RecorderAgent,
        sweep_ends: Rc<RefCell<Vec<u64>>>,
    }

    impl Agent for Clocked {
        fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
            self.inner.next_op(now, stage)
        }
        fn on_result(&mut self, res: &OpResult<'_>) {
            self.inner.on_result(res);
            if !res.latencies.is_empty() && self.inner.cur_set == 0 {
                self.sweep_ends
                    .borrow_mut()
                    .push(res.started_at + res.duration);
            }
        }
        fn process(&self) -> ProcessId {
            self.inner.pid
        }
    }

    /// Records `victims` with a `budget`-cycle recorder; returns the
    /// memorygram and the end clock of each of its rows.
    fn capture_clocked(
        sys: &mut MultiGpuSystem,
        spy: ProcessId,
        sets: &[EvictionSet],
        budget: u64,
        victims: Vec<Box<dyn Agent>>,
    ) -> (Memorygram, Vec<u64>) {
        let cfg = RecorderConfig {
            duration: budget,
            sweep_gap: 0,
        };
        let (inner, gram) = RecorderAgent::new(spy, sets, Thresholds::paper_defaults(), &cfg);
        let sweep_ends = Rc::new(RefCell::new(Vec::new()));
        let spy_agent = Clocked {
            inner,
            sweep_ends: Rc::clone(&sweep_ends),
        };
        let gram = run_capture(sys, Box::new(spy_agent), gram, budget, victims).unwrap();
        let ends = sweep_ends.take();
        assert_eq!(ends.len(), gram.num_sweeps());
        (gram, ends)
    }

    /// A victim that replays `ops` and stops; `marks` gets the start
    /// clock of each `Compute` op and the clock at which it stops.
    struct Script {
        pid: ProcessId,
        ops: Vec<Op>,
        at: usize,
        marks: Rc<RefCell<Vec<u64>>>,
    }

    impl Agent for Script {
        fn next_op(&mut self, now: u64, _stage: &mut ProbeStage) -> Op {
            let op = self.ops.get(self.at).copied().unwrap_or(Op::Done);
            self.at += 1;
            if matches!(op, Op::Compute(_) | Op::Done) {
                self.marks.borrow_mut().push(now);
            }
            op
        }
        fn on_result(&mut self, _res: &OpResult<'_>) {}
        fn process(&self) -> ProcessId {
            self.pid
        }
    }

    /// Loads that sweep a 256 KiB GPU0-local buffer twice: every L2 set
    /// of the small test box sees 64 of them.
    fn hammer(sys: &mut MultiGpuSystem, pid: ProcessId) -> Vec<Op> {
        let buf = sys.malloc_on(pid, GpuId::new(0), 256 * 1024).unwrap();
        (0..2)
            .flat_map(|_| (0..2048u64).map(move |i| Op::Load(buf.offset(i * 128))))
            .collect()
    }

    /// Index of the first sweep that starts at or after `clock` (sweep
    /// `i` starts when sweep `i - 1` ends).
    fn first_sweep_from(ends: &[u64], clock: u64) -> usize {
        1 + ends.partition_point(|&e| e < clock)
    }

    #[test]
    fn capture_ends_one_idle_window_after_the_victim_stops() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let (spy, sets) = spy_sets(&mut sys);
        let victim = sys.create_process(GpuId::new(0));
        let marks = Rc::new(RefCell::new(Vec::new()));
        let script = Script {
            pid: victim,
            ops: hammer(&mut sys, victim),
            at: 0,
            marks: Rc::clone(&marks),
        };
        let budget = 8 * IDLE_END_CYCLES;
        let (gram, ends) = capture_clocked(&mut sys, spy, &sets, budget, vec![Box::new(script)]);
        let victim_end = marks.borrow()[0];
        let rows = gram.misses_per_sweep();
        let last_active = rows.iter().rposition(|&m| m > 0).unwrap();
        assert!(last_active > 1, "the victim must show after the cold sweep");
        // The first sweep after the victim stops may still find its last
        // evictions; every later one reads zero.
        let quiet_from = first_sweep_from(&ends, victim_end) + 1;
        assert!(quiet_from > last_active, "misses after the victim stopped");
        // The spy stops at the first sweep boundary a whole idle window
        // after its last active sweep, far short of the budget.
        let n = ends.len();
        let idle_end = ends[last_active] + IDLE_END_CYCLES;
        assert!(
            ends[n - 2] < idle_end && idle_end <= ends[n - 1],
            "stopped late or early"
        );
        assert!(
            ends[n - 1] < budget / 4,
            "ended at {} of {budget}",
            ends[n - 1]
        );
    }

    #[test]
    fn a_gap_shorter_than_the_idle_window_does_not_end_the_capture() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let (spy, sets) = spy_sets(&mut sys);
        let victim = sys.create_process(GpuId::new(0));
        let gap = IDLE_END_CYCLES * 3 / 4;
        let mut ops = hammer(&mut sys, victim);
        let second = ops.clone();
        ops.push(Op::Compute(gap));
        ops.extend(second);
        let marks = Rc::new(RefCell::new(Vec::new()));
        let script = Script {
            pid: victim,
            ops,
            at: 0,
            marks: Rc::clone(&marks),
        };
        let (gram, ends) = capture_clocked(
            &mut sys,
            spy,
            &sets,
            8 * IDLE_END_CYCLES,
            vec![Box::new(script)],
        );
        let (gap_start, victim_end) = (marks.borrow()[0], marks.borrow()[1]);
        let rows = gram.misses_per_sweep();
        // Recorded through the gap: the sweeps inside it, after the one
        // that finds the first burst's last evictions, read zero ...
        let in_gap =
            first_sweep_from(&ends, gap_start) + 1..first_sweep_from(&ends, gap_start + gap) - 1;
        assert!(in_gap.len() > 10, "gap spans {} sweeps", in_gap.len());
        assert!(rows[in_gap.clone()].iter().all(|&m| m == 0));
        // ... and after it the second burst shows up.
        let after: u64 = rows[in_gap.end + 1..].iter().sum();
        assert!(after > 20, "second burst missing: {after} misses");
        assert!(*ends.last().unwrap() >= victim_end + IDLE_END_CYCLES);
    }

    #[test]
    fn a_victim_that_never_idles_runs_to_the_budget() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test().noiseless());
        let (spy, sets) = spy_sets(&mut sys);
        let victim_pid = sys.create_process(GpuId::new(0));
        let vbuf = sys
            .malloc_on(victim_pid, GpuId::new(0), 256 * 1024)
            .unwrap();
        let noise = NoiseAgent::new(
            victim_pid,
            vbuf,
            2048,
            128,
            NoiseConfig {
                burst_len: 64,
                idle_between_bursts: 1_000,
                seed: 3,
            },
        );
        let budget = IDLE_END_CYCLES + IDLE_END_CYCLES / 2;
        let (_, ends) = capture_clocked(&mut sys, spy, &sets, budget, vec![Box::new(noise)]);
        let longest = ends.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        let last = *ends.last().unwrap();
        assert!(
            last <= budget && budget - last < longest,
            "ended at {last} of {budget}"
        );
    }
}
