//! Property test of the engine's scheduling law: every step runs the live
//! agent with the smallest `(clock, slot index)` key.
//!
//! Each agent logs the `(started_at, tag)` key of every op it is handed,
//! in engine order. An agent's key only grows as it steps, so the law
//! holds exactly when that log never decreases and every agent finishes:
//! a pick above the minimum would leave a smaller key to be logged later.
//! Equal-clock tie-breaks are exercised explicitly: agents share start
//! offsets from a tiny range and scripts include zero-duration `Compute`
//! ops, which keep an agent's clock equal to its neighbours' across
//! several steps. The default noisy timing makes latencies, and so the
//! clocks, depend on the order of every earlier access.

use gpubox_sim::{
    Agent, Engine, GpuId, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessId, SystemConfig,
    VirtAddr,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One scripted step: `(op kind, line selector, duration selector)`.
type ScriptStep = (u8, u8, u8);

/// The engine-order log of `(started_at, agent tag)` keys shared by all
/// agents of one run.
type SharedLog = Rc<RefCell<Vec<(u64, usize)>>>;

/// Replays a fixed op script and logs every result's key into the shared,
/// engine-order log.
struct ScriptedAgent {
    tag: usize,
    pid: ProcessId,
    lines: Vec<VirtAddr>,
    script: Vec<ScriptStep>,
    idx: usize,
    log: SharedLog,
}

impl Agent for ScriptedAgent {
    fn next_op(&mut self, _now: u64, stage: &mut ProbeStage) -> Op {
        let Some(&(kind, line, dur)) = self.script.get(self.idx) else {
            return Op::Done;
        };
        self.idx += 1;
        let va = self.lines[line as usize % self.lines.len()];
        match kind % 4 {
            0 => Op::Load(va),
            1 => Op::Store(va, u64::from(dur)),
            // Includes Compute(0): the clock does not advance, forcing
            // repeated equal-clock picks.
            2 => Op::Compute(u64::from(dur) % 40),
            _ => {
                let n = (line as usize % self.lines.len()) + 1;
                stage.extend_from_slice(&self.lines[..n]);
                Op::LoadBatch
            }
        }
    }

    fn on_result(&mut self, res: &OpResult<'_>) {
        self.log.borrow_mut().push((res.started_at, self.tag));
    }

    fn process(&self) -> ProcessId {
        self.pid
    }
}

/// A randomized scenario: per-agent launch offset and op script.
#[derive(Debug, Clone)]
struct Scenario {
    agents: Vec<(u64, Vec<ScriptStep>)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // Start offsets from a tiny range so several agents collide exactly.
    let agent = (
        0u64..4,
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
    );
    prop::collection::vec(agent, 2..10).prop_map(|agents| Scenario { agents })
}

/// Runs the scenario on a fresh system and returns the engine-order key
/// log; asserts every agent finished.
fn run_scenario(sc: &Scenario) -> Vec<(u64, usize)> {
    let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
    let p0 = sys.create_process(GpuId::new(0));
    let p1 = sys.create_process(GpuId::new(1));
    sys.enable_peer_access(p1, GpuId::new(0)).unwrap();

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut plans = Vec::new();
    for (tag, (start, script)) in sc.agents.iter().enumerate() {
        let pid = if tag % 2 == 0 { p0 } else { p1 };
        let buf = sys.malloc_on(pid, GpuId::new(0), 8 * 4096).unwrap();
        let lines: Vec<VirtAddr> = (0..8).map(|i| buf.offset(i * 4096)).collect();
        plans.push((tag, pid, lines, *start, script.clone()));
    }

    let mut eng = Engine::new(&mut sys);
    for (tag, pid, lines, start, script) in plans {
        eng.add_agent(
            Box::new(ScriptedAgent {
                tag,
                pid,
                lines,
                script,
                idx: 0,
                log: Rc::clone(&log),
            }),
            start,
        );
    }
    eng.run(u64::MAX).unwrap();
    assert!(eng.all_done(), "every agent must finish");
    drop(eng);
    log.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_steps_the_minimum_clock_slot_key(sc in scenario_strategy()) {
        let log = run_scenario(&sc);
        let total: usize = sc.agents.iter().map(|(_, script)| script.len()).sum();
        prop_assert_eq!(log.len(), total, "every scripted op must run");
        for (k, w) in log.windows(2).enumerate() {
            prop_assert!(w[0] <= w[1], "pick {} key {:?} after {:?}", k + 1, w[1], w[0]);
        }
    }
}
