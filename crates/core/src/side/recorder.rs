//! Memorygram capture: the spy's probe sweeps over monitored cache sets.

use crate::eviction::EvictionSet;
use crate::thresholds::Thresholds;
use gpubox_classify::Memorygram;
use gpubox_sim::{
    Agent, Engine, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessId, SimResult, VirtAddr,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Recorder settings.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Cycles to record for (the spy decides how long to watch).
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
}

impl Agent for RecorderAgent {
    fn next_op(&mut self, now: u64, stage: &mut ProbeStage) -> Op {
        if now >= self.cfg.duration {
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
/// with the remote thresholds, and appends one row per full sweep.
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
    let gram = Rc::new(RefCell::new(Memorygram::new(sets.len())));
    let agent = RecorderAgent {
        pid: spy_pid,
        sets: sets.iter().map(|s| s.lines().to_vec()).collect(),
        thresholds,
        cfg: cfg.clone(),
        cur_set: 0,
        row: Vec::with_capacity(sets.len()),
        gram: Rc::clone(&gram),
        gap_next: false,
    };
    let mut eng = Engine::new(sys);
    eng.add_agent(Box::new(agent), 0);
    for v in victims {
        eng.add_agent(v, 0);
    }
    eng.run(cfg.duration)?;
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
}
