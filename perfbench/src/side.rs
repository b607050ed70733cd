//! `side_fingerprint`: a spy on GPU1 sweeps 256 of GPU0's L2 sets while
//! each of the six victim applications runs, and a classifier trained on
//! the memorygrams identifies the applications.

use gpubox_attacks::side::{record_memorygram, FingerprintDataset, RecorderConfig};
use gpubox_attacks::timing_re::measure_timing;
use gpubox_attacks::{classify_pages_fast, Locality, ScanConfig};
use gpubox_bench::setup::victim_with_duration;
use gpubox_bench::{SideChannelSetup, ATTACK_BUFFER_BYTES};
use gpubox_classify::Memorygram;
use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};
use gpubox_workloads::{
    BlackScholes, Histogram, MatMul, QuasiRandom, VectorAdd, WalshTransform, Workload as Victim,
};

use crate::trace::Tracer;
use crate::workload::{access_loop, sim_counts, Check, Counts, UnitOut, Workload};

/// Victim applications (the paper's six classes).
const CLASSES: usize = 6;
/// Canonical phase the modelled L2s are reset to after set-up.
const SETUP_TAG: u64 = 0xBE0C_0000_0000_0011;
/// Share of a unit's memorygrams the fitted classifier must identify.
/// A working pipeline misidentifies at most one in twelve (seed 2009 of
/// 20 seeds tried); a broken capture or classifier falls towards chance,
/// one in six.
const IDENTIFY_GATE: f64 = 0.8;

/// The side-channel workload.
#[derive(Debug)]
pub struct SideFingerprint {
    /// Workload seed: system seed, victim inputs and data split.
    pub seed: u64,
    /// Memorygrams captured per victim class in one unit.
    pub per_class: usize,
    /// Monitored L2 sets (256 in the repository's Fig. 12 experiment).
    pub sets: usize,
}

fn victim(class: usize, seed: u64) -> Box<dyn Victim> {
    match class {
        0 => Box::new(BlackScholes::default().with_seed(seed)),
        1 => Box::new(Histogram::default().with_seed(seed)),
        2 => Box::new(MatMul::default().with_seed(seed)),
        3 => Box::new(QuasiRandom::default()),
        4 => Box::new(VectorAdd::default().with_seed(seed)),
        _ => Box::new(WalshTransform::default().with_seed(seed)),
    }
}

impl SideFingerprint {
    fn config(&self) -> SystemConfig {
        SystemConfig::dgx1().with_seed(self.seed)
    }

    fn capture(
        &self,
        st: &mut SideChannelSetup,
        class: usize,
        sample: usize,
        t: &mut Tracer,
    ) -> Memorygram {
        let victim_seed = self
            .seed
            .wrapping_mul(31)
            .wrapping_add((sample * CLASSES + class) as u64);
        let pid = st.sys.create_process(GpuId::new(0));
        let w = victim(class, victim_seed);
        let (agent, duration) = t.span("workloads.build", |_| {
            victim_with_duration(&mut st.sys, pid, w.as_ref())
        });
        // Each capture starts from flushed L2s, as an attacker re-priming
        // between victims would see them.
        st.sys.flush_l2(GpuId::new(0));
        t.span("side.record", |_| {
            record_memorygram(
                &mut st.sys,
                st.spy,
                &st.monitored,
                st.thresholds,
                &RecorderConfig {
                    duration,
                    sweep_gap: 0,
                },
                vec![Box::new(agent)],
            )
            .expect("memorygram capture")
        })
    }
}

impl Workload for SideFingerprint {
    type State = SideChannelSetup;

    /// A unit takes seconds; a warm-up would add a fifth to every run.
    const WARM_UP: bool = false;

    /// `SideChannelSetup::prepare`'s cache-miss path, call by call: the
    /// repository's entry point memoises page classes process-wide, and
    /// every repetition here must derive them cold.
    fn setup(&self, t: &mut Tracer) -> SideChannelSetup {
        let (spy_gpu, target) = (GpuId::new(1), GpuId::new(0));
        let mut sys = MultiGpuSystem::new(self.config());
        let thresholds = t.span("timing_re", |_| {
            measure_timing(&mut sys, spy_gpu, target, 48).expect("timing reverse engineering")
        });
        let thresholds = thresholds.thresholds;
        let spy = sys.create_process(spy_gpu);
        sys.enable_peer_access(spy, target).expect("peer access");
        let (page, line) = (sys.config().page_size, sys.config().cache.line_size);
        let ways = sys.config().cache.ways as usize;
        let buf = sys
            .malloc_on(spy, target, ATTACK_BUFFER_BYTES)
            .expect("spy buffer");
        let issued_before = sys.stats().total().issued_accesses;
        let classes = t.span("eviction", |_| {
            let mut ctx = ProcessCtx::new(&mut sys, spy, 0);
            classify_pages_fast(
                &mut ctx,
                buf,
                ATTACK_BUFFER_BYTES,
                page,
                line,
                ways,
                &thresholds,
                Locality::Remote,
                &ScanConfig::classify_default(),
            )
            .expect("spy page classification")
        });
        t.count(
            "eviction.sim_accesses",
            (sys.stats().total().issued_accesses - issued_before) as f64,
        );
        sys.canonicalize_phase(SETUP_TAG);
        let monitored = classes.enumerate_sets(self.sets, ways);
        assert_eq!(monitored.len(), self.sets, "buffer too small");
        SideChannelSetup {
            sys,
            spy,
            monitored,
            thresholds,
        }
    }

    /// The unit's counts are the system's since set-up ended, which is
    /// why every unit runs on a fresh set-up.
    fn unit(&self, st: &mut SideChannelSetup, t: &mut Tracer, _check: &mut Check) -> UnitOut {
        let mut ds = FingerprintDataset::new(gpubox_workloads::standard_labels());
        for sample in 0..self.per_class {
            for class in 0..CLASSES {
                let gram = self.capture(st, class, sample, t);
                ds.push(gram, class);
            }
        }
        // Held-out accuracy is an output, like a channel's bit errors: one
        // training memorygram per class generalises imperfectly. The gate
        // is that a classifier trained on all of the unit's memorygrams
        // identifies nearly all of them, which a broken capture or
        // classifier fails; like bit errors inside the channels' BER gate,
        // the few it misidentifies are an output.
        let (held_out, fitted) = t.span("classify.train", |_| {
            (
                ds.train_and_evaluate(0.5, 0.1, self.seed),
                ds.train_and_evaluate(1.0, 0.0, self.seed),
            )
        });
        let misidentified = t.span("classify.identify", |_| {
            ds.samples
                .iter()
                .filter(|(g, y)| fitted.identify(g) != ds.labels[*y])
                .count()
        });
        let sweeps: usize = ds.samples.iter().map(|(g, _)| g.num_sweeps()).sum();
        let cells: u64 = ds
            .samples
            .iter()
            .map(|(g, _)| g.misses_per_sweep().iter().sum::<u64>())
            .sum();
        let mut counts = sim_counts(st.sys.stats());
        counts.extend([
            ("side.sweeps", sweeps as f64),
            ("side.observed_misses", cells as f64),
            ("classify.test_accuracy", held_out.test_accuracy),
            ("side.misidentified", misidentified as f64),
        ]);
        let grams = ds.len() as u64;
        let identified = (grams - misidentified as u64) as f64 / grams as f64;
        UnitOut {
            ops: grams,
            failed: if identified >= IDENTIFY_GATE {
                0
            } else {
                grams
            },
            counts,
        }
    }

    fn probe(&self, st: &mut SideChannelSetup, t: &mut Tracer, check: &mut Check) -> Counts {
        let real = SideChannelSetup::prepare(self.seed, self.sets);
        check.require(
            real.thresholds == st.thresholds && real.monitored == st.monitored,
            "traced set-up derives the same thresholds and monitored sets as SideChannelSetup::prepare",
        );
        let local_pid = st.sys.create_process(GpuId::new(0));
        let local_buf = st
            .sys
            .malloc_on(local_pid, GpuId::new(0), 2 * st.sys.config().page_size)
            .expect("local probe buffer");
        let remote_buf = st
            .monitored
            .iter()
            .flat_map(|es| es.lines())
            .copied()
            .min_by_key(|va| va.raw())
            .expect("monitored sets are not empty");
        let local = access_loop(&mut st.sys, local_pid, local_buf, 200_000, t);
        let remote = access_loop(&mut st.sys, st.spy, remote_buf, 200_000, t);
        vec![
            ("sim.access_ns_local", local),
            ("sim.access_ns_remote", remote),
        ]
    }
}
