//! What every workload provides, and helpers they share.

use gpubox_sim::{MultiGpuSystem, ProcessId, SystemStats, VirtAddr};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

/// Named simulated outputs. Values are exact for a fixed seed; the
/// runner compares them bit for bit across repetitions.
pub type Counts = Vec<(&'static str, f64)>;

/// Result of one measured unit.
#[derive(Debug, Clone)]
pub struct UnitOut {
    /// Operations the unit attempted.
    pub ops: u64,
    /// Operations that failed their correctness gate.
    pub failed: u64,
    /// Every simulated output of the unit. Names that are per-layer
    /// metrics are reported as such; the rest only guard determinism.
    pub counts: Counts,
}

impl UnitOut {
    /// The value of count `name`, if the unit reported it.
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Failed output checks, collected instead of panicking so the run can
/// still report what it measured.
#[derive(Debug, Default)]
pub struct Check {
    failures: Vec<String>,
}

impl Check {
    /// Records `what` as failed unless `ok`.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok && !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One benchmark workload: a set-up and a unit of work repeated on it.
pub trait Workload {
    /// What set-up builds and a unit runs on.
    type State;

    /// Whether a run starts with an unmeasured warm-up repetition. A
    /// workload whose unit takes seconds amortises its cold start inside
    /// the unit and measures its first repetition instead.
    const WARM_UP: bool = true;

    /// Builds the state one unit runs on; timed as `setup_s`.
    fn setup(&self, t: &mut Tracer) -> Self::State;

    /// One unit of measured work. Every unit of a run starts from an
    /// identical state and must produce identical counts.
    fn unit(&self, st: &mut Self::State, t: &mut Tracer, check: &mut Check) -> UnitOut;

    /// Extra per-layer measurements on the last state of a traced run.
    fn probe(&self, st: &mut Self::State, t: &mut Tracer, check: &mut Check) -> Counts;
}

/// Canonical phase the access-latency probes start from.
const PROBE_TAG: u64 = 0xBE0C_0000_0000_0003;

/// `bits` payload bits derived from `seed`: half of them ones, in a
/// seeded random order. A trojan works harder on a one than on a zero,
/// so a fixed count of ones keeps the work per unit the same for every
/// seed while the payload itself changes.
pub fn seeded_bits(seed: u64, bits: usize) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB175);
    let mut payload: Vec<u8> = (0..bits).map(|i| u8::from(i < bits / 2)).collect();
    payload.shuffle(&mut rng);
    payload
}

/// System counters under the per-layer metric names, plus a digest of
/// every other counter.
pub fn sim_counts(stats: &SystemStats) -> Counts {
    let m = stats.metric_set();
    let hits = m.counter("gpu.l2_hits") as f64;
    let misses = m.counter("gpu.l2_misses") as f64;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for (name, v) in m.counters() {
        for b in name.bytes().chain(v.to_le_bytes()) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    vec![
        (
            "sim.issued_accesses",
            m.counter("gpu.issued_accesses") as f64,
        ),
        ("sim.l2_hits", hits),
        ("sim.l2_misses", misses),
        ("sim.l2_hit_ratio", hits / (hits + misses).max(1.0)),
        ("fabric.requests", m.counter("link.requests") as f64),
        ("fabric.link_bytes", m.counter("link.bytes") as f64),
        ("fabric.busy_cycles", m.counter("link.busy_cycles") as f64),
        ("fabric.queue_cycles", m.counter("link.queue_cycles") as f64),
        // Keeps 53 bits so the digest survives the f64 round trip.
        ("sim.stats_digest", (digest >> 11) as f64),
    ]
}

/// Host nanoseconds per `MultiGpuSystem::access` over a fixed loop of
/// `n` accesses that cycle through 64 consecutive lines at `base`, one
/// every 1,000 simulated cycles, from a canonical phase boundary.
pub fn access_loop(
    sys: &mut MultiGpuSystem,
    pid: ProcessId,
    base: VirtAddr,
    n: u64,
    t: &mut Tracer,
) -> f64 {
    let agent = sys.default_agent(pid);
    let line = sys.config().cache.line_size;
    sys.canonicalize_phase(PROBE_TAG);
    let (sum, ns) = t.span_timed("sim.access_probe", |_| {
        let mut sum = 0u64;
        for i in 0..n {
            let va = base.offset((i % 64) * line);
            let a = sys
                .access(pid, agent, va, i * 1_000, None)
                .expect("probe access");
            sum = sum.wrapping_add(u64::from(a.latency));
        }
        sum
    });
    std::hint::black_box(sum);
    ns as f64 / n as f64
}
