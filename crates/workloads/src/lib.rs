//! # gpubox-workloads — victim applications for the side-channel attacks
//!
//! Rust reimplementations of the six NVIDIA-toolkit workloads the paper
//! fingerprints (Sec. V-A: vectoradd, histogram, blackscholes, matrix
//! multiplication, quasirandom, Walsh transform) plus the PyTorch MLP
//! victim of Sec. V-B, rebuilt as a from-scratch training loop.
//!
//! Each workload *actually computes its algorithm* over buffers allocated
//! in simulated GPU memory and describes the memory-access trace its loops
//! generate as a lazy [`Trace`]: ops are generated on demand, never
//! stored. A [`TraceAgent`] pulls them inside the discrete-event engine
//! so the spy observes genuine L2 contention patterns.
//!
//! ```
//! use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};
//! use gpubox_workloads::{TraceAgent, VectorAdd, Workload};
//!
//! # fn main() -> Result<(), gpubox_sim::SimError> {
//! let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
//! let pid = sys.create_process(GpuId::new(0));
//! let trace = {
//!     let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
//!     VectorAdd::new(1024).build(&mut ctx)?
//! };
//! assert_eq!(trace.ops().count(), 4 * 1024);
//! let _agent = TraceAgent::new(pid, &trace);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blackscholes;
pub mod data;
pub mod histogram;
pub mod matmul;
pub mod mlp;
pub mod quasirandom;
pub mod trace;
pub mod vectoradd;
pub mod walsh;

pub use blackscholes::BlackScholes;
pub use histogram::Histogram;
pub use matmul::MatMul;
pub use mlp::{MlpConfig, MlpTraining};
pub use quasirandom::QuasiRandom;
pub use trace::{agent_for, Ops, Trace, TraceAgent, TraceOp};
pub use vectoradd::VectorAdd;
pub use walsh::WalshTransform;

use gpubox_sim::{ProcessCtx, SimResult};

/// A victim application: allocates its buffers and produces the memory
/// trace of one run.
pub trait Workload {
    /// Short identifier (the paper's class labels: "VA", "HG", ...).
    fn name(&self) -> &'static str;

    /// Allocates device buffers on the process's home GPU and returns the
    /// access trace of one complete run. Allocation happens here, in a
    /// fixed order, because frame placement follows allocation order; the
    /// ops themselves are generated lazily by each [`Trace::ops`] pass.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace>;
}

/// The paper's six fingerprinting victims, in Fig. 12 label order:
/// BS, HG, MM, QR, VA, WT.
pub fn standard_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(BlackScholes::default()),
        Box::new(Histogram::default()),
        Box::new(MatMul::default()),
        Box::new(QuasiRandom::default()),
        Box::new(VectorAdd::default()),
        Box::new(WalshTransform::default()),
    ]
}

/// Labels of [`standard_suite`] in order.
pub fn standard_labels() -> Vec<String> {
    vec![
        "BS".into(),
        "HG".into(),
        "MM".into(),
        "QR".into(),
        "VA".into(),
        "WT".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn standard_suite_has_six_distinct_names() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 6);
        let names: std::collections::HashSet<_> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(standard_labels().len(), 6);
    }

    #[test]
    fn every_workload_builds_a_nonempty_trace() {
        for w in standard_suite() {
            let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
            let pid = sys.create_process(GpuId::new(0));
            let mut ctx = gpubox_sim::ProcessCtx::new(&mut sys, pid, 0);
            let trace = w.build(&mut ctx).unwrap();
            let len = trace.ops().count();
            assert!(len > 1000, "{} trace too short: {len}", w.name());
            let loads = trace
                .ops()
                .filter(|op| matches!(op, TraceOp::Load(_)))
                .count();
            assert!(loads > 0, "{} must load memory", w.name());
        }
    }
}
