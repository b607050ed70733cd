//! `vectorAdd` — the CUDA toolkit's hello-world: `c[i] = a[i] + b[i]`.
//!
//! Its memorygram signature is three long streaming bands touching each
//! line exactly once.

use crate::data::uniform_vec;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use std::rc::Rc;

/// Streaming vector addition over `n` elements.
#[derive(Debug, Clone)]
pub struct VectorAdd {
    n: usize,
    seed: u64,
}

impl VectorAdd {
    /// Creates a run over `n` elements.
    pub fn new(n: usize) -> Self {
        VectorAdd { n, seed: 11 }
    }

    /// Sets the data seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for VectorAdd {
    fn default() -> Self {
        VectorAdd::new(48 * 1024)
    }
}

impl Workload for VectorAdd {
    fn name(&self) -> &'static str {
        "VA"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let bytes = (self.n * 8) as u64;
        let home = ctx.home();
        let a_buf = ctx.malloc_on(home, bytes)?;
        let b_buf = ctx.malloc_on(home, bytes)?;
        let c_buf = ctx.malloc_on(home, bytes)?;
        let a = uniform_vec(self.n, -1.0, 1.0, self.seed);
        let b = uniform_vec(self.n, -1.0, 1.0, self.seed + 1);
        // Host→device initialisation (DMA, not timed).
        ctx.write_words(a_buf, &a.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;
        ctx.write_words(b_buf, &b.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;

        // The sums are computed once; every pass streams them.
        let c: Rc<[u64]> = a.iter().zip(&b).map(|(x, y)| (x + y).to_bits()).collect();
        Ok(Trace::new(move || {
            let c = Rc::clone(&c);
            (0..c.len() as u64).flat_map(move |i| {
                [
                    TraceOp::load(a_buf, i),
                    TraceOp::load(b_buf, i),
                    TraceOp::store(c_buf, i, c[i as usize]),
                    TraceOp::Compute(2),
                ]
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn trace_has_two_loads_one_store_per_element() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = VectorAdd::new(256).build(&mut ctx).unwrap();
        let loads = trace
            .ops()
            .filter(|o| matches!(o, TraceOp::Load(_)))
            .count();
        let stores = trace
            .ops()
            .filter(|o| matches!(o, TraceOp::Store(..)))
            .count();
        assert_eq!(loads, 512);
        assert_eq!(stores, 256);
    }

    #[test]
    fn stored_values_are_the_real_sums() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let w = VectorAdd::new(64).with_seed(5);
        let trace = {
            let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
            w.build(&mut ctx).unwrap()
        };
        let a = uniform_vec(64, -1.0, 1.0, 5);
        let b = uniform_vec(64, -1.0, 1.0, 6);
        let mut idx = 0usize;
        for op in trace.ops() {
            if let TraceOp::Store(_, bits) = op {
                let expect = a[idx] + b[idx];
                assert_eq!(f64::from_bits(bits), expect);
                idx += 1;
            }
        }
        assert_eq!(idx, 64);
    }
}
