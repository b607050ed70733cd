//! `histogram` — 256-bin histogram of a random byte stream.
//!
//! Signature: one streaming input band plus a small, hot, randomly hit
//! bin region (read-modify-write).

use crate::data::rng;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use rand::Rng;
use std::rc::Rc;

/// Histogram over `n` input elements into `bins` bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    n: usize,
    bins: usize,
    seed: u64,
}

impl Histogram {
    /// Creates a run over `n` inputs and `bins` bins.
    pub fn new(n: usize, bins: usize) -> Self {
        Histogram { n, bins, seed: 23 }
    }

    /// Sets the data seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(40 * 1024, 256)
    }
}

impl Workload for Histogram {
    fn name(&self) -> &'static str {
        "HG"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let home = ctx.home();
        let input = ctx.malloc_on(home, (self.n * 8) as u64)?;
        let bins_buf = ctx.malloc_on(home, (self.bins * 8) as u64)?;
        let mut r = rng(self.seed);
        let data: Vec<u64> = (0..self.n)
            .map(|_| r.gen_range(0..self.bins as u64))
            .collect();
        ctx.write_words(input, &data)?;

        let data: Rc<[u64]> = data.into();
        let bins = self.bins;
        Ok(Trace::new(move || {
            let data = Rc::clone(&data);
            // Running bin counts restart with every pass.
            let mut counts = vec![0u64; bins];
            (0..data.len() as u64).flat_map(move |i| {
                let bin = data[i as usize];
                counts[bin as usize] += 1;
                // Read-modify-write of the bin counter.
                [
                    TraceOp::load(input, i),
                    TraceOp::load(bins_buf, bin),
                    TraceOp::store(bins_buf, bin, counts[bin as usize]),
                    TraceOp::Compute(1),
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
    fn final_counts_sum_to_n() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = Histogram::new(512, 16).build(&mut ctx).unwrap();
        // Replay the final value stored per bin address.
        let mut last = std::collections::HashMap::new();
        for op in trace.ops() {
            if let TraceOp::Store(va, v) = op {
                last.insert(va, v);
            }
        }
        let total: u64 = last.values().sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn bin_region_is_compact() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = Histogram::new(256, 16).build(&mut ctx).unwrap();
        let stores: std::collections::HashSet<_> = trace
            .ops()
            .filter_map(|o| match o {
                TraceOp::Store(va, _) => Some(va),
                _ => None,
            })
            .collect();
        assert!(stores.len() <= 16);
    }
}
