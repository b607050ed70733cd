//! `quasirandomGenerator` — Sobol-style quasi-random sequence generation.
//!
//! Signature: a tiny, extremely hot direction-vector table plus a pure
//! streaming write band per dimension.

use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use std::rc::Rc;

/// Sobol-like generator: `n` points in `dims` dimensions, 31 direction
/// numbers per dimension.
#[derive(Debug, Clone)]
pub struct QuasiRandom {
    n: usize,
    dims: usize,
}

const DIRECTION_BITS: usize = 31;

impl QuasiRandom {
    /// Creates a run producing `n` points in `dims` dimensions.
    pub fn new(n: usize, dims: usize) -> Self {
        QuasiRandom { n, dims }
    }

    /// The direction-number table for one dimension (simple recurrence per
    /// the CUDA sample's initialisation).
    fn directions(dim: usize) -> Vec<u32> {
        let mut v = vec![0u32; DIRECTION_BITS];
        for (i, d) in v.iter_mut().enumerate() {
            // Primitive-polynomial-free variant: shifted identity scrambled
            // by the dimension index, enough to produce the sample's access
            // pattern and a low-discrepancy-looking output.
            *d = (1u32 << (31 - i)) ^ ((dim as u32).wrapping_mul(0x9E37_79B9) >> i);
        }
        v
    }

    /// Generates the `i`-th Sobol-ish value for a direction table (Gray
    /// code construction).
    pub fn value(directions: &[u32], i: u32) -> f64 {
        let gray = i ^ (i >> 1);
        let mut acc = 0u32;
        for (bit, &d) in directions.iter().enumerate() {
            // Branch-free: the Gray bits are data-dependent and mispredict.
            acc ^= d & 0u32.wrapping_sub((gray >> bit) & 1);
        }
        f64::from(acc) / f64::from(u32::MAX)
    }
}

impl Default for QuasiRandom {
    fn default() -> Self {
        QuasiRandom::new(24 * 1024, 3)
    }
}

impl Workload for QuasiRandom {
    fn name(&self) -> &'static str {
        "QR"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let home = ctx.home();
        let table_buf = ctx.malloc_on(home, (self.dims * DIRECTION_BITS * 8) as u64)?;
        let out_buf = ctx.malloc_on(home, (self.n * self.dims * 8) as u64)?;
        let tables: Vec<Vec<u32>> = (0..self.dims).map(Self::directions).collect();
        let flat: Vec<u64> = tables.iter().flatten().map(|&d| u64::from(d)).collect();
        ctx.write_words(table_buf, &flat)?;

        let n = self.n;
        // Outputs are computed once, point-major within each dimension
        // (index d * n + i); every pass streams them.
        let values: Rc<[u64]> = tables
            .iter()
            .flat_map(|table| (0..n as u32).map(move |i| Self::value(table, i).to_bits()))
            .collect();
        Ok(Trace::new(move || {
            let values = Rc::clone(&values);
            (0..values.len()).flat_map(move |k| {
                let (d, i) = (k / n, (k % n) as u32);
                // Read the direction numbers the Gray code actually uses,
                // lowest bit first.
                let mut gray = (i ^ (i >> 1)) & ((1 << DIRECTION_BITS) - 1);
                let loads = std::iter::from_fn(move || {
                    (gray != 0).then(|| {
                        let bit = gray.trailing_zeros() as usize;
                        gray &= gray - 1;
                        TraceOp::load(table_buf, (d * DIRECTION_BITS + bit) as u64)
                    })
                });
                loads.chain([
                    TraceOp::store(out_buf, k as u64, values[k]),
                    TraceOp::Compute(2),
                ])
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn values_are_in_unit_interval_and_low_discrepancy_ish() {
        let dirs = QuasiRandom::directions(0);
        let vals: Vec<f64> = (0..512).map(|i| QuasiRandom::value(&dirs, i)).collect();
        assert!(vals.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Quarter-interval coverage should be near uniform.
        for q in 0..4 {
            let lo = q as f64 * 0.25;
            let cnt = vals.iter().filter(|&&v| v >= lo && v < lo + 0.25).count();
            assert!((96..=160).contains(&cnt), "quartile {q} has {cnt}");
        }
    }

    #[test]
    fn table_region_is_hot() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = QuasiRandom::new(512, 2).build(&mut ctx).unwrap();
        let loads: Vec<_> = trace
            .ops()
            .filter_map(|o| match o {
                TraceOp::Load(va) => Some(va),
                _ => None,
            })
            .collect();
        let distinct: std::collections::HashSet<_> = loads.iter().collect();
        assert!(
            loads.len() > distinct.len() * 10,
            "table must be revisited heavily"
        );
    }
}
