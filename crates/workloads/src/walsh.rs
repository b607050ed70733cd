//! `fastWalshTransform` — in-place fast Walsh–Hadamard transform.
//!
//! Signature: log2(n) full passes over one array with butterfly strides
//! halving each pass — a ladder of bands in the memorygram.

use crate::data::uniform_vec;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use std::rc::Rc;

/// Fast Walsh–Hadamard transform over `n` (power of two) elements,
/// repeated `passes` times (the CUDA sample transforms several vectors).
#[derive(Debug, Clone)]
pub struct WalshTransform {
    n: usize,
    passes: usize,
    seed: u64,
}

impl WalshTransform {
    /// Creates a run over `n` elements (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize, passes: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "walsh transform needs a power-of-two length"
        );
        WalshTransform {
            n,
            passes,
            seed: 59,
        }
    }

    /// Sets the data seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Reference in-place transform (used by the trace builder and tests).
    pub fn transform(data: &mut [f64]) {
        let n = data.len();
        let mut h = 1;
        while h < n {
            for i in (0..n).step_by(h * 2) {
                for j in i..i + h {
                    let x = data[j];
                    let y = data[j + h];
                    data[j] = x + y;
                    data[j + h] = x - y;
                }
            }
            h *= 2;
        }
    }
}

impl Default for WalshTransform {
    fn default() -> Self {
        WalshTransform::new(8 * 1024, 3)
    }
}

impl Workload for WalshTransform {
    fn name(&self) -> &'static str {
        "WT"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let home = ctx.home();
        let buf = ctx.malloc_on(home, (self.n * 8) as u64)?;
        let mut data = uniform_vec(self.n, -1.0, 1.0, self.seed);
        ctx.write_words(buf, &data.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;

        // Real math once per pass (values, not addresses, for correctness
        // tests).
        for _ in 0..self.passes {
            Self::transform(&mut data);
        }
        let finals: Rc<[u64]> = data.iter().step_by(16).map(|v| v.to_bits()).collect();
        let (n, passes) = (self.n, self.passes);
        let levels = n.trailing_zeros() as usize;
        Ok(Trace::new(move || {
            let finals = Rc::clone(&finals);
            // Butterfly stride h = 2^level. A pass at stride h covers the
            // blocks i = 0, 2h, 4h, ... and, in each, the operands
            // j = i, i + 16, ... < i + h: one 128 B line covers 16
            // elements of each operand.
            (0..passes * levels)
                .flat_map(move |step| {
                    let h = 1usize << (step % levels);
                    // Operands per block: a power of two, so q splits
                    // into (block, operand) by shift and mask.
                    let per_block = h.div_ceil(16);
                    let shift = per_block.trailing_zeros();
                    (0..n / (2 * h) * per_block).flat_map(move |q| {
                        let j = (q >> shift) * 2 * h + (q & (per_block - 1)) * 16;
                        [
                            TraceOp::load(buf, j as u64),
                            TraceOp::load(buf, (j + h) as u64),
                            TraceOp::store(buf, j as u64, 0),
                            TraceOp::store(buf, (j + h) as u64, 0),
                            TraceOp::Compute(4),
                        ]
                    })
                })
                // Final result written back (line-granular).
                .chain(
                    (0..finals.len()).map(move |l| TraceOp::store(buf, (l * 16) as u64, finals[l])),
                )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn transform_is_self_inverse_up_to_n() {
        let mut data = uniform_vec(64, -1.0, 1.0, 9);
        let orig = data.clone();
        WalshTransform::transform(&mut data);
        WalshTransform::transform(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a / 64.0 - b).abs() < 1e-9, "WHT^2 = n I violated");
        }
    }

    #[test]
    fn transform_of_impulse_is_constant() {
        let mut data = vec![0.0; 16];
        data[0] = 1.0;
        WalshTransform::transform(&mut data);
        assert!(data.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn butterfly_strides_appear_in_trace() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = WalshTransform::new(1024, 1).build(&mut ctx).unwrap();
        // Early pass pairs (j, j+16): look for a load pair 16*8 bytes apart
        // and a late pair 512*8 apart.
        let loads: Vec<u64> = trace
            .ops()
            .filter_map(|o| match o {
                TraceOp::Load(va) => Some(va.raw()),
                _ => None,
            })
            .collect();
        let has_gap = |gap: u64| loads.windows(2).any(|w| w[1].abs_diff(w[0]) == gap * 8);
        assert!(has_gap(16), "h=16 butterfly missing");
        assert!(has_gap(512), "h=512 butterfly missing");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = WalshTransform::new(1000, 1);
    }
}
