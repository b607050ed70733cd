//! `matrixMul` — tiled dense matrix multiplication `C = A × B`.
//!
//! Signature: blocked re-traversal of A and B tiles — the same lines are
//! revisited once per tile row/column, producing the checkerboard
//! memorygram of the paper's Fig. 11.

use crate::data::uniform_vec;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use std::rc::Rc;

/// Tiled matrix multiply of two `n × n` matrices with `tile × tile`
/// blocks.
#[derive(Debug, Clone)]
pub struct MatMul {
    n: usize,
    tile: usize,
    seed: u64,
}

impl MatMul {
    /// Creates a run over `n × n` matrices with the given tile size.
    ///
    /// # Panics
    ///
    /// Panics if `tile` does not divide `n`.
    pub fn new(n: usize, tile: usize) -> Self {
        assert!(n.is_multiple_of(tile), "tile must divide n");
        MatMul { n, tile, seed: 41 }
    }

    /// Sets the data seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for MatMul {
    fn default() -> Self {
        MatMul::new(160, 16)
    }
}

impl Workload for MatMul {
    fn name(&self) -> &'static str {
        "MM"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let home = ctx.home();
        let n = self.n;
        let bytes = (n * n * 8) as u64;
        let a_buf = ctx.malloc_on(home, bytes)?;
        let b_buf = ctx.malloc_on(home, bytes)?;
        let c_buf = ctx.malloc_on(home, bytes)?;
        let a = uniform_vec(n * n, -1.0, 1.0, self.seed);
        let b = uniform_vec(n * n, -1.0, 1.0, self.seed + 1);
        ctx.write_words(a_buf, &a.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;
        ctx.write_words(b_buf, &b.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;

        let ts = self.tile;
        let tiles = n / ts;
        // The real product, computed once in the kernel's tile order; the
        // trace streams only its addresses and the written-back values.
        let mut c = vec![0.0f64; n * n];
        for bi in 0..tiles {
            for bj in 0..tiles {
                for bk in 0..tiles {
                    for r in 0..ts {
                        for cc in 0..ts {
                            let mut acc = c[(bi * ts + r) * n + bj * ts + cc];
                            for k in 0..ts {
                                acc += a[(bi * ts + r) * n + bk * ts + k]
                                    * b[(bk * ts + k) * n + bj * ts + cc];
                            }
                            c[(bi * ts + r) * n + bj * ts + cc] = acc;
                        }
                    }
                }
            }
        }
        let c: Rc<[f64]> = c.into();
        let fma_cycles = (ts * ts * ts / 8) as u64;
        Ok(Trace::new(move || {
            let c = Rc::clone(&c);
            // Tile-blocked loops: each (bi, bj) output tile accumulates
            // over bk. Tiles are staged through shared memory on a real
            // GPU, so the L2 sees one pass over each tile's lines per
            // (bi, bj, bk) step: one load per row, since a 16-wide tile
            // row is one 128 B line.
            (0..tiles * tiles).flat_map(move |tile| {
                let (bi, bj) = (tile / tiles, tile % tiles);
                let c = Rc::clone(&c);
                (0..tiles)
                    .flat_map(move |bk| {
                        let a_rows = (0..ts).map(move |r| {
                            TraceOp::load(a_buf, ((bi * ts + r) * n + bk * ts) as u64)
                        });
                        let b_rows = (0..ts).map(move |r| {
                            TraceOp::load(b_buf, ((bk * ts + r) * n + bj * ts) as u64)
                        });
                        // Then the FMA work on the staged tiles.
                        a_rows.chain(b_rows).chain([TraceOp::Compute(fma_cycles)])
                    })
                    // Write back the finished C tile, one line per row.
                    .chain((0..ts).map(move |r| {
                        let idx = (bi * ts + r) * n + bj * ts;
                        TraceOp::store(c_buf, idx as u64, c[idx].to_bits())
                    }))
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn tiled_math_matches_naive() {
        // The trace-building loop must compute the true product.
        let n = 32;
        let w = MatMul::new(n, 16).with_seed(2);
        let a = uniform_vec(n * n, -1.0, 1.0, 2);
        let b = uniform_vec(n * n, -1.0, 1.0, 3);
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = w.build(&mut ctx).unwrap();
        // Extract the stored C[0,16] (row 0, second tile) value.
        let mut stored = std::collections::HashMap::new();
        for op in trace.ops() {
            if let TraceOp::Store(va, v) = op {
                stored.insert(va, f64::from_bits(v));
            }
        }
        // Naive C[0][0]:
        let mut expect = 0.0;
        for k in 0..n {
            expect += a[k] * b[k * n];
        }
        let got = stored
            .values()
            .find(|&&v| (v - expect).abs() < 1e-9)
            .copied();
        assert!(
            got.is_some(),
            "true C[0][0]={expect} not found among stores"
        );
    }

    #[test]
    #[should_panic(expected = "tile must divide n")]
    fn bad_tile_rejected() {
        let _ = MatMul::new(100, 16);
    }

    #[test]
    fn trace_revisits_tiles() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = MatMul::new(64, 16).build(&mut ctx).unwrap();
        let mut counts = std::collections::HashMap::new();
        for op in trace.ops() {
            if let TraceOp::Load(va) = op {
                *counts.entry(va).or_insert(0usize) += 1;
            }
        }
        // Each A-tile line is revisited once per bj: 64/16 = 4 times.
        assert!(counts.values().any(|&c| c >= 4));
    }
}
