//! `BlackScholes` — European option pricing over five input arrays.
//!
//! Signature: five parallel streaming input bands and two output bands,
//! with heavy per-element special-function compute (the slowest per-line
//! cadence of the suite).

use crate::data::uniform_vec;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use std::rc::Rc;

/// Black–Scholes pricing of `n` options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    n: usize,
    seed: u64,
}

impl BlackScholes {
    /// Creates a run over `n` options.
    pub fn new(n: usize) -> Self {
        BlackScholes { n, seed: 31 }
    }

    /// Sets the data seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Standard normal CDF via the Abramowitz–Stegun polynomial (what the
    /// CUDA sample uses).
    fn cnd(d: f64) -> f64 {
        const A1: f64 = 0.319_381_530;
        const A2: f64 = -0.356_563_782;
        const A3: f64 = 1.781_477_937;
        const A4: f64 = -1.821_255_978;
        const A5: f64 = 1.330_274_429;
        let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
        let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
        let cnd = (-0.5 * d * d).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
        if d > 0.0 {
            1.0 - cnd
        } else {
            cnd
        }
    }

    /// Prices one option: returns (call, put).
    pub fn price(s: f64, k: f64, t: f64, r: f64, v: f64) -> (f64, f64) {
        let sqrt_t = t.sqrt();
        let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
        let d2 = d1 - v * sqrt_t;
        let cnd_d1 = Self::cnd(d1);
        let cnd_d2 = Self::cnd(d2);
        let exp_rt = (-r * t).exp();
        let call = s * cnd_d1 - k * exp_rt * cnd_d2;
        let put = k * exp_rt * (1.0 - cnd_d2) - s * (1.0 - cnd_d1);
        (call, put)
    }
}

impl Default for BlackScholes {
    fn default() -> Self {
        BlackScholes::new(20 * 1024)
    }
}

impl Workload for BlackScholes {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let home = ctx.home();
        let bytes = (self.n * 8) as u64;
        let s_buf = ctx.malloc_on(home, bytes)?;
        let k_buf = ctx.malloc_on(home, bytes)?;
        let t_buf = ctx.malloc_on(home, bytes)?;
        let call_buf = ctx.malloc_on(home, bytes)?;
        let put_buf = ctx.malloc_on(home, bytes)?;
        let s = uniform_vec(self.n, 5.0, 30.0, self.seed);
        let k = uniform_vec(self.n, 1.0, 100.0, self.seed + 1);
        let tm = uniform_vec(self.n, 0.25, 10.0, self.seed + 2);
        ctx.write_words(s_buf, &s.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;
        ctx.write_words(k_buf, &k.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;
        ctx.write_words(t_buf, &tm.iter().map(|v| v.to_bits()).collect::<Vec<_>>())?;

        const RISK_FREE: f64 = 0.02;
        const VOLATILITY: f64 = 0.30;
        // Prices are computed once; every pass streams them.
        let prices: Rc<[[u64; 2]]> = (0..self.n)
            .map(|i| {
                let (call, put) = Self::price(s[i], k[i], tm[i], RISK_FREE, VOLATILITY);
                [call.to_bits(), put.to_bits()]
            })
            .collect();
        Ok(Trace::new(move || {
            let prices = Rc::clone(&prices);
            (0..prices.len() as u64).flat_map(move |i| {
                let [call, put] = prices[i as usize];
                [
                    TraceOp::load(s_buf, i),
                    TraceOp::load(k_buf, i),
                    TraceOp::load(t_buf, i),
                    // Heavy SFU work (exp/ln/sqrt) dominates this kernel.
                    TraceOp::Compute(24),
                    TraceOp::store(call_buf, i, call),
                    TraceOp::store(put_buf, i, put),
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
    fn pricing_satisfies_put_call_parity() {
        let (s, k, t, r, v) = (20.0, 25.0, 1.0, 0.02, 0.3);
        let (call, put) = BlackScholes::price(s, k, t, r, v);
        // call - put = S - K e^{-rT}
        let lhs = call - put;
        let rhs = s - k * (-r * t).exp();
        assert!((lhs - rhs).abs() < 1e-9, "parity violated: {lhs} vs {rhs}");
        assert!(call > 0.0 && put > 0.0);
    }

    #[test]
    fn compute_heavy_trace() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let trace = BlackScholes::new(128).build(&mut ctx).unwrap();
        let compute: u64 = trace
            .ops()
            .filter_map(|o| match o {
                TraceOp::Compute(c) => Some(c),
                _ => None,
            })
            .sum();
        assert!(compute >= 128 * 24);
    }
}
