//! Latency model: turns (route, hit/miss, contention pressure) into cycles.
//!
//! Calibrated against the paper's Fig. 4 clusters — local hit ≈ 270,
//! local miss ≈ 450, remote (1 NVLink hop) hit ≈ 630, remote miss ≈ 950 —
//! plus Gaussian jitter and a port-contention term that grows with the
//! number of concurrently active agents on a GPU (the Fig. 9 error driver).
//!
//! # Integer jitter
//!
//! A latency is `max(1, floor(base + contention + σZ))` cycles with `Z`
//! standard normal. Base and contention are whole cycles, so this equals
//! `max(1, base + contention + J)` with the integer `J = floor(σZ)`. The
//! model therefore samples `J` directly: [`LatencyModel::new`] tabulates
//! the inverse CDF of `J` as 64-bit thresholds, and one uniform 64-bit
//! draw picks `J` with a bucketed lookup — no `ln`, `sqrt` or `cos` on
//! the access path, and integer arithmetic throughout. `Z` is truncated
//! where the Box–Muller sampler this replaces truncated it,
//! `|Z| ≤ √(−2 ln ε)` with `ε` the `f64` machine epsilon.

use crate::config::TimingConfig;
use crate::topology::{LinkKind, Route};

/// Stateless latency calculator.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    cfg: TimingConfig,
    /// Sampler of the integer jitter; `None` when `jitter_sigma` is zero.
    jitter: Option<JitterTable>,
}

impl LatencyModel {
    /// Creates a model from timing constants, tabulating the jitter
    /// distribution when `jitter_sigma > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_sigma` is negative or not finite.
    pub fn new(cfg: TimingConfig) -> Self {
        assert!(
            cfg.jitter_sigma.is_finite() && cfg.jitter_sigma >= 0.0,
            "jitter_sigma must be finite and non-negative, got {}",
            cfg.jitter_sigma
        );
        let jitter = (cfg.jitter_sigma > 0.0).then(|| JitterTable::new(cfg.jitter_sigma));
        LatencyModel { cfg, jitter }
    }

    /// The timing constants in use.
    pub fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// Whether accesses carry Gaussian jitter (and so need a draw).
    pub fn is_jittered(&self) -> bool {
        self.jitter.is_some()
    }

    /// Latency in cycles of one memory access.
    ///
    /// `pressure` counts other agents that recently touched the same GPU;
    /// each adds [`TimingConfig::contention_per_actor`] cycles (saturating
    /// at the pressure cap). `jitter_draw` is a uniform 64-bit value that
    /// picks the jitter; it is ignored when the model is not jittered.
    /// Bursty congestion episodes are layered on top by
    /// [`crate::system::MultiGpuSystem`], which owns the persistent
    /// per-GPU congestion state.
    pub fn access_latency(&self, route: Route, hit: bool, pressure: u32, jitter_draw: u64) -> u32 {
        let base = match (route.kind, hit) {
            // Local routes have zero hops, so the NvLink formulas reduce
            // to the plain local hit/miss constants.
            (LinkKind::Local | LinkKind::NvLink, true) => self.cfg.expected_hit(route.hops),
            (LinkKind::Local | LinkKind::NvLink, false) => self.cfg.expected_miss(route.hops),
            (LinkKind::Pcie, true) => self.cfg.l2_hit + self.cfg.pcie_round_trip,
            (LinkKind::Pcie, false) => {
                self.cfg.l2_hit + self.cfg.dram_penalty + self.cfg.pcie_round_trip
            }
        };
        // The linear term saturates (ports pipeline; beyond the cap extra
        // requesters queue rather than slowing every access), but queueing
        // spikes keep scaling with the true number of contenders.
        let shift = pressure.min(self.cfg.contention_pressure_cap);
        let mut cycles =
            i64::from(base) + i64::from(self.cfg.contention_per_actor) * i64::from(shift);
        if let Some(table) = &self.jitter {
            cycles += i64::from(table.sample(jitter_draw));
        }
        cycles.clamp(1, i64::from(u32::MAX)) as u32
    }

    /// Additional cycles between issuing consecutive loads of one warp
    /// (models memory-level parallelism within a 16-line probe).
    pub fn issue_gap(&self) -> u32 {
        self.cfg.issue_gap
    }

    /// Converts a cycle count to seconds at the configured core clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cfg.clock_hz
    }
}

/// Top bits of a draw that index [`JitterTable::first`].
const BUCKET_BITS: u32 = 8;

/// Exact inverse-CDF sampler of `J = floor(σZ)`, `Z` standard normal
/// truncated at `|Z| ≤ √(−2 ln ε)`.
///
/// Draw `d` maps to the smallest `J` whose cumulative probability,
/// scaled by 2⁶⁴, exceeds `d`. `J` is symmetric about −½
/// (`P(J = j) = P(J = −1 − j)`), so only the lower half is integrated
/// and the upper half mirrors it bit for bit.
#[derive(Debug, Clone)]
struct JitterTable {
    /// The `J` of entry 0 (the smallest `J` with a non-zero threshold).
    lo: i32,
    /// `upper[k]`: the largest draw that maps to `lo + k`. Increasing,
    /// and the last entry is `u64::MAX`.
    upper: Vec<u64>,
    /// `first[b]`: the first entry a draw whose top [`BUCKET_BITS`] bits
    /// equal `b` can map to. Entries of the distribution's body are wider
    /// than a bucket, so a lookup is one load and usually one compare.
    first: Vec<u32>,
}

impl JitterTable {
    fn new(sigma: f64) -> Self {
        let z_max = (-2.0 * f64::EPSILON.ln()).sqrt();
        let lo_full = (-sigma * z_max).floor() as i32;
        // Gauss–Legendre panels per J interval, each at most 1/8 wide.
        let panels = (8.0 / sigma).ceil().max(1.0) as u32;
        // Cumulative mass of [−z_max, (j + 1)/σ) for j = lo_full ..= −1;
        // the last entry is the lower half's mass.
        let mut cum = Vec::with_capacity(lo_full.unsigned_abs() as usize);
        let mut acc = 0.0;
        let mut a = -z_max;
        for j in lo_full..0 {
            let b = f64::from(j + 1) / sigma;
            acc += normal_mass(a, b, panels);
            cum.push(acc);
            a = b;
        }
        let half = acc;
        // Lower thresholds P(J ≤ j)·2⁶⁴ for j ≤ −2; P(J ≤ −1) is ½.
        let lower: Vec<u64> = cum[..cum.len() - 1]
            .iter()
            .map(|&c| (c / (2.0 * half) * 2f64.powi(64)).round() as u64)
            .collect();
        // Inclusive upper bounds: T − 1 below the median, and by symmetry
        // 2⁶⁴ − T_mirror − 1 = !T_mirror above it (the top entry mirrors a
        // zero threshold, so it is u64::MAX).
        let mut upper: Vec<u64> = lower.iter().filter(|&&t| t > 0).map(|&t| t - 1).collect();
        let skipped = lower.len() - upper.len();
        upper.push((1u64 << 63) - 1);
        upper.extend(lower[skipped..].iter().rev().map(|&t| !t));
        upper.push(u64::MAX);
        let lo = lo_full + skipped as i32;
        let mut first = Vec::with_capacity(1 << BUCKET_BITS);
        let mut k = 0;
        for b in 0..1u64 << BUCKET_BITS {
            let start = b << (64 - BUCKET_BITS);
            while upper[k] < start {
                k += 1;
            }
            first.push(k as u32);
        }
        JitterTable { lo, upper, first }
    }

    /// The `J` that draw `d` selects.
    #[inline]
    fn sample(&self, d: u64) -> i32 {
        let mut k = self.first[(d >> (64 - BUCKET_BITS)) as usize] as usize;
        while d > self.upper[k] {
            k += 1;
        }
        self.lo + k as i32
    }
}

/// `∫ₐᵇ φ(z) dz` for the standard normal density, by 5-point
/// Gauss–Legendre on `panels` equal panels (quadrature error ~1e-20 for
/// panels at most 1/8 wide, far below `f64` rounding).
fn normal_mass(a: f64, b: f64, panels: u32) -> f64 {
    const NODES: [f64; 5] = [
        0.0,
        -0.538_469_310_105_683_1,
        0.538_469_310_105_683_1,
        -0.906_179_845_938_664,
        0.906_179_845_938_664,
    ];
    const WEIGHTS: [f64; 5] = [
        0.568_888_888_888_888_9,
        0.478_628_670_499_366_5,
        0.478_628_670_499_366_5,
        0.236_926_885_056_189_1,
        0.236_926_885_056_189_1,
    ];
    let inv_sqrt_tau = 1.0 / std::f64::consts::TAU.sqrt();
    let h = (b - a) / f64::from(panels);
    let mut sum = 0.0;
    for p in 0..panels {
        let mid = a + h * (f64::from(p) + 0.5);
        for (x, w) in NODES.iter().zip(WEIGHTS) {
            let z = mid + 0.5 * h * x;
            sum += w * (-0.5 * z * z).exp();
        }
    }
    sum * 0.5 * h * inv_sqrt_tau
}

/// Standard normal sample via Box–Muller: the sampler the jitter table
/// replaced, kept as the table's statistical oracle.
#[cfg(test)]
fn gaussian<R: rand::Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{indexed_draw, SALT_JITTER};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const LOCAL: Route = Route {
        kind: LinkKind::NvLink,
        hops: 0,
    };
    const REMOTE: Route = Route {
        kind: LinkKind::NvLink,
        hops: 1,
    };

    fn model_noiseless() -> LatencyModel {
        let mut cfg = TimingConfig::p100();
        cfg.jitter_sigma = 0.0;
        cfg.contention_spike_prob = 0.0;
        LatencyModel::new(cfg)
    }

    fn model_jittered() -> LatencyModel {
        let mut cfg = TimingConfig::p100();
        cfg.contention_spike_prob = 0.0;
        LatencyModel::new(cfg)
    }

    /// Draw `i` of a fixed counter-indexed stream.
    fn draw(i: u64) -> u64 {
        indexed_draw(5, SALT_JITTER, i)
    }

    /// `Φ(z)` from the all-positive series
    /// `erf(x) = 2x/√π · e^{−x²} · Σ (2x²)ⁿ/(2n+1)!!` — independent of the
    /// quadrature the table is built with, and accurate to ~1e-16
    /// absolute for `|z| ≤ 9`.
    fn phi(z: f64) -> f64 {
        let x = z.abs() / std::f64::consts::SQRT_2;
        let (mut term, mut sum, mut n) = (1.0f64, 1.0f64, 0.0f64);
        while term > 1e-18 * sum {
            n += 1.0;
            term *= 2.0 * x * x / (2.0 * n + 1.0);
            sum += term;
        }
        let erf = 2.0 * x / std::f64::consts::PI.sqrt() * (-x * x).exp() * sum;
        if z >= 0.0 {
            0.5 + 0.5 * erf
        } else {
            0.5 - 0.5 * erf
        }
    }

    #[test]
    fn four_clusters_match_paper() {
        let m = model_noiseless();
        assert_eq!(m.access_latency(LOCAL, true, 0, 0), 270);
        assert_eq!(m.access_latency(LOCAL, false, 0, 0), 450);
        assert_eq!(m.access_latency(REMOTE, true, 0, 0), 630);
        assert_eq!(m.access_latency(REMOTE, false, 0, 0), 950);
    }

    #[test]
    fn jittered_cluster_means_stay_within_a_cycle() {
        let m = model_jittered();
        let n = 20_000u64;
        for (route, hit, mean) in [
            (LOCAL, true, 270.0),
            (LOCAL, false, 450.0),
            (REMOTE, true, 630.0),
            (REMOTE, false, 950.0),
        ] {
            let sum: u64 = (0..n)
                .map(|i| u64::from(m.access_latency(route, hit, 0, draw(i))))
                .sum();
            let got = sum as f64 / n as f64;
            assert!((got - mean).abs() < 1.0, "cluster {mean}: mean {got}");
        }
    }

    #[test]
    fn pressure_increases_latency() {
        let m = model_noiseless();
        let quiet = m.access_latency(LOCAL, true, 0, 0);
        let busy = m.access_latency(LOCAL, true, 8, 0);
        assert!(busy > quiet);
    }

    #[test]
    fn pcie_is_much_slower_than_nvlink() {
        let m = model_noiseless();
        let pcie = Route {
            kind: LinkKind::Pcie,
            hops: 0,
        };
        assert!(m.access_latency(pcie, true, 0, 0) > m.access_latency(REMOTE, true, 0, 0));
    }

    #[test]
    fn jitter_varies_but_stays_near_mean() {
        let m = model_jittered();
        let samples: Vec<u32> = (0..2000)
            .map(|i| m.access_latency(LOCAL, true, 0, draw(i)))
            .collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean - 270.0).abs() < 3.0, "mean {mean}");
        assert!(samples.iter().any(|&s| s != samples[0]), "no variation");
        // Hit and miss clusters must remain separable (4 sigma apart).
        assert!(
            samples.iter().all(|&s| s < 400),
            "hit sample leaked into miss range"
        );
    }

    #[test]
    fn extreme_draws_stay_inside_the_truncation() {
        let m = model_jittered();
        let z_max = (-2.0 * f64::EPSILON.ln()).sqrt();
        let reach = (9.0 * z_max).floor() as u32;
        let low = m.access_latency(LOCAL, true, 0, 0);
        let high = m.access_latency(LOCAL, true, 0, u64::MAX);
        assert!(low >= 270 - reach - 1 && low < 270 - 40, "low {low}");
        assert!(high <= 270 + reach && high > 270 + 40, "high {high}");
    }

    #[test]
    fn table_probabilities_match_normal_cdf_differences() {
        for sigma in [9.0, 2.5, 0.7] {
            let t = JitterTable::new(sigma);
            let z_max = (-2.0 * f64::EPSILON.ln()).sqrt();
            let tail = phi(-z_max);
            let mut prev = -1.0f64; // inclusive upper bound of the previous entry
            let mut covered = 0.0;
            for (k, &u) in t.upper.iter().enumerate() {
                let p_table = (u as f64 - prev) / 2f64.powi(64);
                prev = u as f64;
                let j = f64::from(t.lo + k as i32);
                let a = (j / sigma).max(-z_max);
                let b = ((j + 1.0) / sigma).min(z_max);
                let p_true = (phi(b) - phi(a)) / (1.0 - 2.0 * tail);
                assert!(
                    (p_table - p_true).abs() < 1e-12,
                    "sigma {sigma} J={j}: table {p_table:e} vs Φ {p_true:e}"
                );
                covered += p_true;
            }
            // Trimmed entries carry less than one 2⁻⁶⁴ step of mass each.
            assert!(
                (covered - 1.0).abs() < 1e-12,
                "sigma {sigma}: mass {covered}"
            );
        }
    }

    #[test]
    fn table_matches_box_muller_two_sample_chi_squared() {
        let n = 1_000_000u64;
        let t = JitterTable::new(9.0);
        // Bins J ∈ [−40, 39]; the tails pool into the end bins.
        let bin = |j: i32| (j.clamp(-40, 39) + 40) as usize;
        let mut oracle = [0u64; 80];
        let mut table = [0u64; 80];
        let mut r = ChaCha8Rng::seed_from_u64(11);
        for i in 0..n {
            oracle[bin((9.0 * gaussian(&mut r)).floor() as i32)] += 1;
            table[bin(t.sample(draw(i)))] += 1;
        }
        let (mut chi2, mut df) = (0.0f64, -1.0f64);
        for (&a, &b) in oracle.iter().zip(&table) {
            if a + b > 0 {
                chi2 += (a as f64 - b as f64).powi(2) / (a + b) as f64;
                df += 1.0;
            }
        }
        // Wilson–Hilferty upper 1e-6 quantile of χ²(df).
        let c = 2.0 / (9.0 * df);
        let crit = df * (1.0 - c + 4.75 * c.sqrt()).powi(3);
        assert!(chi2 < crit, "χ² {chi2:.1} ≥ {crit:.1} at df {df}");
    }

    #[test]
    fn gaussian_oracle_is_roughly_standard() {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "jitter_sigma must be finite and non-negative")]
    fn negative_sigma_is_rejected() {
        let mut cfg = TimingConfig::p100();
        cfg.jitter_sigma = -1.0;
        let _ = LatencyModel::new(cfg);
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let m = model_noiseless();
        let s = m.cycles_to_seconds(1_480_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
