//! Deterministic open-loop request front-end: Poisson arrivals of
//! tenant jobs with Zipf-distributed tenant popularity and bounded
//! durations, all counter-indexed (see the module doc's determinism
//! contract).

use crate::draw::{indexed_draw, SALT_DURATION, SALT_INTERARRIVAL, SALT_TENANT};

/// Exponential tails are unbounded; clamp an inter-arrival draw to this
/// many means so one astronomically unlucky draw cannot stall the whole
/// stream past the horizon.
const MAX_INTERARRIVAL_MEANS: u64 = 32;

/// A tenant (customer) identity in the fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Parameters of the arrival process.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Mean inter-arrival time in cycles (Poisson rate = 1/mean).
    pub mean_interarrival: u64,
    /// Number of distinct tenants.
    pub tenants: u32,
    /// Zipf popularity exponent `s` (0 = uniform; ~1 = classic skew).
    pub zipf_exponent: f64,
    /// Minimum job duration in cycles (inclusive).
    pub min_duration: u64,
    /// Maximum job duration in cycles (inclusive).
    pub max_duration: u64,
    /// Stream seed; two streams with equal configs are identical.
    pub seed: u64,
}

impl ArrivalConfig {
    /// A small default workload: 16 tenants, skew 1.0, jobs lasting
    /// 50k–400k cycles, one arrival every 20k cycles on average.
    pub fn default_workload(seed: u64) -> Self {
        ArrivalConfig {
            mean_interarrival: 20_000,
            tenants: 16,
            zipf_exponent: 1.0,
            min_duration: 50_000,
            max_duration: 400_000,
            seed,
        }
    }

    /// Mean job duration implied by the uniform bounds.
    pub fn mean_duration(&self) -> u64 {
        (self.min_duration + self.max_duration) / 2
    }
}

/// One job emitted by the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Fleet-global arrival cycle.
    pub at: u64,
    /// The tenant the job belongs to.
    pub tenant: TenantId,
    /// Requested service time in cycles (open-loop: known at arrival).
    pub duration: u64,
}

/// The deterministic arrival stream. Job `i`'s tenant and duration are
/// pure functions of `(seed, i)`; its arrival time is the running sum
/// of the first `i+1` inter-arrival draws, so regenerating the stream
/// from the same config always yields the same sequence.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    cfg: ArrivalConfig,
    /// Fixed-point (32-bit) cumulative Zipf weights; `cum[k]` is the
    /// upper edge of tenant `k`'s interval and `cum[last] == 2^32`.
    cum: Vec<u64>,
    /// Jobs emitted so far == the next job's index.
    emitted: u64,
    /// Arrival clock (sum of inter-arrival draws so far).
    clock: u64,
}

impl ArrivalStream {
    /// Builds the stream, precomputing the tenant-popularity CDF (the
    /// only allocation the stream ever performs).
    ///
    /// # Panics
    ///
    /// Panics on a zero tenant count, a zero mean inter-arrival time or
    /// an inverted duration range.
    pub fn new(cfg: ArrivalConfig) -> Self {
        assert!(cfg.tenants > 0, "at least one tenant");
        assert!(cfg.mean_interarrival > 0, "zero arrival rate");
        assert!(
            cfg.min_duration >= 1 && cfg.min_duration <= cfg.max_duration,
            "duration bounds must satisfy 1 <= min <= max"
        );
        let weights: Vec<f64> = (1..=cfg.tenants)
            .map(|k| f64::from(k).powf(-cfg.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cum = Vec::with_capacity(cfg.tenants as usize);
        let mut acc = 0.0f64;
        for w in &weights {
            acc += w;
            cum.push(((acc / total) * (1u64 << 32) as f64).round() as u64);
        }
        // Force the final edge so a maximal draw always lands inside.
        *cum.last_mut().expect("non-empty") = 1u64 << 32;
        ArrivalStream {
            cfg,
            cum,
            emitted: 0,
            clock: 0,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &ArrivalConfig {
        &self.cfg
    }

    /// Jobs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emits the next job (the stream is infinite). Allocation-free.
    pub fn next_job(&mut self) -> JobSpec {
        let i = self.emitted;
        self.emitted += 1;
        self.clock += self.interarrival(i);
        JobSpec {
            at: self.clock,
            tenant: self.tenant(i),
            duration: self.duration(i),
        }
    }

    /// Inter-arrival gap before job `i`: an exponential draw of the
    /// configured mean via inverse-CDF over a counter-indexed uniform.
    fn interarrival(&self, i: u64) -> u64 {
        let d = indexed_draw(self.cfg.seed, SALT_INTERARRIVAL, i);
        // Uniform in (0, 1]: top 53 bits, shifted into the mantissa range.
        let u = ((d >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let gap = (-u.ln() * self.cfg.mean_interarrival as f64).round() as u64;
        gap.clamp(1, self.cfg.mean_interarrival * MAX_INTERARRIVAL_MEANS)
    }

    /// Tenant of job `i`: binary search of a 32-bit uniform draw in the
    /// precomputed Zipf CDF.
    fn tenant(&self, i: u64) -> TenantId {
        let r = indexed_draw(self.cfg.seed, SALT_TENANT, i) & 0xFFFF_FFFF;
        let k = self.cum.partition_point(|&edge| edge <= r);
        TenantId(k as u32)
    }

    /// Duration of job `i`: uniform in the configured inclusive bounds.
    fn duration(&self, i: u64) -> u64 {
        let d = indexed_draw(self.cfg.seed, SALT_DURATION, i);
        let span = self.cfg.max_duration - self.cfg.min_duration + 1;
        self.cfg.min_duration + d % span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_reproducible() {
        let cfg = ArrivalConfig::default_workload(7);
        let mut a = ArrivalStream::new(cfg.clone());
        let mut b = ArrivalStream::new(cfg);
        for _ in 0..1000 {
            assert_eq!(a.next_job(), b.next_job());
        }
    }

    #[test]
    fn arrival_times_are_strictly_increasing() {
        let mut s = ArrivalStream::new(ArrivalConfig::default_workload(3));
        let mut last = 0;
        for _ in 0..1000 {
            let j = s.next_job();
            assert!(j.at > last, "gap >= 1 keeps arrivals strictly ordered");
            last = j.at;
        }
    }

    #[test]
    fn zipf_skews_towards_low_tenants() {
        let mut s = ArrivalStream::new(ArrivalConfig {
            tenants: 8,
            zipf_exponent: 1.2,
            ..ArrivalConfig::default_workload(11)
        });
        let mut counts = [0u64; 8];
        for _ in 0..20_000 {
            counts[s.next_job().tenant.0 as usize] += 1;
        }
        assert!(
            counts[0] > counts[7] * 3,
            "tenant 0 must dominate the tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "tail tenants still arrive");
    }

    #[test]
    fn durations_respect_bounds_and_mean_interarrival_is_sane() {
        let cfg = ArrivalConfig::default_workload(99);
        let mut s = ArrivalStream::new(cfg.clone());
        let n = 20_000u64;
        let mut last_at = 0;
        for _ in 0..n {
            let j = s.next_job();
            assert!(j.duration >= cfg.min_duration && j.duration <= cfg.max_duration);
            last_at = j.at;
        }
        let empirical_mean = last_at / n;
        let m = cfg.mean_interarrival;
        assert!(
            empirical_mean > m / 2 && empirical_mean < m * 2,
            "empirical mean {empirical_mean} vs configured {m}"
        );
    }
}
