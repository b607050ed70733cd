//! Counter-indexed randomness: one stateless primitive for every
//! pseudo-random stream on the simulated path.
//!
//! A draw is a pure function of its coordinates — a stream key, a role
//! salt and an index — evaluated by one [`splitmix64`] mix. This is the
//! counter-based design of Philox/Threefry (Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC'11): nothing is consumed, so
//! one extra draw on one code path cannot shift any other draw, and a
//! stream can be replayed or skipped to any index.
//!
//! Every role has a named salt below. Two roles that share a key but not
//! a salt get unrelated streams.

use rand::RngCore;

/// Fleet arrivals: exponential inter-arrival times.
pub(crate) const SALT_INTERARRIVAL: u64 = 0xA1;
/// Fleet arrivals: Zipf tenant identity.
pub(crate) const SALT_TENANT: u64 = 0xA2;
/// Fleet arrivals: job durations.
pub(crate) const SALT_DURATION: u64 = 0xA3;
/// Fleet placement: the random policy's slot picks.
pub(crate) const SALT_PLACEMENT: u64 = 0xB1;
/// Fleet runner: per-node system seeds.
pub(crate) const SALT_NODE: u64 = 0xC1;
/// Fleet runner: per-job address/think-time stream keys.
pub(crate) const SALT_JOB: u64 = 0xC2;
/// Access noise: one stream key per home GPU, derived from the phase key.
pub(crate) const SALT_GPU_STREAM: u64 = 0xD0;
/// Access noise: Gaussian timing jitter.
pub(crate) const SALT_JITTER: u64 = 0xD1;
/// Access noise: the coin that opens a congestion episode.
pub(crate) const SALT_CONGESTION: u64 = 0xD2;
/// Access noise: the extra cycles of an access inside an episode.
pub(crate) const SALT_SPIKE: u64 = 0xD3;
/// Access noise: the victim way under random replacement.
pub(crate) const SALT_VICTIM: u64 = 0xD4;

/// SplitMix64: the one-shot mixer behind every counter-indexed stream
/// (QoS grant jitter, valiant picks, fault stalls, fleet draws, access
/// noise). Stateless, so no caller can shift another's stream.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-indexed draw: one splitmix64 evaluation keyed by a stream
/// seed, a role salt and an index — reproducible from its coordinates
/// alone.
#[inline]
pub(crate) fn indexed_draw(seed: u64, salt: u64, index: u64) -> u64 {
    #[cfg(test)]
    DRAWS.with(|c| c.set(c.get() + 1));
    splitmix64(
        seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xd134_2543_de82_ef95),
    )
}

#[cfg(test)]
thread_local! {
    /// Counter-indexed draws evaluated on this thread, so tests can
    /// assert that a code path draws nothing.
    pub(crate) static DRAWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The Bernoulli trial `rand::Rng::gen_bool(p)` runs, on a given draw:
/// the top 53 bits as a uniform in `[0, 1)`, compared against `p`.
#[inline]
pub(crate) fn coin(d: u64, p: f64) -> bool {
    ((d >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
}

/// An [`RngCore`] view of one coordinate, for APIs that take an RNG but
/// may not draw at all (the cache draws only when it evicts under random
/// replacement). Nothing is computed until the first call; that call
/// yields `indexed_draw(seed, salt, index)`, and any later call chains
/// off the previous value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexedRng {
    seed: u64,
    salt: u64,
    index: u64,
}

impl IndexedRng {
    pub(crate) fn new(seed: u64, salt: u64, index: u64) -> Self {
        IndexedRng { seed, salt, index }
    }
}

impl RngCore for IndexedRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let d = indexed_draw(self.seed, self.salt, self.index);
        self.seed = d;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // First two outputs of the reference SplitMix64 generator seeded
        // with 0 (its state advances by the golden gamma per output).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn draws_depend_only_on_their_coordinates() {
        let a = indexed_draw(7, SALT_JITTER, 3);
        assert_eq!(a, indexed_draw(7, SALT_JITTER, 3));
        assert_ne!(a, indexed_draw(7, SALT_JITTER, 4));
        assert_ne!(a, indexed_draw(7, SALT_CONGESTION, 3));
        assert_ne!(a, indexed_draw(8, SALT_JITTER, 3));
    }

    #[test]
    fn coin_is_gen_bool_on_the_same_draw() {
        for i in 0..10_000u64 {
            let d = indexed_draw(1, SALT_CONGESTION, i);
            for p in [0.0, 1.1e-5, 0.3, 0.5, 0.999, 1.0] {
                let mut r = IndexedRng::new(1, SALT_CONGESTION, i);
                assert_eq!(coin(d, p), r.gen_bool(p), "d={d:#x} p={p}");
            }
        }
    }

    #[test]
    fn coin_rate_matches_gen_bool_at_congestion_probabilities() {
        // The congestion coin runs at p = 1.1e-5 · pressure.
        use rand::SeedableRng;
        let n = 1_000_000u64;
        let mut chacha = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for k in 1..=10u64 {
            let p = 1.1e-5 * k as f64;
            let ours = (0..n)
                .filter(|&i| coin(indexed_draw(k, SALT_CONGESTION, i), p))
                .count() as f64;
            let theirs = (0..n).filter(|_| chacha.gen_bool(p)).count() as f64;
            let expect = p * n as f64;
            for (who, got) in [("indexed", ours), ("gen_bool", theirs)] {
                assert!(
                    (got - expect).abs() < 5.0 * expect.sqrt(),
                    "{who} at p={p:e}: {got} vs {expect}"
                );
            }
            assert!(
                (ours - theirs).abs() < 5.0 * (ours + theirs).sqrt(),
                "p={p:e}: {ours} vs {theirs}"
            );
        }
    }

    #[test]
    fn indexed_rng_first_value_is_the_coordinate_draw() {
        let mut r = IndexedRng::new(5, SALT_VICTIM, 9);
        let first = r.next_u64();
        assert_eq!(first, indexed_draw(5, SALT_VICTIM, 9));
        assert_ne!(r.next_u64(), first);
    }
}
