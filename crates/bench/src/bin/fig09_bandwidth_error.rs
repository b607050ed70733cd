//! Fig. 9 — covert channel bandwidth and error rate vs. parallel sets.
//!
//! Sends a long pseudo-random message striped over 1..16 aligned set
//! pairs. Bandwidth grows with the number of sets; port contention makes
//! the error rate grow too (the paper's best trade-off is 4 sets:
//! 3.95 MB/s at 1.3% error on the DGX-1; the simulator reproduces the
//! shape, not the absolute scale).
//!
//! Bandwidth is measured over the spy's **listen span** (the true
//! transmission window) since PR 4's unified channel pipeline; the PR 3
//! numbers divided by the engine's end-of-run clock, which includes a
//! 16-slot grace period (≈ 0.1% lower at 1 set, ≈ 2% at 16 sets). The
//! decoded bits are asserted below against per-point golden
//! fingerprints.

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, Pipeline, TrialRunner};
use gpubox_bench::{report, AttackSetup};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    sets: usize,
    bandwidth_mb_s: f64,
    error_rate_pct: f64,
    /// Slot-latency percentiles (log2-bucket floors, cycles) from the
    /// spy's probe traces — see `ChannelReport::slot_latency_p50`.
    slot_latency_p50: u64,
    slot_latency_p95: u64,
    slot_latency_p99: u64,
}

/// Golden `(sets, bit_errors, fnv1a(received), duration_cycles)` per
/// sweep point. Any drift is a regression. Re-pinned once when noise
/// draws became counter-indexed: the jitter and congestion draws moved
/// to per-GPU coordinate streams and the jitter became an exact integer
/// table, so the bit streams shifted while the error band held (bit
/// errors per 12,000 bits at 1/2/4/8/16 sets: 1/26/111/280/4435 →
/// 2/11/126/369/4446).
const GOLDEN: [(usize, usize, u64, u64); 5] = [
    (1, 2, 13942822263952101290, 72120176),
    (2, 11, 1744116716161784195, 36120434),
    (4, 126, 14370787958155541120, 18121037),
    (8, 369, 14539479575316779195, 9121091),
    (16, 4446, 3792007780026981962, 4621208),
];

fn main() {
    report::header(
        "Fig. 9 — bandwidth and error rate vs. number of cache sets",
        "Sec. IV-C: bandwidth rises with sets, error rises too; paper best 3.95 MB/s @ 4 sets, 1.3% error",
    );
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);

    // Pseudo-random payload (repeatable); scaled-down stand-in for the
    // paper's 1 Mb message.
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let payload_bytes: Vec<u8> = (0..1500).map(|_| rng.gen()).collect();
    let payload = bits_from_bytes(&payload_bytes);

    // One independent machine per sweep point, fanned out in parallel by
    // the trial runner (bit-identical to a serial run of the same seed).
    let set_counts = vec![1usize, 2, 4, 8, 16];
    let results: Vec<(Point, usize, u64, u64)> =
        TrialRunner::new(909).run_over(set_counts, |trial, k| {
            let mut setup = AttackSetup::prepare(trial.seed);
            let pairs = setup.aligned_pairs(k);
            let medium = setup.medium(&pairs[..k]);
            let rep =
                transmit(&mut setup.sys, &medium, &payload, &params, &vote).expect("transmission");
            (
                Point {
                    sets: k,
                    bandwidth_mb_s: rep.bandwidth_bytes_per_sec / 1e6,
                    error_rate_pct: rep.error_rate * 100.0,
                    slot_latency_p50: rep.slot_latency_p50,
                    slot_latency_p95: rep.slot_latency_p95,
                    slot_latency_p99: rep.slot_latency_p99,
                },
                rep.bit_errors,
                report::fnv1a_bits(&rep.received),
                rep.duration_cycles,
            )
        });

    // Bit-compatibility gate: the channel must reproduce the golden
    // exactly (payload bits, error counts, end clock).
    for ((point, errors, hash, dur), (gk, gerrors, ghash, gdur)) in results.iter().zip(&GOLDEN) {
        assert_eq!(point.sets, *gk);
        assert_eq!(
            (*errors, *hash, *dur),
            (*gerrors, *ghash, *gdur),
            "decoded stream diverged from the golden at {gk} sets"
        );
    }

    let points: Vec<Point> = results.into_iter().map(|(p, ..)| p).collect();
    println!(
        "\n{:>6} | {:>16} | {:>12} | {:>22}",
        "sets", "bandwidth (MB/s)", "error (%)", "slot lat p50/p95/p99"
    );
    println!("-------+------------------+--------------+-----------------------");
    for p in &points {
        println!(
            "{:>6} | {:>16.3} | {:>12.2} | {:>22}",
            p.sets,
            p.bandwidth_mb_s,
            p.error_rate_pct,
            format!(
                "{}/{}/{}",
                p.slot_latency_p50, p.slot_latency_p95, p.slot_latency_p99
            )
        );
    }

    let bw_monotone = points
        .windows(2)
        .all(|w| w[1].bandwidth_mb_s > w[0].bandwidth_mb_s);
    let err_1 = points[0].error_rate_pct;
    let err_16 = points.last().unwrap().error_rate_pct;
    println!("\nshape check: bandwidth monotone in sets = {bw_monotone}");
    println!("shape check: error grows from {err_1:.2}% (1 set) to {err_16:.2}% (16 sets)");
    println!("(decoded payloads fingerprint-checked against the golden per point)");
    report::write_json("fig09_bandwidth_error", &points);
}
