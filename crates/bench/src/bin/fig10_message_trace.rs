//! Fig. 10 — the covert message as the spy's probe-latency trace.
//!
//! Sends the paper's message ("Hello! How are you? ...") over one cache
//! set and prints the received text plus the probe-latency levels: ~630
//! cycles while a 0 is sent (remote hit), ~950 while a 1 is sent (remote
//! miss).

use gpubox_attacks::covert::{bits_from_bytes, bytes_from_bits};
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, Pipeline};
use gpubox_bench::{report, AttackSetup};

/// Golden `(bit_errors, fnv1a(received), duration_cycles)`. Any drift is
/// a regression. The decoded bits and their fingerprint have not changed
/// since commit af72b35. The end clock moved from 3_336_535 to 3_336_417
/// when noise draws became counter-indexed (per-GPU coordinate streams
/// and an exact integer jitter table).
const GOLDEN: (usize, u64, u64) = (0, 0x6efe_f0d3_d812_3d07, 3_336_417);

fn main() {
    report::header(
        "Fig. 10 — cross-GPU covert message received by the spy",
        "Sec. IV-C: '0' ~630 cycles, '1' ~950 cycles",
    );
    let message = b"Hello! How are you? This message crossed two GPUs via the L2 cache.";
    let mut setup = AttackSetup::prepare(1010);
    let pairs = setup.aligned_pairs(1);
    let medium = setup.medium(&pairs);
    let rep = transmit(
        &mut setup.sys,
        &medium,
        &bits_from_bytes(message),
        &ChannelParams::default(),
        &Pipeline::vote(BoundaryPolicy::TwoMeans),
    )
    .expect("transmission");

    assert_eq!(
        (rep.bit_errors, report::fnv1a_bits(&rep.received), rep.duration_cycles),
        GOLDEN,
        "decoded stream diverged from the PR 3 golden"
    );

    let received = bytes_from_bits(&rep.received);
    println!("\nsent:     {:?}", String::from_utf8_lossy(message));
    println!("received: {:?}", String::from_utf8_lossy(&received));
    println!(
        "bit errors: {} / {} ({:.2}%)",
        rep.bit_errors,
        rep.sent.len(),
        rep.error_rate * 100.0
    );

    // The trace levels, exactly what Fig. 10's y-axis shows.
    let trace = &rep.traces[0];
    let ones: Vec<f64> = trace
        .iter()
        .filter(|s| s.misses > 8)
        .map(|s| f64::from(s.mean_latency))
        .collect();
    let zeros: Vec<f64> = trace
        .iter()
        .filter(|s| s.misses <= 8)
        .map(|s| f64::from(s.mean_latency))
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nprobe level while sending '1': {:.0} cycles (paper: ~950)",
        avg(&ones)
    );
    println!(
        "probe level while sending '0': {:.0} cycles (paper: ~630)",
        avg(&zeros)
    );

    // A segment of the raw trace, downsampled, as an ASCII strip chart.
    println!("\nfirst 160 probes (.=hit level, #=miss level):");
    let strip: String = trace
        .iter()
        .take(160)
        .map(|s| if s.misses > 8 { '#' } else { '.' })
        .collect();
    for chunk in strip.as_bytes().chunks(80) {
        println!("{}", String::from_utf8_lossy(chunk));
    }
    report::write_json(
        "fig10_trace",
        &trace
            .iter()
            .take(500)
            .map(|s| (s.at, s.mean_latency))
            .collect::<Vec<_>>(),
    );
}
