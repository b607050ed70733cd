//! Covert chat: send an arbitrary message from a trojan on GPU0 to a spy
//! on GPU1 through GPU0's L2 cache — the full end-to-end attack of
//! paper Sec. IV (eviction sets → alignment → Prime+Probe transmission).
//!
//! Run with:
//! `cargo run --release --example covert_chat -- "your message" [sets]`

use gpubox_attacks::covert::{bits_from_bytes, bytes_from_bits};
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, Pipeline};
use gpubox_bench::AttackSetup;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let message = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "Hello! How are you?".to_string());
    let sets: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .clamp(1, 16);

    println!("[offline] reverse engineering caches and building eviction sets ...");
    let mut setup = AttackSetup::prepare(0xC0FFEE);
    println!("[offline] aligning {sets} eviction-set pair(s) across the two processes ...");
    let pairs = setup.aligned_pairs(sets);

    println!(
        "[online]  transmitting {:?} over {sets} cache set(s) ...",
        message
    );
    let medium = setup.medium(&pairs);
    let report = transmit(
        &mut setup.sys,
        &medium,
        &bits_from_bytes(message.as_bytes()),
        &ChannelParams::default(),
        &Pipeline::vote(BoundaryPolicy::TwoMeans),
    )
    .expect("transmission");

    let received = String::from_utf8_lossy(&bytes_from_bits(&report.received)).into_owned();
    println!("\ntrojan (GPU0) sent : {message:?}");
    println!("spy    (GPU1) got  : {received:?}");
    println!(
        "bit errors: {}/{} ({:.2}%), bandwidth {:.1} KB/s over {:.2} ms",
        report.bit_errors,
        report.sent.len(),
        report.error_rate * 100.0,
        report.bandwidth_bytes_per_sec / 1e3,
        setup.sys.latency_model().cycles_to_seconds(report.duration_cycles) * 1e3,
    );
}
