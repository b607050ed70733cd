//! Ablation — covert-channel slot length (the paper's tuned parameter).
//!
//! The paper tunes trojan-side pacing "to communicate the covert message
//! successfully" (Sec. IV-C). This ablation sweeps the bit-slot length:
//! short slots raise bandwidth but leave too few probes per slot for
//! majority voting; long slots are robust but slow.

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, Pipeline};
use gpubox_bench::{report, AttackSetup};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    report::header(
        "Ablation — bit-slot length vs. bandwidth and error (4 sets)",
        "Sec. IV-C: the pacing parameter the paper tunes by hand",
    );
    let mut setup = AttackSetup::prepare(3131);
    let pairs = setup.aligned_pairs(4);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let payload_bytes: Vec<u8> = (0..400).map(|_| rng.gen()).collect();
    let payload = bits_from_bytes(&payload_bytes);

    let medium = setup.medium(&pairs);
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let mut rows = Vec::new();
    for &slot in &[1_500u64, 3_000, 6_000, 12_000, 24_000] {
        let params = ChannelParams {
            slot_cycles: slot,
            ..Default::default()
        };
        let rep =
            transmit(&mut setup.sys, &medium, &payload, &params, &vote).expect("transmission");
        rows.push((
            slot,
            format!("{:.1} KB/s", rep.bandwidth_bytes_per_sec / 1e3),
            format!("{:.2}%", rep.error_rate * 100.0),
        ));
    }
    report::table3(("slot (cycles)", "bandwidth", "error"), &rows);
    println!(
        "\nshort slots fit at most one probe (votes become coin flips on\n\
         boundary probes); beyond ~6000 cycles extra robustness no longer\n\
         pays for the halved bandwidth — matching the default."
    );
}
