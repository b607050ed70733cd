//! Ablation — covert channel with and without eviction-set alignment.
//!
//! Without the Algorithm-2 alignment step the two processes contend on
//! *different* physical sets and the channel collapses to coin flips;
//! this quantifies how load-bearing the alignment protocol is.

use gpubox_attacks::covert::bits_from_bytes;
use gpubox_attacks::{transmit, BoundaryPolicy, ChannelParams, Pipeline, SetPair};
use gpubox_bench::{report, AttackSetup};

fn main() {
    report::header(
        "Ablation — channel error with vs. without set alignment",
        "Sec. IV-A: the alignment step is what makes the channel work",
    );
    let mut setup = AttackSetup::prepare(777);
    let pairs = setup.aligned_pairs(8);
    let payload = bits_from_bytes(b"alignment ablation payload 0123456789");
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);

    // Aligned: the real protocol output.
    let medium = setup.medium(&pairs[..2]);
    let aligned =
        transmit(&mut setup.sys, &medium, &payload, &params, &vote).expect("aligned transmission");

    // Misaligned: pair each trojan set with a spy set of a *different*
    // physical set (offset shifted by one within the page class).
    let misaligned_pairs: Vec<SetPair> = vec![
        SetPair {
            trojan: pairs[0].trojan.clone(),
            spy: pairs[1].spy.clone(),
        },
        SetPair {
            trojan: pairs[2].trojan.clone(),
            spy: pairs[3].spy.clone(),
        },
    ];
    let medium = setup.medium(&misaligned_pairs);
    let misaligned = transmit(&mut setup.sys, &medium, &payload, &params, &vote)
        .expect("misaligned transmission");

    let rows = vec![
        (
            "aligned (Algorithm 2)".to_string(),
            format!("{:.2}%", aligned.error_rate * 100.0),
        ),
        (
            "misaligned".to_string(),
            format!("{:.2}%", misaligned.error_rate * 100.0),
        ),
    ];
    report::table2("configuration", "bit error rate", &rows);
    println!(
        "\naligned errors: {}/{}  misaligned errors: {}/{}",
        aligned.bit_errors,
        aligned.sent.len(),
        misaligned.bit_errors,
        misaligned.sent.len()
    );
    println!(
        "\nwithout alignment the spy never observes the trojan's contention\n\
              and decodes noise (~50% of a random payload's bits wrong)."
    );
}
