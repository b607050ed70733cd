//! Fingerprint spy: train an offline classifier on known workloads, then
//! identify what an unsuspecting victim GPU is running (paper Sec. V-A).
//!
//! Run with: `cargo run --release --example fingerprint_spy -- [samples_per_class]`

use gpubox_attacks::side::{record_memorygram, FingerprintDataset, RecorderConfig};
use gpubox_bench::{setup::victim_with_duration, SideChannelSetup};
use gpubox_classify::Memorygram;
use gpubox_sim::GpuId;
use gpubox_workloads::{standard_labels, standard_suite, Workload};

fn capture(setup: &mut SideChannelSetup, w: &dyn Workload) -> Memorygram {
    let victim = setup.sys.create_process(GpuId::new(0));
    let (agent, duration) = victim_with_duration(&mut setup.sys, victim, w);
    setup.sys.flush_l2(GpuId::new(0));
    record_memorygram(
        &mut setup.sys,
        setup.spy,
        &setup.monitored,
        setup.thresholds,
        &RecorderConfig {
            duration,
            sweep_gap: 0,
        },
        vec![Box::new(agent)],
    )
    .expect("memorygram capture")
}

fn main() {
    let per_class: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(12);

    println!("[offline] spy builds eviction sets for 256 cache sets of GPU0 ...");
    let mut setup = SideChannelSetup::prepare(0x5EED, 256);

    println!("[offline] collecting {per_class} training memorygrams per application ...");
    let mut ds = FingerprintDataset::new(standard_labels());
    for (label, w) in standard_suite().iter().enumerate() {
        for _ in 0..per_class {
            ds.push(capture(&mut setup, w.as_ref()), label);
        }
    }
    let report = ds.train_and_evaluate(0.6, 0.2, 7);
    println!(
        "[offline] classifier trained: {:.1}% validation accuracy",
        report.val_accuracy * 100.0
    );

    // The "unknown" victim: secretly matrix multiplication.
    println!("\n[online] an unknown application starts on GPU0 ...");
    let secret = gpubox_workloads::MatMul::default().with_seed(0xDEAD);
    let gram = capture(&mut setup, &secret);
    let guess = report.identify(&gram);
    println!(
        "[online] spy watched {} probe sweeps and says: the victim is running '{}'",
        gram.num_sweeps(),
        guess
    );
    assert_eq!(guess, "MM");
    println!("correct — the victim was matrix multiplication.");
}
