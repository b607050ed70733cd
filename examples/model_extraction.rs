//! Model extraction: infer the hidden-layer width and the number of
//! training epochs of an MLP training on a remote GPU (paper Sec. V-B).
//!
//! Run with: `cargo run --release --example model_extraction`

use gpubox_attacks::side::{detect_epochs, record_memorygram, summarize_mlp_gram, RecorderConfig};
use gpubox_bench::{setup::victim_with_duration, SideChannelSetup};
use gpubox_classify::Memorygram;
use gpubox_sim::GpuId;
use gpubox_workloads::MlpTraining;

fn capture(setup: &mut SideChannelSetup, w: &MlpTraining) -> Memorygram {
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
    println!(
        "[offline] spy prepares 1024 monitored sets and calibrates per-width miss profiles ..."
    );
    let mut setup = SideChannelSetup::prepare(0xE077, 1024);

    // Offline calibration: average misses per set for ONE training epoch
    // per candidate width (Table II). Online, totals are normalised by
    // the epoch count the attacker extracts from the activity bands.
    let widths = [64usize, 128, 256, 512];
    let mut calibration = Vec::new();
    for &w in &widths {
        let gram = capture(&mut setup, &MlpTraining::with_hidden(w));
        let avg = summarize_mlp_gram(&gram).avg_misses_per_set;
        println!("  width {w:>3}: avg {avg:.1} misses/set per epoch");
        calibration.push((w, avg));
    }

    // The victim secretly trains with 256 hidden neurons for 2 epochs.
    println!("\n[online] victim starts training its secret model ...");
    let secret = MlpTraining::with_hidden_epochs(256, 2);
    let gram = capture(&mut setup, &secret);
    let epochs = detect_epochs(&gram, 9);
    let observed = summarize_mlp_gram(&gram).avg_misses_per_set / epochs.max(1) as f64;

    // Nearest calibration point wins.
    let (guess, _) = calibration
        .iter()
        .min_by(|a, b| {
            (a.1 - observed)
                .abs()
                .partial_cmp(&(b.1 - observed).abs())
                .unwrap()
        })
        .copied()
        .unwrap();
    println!("[online] observed {observed:.1} misses/set/epoch over {epochs} activity band(s)");
    println!("[online] spy concludes: hidden width = {guess}, epochs = {epochs}");
    assert_eq!(guess, 256);
    assert_eq!(epochs, 2);
    println!("correct — the secret model had 256 hidden neurons, trained 2 epochs.");
}
