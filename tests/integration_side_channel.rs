//! Side-channel integration: memorygram capture of real workloads and the
//! fingerprinting / model-extraction pipelines (paper Sec. V).

use gpubox_attacks::side::{
    detect_epochs, record_memorygram, summarize_mlp_gram, FingerprintDataset, RecorderConfig,
};
use gpubox_bench::{setup::victim_with_duration, SideChannelSetup};
use gpubox_classify::Memorygram;
use gpubox_sim::GpuId;
use gpubox_workloads::{standard_labels, standard_suite, MlpTraining, Workload};

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
    .expect("capture")
}

#[test]
fn every_workload_is_visible_through_the_side_channel() {
    let mut setup = SideChannelSetup::prepare(600, 128);
    for w in standard_suite() {
        let gram = capture(&mut setup, w.as_ref());
        // Exclude the cold first sweep, then the victim must still show.
        let active: u64 = gram.misses_per_sweep().iter().skip(1).sum();
        assert!(
            active > 100,
            "{} nearly invisible: {active} misses",
            w.name()
        );
    }
}

#[test]
fn workload_footprints_differ_from_each_other() {
    // Coarse separability check without training a classifier: per-class
    // mean feature images should differ pairwise.
    let mut setup = SideChannelSetup::prepare(601, 128);
    let features: Vec<Vec<f32>> = standard_suite()
        .iter()
        .map(|w| {
            let g = capture(&mut setup, w.as_ref());
            gpubox_attacks::side::gram_features(&g)
        })
        .collect();
    for i in 0..features.len() {
        for j in (i + 1)..features.len() {
            let dist: f32 = features[i]
                .iter()
                .zip(&features[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            assert!(dist > 0.05, "workloads {i} and {j} look identical ({dist})");
        }
    }
}

#[test]
fn small_fingerprint_pipeline_classifies_well() {
    let mut setup = SideChannelSetup::prepare(602, 128);
    let mut ds = FingerprintDataset::new(standard_labels());
    for (label, w) in standard_suite().iter().enumerate() {
        for _ in 0..8 {
            ds.push(capture(&mut setup, w.as_ref()), label);
        }
    }
    let rep = ds.train_and_evaluate(0.5, 0.25, 3);
    assert!(rep.test_accuracy >= 0.9, "accuracy {}", rep.test_accuracy);
}

#[test]
fn mlp_misses_grow_with_hidden_width() {
    let mut setup = SideChannelSetup::prepare(603, 256);
    let mut prev = 0.0;
    for width in [64usize, 256] {
        let gram = capture(&mut setup, &MlpTraining::with_hidden(width));
        let avg = summarize_mlp_gram(&gram).avg_misses_per_set;
        assert!(avg > prev, "width {width}: {avg} not above {prev}");
        prev = avg;
    }
}

#[test]
fn epoch_counts_recovered_from_memorygrams() {
    let mut setup = SideChannelSetup::prepare(604, 128);
    for epochs in [1usize, 2] {
        let gram = capture(&mut setup, &MlpTraining::with_hidden_epochs(64, epochs));
        assert_eq!(detect_epochs(&gram, 9), epochs, "epochs={epochs}");
    }
}

#[test]
fn concurrent_victims_superimpose_in_the_memorygram() {
    // Two victims running together produce at least as much activity as
    // the busier one alone — the spy sees the union of footprints.
    let mut setup = SideChannelSetup::prepare(605, 128);
    let solo = {
        let g = capture(&mut setup, &gpubox_workloads::VectorAdd::new(16 * 1024));
        g.total_misses()
    };
    let both = {
        let v1 = setup.sys.create_process(GpuId::new(0));
        let v2 = setup.sys.create_process(GpuId::new(0));
        let (a1, d1) = victim_with_duration(
            &mut setup.sys,
            v1,
            &gpubox_workloads::VectorAdd::new(16 * 1024),
        );
        let (a2, d2) = victim_with_duration(
            &mut setup.sys,
            v2,
            &gpubox_workloads::Histogram::new(16 * 1024, 256),
        );
        setup.sys.flush_l2(GpuId::new(0));
        let gram = record_memorygram(
            &mut setup.sys,
            setup.spy,
            &setup.monitored,
            setup.thresholds,
            &RecorderConfig {
                duration: d1.max(d2),
                sweep_gap: 0,
            },
            vec![Box::new(a1), Box::new(a2)],
        )
        .unwrap();
        gram.total_misses()
    };
    assert!(both > solo, "superimposed activity {both} <= solo {solo}");
}

/// FNV-1a over a memorygram's set count and every sweep's miss counts.
fn gram_digest(gram: &Memorygram) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let bytes = (gram.num_sets() as u64).to_le_bytes();
    for &b in bytes.iter().chain(gram.sweeps().flatten()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn memorygrams_match_the_materialised_trace_replay() {
    // Pinned on the noisy DGX-1: the lazy op generators must replay the
    // fully built op vectors cell for cell, and each capture ends one
    // idle window after the victim's last miss.
    let mut setup = SideChannelSetup::prepare(606, 64);
    let golden: [(&dyn Workload, usize, u64, u64); 2] = [
        (
            &gpubox_workloads::Histogram::default(),
            677,
            11_832,
            0x9aa6_ca0e_67d0_4165,
        ),
        (
            &gpubox_workloads::QuasiRandom::default(),
            2_903,
            21_815,
            0xe303_b514_40d1_54c4,
        ),
    ];
    for (w, sweeps, misses, digest) in golden {
        let gram = capture(&mut setup, w);
        assert_eq!(
            (gram.num_sweeps(), gram.total_misses(), gram_digest(&gram)),
            (sweeps, misses, digest),
            "{} memorygram moved",
            w.name()
        );
    }
}
