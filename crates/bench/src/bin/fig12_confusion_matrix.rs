//! Fig. 12 — application-fingerprinting confusion matrix.
//!
//! Collects labelled memorygrams for the six victims (each run uses fresh
//! buffer placements, so footprints shift across runs exactly as the paper
//! notes), trains the classifier, and evaluates on a held-out test set.
//! Paper: 99.91% accuracy over 7200 test samples.
//!
//! Usage: `fig12_confusion_matrix [samples_per_class] [shards]`
//!
//! Capture fans out over `shards` independent spy setups via
//! [`TrialRunner`]; the dataset depends on the shard count (each shard is
//! its own machine) but not on how many threads execute the shards. The
//! default is the constant [`DEFAULT_SHARDS`], so the default run's
//! dataset is the same on every host.

use gpubox_attacks::side::{record_memorygram, FingerprintDataset, RecorderConfig};
use gpubox_attacks::TrialRunner;
use gpubox_bench::{report, setup::victim_with_duration, SideChannelSetup};
use gpubox_classify::Memorygram;
use gpubox_sim::GpuId;
use gpubox_workloads::{
    BlackScholes, Histogram, MatMul, QuasiRandom, VectorAdd, WalshTransform, Workload,
};

/// Default shard count: a constant, not the host's parallelism, because
/// the dataset depends on it.
const DEFAULT_SHARDS: usize = 4;

fn workload(class: usize, seed: u64) -> Box<dyn Workload> {
    match class {
        0 => Box::new(BlackScholes::default().with_seed(seed)),
        1 => Box::new(Histogram::default().with_seed(seed)),
        2 => Box::new(MatMul::default().with_seed(seed)),
        3 => Box::new(QuasiRandom::default()),
        4 => Box::new(VectorAdd::default().with_seed(seed)),
        _ => Box::new(WalshTransform::default().with_seed(seed)),
    }
}

fn capture(setup: &mut SideChannelSetup, class: usize, seed: u64) -> Memorygram {
    let victim = setup.sys.create_process(GpuId::new(0));
    let w = workload(class, seed);
    let (agent, duration) = victim_with_duration(&mut setup.sys, victim, w.as_ref());
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
    let args: Vec<String> = std::env::args().collect();
    let per_class: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(40);
    let shards: usize = args
        .get(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_SHARDS);
    report::header(
        "Fig. 12 — fingerprinting confusion matrix",
        "Sec. V-A: 99.91% accuracy over 6 applications",
    );
    println!("collecting {per_class} samples/class over {shards} parallel shards ...");

    let labels = gpubox_workloads::standard_labels();
    let jobs: Vec<(usize, u64)> = (0..6usize)
        .flat_map(|c| (0..per_class as u64).map(move |s| (c, s)))
        .collect();

    // One spy setup per shard, each shard owning a strided slice of the
    // jobs; shards run in parallel with deterministic per-shard seeds.
    let shard_jobs: Vec<Vec<(usize, u64)>> = (0..shards)
        .map(|t| jobs.iter().skip(t).step_by(shards).copied().collect())
        .collect();
    let collected: Vec<Vec<(Memorygram, usize)>> =
        TrialRunner::new(7000).run_over(shard_jobs, |trial, my_jobs| {
            let mut setup = SideChannelSetup::prepare(trial.seed, 256);
            my_jobs
                .into_iter()
                .map(|(class, seed)| {
                    (
                        capture(&mut setup, class, 100 + seed * 7 + class as u64),
                        class,
                    )
                })
                .collect()
        });

    let mut ds = FingerprintDataset::new(labels.clone());
    for (gram, class) in collected.into_iter().flatten() {
        ds.push(gram, class);
    }
    println!("collected {} samples; training classifier ...", ds.len());
    let rep = ds.train_and_evaluate(0.5, 0.1, 99);

    println!("\nvalidation accuracy: {:.2}%", rep.val_accuracy * 100.0);
    println!(
        "test accuracy:       {:.2}%  (paper: 99.91%)",
        rep.test_accuracy * 100.0
    );
    println!("k-NN baseline:       {:.2}%", rep.knn_test_accuracy * 100.0);
    println!("\nconfusion matrix (test set):");
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    println!("{}", rep.confusion.render(&label_refs));
    println!("per-class recall:");
    for (l, r) in labels.iter().zip(rep.confusion.per_class_recall()) {
        println!("  {l}: {:.2}%", r * 100.0);
    }
    report::write_json("fig12_confusion", &rep.confusion);
}
