//! Fig. 12 — application-fingerprinting confusion matrix.
//!
//! Collects labelled memorygrams for the six victims (each run uses fresh
//! buffer placements, so footprints shift across runs exactly as the paper
//! notes), trains the classifier, and evaluates on a held-out test set.
//! Paper: 99.91% accuracy over 7200 test samples.
//!
//! The experiment runs once per [`TrialRunner`] master seed in
//! [`MASTER_SEEDS`] and exits non-zero unless every gate holds:
//! - the one-sided 95% Clopper–Pearson lower bound of test accuracy,
//!   pooled over the seeds, is at least [`MIN_POOLED_ACCURACY`];
//! - every per-class recall is at least [`MIN_RECALL`] at each seed;
//! - the k-NN baseline is at least [`MIN_KNN_ACCURACY`] at each seed.
//!
//! Usage: `fig12_confusion_matrix [samples_per_class] [shards]`
//!
//! Capture fans out over `shards` independent spy setups via
//! [`TrialRunner`]; the dataset depends on the shard count (each shard is
//! its own machine) but not on how many threads execute the shards. The
//! default is the constant [`DEFAULT_SHARDS`], so the default run's
//! dataset is the same on every host.

use gpubox_attacks::side::{
    record_memorygram, FingerprintDataset, FingerprintReport, RecorderConfig,
};
use gpubox_attacks::TrialRunner;
use gpubox_bench::{report, setup::victim_with_duration, SideChannelSetup};
use gpubox_classify::{clopper_pearson_lower, ConfusionMatrix, Memorygram};
use gpubox_sim::GpuId;
use gpubox_workloads::{
    BlackScholes, Histogram, MatMul, QuasiRandom, VectorAdd, WalshTransform, Workload,
};
use serde::Serialize;

/// Default shard count: a constant, not the host's parallelism, because
/// the dataset depends on it.
const DEFAULT_SHARDS: usize = 4;

/// `TrialRunner` master seeds: one full experiment each.
const MASTER_SEEDS: [u64; 3] = [7000, 7001, 7002];
/// Gate on the pooled one-sided 95% Clopper–Pearson lower bound.
const MIN_POOLED_ACCURACY: f64 = 0.95;
/// Gate on every class's recall, at every seed.
const MIN_RECALL: f64 = 0.80;
/// Gate on the k-NN baseline, at every seed.
const MIN_KNN_ACCURACY: f64 = 0.95;

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

/// Captures `per_class` memorygrams of each victim over `shards` spy
/// setups seeded from `master`, then trains and evaluates.
fn run(master: u64, per_class: usize, shards: usize) -> FingerprintReport {
    let jobs: Vec<(usize, u64)> = (0..6usize)
        .flat_map(|c| (0..per_class as u64).map(move |s| (c, s)))
        .collect();

    // One spy setup per shard, each shard owning a strided slice of the
    // jobs; shards run in parallel with deterministic per-shard seeds.
    let shard_jobs: Vec<Vec<(usize, u64)>> = (0..shards)
        .map(|t| jobs.iter().skip(t).step_by(shards).copied().collect())
        .collect();
    let collected: Vec<Vec<(Memorygram, usize)>> =
        TrialRunner::new(master).run_over(shard_jobs, |trial, my_jobs| {
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

    let mut ds = FingerprintDataset::new(gpubox_workloads::standard_labels());
    for (gram, class) in collected.into_iter().flatten() {
        ds.push(gram, class);
    }
    ds.train_and_evaluate(0.5, 0.1, 99)
}

/// One seed's outcome in the JSON artefact.
#[derive(Debug, Serialize)]
struct SeedResult {
    master_seed: u64,
    val_accuracy: f64,
    test_accuracy: f64,
    knn_test_accuracy: f64,
    per_class_recall: Vec<f64>,
    confusion: ConfusionMatrix,
}

/// The gate's inputs and verdict.
#[derive(Debug, Serialize)]
struct GateResult {
    seeds: Vec<SeedResult>,
    pooled_correct: usize,
    pooled_total: usize,
    pooled_lower_95: f64,
    failures: Vec<String>,
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
    println!(
        "collecting {per_class} samples/class over {shards} parallel shards, master seeds {MASTER_SEEDS:?} ..."
    );

    let labels = gpubox_workloads::standard_labels();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut gate = GateResult {
        seeds: Vec::new(),
        pooled_correct: 0,
        pooled_total: 0,
        pooled_lower_95: 0.0,
        failures: Vec::new(),
    };
    for master in MASTER_SEEDS {
        let rep = run(master, per_class, shards);
        let recall = rep.confusion.per_class_recall();
        println!(
            "\n--- master seed {master}: {} test samples ---",
            rep.confusion.total()
        );
        println!("validation accuracy: {:.2}%", rep.val_accuracy * 100.0);
        println!(
            "test accuracy:       {:.2}%  (paper: 99.91%)",
            rep.test_accuracy * 100.0
        );
        println!("k-NN baseline:       {:.2}%", rep.knn_test_accuracy * 100.0);
        println!("\nconfusion matrix (test set):");
        println!("{}", rep.confusion.render(&label_refs));
        println!("per-class recall:");
        for (l, r) in labels.iter().zip(&recall) {
            println!("  {l}: {:.2}%", r * 100.0);
            if *r < MIN_RECALL {
                gate.failures.push(format!(
                    "seed {master}: {l} recall {:.2}% < {:.0}%",
                    r * 100.0,
                    MIN_RECALL * 100.0
                ));
            }
        }
        if rep.knn_test_accuracy < MIN_KNN_ACCURACY {
            gate.failures.push(format!(
                "seed {master}: k-NN {:.2}% < {:.0}%",
                rep.knn_test_accuracy * 100.0,
                MIN_KNN_ACCURACY * 100.0
            ));
        }
        gate.pooled_correct += rep.confusion.correct();
        gate.pooled_total += rep.confusion.total();
        gate.seeds.push(SeedResult {
            master_seed: master,
            val_accuracy: rep.val_accuracy,
            test_accuracy: rep.test_accuracy,
            knn_test_accuracy: rep.knn_test_accuracy,
            per_class_recall: recall,
            confusion: rep.confusion,
        });
    }

    gate.pooled_lower_95 = clopper_pearson_lower(gate.pooled_correct, gate.pooled_total, 0.05);
    println!(
        "\npooled test accuracy: {}/{} = {:.2}%, one-sided 95% Clopper-Pearson lower bound {:.2}% (gate: >= {:.0}%)",
        gate.pooled_correct,
        gate.pooled_total,
        gate.pooled_correct as f64 / gate.pooled_total.max(1) as f64 * 100.0,
        gate.pooled_lower_95 * 100.0,
        MIN_POOLED_ACCURACY * 100.0
    );
    if gate.pooled_lower_95 < MIN_POOLED_ACCURACY {
        gate.failures.push(format!(
            "pooled lower bound {:.2}% < {:.0}%",
            gate.pooled_lower_95 * 100.0,
            MIN_POOLED_ACCURACY * 100.0
        ));
    }
    report::write_json("fig12_confusion", &gate);
    if !gate.failures.is_empty() {
        for f in &gate.failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "gate: pass (pooled lower bound, per-class recall >= {:.0}%, k-NN >= {:.0}% at every seed)",
        MIN_RECALL * 100.0,
        MIN_KNN_ACCURACY * 100.0
    );
}
