//! Application fingerprinting from memorygrams (paper Sec. V-A).
//!
//! The attacker collects labelled memorygrams by spying on known
//! applications offline, trains an image classifier, and can then identify
//! what a victim GPU is running — the paper reaches 99.91% over six CUDA
//! workloads (Fig. 12).

use gpubox_classify::{
    stratified_split, ConfusionMatrix, KnnClassifier, LogisticClassifier, Memorygram, TrainConfig,
};
use rayon::iter::{IntoParallelRefIterator, ParallelIterator};
use serde::{Deserialize, Serialize};

/// Downsampled feature image size (rows × cols) fed to the classifier.
pub const FEATURE_ROWS: usize = 24;
/// Feature image columns.
pub const FEATURE_COLS: usize = 24;
/// Weight of the raw image block relative to the placement-invariant
/// block in the combined feature vector.
const IMAGE_WEIGHT: f32 = 0.15;

/// Averages `v` into `out` equal-width bins.
fn resample(v: &[f64], out: usize) -> Vec<f32> {
    if v.is_empty() {
        return vec![0.0; out];
    }
    (0..out)
        .map(|i| {
            let lo = i * v.len() / out;
            let hi = ((i + 1) * v.len() / out).max(lo + 1).min(v.len());
            (v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64) as f32
        })
        .collect()
}

/// Placement-invariant signature of a memorygram.
///
/// Victim buffers get fresh random physical frames on every run, so the
/// paper notes that footprints *shift across cache sets* between
/// captures of the same application. Features that depend on which set a
/// column landed in therefore do not transfer between samples. This
/// block is invariant to that shift:
///
/// - the **sorted** per-set mean-miss profile (a spatial activity
///   histogram — how many sets are how hot, not which ones);
/// - the temporal activity profile relative to its own mean (epoch
///   bands, bursts), resampled to a fixed width;
/// - scalar aggregates: overall activity level, active-set fraction,
///   temporal variance, and capture length. The spy ends a capture one
///   idle window after the last sweep with a miss, so the length is a
///   span it observed (the victim's activity plus that window), not one
///   read from the victim.
fn invariant_features(g: &Memorygram) -> Vec<f32> {
    let sweeps = g.num_sweeps().max(1) as f64;
    let mut per_set: Vec<f64> = g
        .misses_per_set()
        .iter()
        .map(|&m| m as f64 / sweeps)
        .collect();
    per_set.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let spatial = resample(&per_set, 16);
    let per_sweep: Vec<f64> = g
        .misses_per_sweep()
        .iter()
        .skip(1) // the first sweep is the spy's own cold fill
        .map(|&m| m as f64)
        .collect();
    let mean = (per_sweep.iter().sum::<f64>() / per_sweep.len().max(1) as f64).max(1e-9);
    let temporal_rel: Vec<f64> = per_sweep.iter().map(|&m| m / mean).collect();
    let temporal = resample(&temporal_rel, 24);

    let mut f = Vec::with_capacity(16 + 24 + 4);
    let peak = per_set.first().copied().unwrap_or(0.0).max(1e-9) as f32;
    f.extend(spatial.iter().map(|&s| (s / peak).min(1.0)));
    f.extend(temporal.iter().map(|&t| (t / 4.0).min(1.0)));
    f.push(((mean / 16.0) as f32).min(1.0));
    let active =
        per_set.iter().filter(|&&m| m > 0.5).count() as f32 / per_set.len().max(1) as f32;
    f.push(active);
    let var = temporal_rel
        .iter()
        .map(|&t| (t - 1.0) * (t - 1.0))
        .sum::<f64>()
        / per_sweep.len().max(1) as f64;
    f.push((var as f32).min(4.0) / 4.0);
    f.push(((per_sweep.len() as f32) / 256.0).min(1.0));
    f
}

/// Converts a memorygram to a normalised feature vector: the
/// placement-invariant signature block followed by the down-weighted
/// [`FEATURE_ROWS`]`×`[`FEATURE_COLS`] image (which still carries raw
/// spatio-temporal structure for captures that share a placement).
pub fn gram_features(gram: &Memorygram) -> Vec<f32> {
    let mut f = invariant_features(gram);
    let img = gram.downsample(FEATURE_ROWS, FEATURE_COLS, 16.0);
    f.extend(img.iter().map(|&v| v * IMAGE_WEIGHT));
    f
}

/// A labelled memorygram collection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FingerprintDataset {
    /// Class names, index = label.
    pub labels: Vec<String>,
    /// Collected samples.
    pub samples: Vec<(Memorygram, usize)>,
}

impl FingerprintDataset {
    /// Creates an empty dataset over the given class names.
    pub fn new(labels: Vec<String>) -> Self {
        FingerprintDataset {
            labels,
            samples: Vec::new(),
        }
    }

    /// Adds a labelled memorygram.
    ///
    /// # Panics
    ///
    /// Panics when the label is out of range.
    pub fn push(&mut self, gram: Memorygram, label: usize) {
        assert!(label < self.labels.len(), "label out of range");
        self.samples.push((gram, label));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Trains the classifier and evaluates on a held-out test split,
    /// mirroring the paper's 150/150/1200-per-class protocol via
    /// fractions.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn train_and_evaluate(
        &self,
        train_frac: f64,
        val_frac: f64,
        seed: u64,
    ) -> FingerprintReport {
        assert!(!self.is_empty(), "no samples collected");
        // Feature extraction is a pure per-sample map — fan it out.
        // Results come back in sample order, so the split stays
        // deterministic regardless of thread count.
        let data: Vec<(Vec<f32>, usize)> = self
            .samples
            .par_iter()
            .map(|(g, y)| (gram_features(g), *y))
            .collect();
        let classes = self.labels.len();
        let split = stratified_split(&data, classes, train_frac, val_frac, seed);
        let model = LogisticClassifier::train(&split.train, classes, &TrainConfig::default());
        let val_cm = ConfusionMatrix::evaluate(&split.val, classes, |x| model.predict(x));
        let test_cm = ConfusionMatrix::evaluate(&split.test, classes, |x| model.predict(x));
        // k-NN baseline on the same split (a sanity anchor: if k-NN beats
        // the trained model badly, training failed). Predictions fan out
        // across threads; the result is order-preserving.
        let knn = KnnClassifier::new(split.train.clone(), 3);
        let test_xs: Vec<Vec<f32>> = split.test.iter().map(|(x, _)| x.clone()).collect();
        let knn_preds = knn.predict_batch(&test_xs);
        let mut knn_cm = ConfusionMatrix::new(classes);
        for ((_, y), p) in split.test.iter().zip(knn_preds) {
            knn_cm.record(*y, p);
        }
        FingerprintReport {
            labels: self.labels.clone(),
            val_accuracy: val_cm.accuracy(),
            test_accuracy: test_cm.accuracy(),
            knn_test_accuracy: knn_cm.accuracy(),
            confusion: test_cm,
            model,
        }
    }
}

/// Outcome of the fingerprinting pipeline.
#[derive(Debug, Clone)]
pub struct FingerprintReport {
    /// Class names.
    pub labels: Vec<String>,
    /// Validation-set accuracy.
    pub val_accuracy: f64,
    /// Held-out test accuracy (the paper's headline 99.91%).
    pub test_accuracy: f64,
    /// k-NN (k=3) baseline accuracy on the same test split.
    pub knn_test_accuracy: f64,
    /// Test confusion matrix (Fig. 12).
    pub confusion: ConfusionMatrix,
    /// The trained model, usable for live identification.
    pub model: LogisticClassifier,
}

impl FingerprintReport {
    /// Predicts the application behind a fresh memorygram.
    pub fn identify(&self, gram: &Memorygram) -> &str {
        let label = self.model.predict(&gram_features(gram));
        &self.labels[label]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesises memorygrams with class-dependent structure.
    fn synthetic_gram(class: usize, seed: u64) -> Memorygram {
        let sets = 64;
        let mut g = Memorygram::new(sets);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for t in 0..80usize {
            let row: Vec<u8> = (0..sets)
                .map(|s| {
                    let active = match class {
                        0 => s < 20,                      // low bands
                        1 => s % 4 == 0,                  // striped
                        _ => (t / 10) % 2 == 0 && s > 40, // blinking tail
                    };
                    if active {
                        (8 + (rnd() % 8)) as u8
                    } else {
                        (rnd() % 2) as u8
                    }
                })
                .collect();
            g.push_sweep(row);
        }
        g
    }

    #[test]
    fn distinct_patterns_classify_accurately() {
        let mut ds = FingerprintDataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for class in 0..3usize {
            for i in 0..30u64 {
                ds.push(synthetic_gram(class, i * 3 + class as u64), class);
            }
        }
        let rep = ds.train_and_evaluate(0.4, 0.2, 5);
        assert!(rep.test_accuracy > 0.95, "accuracy {}", rep.test_accuracy);
        assert!(
            rep.knn_test_accuracy > 0.9,
            "knn baseline {}",
            rep.knn_test_accuracy
        );
        // Live identification works on a fresh sample.
        let fresh = synthetic_gram(1, 9999);
        assert_eq!(rep.identify(&fresh), "b");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let mut ds = FingerprintDataset::new(vec!["only".into()]);
        ds.push(Memorygram::new(4), 3);
    }
}
