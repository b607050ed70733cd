//! Multinomial logistic regression trained with mini-batch SGD.
//!
//! The paper trains a deep image classifier on memorygrams (99.91% test
//! accuracy); this reproduction uses a from-scratch softmax regression to
//! stay dependency-free. On the Fig. 12 dataset it reaches 100% test
//! accuracy, matching the k-NN baseline.
//!
//! # Feature scaling
//!
//! Memorygram features differ in scale by orders of magnitude (a hot set
//! misses on every sweep, a cold one never), and plain SGD at one
//! learning rate is then dominated by the largest features. The model
//! therefore standardizes inside itself: [`LogisticClassifier::train`]
//! fits a per-feature mean `m_j` and scale `1/√(v_j + v̄)` on the
//! training data, `v_j` the feature's variance and `v̄` the mean variance
//! over all features, and every prediction applies them. The `v̄` term
//! shrinks the scale of near-constant features: with few training
//! samples per class many variances are close to zero, and plain
//! z-scoring would blow their sampling noise up to unit scale. The
//! shrinkage suits wide feature vectors such as memorygrams; with only a
//! handful of features, one dominant variance inflates `v̄` and flattens
//! the others.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Full passes over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            lr: 0.5,
            weight_decay: 1e-4,
            batch: 32,
            seed: 17,
        }
    }
}

/// A trained softmax classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticClassifier {
    classes: usize,
    features: usize,
    /// Per-feature training mean, subtracted before the linear layer.
    mean: Vec<f32>,
    /// Per-feature scale `1/√(v_j + v̄)` (see the module doc).
    scale: Vec<f32>,
    /// Row-major `[classes × features]`, over standardized features.
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl LogisticClassifier {
    /// Trains on `(features, label)` pairs; all feature vectors must share
    /// one length.
    ///
    /// # Panics
    ///
    /// Panics on empty data or inconsistent feature lengths.
    pub fn train(data: &[(Vec<f32>, usize)], classes: usize, cfg: &TrainConfig) -> Self {
        assert!(!data.is_empty(), "empty training set");
        let features = data[0].0.len();
        assert!(
            data.iter().all(|(x, _)| x.len() == features),
            "ragged features"
        );
        assert!(data.iter().all(|(_, y)| *y < classes), "label out of range");
        let (mean, scale) = fit_scaling(data, features);
        let mut model = LogisticClassifier {
            classes,
            features,
            mean,
            scale,
            weights: vec![0.0; classes * features],
            bias: vec![0.0; classes],
        };
        let data: Vec<(Vec<f32>, usize)> = data
            .iter()
            .map(|(x, y)| (model.standardize(x), *y))
            .collect();
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch) {
                model.sgd_step(&data, chunk, cfg);
            }
        }
        model
    }

    fn sgd_step(&mut self, data: &[(Vec<f32>, usize)], idxs: &[usize], cfg: &TrainConfig) {
        let mut grad_w = vec![0.0f32; self.weights.len()];
        let mut grad_b = vec![0.0f32; self.bias.len()];
        for &i in idxs {
            let (x, y) = &data[i];
            let p = self.probabilities_standardized(x);
            for c in 0..self.classes {
                let err = p[c] - f32::from(c == *y);
                grad_b[c] += err;
                let row = &mut grad_w[c * self.features..(c + 1) * self.features];
                for (g, &xi) in row.iter_mut().zip(x) {
                    *g += err * xi;
                }
            }
        }
        let scale = cfg.lr / idxs.len() as f32;
        for (w, g) in self.weights.iter_mut().zip(&grad_w) {
            *w -= scale * (g + cfg.weight_decay * *w);
        }
        for (b, g) in self.bias.iter_mut().zip(&grad_b) {
            *b -= scale * g;
        }
    }

    /// Class probabilities for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature length.
    pub fn probabilities(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.features, "feature length mismatch");
        self.probabilities_standardized(&self.standardize(x))
    }

    /// Applies the training split's per-feature mean and scale.
    fn standardize(&self, x: &[f32]) -> Vec<f32> {
        x.iter()
            .zip(self.mean.iter().zip(&self.scale))
            .map(|(&xi, (&m, &s))| (xi - m) * s)
            .collect()
    }

    /// Class probabilities for an already standardized feature vector.
    fn probabilities_standardized(&self, x: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.classes];
        for (c, logit) in logits.iter_mut().enumerate() {
            let row = &self.weights[c * self.features..(c + 1) * self.features];
            *logit = self.bias[c] + row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f32>();
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    /// The most probable class.
    pub fn predict(&self, x: &[f32]) -> usize {
        let p = self.probabilities(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features
    }
}

/// Per-feature mean and shrunk inverse standard deviation
/// `1/√(v_j + v̄)` of the training data (f64 accumulation). A data set
/// whose every feature is constant gets unit scales.
fn fit_scaling(data: &[(Vec<f32>, usize)], features: usize) -> (Vec<f32>, Vec<f32>) {
    let n = data.len() as f64;
    let mut mean = vec![0.0f64; features];
    for (x, _) in data {
        for (m, &xi) in mean.iter_mut().zip(x) {
            *m += f64::from(xi);
        }
    }
    mean.iter_mut().for_each(|m| *m /= n);
    let mut var = vec![0.0f64; features];
    for (x, _) in data {
        for ((v, &m), &xi) in var.iter_mut().zip(&mean).zip(x) {
            let d = f64::from(xi) - m;
            *v += d * d;
        }
    }
    var.iter_mut().for_each(|v| *v /= n);
    let shrink = var.iter().sum::<f64>() / features.max(1) as f64;
    let scale = var
        .iter()
        .map(|&v| {
            if v + shrink > 0.0 {
                1.0 / (v + shrink).sqrt()
            } else {
                1.0
            }
        })
        .map(|s| s as f32)
        .collect();
    (mean.into_iter().map(|m| m as f32).collect(), scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn blob_data(n_per_class: usize, seed: u64) -> Vec<(Vec<f32>, usize)> {
        // Three well-separated Gaussian-ish blobs in 4-D.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centers = [
            [0.0f32, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ];
        let mut data = Vec::new();
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let x: Vec<f32> = c
                    .iter()
                    .map(|&v| v + rng.gen_range(-0.15f32..0.15))
                    .collect();
                data.push((x, label));
            }
        }
        data
    }

    #[test]
    fn separable_blobs_reach_full_accuracy() {
        let train = blob_data(60, 1);
        let test = blob_data(40, 2);
        let model = LogisticClassifier::train(&train, 3, &TrainConfig::default());
        let correct = test.iter().filter(|(x, y)| model.predict(x) == *y).count();
        assert_eq!(correct, test.len(), "blobs must classify perfectly");
    }

    #[test]
    fn one_feature_scaled_100x_still_classifies() {
        // Memorygram-shaped data: the three blobs plus 60 near-constant
        // features (quiet cache sets), with one informative feature blown
        // up 100x. Unscaled SGD at the default learning rate is then
        // dominated by that feature and misclassifies about half the
        // test set; the in-model scaling makes the fit scale-free.
        let shape = |data: Vec<(Vec<f32>, usize)>, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            data.into_iter()
                .map(|(mut x, y)| {
                    x[1] *= 100.0;
                    x.extend((0..60).map(|_| rng.gen_range(-0.01f32..0.01)));
                    (x, y)
                })
                .collect::<Vec<_>>()
        };
        let train = shape(blob_data(60, 1), 5);
        let test = shape(blob_data(40, 2), 7);
        let model = LogisticClassifier::train(&train, 3, &TrainConfig::default());
        let correct = test.iter().filter(|(x, y)| model.predict(x) == *y).count();
        assert_eq!(correct, test.len(), "scaled blobs must classify perfectly");
    }

    #[test]
    fn constant_features_are_harmless() {
        let train: Vec<(Vec<f32>, usize)> = blob_data(20, 5)
            .into_iter()
            .map(|(mut x, y)| {
                x.push(3.0);
                (x, y)
            })
            .collect();
        let model = LogisticClassifier::train(&train, 3, &TrainConfig::default());
        assert!(model
            .probabilities(&train[0].0)
            .iter()
            .all(|p| p.is_finite()));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let train = blob_data(20, 3);
        let model = LogisticClassifier::train(&train, 3, &TrainConfig::default());
        let p = model.probabilities(&train[0].0);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        let _ = LogisticClassifier::train(&[], 2, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn wrong_feature_length_rejected() {
        let train = blob_data(10, 4);
        let model = LogisticClassifier::train(&train, 3, &TrainConfig::default());
        let _ = model.predict(&[0.0; 3]);
    }
}
