//! Dataset splitting and evaluation metrics (accuracy, confusion matrix).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A labelled dataset split.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Training samples.
    pub train: Vec<(Vec<f32>, usize)>,
    /// Validation samples.
    pub val: Vec<(Vec<f32>, usize)>,
    /// Held-out test samples.
    pub test: Vec<(Vec<f32>, usize)>,
}

/// Stratified shuffle split, preserving class balance: `train_frac` and
/// `val_frac` of each class go to train/val, the rest to test (the paper
/// isolates a large test set: 150/150/1200 per class).
///
/// # Panics
///
/// Panics if the fractions are out of `[0, 1]` or sum above 1.
pub fn stratified_split(
    data: &[(Vec<f32>, usize)],
    classes: usize,
    train_frac: f64,
    val_frac: f64,
    seed: u64,
) -> Split {
    assert!((0.0..=1.0).contains(&train_frac) && (0.0..=1.0).contains(&val_frac));
    assert!(train_frac + val_frac <= 1.0, "fractions exceed 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut split = Split::default();
    for c in 0..classes {
        let mut idxs: Vec<usize> = (0..data.len()).filter(|&i| data[i].1 == c).collect();
        idxs.shuffle(&mut rng);
        let n = idxs.len();
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_val = (n as f64 * val_frac).round() as usize;
        for (pos, &i) in idxs.iter().enumerate() {
            let sample = data[i].clone();
            if pos < n_train {
                split.train.push(sample);
            } else if pos < n_train + n_val {
                split.val.push(sample);
            } else {
                split.test.push(sample);
            }
        }
    }
    split.train.shuffle(&mut rng);
    split
}

/// One-sided Clopper–Pearson lower confidence bound on a success
/// probability: the `p` at which `P(X >= successes)` for
/// `X ~ Binomial(trials, p)` equals `alpha`, found by bisection on the
/// exact binomial tail. Zero successes give 0.
///
/// # Panics
///
/// Panics if `successes > trials` or `alpha` is not in `(0, 1)`.
pub fn clopper_pearson_lower(successes: usize, trials: usize, alpha: f64) -> f64 {
    assert!(successes <= trials, "more successes than trials");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
    if successes == 0 {
        return 0.0;
    }
    // ln(i!) for i = 0..=trials.
    let ln_fact: Vec<f64> = std::iter::once(0.0)
        .chain((1..=trials).scan(0.0, |acc, i| {
            *acc += (i as f64).ln();
            Some(*acc)
        }))
        .collect();
    let upper_tail = |p: f64| -> f64 {
        (successes..=trials)
            .map(|i| {
                let ln_choose = ln_fact[trials] - ln_fact[i] - ln_fact[trials - i];
                (ln_choose + i as f64 * p.ln() + (trials - i) as f64 * (-p).ln_1p()).exp()
            })
            .sum()
    };
    // The tail grows with p: keep the root inside (lo, hi].
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if upper_tail(mid) < alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A confusion matrix with per-class and overall metrics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    classes: usize,
    /// `counts[truth][predicted]`.
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    pub fn new(classes: usize) -> Self {
        ConfusionMatrix {
            classes,
            counts: vec![vec![0; classes]; classes],
        }
    }

    /// Records one prediction.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        self.counts[truth][predicted] += 1;
    }

    /// Builds a matrix by evaluating `predict` over labelled samples.
    pub fn evaluate<F: FnMut(&[f32]) -> usize>(
        samples: &[(Vec<f32>, usize)],
        classes: usize,
        mut predict: F,
    ) -> Self {
        let mut cm = ConfusionMatrix::new(classes);
        for (x, y) in samples {
            cm.record(*y, predict(x));
        }
        cm
    }

    /// Raw cell count.
    pub fn get(&self, truth: usize, predicted: usize) -> usize {
        self.counts[truth][predicted]
    }

    /// Samples on the diagonal.
    pub fn correct(&self) -> usize {
        (0..self.classes).map(|c| self.counts[c][c]).sum()
    }

    /// Samples recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            total => self.correct() as f64 / total as f64,
        }
    }

    /// Per-class recall (the per-application accuracy the paper quotes).
    pub fn per_class_recall(&self) -> Vec<f64> {
        (0..self.classes)
            .map(|c| {
                let row: usize = self.counts[c].iter().sum();
                if row == 0 {
                    0.0
                } else {
                    self.counts[c][c] as f64 / row as f64
                }
            })
            .collect()
    }

    /// Renders the matrix with class labels, Fig. 12-style.
    pub fn render(&self, labels: &[&str]) -> String {
        let mut out = String::from("truth\\pred");
        for l in labels {
            out.push_str(&format!("{l:>8}"));
        }
        out.push('\n');
        for (c, row) in self.counts.iter().enumerate() {
            out.push_str(&format!("{:>10}", labels.get(c).copied().unwrap_or("?")));
            for &v in row {
                out.push_str(&format!("{v:>8}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clopper_pearson_lower_matches_closed_forms() {
        // All successes: P(X = n) = p^n = alpha.
        let all = clopper_pearson_lower(288, 288, 0.05);
        assert!((all - 0.05f64.powf(1.0 / 288.0)).abs() < 1e-12, "{all}");
        assert!((all - 0.98965).abs() < 5e-6, "{all}");
        assert_eq!(clopper_pearson_lower(0, 10, 0.05), 0.0);
        // 5 of 10: the textbook 90% two-sided interval is [0.2224, 0.7776].
        let half = clopper_pearson_lower(5, 10, 0.05);
        assert!((half - 0.2224).abs() < 1e-4, "{half}");
        // One success: 1 - (1 - p)^n = alpha.
        let one = clopper_pearson_lower(1, 20, 0.05);
        assert!(
            (one - (1.0 - 0.95f64.powf(1.0 / 20.0))).abs() < 1e-12,
            "{one}"
        );
    }

    #[test]
    fn split_is_stratified() {
        let data: Vec<(Vec<f32>, usize)> = (0..100).map(|i| (vec![i as f32], i % 2)).collect();
        let s = stratified_split(&data, 2, 0.5, 0.2, 7);
        assert_eq!(s.train.len(), 50);
        assert_eq!(s.val.len(), 20);
        assert_eq!(s.test.len(), 30);
        let class0 = s.train.iter().filter(|(_, y)| *y == 0).count();
        assert_eq!(class0, 25, "class balance preserved");
    }

    #[test]
    fn accuracy_and_recall() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        let rec = cm.per_class_recall();
        assert!((rec[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((rec[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_uses_predictor() {
        let samples = vec![(vec![0.0], 0), (vec![1.0], 1)];
        let cm = ConfusionMatrix::evaluate(&samples, 2, |x| usize::from(x[0] > 0.5));
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn render_contains_labels() {
        let cm = ConfusionMatrix::new(2);
        let s = cm.render(&["BS", "HG"]);
        assert!(s.contains("BS") && s.contains("HG"));
    }

    #[test]
    #[should_panic(expected = "fractions exceed 1")]
    fn overfull_split_rejected() {
        let _ = stratified_split(&[(vec![0.0], 0)], 1, 0.8, 0.5, 1);
    }
}
