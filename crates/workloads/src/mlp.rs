//! MLP training victim (paper Sec. V-B).
//!
//! A from-scratch single-hidden-layer perceptron trained with SGD on a
//! synthetic digit set (MNIST stand-in; the attack only depends on traffic
//! shape, which scales with the hidden width). The trace models what the
//! GPU's L2 sees per batch: streaming passes over the weight matrices for
//! forward, backward and update, separated across epochs by a data-reload
//! gap — producing the Table II miss scaling and the Fig. 15 epoch bands.

use crate::data::synthetic_digits;
use crate::trace::{Trace, TraceOp};
use crate::Workload;
use gpubox_sim::{ProcessCtx, SimResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hyperparameters of the MLP victim.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input features (MNIST: 784; scaled down to keep traces compact).
    pub input_dim: usize,
    /// Hidden-layer width — the secret the attacker extracts (the paper
    /// uses 64 / 128 / 256 / 512).
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Batches per epoch.
    pub batches_per_epoch: usize,
    /// Training epochs — the other hyperparameter the attacker infers
    /// (Fig. 15).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Idle cycles between epochs (host-side shuffling / evaluation).
    pub epoch_gap_cycles: u64,
    /// Data seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            input_dim: 128,
            hidden: 128,
            classes: 10,
            batch: 32,
            batches_per_epoch: 12,
            epochs: 1,
            lr: 0.1,
            epoch_gap_cycles: 6_000_000,
            seed: 71,
        }
    }
}

/// The training workload.
#[derive(Debug, Clone)]
pub struct MlpTraining {
    cfg: MlpConfig,
}

impl MlpTraining {
    /// Creates a training run.
    pub fn new(cfg: MlpConfig) -> Self {
        MlpTraining { cfg }
    }

    /// Convenience: default config with the given hidden width.
    pub fn with_hidden(hidden: usize) -> Self {
        MlpTraining::new(MlpConfig {
            hidden,
            ..Default::default()
        })
    }

    /// Convenience: default config with hidden width and epochs.
    pub fn with_hidden_epochs(hidden: usize, epochs: usize) -> Self {
        MlpTraining::new(MlpConfig {
            hidden,
            epochs,
            ..Default::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// Runs the real training math (no tracing) and returns the mean
    /// cross-entropy loss per epoch — used by tests to show the victim
    /// actually learns.
    pub fn train_reference(&self) -> Vec<f32> {
        let mut state = MlpState::init(&self.cfg);
        let n = self.cfg.batch * self.cfg.batches_per_epoch;
        let (xs, ys) = synthetic_digits(n, self.cfg.input_dim, self.cfg.classes, self.cfg.seed);
        let mut losses = Vec::new();
        for _ in 0..self.cfg.epochs {
            let mut epoch_loss = 0.0;
            for b in 0..self.cfg.batches_per_epoch {
                let lo = b * self.cfg.batch;
                epoch_loss +=
                    state.sgd_batch(&xs[lo..lo + self.cfg.batch], &ys[lo..lo + self.cfg.batch]);
            }
            losses.push(epoch_loss / self.cfg.batches_per_epoch as f32);
        }
        losses
    }
}

/// Weights of the 2-layer perceptron.
struct MlpState {
    cfg: MlpConfig,
    w1: Vec<f32>, // input_dim × hidden
    w2: Vec<f32>, // hidden × classes
}

impl MlpState {
    fn init(cfg: &MlpConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xABCD);
        let scale1 = (2.0 / cfg.input_dim as f32).sqrt();
        let scale2 = (2.0 / cfg.hidden as f32).sqrt();
        MlpState {
            cfg: cfg.clone(),
            w1: (0..cfg.input_dim * cfg.hidden)
                .map(|_| rng.gen_range(-scale1..scale1))
                .collect(),
            w2: (0..cfg.hidden * cfg.classes)
                .map(|_| rng.gen_range(-scale2..scale2))
                .collect(),
        }
    }

    /// One SGD step over a batch; returns the mean loss.
    fn sgd_batch(&mut self, xs: &[Vec<f32>], ys: &[usize]) -> f32 {
        let (d, h, c) = (self.cfg.input_dim, self.cfg.hidden, self.cfg.classes);
        let bsz = xs.len();
        let mut loss = 0.0f32;
        let mut gw1 = vec![0.0f32; d * h];
        let mut gw2 = vec![0.0f32; h * c];
        for (x, &y) in xs.iter().zip(ys) {
            // Forward.
            let mut hid = vec![0.0f32; h];
            for (j, hj) in hid.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, &xi) in x.iter().enumerate() {
                    acc += xi * self.w1[i * h + j];
                }
                *hj = acc.max(0.0); // ReLU
            }
            let mut logits = vec![0.0f32; c];
            for (k, logit) in logits.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (j, &hj) in hid.iter().enumerate() {
                    acc += hj * self.w2[j * c + k];
                }
                *logit = acc;
            }
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
            let z: f32 = exps.iter().sum();
            let probs: Vec<f32> = exps.iter().map(|&e| e / z).collect();
            loss -= probs[y].max(1e-12).ln();
            // Backward.
            let dlogits: Vec<f32> = (0..c).map(|k| probs[k] - f32::from(k == y)).collect();
            let mut dhid = vec![0.0f32; h];
            for (j, dh) in dhid.iter_mut().enumerate() {
                for (k, &dl) in dlogits.iter().enumerate() {
                    gw2[j * c + k] += hid[j] * dl;
                    *dh += self.w2[j * c + k] * dl;
                }
                if hid[j] <= 0.0 {
                    *dh = 0.0;
                }
            }
            for i in 0..d {
                if x[i] != 0.0 {
                    for j in 0..h {
                        gw1[i * h + j] += x[i] * dhid[j];
                    }
                }
            }
        }
        let scale = self.cfg.lr / bsz as f32;
        for (w, g) in self.w1.iter_mut().zip(&gw1) {
            *w -= scale * g;
        }
        for (w, g) in self.w2.iter_mut().zip(&gw2) {
            *w -= scale * g;
        }
        loss / bsz as f32
    }
}

impl Workload for MlpTraining {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn build(&self, ctx: &mut ProcessCtx<'_>) -> SimResult<Trace> {
        let cfg = &self.cfg;
        let (d, h, c) = (cfg.input_dim, cfg.hidden, cfg.classes);
        let home = ctx.home();
        let n = cfg.batch * cfg.batches_per_epoch;
        let x_buf = ctx.malloc_on(home, (n * d * 8) as u64)?;
        let w1_buf = ctx.malloc_on(home, (d * h * 8) as u64)?;
        let w2_buf = ctx.malloc_on(home, (h * c * 8).max(4096) as u64)?;
        let act_buf = ctx.malloc_on(home, (cfg.batch * h * 8) as u64)?;

        let w1_lines = (d * h).div_ceil(16) as u64;
        let w2_lines = (h * c).div_ceil(16) as u64;
        let x_batch_lines = (cfg.batch * d).div_ceil(16) as u64;
        let act_lines = (cfg.batch * h).div_ceil(16) as u64;

        // A batch's matrix products against W1 (forward and dW1) and W2.
        let x_w1 = TraceOp::Compute((cfg.batch * d * h / 256) as u64);
        let h_w2 = TraceOp::Compute((cfg.batch * h * c / 256) as u64);
        let gap = TraceOp::Compute(cfg.epoch_gap_cycles);
        let (epochs, batches) = (cfg.epochs, cfg.batches_per_epoch);
        // Streams `lines` lines of `buf`: loads, stores, or a
        // read-modify-write of each line.
        let load = move |buf, lines| (0..lines).map(move |l| TraceOp::load(buf, l * 16));
        let store = move |buf, lines| (0..lines).map(move |l| TraceOp::store(buf, l * 16, 0));
        let update = move |buf, lines| {
            (0..lines)
                .flat_map(move |l| [TraceOp::load(buf, l * 16), TraceOp::store(buf, l * 16, 0)])
        };
        let batch = move || {
            // Forward: X·W1 — stream the batch inputs and all of W1.
            load(x_buf, x_batch_lines)
                .chain(load(w1_buf, w1_lines))
                .chain(store(act_buf, act_lines))
                .chain([x_w1])
                // Forward: H·W2.
                .chain(load(act_buf, act_lines))
                .chain(load(w2_buf, w2_lines))
                .chain([h_w2])
                // Backward: dW2, dH (re-reads W2, activations).
                .chain(update(w2_buf, w2_lines))
                .chain(load(act_buf, act_lines))
                // Backward: dW1 (re-reads X and updates all of W1).
                .chain(load(x_buf, x_batch_lines))
                .chain(update(w1_buf, w1_lines))
                .chain([x_w1])
        };
        Ok(Trace::new(move || {
            (0..epochs).flat_map(move |epoch| {
                (0..batches)
                    .flat_map(move |_| batch())
                    .chain((epoch + 1 < epochs).then_some(gap))
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpubox_sim::{GpuId, MultiGpuSystem, SystemConfig};

    #[test]
    fn training_loss_decreases() {
        let mlp = MlpTraining::new(MlpConfig {
            epochs: 3,
            hidden: 64,
            ..Default::default()
        });
        let losses = mlp.train_reference();
        assert_eq!(losses.len(), 3);
        assert!(losses[2] < losses[0] * 0.8, "loss should drop: {losses:?}");
    }

    #[test]
    fn trace_volume_scales_with_hidden_width() {
        let count_for = |hidden: usize| {
            let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
            let pid = sys.create_process(GpuId::new(0));
            let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
            let trace = MlpTraining::with_hidden(hidden).build(&mut ctx).unwrap();
            trace
                .ops()
                .filter(|o| matches!(o, TraceOp::Load(_) | TraceOp::Store(..)))
                .count()
        };
        let c64 = count_for(64);
        let c128 = count_for(128);
        let c512 = count_for(512);
        assert!(c128 > c64 && c512 > c128, "{c64} {c128} {c512}");
        assert!(c512 > c64 * 4, "width-512 traffic should dwarf width-64");
    }

    #[test]
    fn epoch_gap_present_between_epochs() {
        let mut sys = MultiGpuSystem::new(SystemConfig::small_test());
        let pid = sys.create_process(GpuId::new(0));
        let mut ctx = ProcessCtx::new(&mut sys, pid, 0);
        let cfg = MlpConfig {
            epochs: 2,
            hidden: 64,
            ..Default::default()
        };
        let gap = cfg.epoch_gap_cycles;
        let trace = MlpTraining::new(cfg).build(&mut ctx).unwrap();
        let has_gap = trace
            .ops()
            .any(|o| matches!(o, TraceOp::Compute(c) if c >= gap));
        assert!(has_gap, "two-epoch run must contain the inter-epoch gap");
    }
}
