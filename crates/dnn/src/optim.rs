//! SGD with momentum, weight decay, and the paper's step LR schedule.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of the SGD optimizer (Table I's columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Initial learning rate `η`.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Divide the learning rate by `lr_reduction` every
    /// `lr_reduction_iters` steps (0 disables the schedule).
    pub lr_reduction: f32,
    /// Schedule period in iterations.
    pub lr_reduction_iters: u64,
}

impl Default for SgdConfig {
    /// The paper's HDC-style defaults (Table I).
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 5e-5,
            lr_reduction: 0.0,
            lr_reduction_iters: 0,
        }
    }
}

/// Stateful SGD over flat parameter vectors.
///
/// The update follows the classic momentum formulation:
/// `v ← μ·v + (g + λ·w)`; `w ← w − η·v`.
///
/// # Examples
///
/// ```
/// use inceptionn_dnn::optim::{Sgd, SgdConfig};
///
/// let mut sgd = Sgd::new(SgdConfig { learning_rate: 0.5, momentum: 0.0,
///     weight_decay: 0.0, lr_reduction: 0.0, lr_reduction_iters: 0 }, 1);
/// let mut w = vec![1.0f32];
/// let mut g = vec![0.2f32];
/// sgd.step(&mut w, &mut g);
/// assert!((w[0] - 0.9).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<f32>,
    iteration: u64,
}

impl Sgd {
    /// Creates an optimizer for `param_count` parameters.
    pub fn new(config: SgdConfig, param_count: usize) -> Self {
        Sgd {
            config,
            velocity: vec![0.0; param_count],
            iteration: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Iterations performed so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The momentum buffer (what a rejoining replica copies from its
    /// leader).
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Restores optimizer state captured from another replica.
    ///
    /// # Panics
    ///
    /// Panics if `velocity.len()` differs from the optimizer's parameter
    /// count.
    pub fn restore(&mut self, velocity: Vec<f32>, iteration: u64) {
        assert_eq!(
            velocity.len(),
            self.velocity.len(),
            "checkpoint velocity length mismatch"
        );
        self.velocity = velocity;
        self.iteration = iteration;
    }

    /// The learning rate in effect at the current iteration, after the
    /// step schedule.
    pub fn current_lr(&self) -> f32 {
        if self.config.lr_reduction_iters == 0 || self.config.lr_reduction <= 0.0 {
            return self.config.learning_rate;
        }
        let drops = (self.iteration / self.config.lr_reduction_iters) as i32;
        self.config.learning_rate / self.config.lr_reduction.powi(drops)
    }

    /// Applies one update to `params` in place. `grads` is consumed as
    /// scratch (weight decay is folded into it).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the optimizer state.
    pub fn step(&mut self, params: &mut [f32], grads: &mut [f32]) {
        assert_eq!(params.len(), self.velocity.len(), "param count mismatch");
        assert_eq!(grads.len(), self.velocity.len(), "gradient count mismatch");
        let lr = self.current_lr();
        let mu = self.config.momentum;
        let wd = self.config.weight_decay;
        for ((w, g), v) in params
            .iter_mut()
            .zip(grads.iter_mut())
            .zip(self.velocity.iter_mut())
        {
            *g += wd * *w;
            *v = mu * *v + *g;
            *w -= lr * *v;
        }
        self.iteration += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(lr: f32) -> SgdConfig {
        SgdConfig {
            learning_rate: lr,
            momentum: 0.0,
            weight_decay: 0.0,
            lr_reduction: 0.0,
            lr_reduction_iters: 0,
        }
    }

    #[test]
    fn vanilla_sgd_step() {
        let mut sgd = Sgd::new(plain(0.1), 2);
        let mut w = vec![1.0f32, -1.0];
        let mut g = vec![1.0f32, -2.0];
        sgd.step(&mut w, &mut g);
        assert!((w[0] - 0.9).abs() < 1e-6);
        assert!((w[1] + 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut cfg = plain(1.0);
        cfg.momentum = 0.5;
        let mut sgd = Sgd::new(cfg, 1);
        let mut w = vec![0.0f32];
        // Constant gradient 1: velocities 1, 1.5, 1.75…
        let mut g = vec![1.0f32];
        sgd.step(&mut w, &mut g);
        assert!((w[0] + 1.0).abs() < 1e-6);
        let mut g = vec![1.0f32];
        sgd.step(&mut w, &mut g);
        assert!((w[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut cfg = plain(0.1);
        cfg.weight_decay = 0.1;
        let mut sgd = Sgd::new(cfg, 1);
        let mut w = vec![1.0f32];
        let mut g = vec![0.0f32];
        sgd.step(&mut w, &mut g);
        assert!((w[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn lr_schedule_steps_down() {
        let cfg = SgdConfig {
            learning_rate: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            lr_reduction: 10.0,
            lr_reduction_iters: 2,
        };
        let mut sgd = Sgd::new(cfg, 1);
        assert_eq!(sgd.current_lr(), 1.0);
        let (mut w, mut g) = (vec![0.0f32], vec![0.0f32]);
        sgd.step(&mut w, &mut g.clone());
        let mut g2 = g.clone();
        sgd.step(&mut w, &mut g2);
        assert!((sgd.current_lr() - 0.1).abs() < 1e-7);
        sgd.step(&mut w, &mut g);
        sgd.step(&mut w, &mut [0.0f32]);
        assert!((sgd.current_lr() - 0.01).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn step_validates_lengths() {
        let mut sgd = Sgd::new(plain(0.1), 2);
        sgd.step(&mut [0.0], &mut [0.0]);
    }
}
