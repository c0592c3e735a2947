//! Sequential network container with a flat parameter/gradient view.
//!
//! The flat view is the load-bearing interface of the reproduction: the
//! distributed algorithms (Algorithm 1's ring exchange, the worker-
//! aggregator gather) operate on *flat `f32` gradient vectors*, exactly
//! the streams the NIC compression engine sees on the wire.

use inceptionn_tensor::Tensor;

use crate::layer::Layer;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::Sgd;

/// A feed-forward stack of [`Layer`]s ending in classification logits.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates a network from an ordered layer stack.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.len())
            .sum()
    }

    /// Runs the forward pass.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Runs the backward pass from the loss gradient, filling each
    /// layer's parameter gradients. The first layer computes no input
    /// gradient ([`Layer::backward_params`]).
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_logits.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    /// Forward + loss + backward on one minibatch; returns
    /// `(mean_loss, batch_accuracy)`. Gradients are left in the layers
    /// for [`Network::flat_grads`] / an optimizer step.
    pub fn forward_backward(&mut self, input: &Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(input, true);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(&grad);
        (loss, acc)
    }

    /// A complete local training step: forward, backward, SGD update.
    /// Returns `(mean_loss, batch_accuracy)`.
    pub fn train_step(&mut self, input: &Tensor, labels: &[usize], sgd: &mut Sgd) -> (f32, f32) {
        let (loss, acc) = self.forward_backward(input, labels);
        let mut grads = self.flat_grads();
        let mut params = self.flat_params();
        sgd.step(&mut params, &mut grads);
        self.set_flat_params(&params);
        (loss, acc)
    }

    /// Collects all parameter gradients into one flat vector — the
    /// gradient stream `g_i` that Algorithm 1 exchanges.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.as_slice());
            }
        }
        out
    }

    /// Collects all parameters into one flat vector.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.as_slice());
            }
        }
        out
    }

    /// Writes a flat parameter vector back into the layers.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Network::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector length mismatch ({} vs {})",
            flat.len(),
            self.param_count()
        );
        let mut offset = 0usize;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                p.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        assert_eq!(offset, flat.len(), "flat parameter vector length mismatch");
    }

    /// Classification accuracy over a full dataset, evaluated in
    /// inference mode in chunks of `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn evaluate(&mut self, inputs: &Tensor, labels: &[usize], batch: usize) -> f32 {
        assert!(batch > 0, "evaluation batch must be positive");
        let n = labels.len();
        if n == 0 {
            return 0.0;
        }
        let features: usize = inputs.dims()[1..].iter().product();
        let mut correct = 0.0f32;
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            let rows = end - start;
            let mut shape = inputs.dims().to_vec();
            shape[0] = rows;
            let chunk = Tensor::from_vec(
                inputs.as_slice()[start * features..end * features].to_vec(),
                &shape,
            );
            let logits = self.forward(&chunk, false);
            correct += accuracy(&logits, &labels[start..end]) * rows as f32;
            start = end;
        }
        correct / n as f32
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(
            f,
            "Network({} params, layers: {})",
            self.param_count(),
            names.join(" -> ")
        )
    }
}

#[cfg(test)]
mod tests {

    use super::Network;
    use crate::loss::softmax_cross_entropy;
    use crate::models;
    use crate::optim::{Sgd, SgdConfig};
    use inceptionn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flat_round_trip_preserves_parameters() {
        let mut net = models::tiny_mlp(1);
        let flat = net.flat_params();
        assert_eq!(flat.len(), net.param_count());
        let mut doubled = flat.clone();
        for v in &mut doubled {
            *v *= 2.0;
        }
        net.set_flat_params(&doubled);
        assert_eq!(net.flat_params(), doubled);
        net.set_flat_params(&flat);
        assert_eq!(net.flat_params(), flat);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_checks_length() {
        let mut net = models::tiny_mlp(1);
        net.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn training_reduces_loss_on_a_separable_toy_problem() {
        let mut net = models::tiny_mlp(5);
        let mut rng = StdRng::seed_from_u64(5);
        // Two Gaussian blobs in 16-D.
        let n = 64usize;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            for d in 0..16 {
                let center = if label == 0 { -1.0 } else { 1.0 };
                let sign = if d % 2 == 0 { 1.0 } else { -1.0 };
                xs.push(center * sign + rng.gen_range(-0.3..0.3));
            }
            labels.push(label);
        }
        let x = Tensor::from_vec(xs, &[n, 16]);
        let mut sgd = Sgd::new(
            SgdConfig {
                learning_rate: 0.1,
                ..SgdConfig::default()
            },
            net.param_count(),
        );
        let (first_loss, _) = net.train_step(&x, &labels, &mut sgd);
        let mut last_loss = first_loss;
        for _ in 0..40 {
            let (l, _) = net.train_step(&x, &labels, &mut sgd);
            last_loss = l;
        }
        assert!(
            last_loss < first_loss * 0.3,
            "loss did not drop: {first_loss} -> {last_loss}"
        );
        assert!(net.evaluate(&x, &labels, 16) > 0.95);
    }

    #[test]
    fn flat_grads_have_param_count_length() {
        let mut net = models::tiny_mlp(2);
        let x = Tensor::zeros(&[4, 16]);
        net.forward_backward(&x, &[0, 1, 0, 1]);
        assert_eq!(net.flat_grads().len(), net.param_count());
    }

    #[test]
    fn skipping_the_first_input_gradient_keeps_every_gradient_bit_identical() {
        let digits = [4, models::DIGIT_FEATURES];
        let images = [4, 1, models::DIGIT_SIDE, models::DIGIT_SIDE];
        let cases = [
            (
                models::hdc_mlp_small(21),
                models::hdc_mlp_small(21),
                &digits[..],
            ),
            // Layer 0 is a Conv2d: the default `backward_params`.
            (models::mini_cnn(21), models::mini_cnn(21), &images[..]),
        ];
        for (mut skipping, mut full, shape) in cases {
            let mut rng = StdRng::seed_from_u64(13);
            let len = shape.iter().product();
            let x = Tensor::from_vec((0..len).map(|_| rng.gen_range(0.0..1.0)).collect(), shape);
            let labels = [1, 4, 7, 9];

            skipping.forward_backward(&x, &labels);

            let logits = full.forward(&x, true);
            let (_, mut g) = softmax_cross_entropy(&logits, &labels);
            for layer in full.layers.iter_mut().rev() {
                g = layer.backward(&g);
            }

            let bits = |net: &Network| -> Vec<u32> {
                net.flat_grads().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&skipping), bits(&full), "{skipping:?}");
        }
    }

    #[test]
    fn evaluate_handles_ragged_final_batch() {
        let mut net = models::tiny_mlp(3);
        let x = Tensor::zeros(&[7, 16]);
        let labels = vec![0usize; 7];
        let acc = net.evaluate(&x, &labels, 3);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn debug_lists_layers() {
        let net = models::tiny_mlp(0);
        let s = format!("{net:?}");
        assert!(s.contains("linear"));
        assert!(s.contains("params"));
    }
}
