//! Model constructors used by the reproduction.

use inceptionn_tensor::{ConvSpec, PoolSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{Conv2d, Dropout, Flatten, Linear, MaxPool2d, Relu};
use crate::network::Network;

/// Number of classes in the digit task.
pub const DIGIT_CLASSES: usize = 10;
/// Side length of the synthetic digit images.
pub const DIGIT_SIDE: usize = 28;
/// Flattened digit input dimension.
pub const DIGIT_FEATURES: usize = DIGIT_SIDE * DIGIT_SIDE;

/// The paper's HDC network: five fully connected layers with hidden
/// dimension 500 and ReLU activations (Sec. VII-A; ~2.5 MB of weights).
///
/// # Examples
///
/// ```
/// let net = inceptionn_dnn::models::hdc_mlp(0);
/// // 784·500 + 500 + 3·(500·500 + 500) + 500·10 + 10 parameters ≈ 1.15 M
/// assert!(net.param_count() > 1_000_000);
/// ```
pub fn hdc_mlp(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn crate::layer::Layer>> = Vec::new();
    layers.push(Box::new(Linear::new(&mut rng, DIGIT_FEATURES, 500)));
    layers.push(Box::new(Relu::new()));
    for _ in 0..3 {
        layers.push(Box::new(Linear::new(&mut rng, 500, 500)));
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(Linear::new(&mut rng, 500, DIGIT_CLASSES)));
    Network::new(layers)
}

/// A scaled-down HDC variant (hidden dimension 64) for tests and quick
/// demos where full-width training would be slow.
pub fn hdc_mlp_small(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn crate::layer::Layer>> = Vec::new();
    layers.push(Box::new(Linear::new(&mut rng, DIGIT_FEATURES, 64)));
    layers.push(Box::new(Relu::new()));
    for _ in 0..3 {
        layers.push(Box::new(Linear::new(&mut rng, 64, 64)));
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(Linear::new(&mut rng, 64, DIGIT_CLASSES)));
    Network::new(layers)
}

/// The AlexNet stand-in (see `DESIGN.md`): a conv/pool/FC stack with
/// dropout ahead of the fully connected layers, shaped like AlexNet in
/// miniature. Input is `[n, 1, 28, 28]`.
pub fn mini_cnn(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers: Vec<Box<dyn crate::layer::Layer>> = vec![
        Box::new(Conv2d::new(&mut rng, ConvSpec::new(1, 8, 5, 1, 2))),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(PoolSpec::new(2, 2))),
        Box::new(Conv2d::new(&mut rng, ConvSpec::new(8, 16, 5, 1, 2))),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(PoolSpec::new(2, 2))),
        Box::new(Flatten::new()),
        Box::new(Dropout::new(0.25, seed.wrapping_add(1))),
        Box::new(Linear::new(&mut rng, 16 * 7 * 7, 128)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.25, seed.wrapping_add(2))),
        Box::new(Linear::new(&mut rng, 128, DIGIT_CLASSES)),
    ];
    Network::new(layers)
}

/// A tiny two-layer MLP over 16 features and 2 classes, for unit tests.
pub fn tiny_mlp(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers: Vec<Box<dyn crate::layer::Layer>> = vec![
        Box::new(Linear::new(&mut rng, 16, 12)),
        Box::new(Relu::new()),
        Box::new(Linear::new(&mut rng, 12, 2)),
    ];
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_tensor::Tensor;

    #[test]
    fn hdc_has_paper_architecture() {
        let net = hdc_mlp(0);
        // 5 Linear + 4 ReLU.
        assert_eq!(net.depth(), 9);
        let params = net.param_count();
        let want = DIGIT_FEATURES * 500 + 500 + 3 * (500 * 500 + 500) + 500 * 10 + 10;
        assert_eq!(params, want);
        // ~2.5 MB as f32, matching Sec. VII-A.
        let mb = params as f64 * 4.0 / 1e6;
        assert!((2.0..8.0).contains(&mb), "HDC size {mb} MB");
    }

    #[test]
    fn mini_cnn_forward_shape() {
        let mut net = mini_cnn(1);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[2, DIGIT_CLASSES]);
    }

    #[test]
    fn mini_cnn_backward_produces_full_gradient() {
        let mut net = mini_cnn(2);
        let x = Tensor::full(&[2, 1, 28, 28], 0.1);
        net.forward_backward(&x, &[3, 7]);
        let g = net.flat_grads();
        assert_eq!(g.len(), net.param_count());
        assert!(g.iter().any(|&v| v != 0.0));
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let a = hdc_mlp_small(9).flat_params();
        let b = hdc_mlp_small(9).flat_params();
        let c = hdc_mlp_small(10).flat_params();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
