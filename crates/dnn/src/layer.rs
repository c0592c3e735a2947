//! Differentiable layers.

use inceptionn_tensor::{
    conv2d, conv2d_backward, matmul, matmul_nt, matmul_tn, max_pool2d, max_pool2d_backward,
    ConvSpec, PoolSpec, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A differentiable network layer.
///
/// Layers cache whatever they need from `forward` so that the following
/// `backward` can run; `backward` must therefore be called at most once
/// per `forward`, with the matching batch.
pub trait Layer: Send {
    /// Computes the layer output. `train` enables train-only behaviour
    /// (dropout).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` backwards, accumulating parameter gradients
    /// internally and returning the gradient w.r.t. the layer input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Like [`Layer::backward`], but only the parameter gradients are
    /// wanted: the network's first layer has no one to hand an input
    /// gradient to. Layers whose input gradient costs real work override
    /// this to skip it; the default runs `backward` and drops the result.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Immutable views of the layer's parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable views of the layer's parameter tensors.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Views of the parameter gradients from the latest `backward`, in
    /// the same order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// A short human-readable layer name.
    fn name(&self) -> &'static str;
}

/// Fully connected layer: `y = x·W + b` with `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Tensor,
}

impl Linear {
    /// Creates a Xavier-initialized fully connected layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let weight = inceptionn_tensor::xavier_uniform(
            rng,
            &[in_features, out_features],
            in_features,
            out_features,
        );
        Linear {
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: Tensor::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(
            input.dims().last(),
            Some(&self.in_features()),
            "linear layer fed {} features, expected {}",
            input.dims().last().unwrap_or(&0),
            self.in_features()
        );
        self.cached_input = input.clone();
        &matmul(input, &self.weight) + &self.bias
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // dx = dy · W^T
        self.backward_params(grad_out);
        matmul_nt(grad_out, &self.weight)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        // dW = x^T · dy ; db = column-sum(dy)
        self.grad_weight = matmul_tn(&self.cached_input, grad_out);
        let (batch, out) = (grad_out.dims()[0], grad_out.dims()[1]);
        let mut gb = vec![0.0f32; out];
        let g = grad_out.as_slice();
        for r in 0..batch {
            for c in 0..out {
                gb[c] += g[r * out + c];
            }
        }
        self.grad_bias = Tensor::from_vec(gb, &[out]);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Rectified linear unit.
#[derive(Default, Debug)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask = input.as_slice().iter().map(|&v| v > 0.0).collect();
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "relu backward shape mismatch"
        );
        let mut g = grad_out.clone();
        for (v, &keep) in g.as_mut_slice().iter_mut().zip(self.mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Inverted dropout: keeps units with probability `1 - p` at train time
/// and rescales them by `1/(1-p)`, is the identity at eval time.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} outside [0, 1)"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = vec![1.0; input.len()];
            return input.clone();
        }
        let keep = 1.0 - self.p;
        self.mask = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = input.clone();
        for (v, &m) in out.as_mut_slice().iter_mut().zip(self.mask.iter()) {
            *v *= m;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "dropout backward shape mismatch"
        );
        let mut g = grad_out.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(self.mask.iter()) {
            *v *= m;
        }
        g
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

/// 2-D convolution layer (NCHW).
#[derive(Debug)]
pub struct Conv2d {
    spec: ConvSpec,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Tensor,
}

impl Conv2d {
    /// Creates a He-initialized convolution layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, spec: ConvSpec) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let weight = inceptionn_tensor::he_normal(rng, &[spec.out_channels, fan_in], fan_in);
        Conv2d {
            spec,
            weight,
            bias: Tensor::zeros(&[spec.out_channels]),
            grad_weight: Tensor::zeros(&[spec.out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[spec.out_channels]),
            cached_input: Tensor::default(),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_input = input.clone();
        conv2d(input, &self.weight, &self.bias, &self.spec)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let grads = conv2d_backward(&self.cached_input, &self.weight, grad_out, &self.spec);
        self.grad_weight = grads.weight;
        self.grad_bias = grads.bias;
        grads.input
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// 2-D max-pooling layer (NCHW).
#[derive(Debug)]
pub struct MaxPool2d {
    spec: PoolSpec,
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    pub fn new(spec: PoolSpec) -> Self {
        MaxPool2d {
            spec,
            argmax: Vec::new(),
            input_shape: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.input_shape = input.dims().to_vec();
        let (out, argmax) = max_pool2d(input, &self.spec);
        self.argmax = argmax;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        max_pool2d_backward(grad_out, &self.argmax, &self.input_shape)
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Flattens `[n, …]` to `[n, prod(rest)]`.
#[derive(Default, Debug)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.input_shape = input.dims().to_vec();
        let n = self.input_shape[0];
        let rest: usize = self.input_shape[1..].iter().product();
        input.clone().reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.input_shape)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_check(layer: &mut dyn Layer, input: &Tensor, param_idx: usize, coord: usize) {
        // d(sum(output))/d(param[coord]) via central differences vs backward.
        let eps = 1e-3f32;
        let out = layer.forward(input, true);
        let gout = Tensor::ones(out.dims());
        layer.backward(&gout);
        let analytic = layer.grads()[param_idx].as_slice()[coord];
        let base = layer.params()[param_idx].clone();
        let mut plus = base.clone();
        plus.as_mut_slice()[coord] += eps;
        *layer.params_mut()[param_idx] = plus;
        let op = layer.forward(input, true).sum();
        let mut minus = base.clone();
        minus.as_mut_slice()[coord] -= eps;
        *layer.params_mut()[param_idx] = minus;
        let om = layer.forward(input, true).sum();
        *layer.params_mut()[param_idx] = base;
        let fd = (op - om) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 2e-2,
            "param {param_idx}[{coord}]: fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn linear_forward_known_answer() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        *l.params_mut()[0] = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        *l.params_mut()[1] = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, false);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 4, 3);
        let x = inceptionn_tensor::he_normal(&mut rng, &[2, 4], 4);
        for coord in [0usize, 5, 11] {
            finite_diff_check(&mut l, &x, 0, coord);
        }
        finite_diff_check(&mut l, &x, 1, 1);
    }

    #[test]
    fn linear_input_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = inceptionn_tensor::he_normal(&mut rng, &[1, 3], 3);
        let out = l.forward(&x, true);
        let gin = l.backward(&Tensor::ones(out.dims()));
        // dx = 1·W^T summed over outputs: dx_j = sum_k W[j,k]
        let w = l.params()[0];
        for j in 0..3 {
            let want: f32 = (0..2).map(|k| w.as_slice()[j * 2 + k]).sum();
            assert!((gin.as_slice()[j] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_masks_negative_paths() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0, 3.0], &[1, 4]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        let g = r.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        assert_eq!(d.forward(&x, false).as_slice(), x.as_slice());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[1, 20_000]);
        let y = d.forward(&x, true);
        // E[y] = 1 with inverted dropout.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Kept units are scaled by 1/(1-p).
        let kept: Vec<f32> = y.as_slice().iter().copied().filter(|&v| v > 0.0).collect();
        for v in kept {
            assert!((v - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[1, 100]));
        assert_eq!(y.as_slice(), g.as_slice());
    }

    #[test]
    fn conv_layer_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = ConvSpec::new(1, 2, 3, 1, 1);
        let mut c = Conv2d::new(&mut rng, spec);
        let x = inceptionn_tensor::he_normal(&mut rng, &[1, 1, 5, 5], 25);
        for coord in [0usize, 4, 8, 13] {
            finite_diff_check(&mut c, &x, 0, coord);
        }
        finite_diff_check(&mut c, &x, 1, 0);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn maxpool_layer_backward_matches_kernel() {
        let mut p = MaxPool2d::new(PoolSpec::new(2, 2));
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        let g = p.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
    }
}
