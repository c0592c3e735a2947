//! DNN training substrate for the INCEPTIONN reproduction.
//!
//! The paper's accuracy experiments (Figs. 4, 5, 13, 14) require *real*
//! gradient dynamics: gradients whose distribution tightens around zero,
//! weights whose precision loss accumulates across iterations, and
//! convergence curves that degrade when either is corrupted. This crate
//! provides exactly the training machinery needed to observe those
//! effects on CPU:
//!
//! * [`layer`] — differentiable layers (Linear, ReLU, Conv2d, MaxPool2d,
//!   Dropout, Flatten) over the [`inceptionn_tensor`] substrate;
//! * [`loss`] — softmax cross-entropy;
//! * [`network`] — a sequential container with a *flat parameter/gradient
//!   view*, the interface the distributed gradient-exchange algorithms
//!   operate on;
//! * [`optim`] — SGD with momentum, weight decay, and the step learning-
//!   rate schedule of Table I;
//! * [`models`] — the paper's HDC 5-layer MLP at full fidelity plus a
//!   conv-net stand-in for AlexNet (`MiniCnn`, see `DESIGN.md`);
//! * [`data`] — procedurally generated digit datasets (the MNIST
//!   substitute);
//! * [`profile`] — workload profiles (sizes, Table I hyper-parameters,
//!   Table II compute timings) for AlexNet, HDC, ResNet-50/152 and
//!   VGG-16, consumed by the cluster-timing simulator.
//!
//! # Examples
//!
//! ```
//! use inceptionn_dnn::data::DigitDataset;
//! use inceptionn_dnn::models;
//! use inceptionn_dnn::optim::{Sgd, SgdConfig};
//!
//! let mut net = models::hdc_mlp_small(7);
//! let data = DigitDataset::generate(64, 5);
//! let mut sgd = Sgd::new(SgdConfig::default(), net.param_count());
//! let (x, y) = data.minibatch(0, 8);
//! let (loss, _) = net.train_step(&x, &y, &mut sgd);
//! assert!(loss.is_finite());
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod layer;
pub mod loss;
pub mod models;
pub mod network;
pub mod optim;
pub mod profile;

pub use layer::Layer;
pub use network::Network;
