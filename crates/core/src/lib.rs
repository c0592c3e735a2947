//! # INCEPTIONN — reproduction of the MICRO 2018 paper
//!
//! *"A Network-Centric Hardware/Algorithm Co-Design to Accelerate
//! Distributed Training of Deep Neural Networks"* (Li et al.).
//!
//! INCEPTIONN attacks the dominant cost of distributed DNN training —
//! gradient/weight communication — with three co-designed pieces:
//!
//! 1. **A lossy floating-point gradient codec** ([`ErrorBound`],
//!    [`InceptionnCodec`]) that exploits gradients' tight distribution
//!    around zero to encode most values in 2 bits while guaranteeing a
//!    per-value absolute error bound;
//! 2. **In-NIC compression accelerators**
//!    ([`inceptionn_nicsim::NicPipeline`]) that apply the codec at line
//!    rate to ToS-tagged TCP/IP packets;
//! 3. **A gradient-centric, aggregator-free training algorithm**
//!    ([`inceptionn_distrib::Exchange::run`]) that exchanges
//!    gradients in *both* legs of communication so everything on the
//!    wire is compressible, while spreading aggregation work evenly.
//!
//! This crate is the top of the reproduction stack: it provides the
//! user-facing collective API ([`api`]), the end-to-end cluster timing
//! model ([`cluster`]) that regenerates the paper's performance results,
//! the elastic multi-tenant training host ([`service`]), and one driver
//! per published table/figure ([`experiments`]).
//!
//! ## Quickstart
//!
//! ```
//! use inceptionn::api::CollectiveContext;
//! use inceptionn::ErrorBound;
//!
//! // Four workers hold local gradients; sum them INCEPTIONN-style:
//! // ring exchange with in-network lossy compression at eb = 2^-10.
//! let mut grads = vec![vec![0.25f32; 32]; 4];
//! let ctx = CollectiveContext::new(4).with_compression(ErrorBound::pow2(10));
//! ctx.allreduce(&mut grads);
//! for g in &grads {
//!     assert!((g[0] - 1.0).abs() <= 4.0 * 2f32.powi(-10));
//! }
//! ```
//!
//! ## Reproducing the paper
//!
//! Every table and figure in the evaluation has a driver in
//! [`experiments`] and an entry in the [`experiments::artifacts`]
//! registry, which the `inceptionn-bench` crate's `repro` binary runs
//! (`cargo run --release -p inceptionn-bench --bin repro -- fig12`). See
//! `EXPERIMENTS.md` at the repository root for the recorded
//! paper-vs-measured comparison.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod cluster;
pub mod experiments;
pub mod report;
pub mod service;

pub use inceptionn_compress::{ErrorBound, InceptionnCodec};
pub use inceptionn_dnn::profile::{ModelId, ModelProfile};

pub use cluster::{ClusterConfig, IterationBreakdown, SystemKind};
pub use service::{ClusterService, JobSpec, TenantReport};
