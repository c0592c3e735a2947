//! Gradient compression codecs for the INCEPTIONN reproduction.
//!
//! The centerpiece is the [`inceptionn`] module: the paper's lightweight,
//! hardware-friendly lossy codec for 32-bit floating-point gradients
//! (Sec. V / Algorithms 2–3). It exploits two empirical properties of
//! gradients — they tolerate precision loss far better than weights, and
//! their values concentrate tightly around zero inside `(-1, 1)` — to
//! encode each value in 0, 8, 16, or 32 bits plus a 2-bit tag, under a
//! user-chosen absolute [`ErrorBound`].
//!
//! The crate also implements every baseline the paper compares against:
//!
//! * [`truncate`] — naive LSB truncation of the IEEE-754 representation
//!   (the `16b-T`/`22b-T`/`24b-T` schemes of Figs. 4 and 14);
//! * [`lz`] — a Snappy-class byte-oriented LZ77 lossless codec, which
//!   reproduces the ~1.5× ratio pathology of lossless compression on
//!   floating-point gradient streams (Sec. III);
//! * [`szlike`] — an SZ-class error-bounded predictive lossy codec
//!   (Fig. 7's software lossy baseline).
//!
//! [`stats`] collects the tag/bitwidth distributions of Table III, and
//! [`gradmodel`] synthesizes gradient value streams whose distribution
//! matches the paper's Fig. 5 measurements for models too large to train
//! here.
//!
//! One extension module goes beyond the paper's evaluation: [`reduction`]
//! implements the related-work gradient reducers of Sec. IX (1-bit SGD,
//! TernGrad, DGC-style top-k) for head-to-head comparison.
//!
//! # Examples
//!
//! ```
//! use inceptionn_compress::{ErrorBound, InceptionnCodec};
//!
//! let codec = InceptionnCodec::new(ErrorBound::pow2(10)); // eb = 2^-10
//! let grads = vec![0.0003f32, -0.02, 0.74, 0.00001];
//! let stream = codec.compress(&grads);
//! let restored = codec.decompress(&stream).unwrap();
//! for (g, r) in grads.iter().zip(&restored) {
//!     assert!((g - r).abs() <= 2f32.powi(-10));
//! }
//! assert!(stream.compression_ratio() > 1.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod bitio;
pub mod burst;
pub mod gradmodel;
pub mod inceptionn;
pub mod lz;
pub mod parallel;
pub mod pool;
pub mod reduction;
pub mod sketch;
pub mod sparse;
pub mod stats;
pub mod szlike;
pub mod truncate;

pub use burst::BurstCodec;
pub use inceptionn::{CompressedStream, DecodeError, ErrorBound, InceptionnCodec, Tag};
pub use parallel::{ParallelCodec, ShardFrame};
pub use pool::WorkerPool;
pub use sketch::{SketchCodec, SketchFrame};
pub use sparse::{ResidualState, SparseCodec, SparseConfig};
pub use stats::{BitwidthHistogram, CodecStats};
