//! The name the repository benchmark calls the INCEPTIONN round trip by.
//!
//! [`ParallelCodec`] wraps one [`BurstCodec`] and runs on the calling
//! thread. It exists only because the benchmark's pinned API names it
//! (ROADMAP item 1(c) unpins it); library code uses [`BurstCodec`]
//! directly.

use crate::burst::BurstCodec;
use crate::inceptionn::ErrorBound;

/// The INCEPTIONN lossy round trip on the burst kernel — identical
/// values to [`InceptionnCodec::quantize`](crate::InceptionnCodec::quantize).
///
/// # Examples
///
/// ```
/// use inceptionn_compress::parallel::ParallelCodec;
/// use inceptionn_compress::{ErrorBound, InceptionnCodec};
///
/// let codec = ParallelCodec::with_host_parallelism(ErrorBound::pow2(10));
/// let vals: Vec<f32> = (0..100).map(|i| (i as f32) * 1e-3).collect();
/// assert_eq!(codec.quantize(&vals), InceptionnCodec::new(ErrorBound::pow2(10)).quantize(&vals));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelCodec {
    burst: BurstCodec,
}

impl ParallelCodec {
    /// Creates the codec for `bound`. The name is historical: the work
    /// runs on the calling thread.
    pub fn with_host_parallelism(bound: ErrorBound) -> Self {
        ParallelCodec {
            burst: BurstCodec::new(bound),
        }
    }

    /// The lossy round trip into a fresh vector.
    pub fn quantize(&self, values: &[f32]) -> Vec<f32> {
        self.burst.quantize(values)
    }

    /// Applies the lossy round trip in place.
    pub fn quantize_inplace(&self, values: &mut [f32]) {
        self.burst.quantize_inplace(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InceptionnCodec;

    #[test]
    fn parallel_quantize_equals_scalar() {
        let codec = ParallelCodec::with_host_parallelism(ErrorBound::pow2(10));
        let scalar = InceptionnCodec::new(ErrorBound::pow2(10));
        let v: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32) * 0.61).sin() * 0.7)
            .collect();
        assert_eq!(codec.quantize(&v), scalar.quantize(&v));
    }
}
