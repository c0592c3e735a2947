//! The user-facing collective-communication API.
//!
//! Mirrors the paper's software interface (Sec. VI-B): the default MPI
//! collectives (`collec_comm`) exchange raw gradients, while the
//! `_comp` variants (`collec_comm_comp`) set the reserved ToS value on
//! the underlying sockets so the NIC engines compress every gradient
//! packet. Here the two variants are one [`CollectiveContext`] with an
//! optional [`ErrorBound`], running over the in-process transport. To
//! run an exchange over the modeled NIC or with link timing, build the
//! fabric with [`FabricBuilder`] and call
//! [`Exchange::run`](inceptionn_distrib::Exchange::run) directly; the
//! values are the same bits on every transport.

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{CodecSelection, FabricBuilder, FabricStats};
use inceptionn_distrib::{Exchange, ExchangeStrategy};

/// A handle over a fixed-size worker group, configured once and used
/// for many exchanges (like an MPI communicator).
///
/// # Examples
///
/// ```
/// use inceptionn::api::CollectiveContext;
///
/// let ctx = CollectiveContext::new(3);
/// let mut grads = vec![vec![1.0f32], vec![2.0], vec![4.0]];
/// ctx.allreduce(&mut grads);
/// assert_eq!(grads[2], vec![7.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveContext {
    workers: usize,
    compression: Option<ErrorBound>,
}

impl CollectiveContext {
    /// Creates a context over `workers` workers using the in-process
    /// transport.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker required");
        CollectiveContext {
            workers,
            compression: None,
        }
    }

    /// Enables in-network lossy compression at the given bound — the
    /// `collec_comm_comp` variant.
    pub fn with_compression(mut self, bound: ErrorBound) -> Self {
        self.compression = Some(bound);
        self
    }

    /// Sums one gradient vector per worker in place via the
    /// gradient-centric ring (Algorithm 1), returning what crossed the
    /// transport. Every worker ends with the full sum.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not hold one vector per worker or the
    /// vectors differ in length.
    pub fn allreduce(&self, grads: &mut [Vec<f32>]) -> FabricStats {
        self.allreduce_with(ExchangeStrategy::Ring, grads)
    }

    /// [`allreduce`](Self::allreduce) under any exchange strategy, over
    /// a fresh fabric with one endpoint per worker plus the aggregator's.
    /// With no topology armed, [`ExchangeStrategy::Tree`] runs the flat
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics as [`allreduce`](Self::allreduce) does, and when a
    /// hierarchical group size does not divide the worker count.
    pub fn allreduce_with(
        &self,
        strategy: ExchangeStrategy,
        grads: &mut [Vec<f32>],
    ) -> FabricStats {
        assert_eq!(grads.len(), self.workers, "one gradient vector per worker");
        let mut fabric = FabricBuilder::new(self.workers + 1)
            .codec(CodecSelection::from_bound(self.compression))
            .build();
        let live: Vec<usize> = (0..self.workers).collect();
        Exchange::new(self.workers)
            .run(strategy, fabric.as_mut(), grads, &live)
            .expect("the in-process transport delivers its own frames");
        fabric.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_and_plain_contexts_agree_within_bound() {
        let plain = CollectiveContext::new(4);
        let lossy = CollectiveContext::new(4).with_compression(ErrorBound::pow2(10));
        let make = || -> Vec<Vec<f32>> {
            (0..4)
                .map(|w| {
                    (0..64)
                        .map(|i| ((w * 64 + i) as f32 * 0.001).sin() * 0.1)
                        .collect()
                })
                .collect()
        };
        let mut a = make();
        let mut b = make();
        plain.allreduce(&mut a);
        lossy.allreduce(&mut b);
        let eb = 2f32.powi(-10);
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert!((x - y).abs() <= 8.0 * eb, "{x} vs {y}");
        }
    }

    #[test]
    fn all_three_collectives_compute_the_same_sum() {
        // Every strategy through the facade: the exact sum without
        // compression, and with it the bits and accounting of
        // `Exchange::run` over a fresh `workers + 1` fabric.
        let workers = 4;
        let make = || -> Vec<Vec<f32>> {
            (0..workers)
                .map(|w| {
                    (0..500)
                        .map(|i| ((w * 500 + i) as f32).sin() * 0.01)
                        .collect()
                })
                .collect()
        };
        let bits = |w: &[Vec<f32>]| -> Vec<Vec<u32>> {
            w.iter()
                .map(|g| g.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let bound = ErrorBound::pow2(10);
        for strategy in [
            ExchangeStrategy::Ring,
            ExchangeStrategy::HierarchicalRing { group_size: 2 },
            ExchangeStrategy::Tree,
            ExchangeStrategy::WorkerAggregator,
            ExchangeStrategy::SwitchReduce,
        ] {
            let mut exact: Vec<Vec<f32>> = (0..workers).map(|w| vec![w as f32 + 1.0; 16]).collect();
            CollectiveContext::new(workers).allreduce_with(strategy, &mut exact);
            for g in &exact {
                assert_eq!(g, &vec![10.0f32; 16], "{strategy:?}");
            }

            let mut got = make();
            let stats = CollectiveContext::new(workers)
                .with_compression(bound)
                .allreduce_with(strategy, &mut got);
            let mut want = make();
            let mut fabric = FabricBuilder::new(workers + 1)
                .codec(CodecSelection::from_bound(Some(bound)))
                .build();
            Exchange::new(workers)
                .run(strategy, fabric.as_mut(), &mut want, &[0, 1, 2, 3])
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "{strategy:?}");
            assert_eq!(stats, fabric.stats(), "{strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one gradient vector per worker")]
    fn allreduce_checks_worker_count() {
        CollectiveContext::new(3).allreduce(&mut [vec![0.0f32]]);
    }
}
