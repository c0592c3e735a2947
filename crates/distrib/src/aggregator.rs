//! The conventional worker-aggregator exchange (Fig. 2) with the
//! in-process shortcut. The schedule itself is
//! [`ExchangeStrategy::WorkerAggregator`] in the chunked executor
//! ([`crate::pipeline`]), reached through
//! [`Exchange::run`](crate::Exchange::run).

use crate::exchange::Exchange;
use crate::fabric::{CodecSelection, FabricBuilder};
use crate::trainer::ExchangeStrategy;

/// In-place worker-aggregator all-reduce with the compression round trip
/// applied in process (the historical convenience):
/// [`ExchangeStrategy::WorkerAggregator`] on the in-process transport
/// with `workers.len() + 1` endpoints, the last one the aggregator. Only
/// the upward gradient leg compresses; the sum comes back plain.
///
/// # Panics
///
/// Panics if `workers` is empty or the vectors differ in length.
pub fn worker_aggregator_allreduce(workers: &mut [Vec<f32>], gradient_codec: CodecSelection) {
    let mut fabric = FabricBuilder::new(workers.len() + 1)
        .codec(gradient_codec)
        .build();
    Exchange::new(workers.len())
        .run_all(ExchangeStrategy::WorkerAggregator, fabric.as_mut(), workers)
        .expect("in-process delivery is infallible: the fabric sees only its own frames");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, TransportKind};
    use crate::faults::FaultPlan;
    use inceptionn_compress::ErrorBound;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-0.2f32..0.2)).collect())
            .collect()
    }

    fn worker_aggregator_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>]) {
        Exchange::new(grads.len())
            .run_all(ExchangeStrategy::WorkerAggregator, fabric, grads)
            .unwrap();
    }

    fn build(
        kind: TransportKind,
        endpoints: usize,
        compression: Option<ErrorBound>,
    ) -> Box<dyn Fabric> {
        FabricBuilder::new(endpoints)
            .transport(kind)
            .compression(compression)
            .build()
    }

    #[test]
    fn equals_direct_sum_uncompressed() {
        let mut grads = random_grads(4, 100, 1);
        let mut want = vec![0.0f32; 100];
        for w in &grads {
            for (s, v) in want.iter_mut().zip(w) {
                *s += v;
            }
        }
        worker_aggregator_allreduce(&mut grads, CodecSelection::None);
        for w in &grads {
            assert_eq!(w, &want);
        }
    }

    #[test]
    fn replicas_always_identical() {
        // Unlike the ring, the aggregator broadcasts one buffer: replicas
        // are identical even with compression in the loop.
        let mut grads = random_grads(5, 333, 2);
        worker_aggregator_allreduce(&mut grads, CodecSelection::Scalar(ErrorBound::pow2(8)));
        for w in 1..5 {
            assert_eq!(grads[0], grads[w]);
        }
    }

    #[test]
    fn compression_error_is_bounded_by_worker_count() {
        let e = 10u8;
        let mut grads = random_grads(4, 400, 3);
        let mut want = vec![0.0f32; 400];
        for w in &grads {
            for (s, v) in want.iter_mut().zip(w) {
                *s += v;
            }
        }
        worker_aggregator_allreduce(&mut grads, CodecSelection::Scalar(ErrorBound::pow2(e)));
        let budget = 4.0 * ErrorBound::pow2(e).value() + 1e-5;
        for (a, b) in grads[0].iter().zip(&want) {
            assert!((a - b).abs() <= budget, "{a} vs {b}");
        }
    }

    #[test]
    fn ring_and_aggregator_agree_uncompressed() {
        let grads = random_grads(4, 257, 4);
        let mut by_ring = grads.clone();
        crate::ring::ring_allreduce(&mut by_ring, CodecSelection::None);
        let mut by_agg = grads;
        worker_aggregator_allreduce(&mut by_agg, CodecSelection::None);
        for (r, a) in by_ring[0].iter().zip(&by_agg[0]) {
            assert!((r - a).abs() < 1e-4, "{r} vs {a}");
        }
    }

    #[test]
    fn nic_fabric_matches_in_process_bit_exactly() {
        for bound in [None, Some(ErrorBound::pow2(9))] {
            let grads = random_grads(4, 500, 5);
            let mut in_proc = grads.clone();
            let mut fabric = build(TransportKind::InProcess, 5, bound);
            worker_aggregator_over(fabric.as_mut(), &mut in_proc);
            let mut over_nic = grads.clone();
            let mut fabric = build(TransportKind::Nic, 5, bound);
            worker_aggregator_over(fabric.as_mut(), &mut over_nic);
            assert_eq!(in_proc, over_nic, "bound {bound:?}");
        }
    }

    #[test]
    fn only_the_gather_leg_compresses() {
        // The broadcast leg is plain traffic even on a compressing
        // fabric, so exactly half the payload volume shrinks.
        let n = 4;
        let mut grads = random_grads(n, 3620, 6);
        let mut fabric = build(TransportKind::Nic, n + 1, Some(ErrorBound::pow2(10)));
        worker_aggregator_over(fabric.as_mut(), &mut grads);
        let stats = fabric.stats();
        assert_eq!(stats.transfers, 2 * n as u64);
        let plain_bytes = (n * 3620 * 4) as u64; // broadcast leg, uncompressed
        assert!(stats.wire_bytes > plain_bytes, "plain leg must ship raw");
        assert!(
            stats.wire_bytes < stats.payload_bytes,
            "gather leg must compress"
        );
    }

    #[test]
    fn recovers_bit_exactly_under_injected_faults() {
        let mut clean = random_grads(4, 600, 7);
        let mut faulty = clean.clone();
        worker_aggregator_allreduce(&mut clean, CodecSelection::None);
        let mut fabric = FabricBuilder::new(5)
            .transport(TransportKind::Nic)
            .faults(FaultPlan::new(21).drop_prob(0.05).corrupt_prob(0.02))
            .build();
        worker_aggregator_over(fabric.as_mut(), &mut faulty);
        assert_eq!(clean, faulty, "recovered exchange must be bit-exact");
        assert!(fabric.fault_stats().retransmits > 0);
    }

    #[test]
    fn poisoned_gather_leg_degrades_to_plain() {
        let mut grads = random_grads(4, 300, 8);
        let mut want = vec![0.0f32; 300];
        for w in &grads {
            for (s, v) in want.iter_mut().zip(w) {
                *s += v;
            }
        }
        let mut fabric = FabricBuilder::new(5)
            .transport(TransportKind::Nic)
            .compression(Some(ErrorBound::pow2(10)))
            .faults(FaultPlan::new(9).poison_prob(1.0))
            .build();
        worker_aggregator_over(fabric.as_mut(), &mut grads);
        // Every gather hop fell back to plain, so the sum is exact.
        for w in &grads {
            for (a, b) in w.iter().zip(&want) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
        let fs = fabric.fault_stats();
        assert!(fs.poisons > 0);
        assert_eq!(fs.degraded_legs, 4, "one degraded leg per worker");
    }
}
