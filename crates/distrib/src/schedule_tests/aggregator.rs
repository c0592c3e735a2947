//! Whole-exchange tests of the conventional worker-aggregator exchange
//! (Fig. 2; `WorkerAggregator`, schedule body
//! `pipeline::worker_aggregator_schedule`), where only the upward
//! gradient leg compresses. Every test runs through `Exchange::run`.

mod tests {
    use crate::fabric::{CodecSelection, Fabric, FabricBuilder, TransportKind};
    use crate::faults::FaultPlan;
    use crate::pipeline::tests::{allreduce, build, direct_sum, random_grads};
    use crate::ExchangeStrategy::{Ring, WorkerAggregator};
    use inceptionn_compress::ErrorBound;

    /// A fresh in-process fabric with `codec` on the gradient leg: one
    /// endpoint per worker plus the aggregator.
    fn in_process(workers: usize, codec: CodecSelection) -> Box<dyn Fabric> {
        FabricBuilder::new(workers + 1).codec(codec).build()
    }

    #[test]
    fn equals_direct_sum_uncompressed() {
        let mut grads = random_grads(4, 100, 1);
        let want = direct_sum(&grads);
        allreduce(
            WorkerAggregator,
            in_process(grads.len(), CodecSelection::None).as_mut(),
            &mut grads,
        );
        for w in &grads {
            assert_eq!(w, &want);
        }
    }

    #[test]
    fn replicas_always_identical() {
        // Unlike the ring, the aggregator broadcasts one buffer: replicas
        // are identical even with compression in the loop.
        let mut grads = random_grads(5, 333, 2);
        allreduce(
            WorkerAggregator,
            in_process(grads.len(), CodecSelection::Scalar(ErrorBound::pow2(8))).as_mut(),
            &mut grads,
        );
        for w in 1..5 {
            assert_eq!(grads[0], grads[w]);
        }
    }

    #[test]
    fn compression_error_is_bounded_by_worker_count() {
        let e = 10u8;
        let mut grads = random_grads(4, 400, 3);
        let want = direct_sum(&grads);
        allreduce(
            WorkerAggregator,
            in_process(grads.len(), CodecSelection::Scalar(ErrorBound::pow2(e))).as_mut(),
            &mut grads,
        );
        let budget = 4.0 * ErrorBound::pow2(e).value() + 1e-5;
        for (a, b) in grads[0].iter().zip(&want) {
            assert!((a - b).abs() <= budget, "{a} vs {b}");
        }
    }

    #[test]
    fn ring_and_aggregator_agree_uncompressed() {
        let grads = random_grads(4, 257, 4);
        let mut by_ring = grads.clone();
        allreduce(
            Ring,
            build(TransportKind::InProcess, by_ring.len(), None).as_mut(),
            &mut by_ring,
        );
        let mut by_agg = grads;
        allreduce(
            WorkerAggregator,
            in_process(by_agg.len(), CodecSelection::None).as_mut(),
            &mut by_agg,
        );
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
            allreduce(WorkerAggregator, fabric.as_mut(), &mut in_proc);
            let mut over_nic = grads.clone();
            let mut fabric = build(TransportKind::Nic, 5, bound);
            allreduce(WorkerAggregator, fabric.as_mut(), &mut over_nic);
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
        allreduce(WorkerAggregator, fabric.as_mut(), &mut grads);
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
        allreduce(
            WorkerAggregator,
            in_process(clean.len(), CodecSelection::None).as_mut(),
            &mut clean,
        );
        let mut fabric = FabricBuilder::new(5)
            .transport(TransportKind::Nic)
            .faults(FaultPlan::new(21).drop_prob(0.05).corrupt_prob(0.02))
            .build();
        allreduce(WorkerAggregator, fabric.as_mut(), &mut faulty);
        assert_eq!(clean, faulty, "recovered exchange must be bit-exact");
        assert!(fabric.fault_stats().retransmits > 0);
    }

    #[test]
    fn poisoned_gather_leg_degrades_to_plain() {
        let mut grads = random_grads(4, 300, 8);
        let want = direct_sum(&grads);
        let mut fabric = FabricBuilder::new(5)
            .transport(TransportKind::Nic)
            .codec(CodecSelection::from_bound(Some(ErrorBound::pow2(10))))
            .faults(FaultPlan::new(9).poison_prob(1.0))
            .build();
        allreduce(WorkerAggregator, fabric.as_mut(), &mut grads);
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
