//! Whole-exchange tests of switch-resident in-network aggregation
//! (`SwitchReduce`, schedule body `pipeline::switch_schedule`). Each
//! contribution terminates at the switch's reduce unit, so the gather
//! leg never exists; the fold order is the worker order, so the result
//! is bit-identical to `WorkerAggregator` under the same fabric, which
//! is what makes the mode a drop-in substitution. Every test runs
//! through `Exchange::run`.

mod tests {
    use crate::fabric::{CodecSelection, FabricBuilder, TransportKind};
    use crate::pipeline::tests::{allreduce, build, random_grads, PoisonedSwitch};
    use crate::ExchangeStrategy::{SwitchReduce, WorkerAggregator};
    use inceptionn_compress::ErrorBound;
    use inceptionn_netsim::NetworkConfig;

    #[test]
    fn switch_fold_matches_the_host_aggregator_bit_exactly() {
        // The acceptance bar for in-network reduction: final weights
        // must equal the host-side gather/broadcast under a fixed seed,
        // on every transport, with and without compression.
        for kind in TransportKind::ALL {
            for bound in [None, Some(ErrorBound::pow2(10))] {
                let grads = random_grads(5, 300, 31);
                let mut host = grads.clone();
                let mut wa = build(kind, 6, bound); // workers + aggregator
                allreduce(WorkerAggregator, wa.as_mut(), &mut host);
                let mut net = grads.clone();
                let mut sw = build(kind, 5, bound); // workers only
                allreduce(SwitchReduce, sw.as_mut(), &mut net);
                assert_eq!(host, net, "{kind:?} bound {bound:?}");
            }
        }
    }

    #[test]
    fn gather_leg_compresses_and_distribute_stays_plain() {
        let n = 4;
        let mut compressed = random_grads(n, 512, 32);
        let mut fabric = build(TransportKind::Nic, n, Some(ErrorBound::pow2(10)));
        allreduce(SwitchReduce, fabric.as_mut(), &mut compressed);
        let stats = fabric.stats();
        assert_eq!(
            stats.transfers,
            2 * n as u64,
            "one up + one down per worker"
        );

        let mut plain = random_grads(n, 512, 32);
        let mut baseline = build(TransportKind::Nic, n, None);
        allreduce(SwitchReduce, baseline.as_mut(), &mut plain);
        assert!(
            stats.wire_bytes < baseline.stats().wire_bytes,
            "compressed gather must shrink the exchange: {} vs {}",
            stats.wire_bytes,
            baseline.stats().wire_bytes
        );
    }

    #[test]
    fn half_legs_undercut_the_host_aggregator_link_time() {
        // Same star network for both modes: the switch path charges 2n
        // half-message legs, the host path 2n full messages plus the
        // descent/ascent on the aggregator's own link.
        let net = NetworkConfig::ten_gbe(8);
        let grads = random_grads(4, 2048, 33);

        let mut host = grads.clone();
        let mut wa = FabricBuilder::new(5)
            .transport(TransportKind::TimedNic)
            .network(net)
            .build();
        allreduce(WorkerAggregator, wa.as_mut(), &mut host);

        let mut net_side = grads.clone();
        let mut sw = FabricBuilder::new(4)
            .transport(TransportKind::TimedNic)
            .network(net)
            .build();
        allreduce(SwitchReduce, sw.as_mut(), &mut net_side);

        assert_eq!(host, net_side);
        let (host_ns, switch_ns) = (wa.stats().link_latency_ns, sw.stats().link_latency_ns);
        assert!(switch_ns > 0);
        assert!(
            switch_ns < host_ns,
            "eliminating the gather leg must cut link time: {switch_ns} vs {host_ns}"
        );
    }

    #[test]
    fn poisoned_contribution_restarts_the_gather_plain() {
        // A reduce unit cannot retransmit one packet; the exchange
        // restarts from a zeroed accumulator. Wrap a real fabric and
        // poison the first fold.
        let mut grads = random_grads(3, 64, 34);
        let want = {
            let mut exact = grads.clone();
            allreduce(
                SwitchReduce,
                build(TransportKind::InProcess, exact.len(), None).as_mut(),
                &mut exact,
            );
            exact[0].clone()
        };
        let mut fabric = PoisonedSwitch {
            inner: build(TransportKind::Nic, 3, Some(ErrorBound::pow2(10))),
            remaining_failures: 1,
            degraded: Vec::new(),
        };
        allreduce(SwitchReduce, &mut fabric, &mut grads);
        // The restart re-encodes every contribution Plain, so the result
        // is the exact sum even though the fabric compresses.
        for w in &grads {
            assert_eq!(w, &want, "plain restart must produce the exact sum");
        }
        assert_eq!(fabric.degraded, vec![(0, 0)], "the failing leg was noted");
    }

    #[test]
    fn single_worker_round_trips_through_the_switch() {
        let mut grads = vec![vec![1.0f32, -2.0, 3.5]];
        allreduce(
            SwitchReduce,
            build(TransportKind::InProcess, grads.len(), None).as_mut(),
            &mut grads,
        );
        assert_eq!(grads[0], vec![1.0, -2.0, 3.5]);
    }

    #[test]
    fn sketch_gather_folds_in_network_and_matches_the_host_merge_bit_for_bit() {
        // The homomorphic acceptance bar: on every transport the switch
        // folds sketch frames natively (no gather-leg descent exists —
        // exactly one uplink and one downlink per worker) and the
        // distributed result equals a host that merged the same frames
        // with `SketchFrame::add_compressed`, bit for bit.
        use crate::fabric::WIRE_CODEC_SEED;
        use inceptionn_compress::SketchCodec;

        let frac_bits = 10u8;
        let n = 5;
        let len = 300;
        let grads = random_grads(n, len, 35);

        let codec = SketchCodec::new(frac_bits, WIRE_CODEC_SEED);
        let mut merged = codec.encode(&grads[0]);
        for g in &grads[1..] {
            merged
                .add_compressed(&codec.encode(g))
                .expect("frames share length, precision, and seed");
        }
        let mut want = vec![0.0f32; len];
        merged
            .decode_into(&mut want)
            .expect("host merge of well-formed frames decodes");
        for kind in TransportKind::ALL {
            let mut net = grads.clone();
            let mut fabric = FabricBuilder::new(n)
                .transport(kind)
                .codec(CodecSelection::Sketch { frac_bits })
                .build();
            allreduce(SwitchReduce, fabric.as_mut(), &mut net);
            for w in &net {
                assert_eq!(w, &want, "{kind:?}: switch fold must equal the host merge");
            }
            assert_eq!(
                fabric.stats().transfers,
                2 * n as u64,
                "{kind:?}: one up + one down per worker, zero gather-leg transfers"
            );
        }
    }

    #[test]
    fn sparse_gather_streams_pair_adds_and_shrinks_the_uplink() {
        // Threshold-EF contributions reach the switch as index/value
        // frames; the fold is a streamed pair-add into the dense
        // accumulator, and the uplink carries only the surviving pairs.
        let n = 4;
        let len = 512;
        // Threshold alone keeps too much of a uniform gradient to win
        // against 4-byte dense lanes (pairs cost 8); the top-k cap is
        // what guarantees the uplink shrinks.
        let codec = CodecSelection::Sparse {
            bound: ErrorBound::pow2(6),
            top_per_mille: 100,
        };

        let grads = random_grads(n, len, 36);
        let mut in_process = grads.clone();
        let mut ip = FabricBuilder::new(n).codec(codec).build();
        allreduce(SwitchReduce, ip.as_mut(), &mut in_process);

        let mut over_nic = grads.clone();
        let mut nic = FabricBuilder::new(n)
            .transport(TransportKind::Nic)
            .codec(codec)
            .build();
        allreduce(SwitchReduce, nic.as_mut(), &mut over_nic);
        assert_eq!(
            in_process, over_nic,
            "sparse switch fold must be transport-invariant"
        );

        let mut plain = grads.clone();
        let mut baseline = build(TransportKind::Nic, n, None);
        allreduce(SwitchReduce, baseline.as_mut(), &mut plain);
        assert!(
            nic.stats().wire_bytes < baseline.stats().wire_bytes,
            "sparse gather must shrink the exchange: {} vs {}",
            nic.stats().wire_bytes,
            baseline.stats().wire_bytes
        );
    }
}
