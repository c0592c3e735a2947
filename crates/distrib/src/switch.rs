//! Switch-resident in-network aggregation exchange.
//!
//! Instead of hauling every gradient to a host-side aggregator and back
//! (the worker/aggregator pattern of Fig. 1(a)), each contribution climbs
//! its uplink once and terminates at the switch's reduce unit, which
//! folds packets in flight. The gather leg that would descend from the
//! switch to an aggregator host never exists, halving the volume on the
//! aggregator's link and removing the host fold from the critical path.
//!
//! The schedule is [`ExchangeStrategy::SwitchReduce`] in the chunked
//! executor ([`crate::pipeline`]), reached through
//! [`Exchange::run`](crate::Exchange::run). The fold order is the worker
//! order, so the result is bit-identical to
//! [`ExchangeStrategy::WorkerAggregator`] under the same fabric — pinned
//! by tests here, which is what makes the mode a drop-in substitution
//! rather than a numerically different algorithm.

use crate::exchange::Exchange;
use crate::fabric::{CodecSelection, FabricBuilder};
use crate::trainer::ExchangeStrategy;

/// Switch-resident all-reduce with the in-process shortcut: builds a
/// fabric with one endpoint per worker (the switch itself holds no
/// endpoint) and runs [`ExchangeStrategy::SwitchReduce`] with worker `k`
/// on endpoint `k`.
///
/// # Panics
///
/// Panics if `workers` is empty or the gradients differ in length.
pub fn switch_allreduce(workers: &mut [Vec<f32>], codec: CodecSelection) {
    let mut fabric = FabricBuilder::new(workers.len()).codec(codec).build();
    Exchange::new(workers.len())
        .run_all(ExchangeStrategy::SwitchReduce, fabric.as_mut(), workers)
        .expect("in-process delivery is infallible: the fabric sees only its own frames");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricError, FabricStats, PayloadKind, TransportKind, WireFrame};
    use inceptionn_compress::ErrorBound;
    use inceptionn_netsim::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
            .collect()
    }

    fn switch_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>]) {
        Exchange::new(grads.len())
            .run_all(ExchangeStrategy::SwitchReduce, fabric, grads)
            .unwrap();
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

    /// A real fabric whose first `remaining_failures` switch folds fail
    /// recoverably after scribbling on the accumulator, and which logs
    /// every degraded leg. Shared with the chunked-restart test in
    /// `pipeline::tests`.
    pub(crate) struct PoisonedSwitch {
        pub(crate) inner: Box<dyn Fabric>,
        pub(crate) remaining_failures: u32,
        pub(crate) degraded: Vec<(usize, usize)>,
    }
    impl Fabric for PoisonedSwitch {
        fn endpoints(&self) -> usize {
            self.inner.endpoints()
        }
        fn encode_into(
            &mut self,
            src: usize,
            values: &[f32],
            kind: PayloadKind,
            frame: &mut WireFrame,
        ) {
            self.inner.encode_into(src, values, kind, frame);
        }
        fn charge(&mut self, src: usize, dst: usize, frame: &WireFrame) {
            self.inner.charge(src, dst, frame);
        }
        fn charge_to_switch(&mut self, endpoint: usize, frame: &WireFrame) {
            self.inner.charge_to_switch(endpoint, frame);
        }
        fn charge_from_switch(&mut self, endpoint: usize, frame: &WireFrame) {
            self.inner.charge_from_switch(endpoint, frame);
        }
        fn deliver(
            &mut self,
            dst: usize,
            frame: &WireFrame,
            sink: &mut dyn FnMut(&[f32]),
        ) -> Result<(), FabricError> {
            self.inner.deliver(dst, frame, sink)
        }
        fn switch_fold(&mut self, acc: &mut [f32], frame: &WireFrame) -> Result<(), FabricError> {
            if self.remaining_failures > 0 {
                self.remaining_failures -= 1;
                // Scribble on the accumulator to prove the restart
                // really zeroes partial state.
                acc.fill(1e9);
                return Err(FabricError::Decode(inceptionn_compress::DecodeError {
                    at_value: 0,
                    bit_offset: 0,
                    tag: None,
                }));
            }
            self.inner.switch_fold(acc, frame)
        }
        fn stats(&self) -> FabricStats {
            self.inner.stats()
        }
        fn note_degraded(&mut self, src: usize, dst: usize) {
            self.degraded.push((src, dst));
            self.inner.note_degraded(src, dst);
        }
    }

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
                worker_aggregator_over(wa.as_mut(), &mut host);
                let mut net = grads.clone();
                let mut sw = build(kind, 5, bound); // workers only
                switch_over(sw.as_mut(), &mut net);
                assert_eq!(host, net, "{kind:?} bound {bound:?}");
            }
        }
    }

    #[test]
    fn gather_leg_compresses_and_distribute_stays_plain() {
        let n = 4;
        let mut compressed = random_grads(n, 512, 32);
        let mut fabric = build(TransportKind::Nic, n, Some(ErrorBound::pow2(10)));
        switch_over(fabric.as_mut(), &mut compressed);
        let stats = fabric.stats();
        assert_eq!(
            stats.transfers,
            2 * n as u64,
            "one up + one down per worker"
        );

        let mut plain = random_grads(n, 512, 32);
        let mut baseline = build(TransportKind::Nic, n, None);
        switch_over(baseline.as_mut(), &mut plain);
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
        worker_aggregator_over(wa.as_mut(), &mut host);

        let mut net_side = grads.clone();
        let mut sw = FabricBuilder::new(4)
            .transport(TransportKind::TimedNic)
            .network(net)
            .build();
        switch_over(sw.as_mut(), &mut net_side);

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
            switch_allreduce(&mut exact, CodecSelection::None);
            exact[0].clone()
        };
        let mut fabric = PoisonedSwitch {
            inner: build(TransportKind::Nic, 3, Some(ErrorBound::pow2(10))),
            remaining_failures: 1,
            degraded: Vec::new(),
        };
        switch_over(&mut fabric, &mut grads);
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
        switch_allreduce(&mut grads, CodecSelection::None);
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
            switch_over(fabric.as_mut(), &mut net);
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
        switch_over(ip.as_mut(), &mut in_process);

        let mut over_nic = grads.clone();
        let mut nic = FabricBuilder::new(n)
            .transport(TransportKind::Nic)
            .codec(codec)
            .build();
        switch_over(nic.as_mut(), &mut over_nic);
        assert_eq!(
            in_process, over_nic,
            "sparse switch fold must be transport-invariant"
        );

        let mut plain = grads.clone();
        let mut baseline = build(TransportKind::Nic, n, None);
        switch_over(baseline.as_mut(), &mut plain);
        assert!(
            nic.stats().wire_bytes < baseline.stats().wire_bytes,
            "sparse gather must shrink the exchange: {} vs {}",
            nic.stats().wire_bytes,
            baseline.stats().wire_bytes
        );
    }
}
