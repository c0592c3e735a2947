//! Algorithm 1's block partition and fold kernel.
//!
//! The ring schedule — which block moves to which neighbor at which
//! step — lives with the other schedules in the chunked executor
//! ([`crate::pipeline`]) and is reached through
//! [`Exchange::run`](crate::Exchange::run), the only way to run an
//! exchange. This module keeps what every schedule there shares (the
//! block partition and the fold/overwrite kernel) and the in-process
//! [`ring_allreduce`] convenience.

use crate::exchange::Exchange;
use crate::fabric::{CodecSelection, FabricBuilder};
use crate::trainer::ExchangeStrategy;

/// The element range of block `k` when a vector of `len` elements is
/// partitioned into `n` near-equal blocks (Algorithm 1 line 8).
///
/// # Panics
///
/// Panics if `k >= n` or `n == 0`.
pub fn block_range(len: usize, n: usize, k: usize) -> std::ops::Range<usize> {
    assert!(n > 0, "at least one block required");
    assert!(k < n, "block index {k} out of {n}");
    (k * len / n)..((k + 1) * len / n)
}

/// The common gradient length of a non-empty, uniform worker set.
pub(crate) fn assert_uniform(workers: &[Vec<f32>]) -> usize {
    assert!(!workers.is_empty(), "at least one worker required");
    let len = workers[0].len();
    assert!(
        workers.iter().all(|w| w.len() == len),
        "all workers must hold equally sized gradients"
    );
    len
}

/// Applies a received block: fold (reduce-scatter) or overwrite
/// (all-gather). Element counts always match for well-formed frames;
/// zipping (rather than `copy_from_slice`) keeps a malformed frame from
/// aborting the process.
pub(crate) fn apply_block(dst: &mut [f32], src: &[f32], fold: bool) {
    if fold {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s;
        }
    }
}

/// In-place ring all-reduce with the compression round trip applied in
/// process (the historical convenience, preserved for bit-exact
/// baselines): [`ExchangeStrategy::Ring`] through
/// [`Exchange::run`](crate::Exchange::run) on the in-process transport
/// with the selected codec, worker `i` on endpoint `i`.
///
/// # Panics
///
/// Panics if the worker vectors have differing lengths or `workers` is
/// empty.
pub fn ring_allreduce(workers: &mut [Vec<f32>], codec: CodecSelection) {
    let mut fabric = FabricBuilder::new(workers.len()).codec(codec).build();
    Exchange::new(workers.len())
        .run_all(ExchangeStrategy::Ring, fabric.as_mut(), workers)
        .expect("in-process delivery is infallible: the fabric sees only its own frames");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{
        Fabric, FabricError, FrameBody, InProcessFabric, PayloadKind, TransportKind, WireFrame,
    };
    use crate::faults::FaultPlan;
    use inceptionn_compress::{ErrorBound, InceptionnCodec};
    use inceptionn_netsim::Topology;
    use inceptionn_nicsim::{decode_raw_flat, encode_raw_flat, FlatPayload};
    use obs::Recorder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn direct_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut sum = vec![0.0f32; inputs[0].len()];
        for w in inputs {
            for (s, v) in sum.iter_mut().zip(w) {
                *s += v;
            }
        }
        sum
    }

    fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
            .collect()
    }

    fn ring_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>]) {
        Exchange::new(grads.len())
            .run_all(ExchangeStrategy::Ring, fabric, grads)
            .unwrap();
    }

    fn hierarchical_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>], group_size: usize) {
        Exchange::new(grads.len())
            .run_all(
                ExchangeStrategy::HierarchicalRing { group_size },
                fabric,
                grads,
            )
            .unwrap();
    }

    /// `grads[k]` belongs to topology leaf `topo.workers()[k]`.
    fn tree_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>], topo: &Topology) {
        Exchange::new(grads.len())
            .with_topology(topo.clone())
            .run(ExchangeStrategy::Tree, fabric, grads, &topo.workers())
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
    fn matches_direct_sum_for_various_sizes() {
        for n in [2usize, 3, 4, 5, 8] {
            for len in [1usize, 7, 8, 64, 101] {
                let mut grads = random_grads(n, len, (n * 1000 + len) as u64);
                let want = direct_sum(&grads);
                ring_allreduce(&mut grads, CodecSelection::None);
                for (i, g) in grads.iter().enumerate() {
                    for (a, b) in g.iter().zip(&want) {
                        assert!(
                            (a - b).abs() < 1e-4,
                            "n={n} len={len} worker {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replicas_are_bit_identical_without_compression() {
        let mut grads = random_grads(4, 1000, 42);
        ring_allreduce(&mut grads, CodecSelection::None);
        for w in 1..4 {
            assert_eq!(grads[0], grads[w], "worker {w} diverged");
        }
    }

    #[test]
    fn four_worker_example_matches_figure_six() {
        // Distinguishable values: worker i has value (i+1) everywhere, so
        // the sum is 10 in every element — and intermediate blocks are
        // easy to misroute, which would break the total.
        let mut grads: Vec<Vec<f32>> = (0..4).map(|i| vec![(i + 1) as f32; 8]).collect();
        ring_allreduce(&mut grads, CodecSelection::None);
        for g in &grads {
            assert_eq!(g, &vec![10.0f32; 8]);
        }
    }

    #[test]
    fn compressed_exchange_respects_error_bound() {
        let n = 4;
        let mut grads = random_grads(n, 512, 7);
        let want = direct_sum(&grads);
        ring_allreduce(&mut grads, CodecSelection::Scalar(ErrorBound::pow2(10)));
        // Each element passes through at most 2(n-1) quantizations, each
        // within eb, so the aggregate error is bounded by ~2n·eb.
        let eb = ErrorBound::pow2(10).value();
        let budget = 2.0 * (n as f32) * eb * (n as f32);
        for g in &grads {
            for (a, b) in g.iter().zip(&want) {
                assert!((a - b).abs() <= budget, "{a} vs {b} (budget {budget})");
            }
        }
    }

    #[test]
    fn compressed_replica_divergence_is_bounded() {
        let mut grads = random_grads(4, 600, 13);
        ring_allreduce(&mut grads, CodecSelection::Scalar(ErrorBound::pow2(8)));
        let eb = ErrorBound::pow2(8).value();
        for w in 1..4 {
            for (a, b) in grads[0].iter().zip(&grads[w]) {
                assert!((a - b).abs() <= 2.0 * eb, "worker {w}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fast_path_ring_matches_scalar_quantize_fabric_bit_exactly() {
        // Regression pin for the burst/parallel codec wiring: a fabric
        // that quantizes blocks with the scalar reference codec must
        // produce the exact floats of the production fast-path fabrics.
        struct ScalarFabric {
            codec: InceptionnCodec,
            stats: crate::fabric::FabricStats,
        }
        impl Fabric for ScalarFabric {
            fn endpoints(&self) -> usize {
                8
            }
            fn encode_into(
                &mut self,
                src: usize,
                values: &[f32],
                _kind: PayloadKind,
                frame: &mut WireFrame,
            ) {
                let mut wire = FlatPayload::new();
                encode_raw_flat(&self.codec.quantize(values), &mut wire);
                *frame = WireFrame::flat(src, wire);
            }
            fn deliver(
                &mut self,
                _dst: usize,
                frame: &WireFrame,
                sink: &mut dyn FnMut(&[f32]),
            ) -> Result<(), FabricError> {
                let FrameBody::Flat(wire) = frame.body() else {
                    unreachable!("this fabric only sees its own flat frames");
                };
                let mut values = Vec::new();
                decode_raw_flat(wire, &mut values)?;
                sink(&values);
                Ok(())
            }
            fn stats(&self) -> crate::fabric::FabricStats {
                self.stats
            }
        }
        let bound = ErrorBound::pow2(10);
        let grads = random_grads(4, 1000, 57);
        let mut reference = grads.clone();
        let mut scalar = ScalarFabric {
            codec: InceptionnCodec::new(bound),
            stats: crate::fabric::FabricStats::default(),
        };
        ring_over(&mut scalar, &mut reference);
        for kind in TransportKind::ALL {
            let mut fast = grads.clone();
            let mut fabric = build(kind, 4, Some(bound));
            ring_over(fabric.as_mut(), &mut fast);
            assert_eq!(reference, fast, "{kind:?} diverged from the scalar codec");
        }
    }

    #[test]
    fn nic_fabric_ring_matches_in_process_bit_exactly() {
        // The acceptance property of the transport refactor: pushing
        // every block through the modeled NIC engines yields the exact
        // floats of the whole-stream quantization shortcut.
        for bound in [None, Some(ErrorBound::pow2(10))] {
            let grads = random_grads(4, 777, 31);
            let mut in_proc = grads.clone();
            let mut fabric = build(TransportKind::InProcess, 4, bound);
            ring_over(fabric.as_mut(), &mut in_proc);
            let mut over_nic = grads.clone();
            let mut fabric = build(TransportKind::Nic, 4, bound);
            ring_over(fabric.as_mut(), &mut over_nic);
            assert_eq!(in_proc, over_nic, "bound {bound:?}");
            assert!(
                bound.is_none() || fabric.stats().engine_cycles > 0,
                "compressed run must spend engine cycles"
            );
        }
    }

    #[test]
    fn ring_counts_the_expected_transfers() {
        let n = 5;
        let mut grads = random_grads(n, 500, 77);
        let mut fabric = build(TransportKind::Nic, n, Some(ErrorBound::pow2(10)));
        ring_over(fabric.as_mut(), &mut grads);
        // 2(n-1) steps, n transfers each.
        assert_eq!(fabric.stats().transfers, (2 * (n - 1) * n) as u64);
        assert!(fabric.stats().wire_ratio() > 1.0);
    }

    #[test]
    fn ring_recovers_bit_exactly_under_injected_faults() {
        // Drops and corruption are absorbed by retransmission below the
        // degradation threshold: the result must be bit-identical to the
        // clean run, replicas included.
        let mut clean = random_grads(4, 800, 78);
        let mut faulty = clean.clone();
        ring_allreduce(&mut clean, CodecSelection::None);
        let mut fabric = FabricBuilder::new(4)
            .transport(TransportKind::Nic)
            .faults(FaultPlan::new(42).drop_prob(0.05).corrupt_prob(0.02))
            .build();
        ring_over(fabric.as_mut(), &mut faulty);
        assert_eq!(clean, faulty, "recovered exchange must be bit-exact");
        assert!(
            fabric.fault_stats().retransmits > 0,
            "faults must actually have fired"
        );
    }

    #[test]
    fn ring_degrades_poisoned_legs_and_still_sums_correctly() {
        // Every compressed frame on every link is poisoned: each leg
        // falls back to the plain re-encode, the exchange completes, and
        // the result is the exact lossless sum (plain frames are not
        // poisoned — there is no decode step to damage).
        let mut grads = random_grads(4, 400, 79);
        let want = direct_sum(&grads);
        let mut fabric = FabricBuilder::new(4)
            .transport(TransportKind::Nic)
            .compression(Some(ErrorBound::pow2(10)))
            .faults(FaultPlan::new(7).poison_prob(1.0))
            .build();
        ring_over(fabric.as_mut(), &mut grads);
        for g in &grads {
            for (a, b) in g.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
        let fs = fabric.fault_stats();
        assert!(fs.poisons > 0);
        assert!(
            fs.degraded_legs > 0,
            "constant poisoning must trip the renegotiation threshold"
        );
    }

    #[test]
    fn ring_surfaces_non_recoverable_errors_without_a_plain_retry() {
        // A non-recoverable delivery failure must come back from
        // `Exchange::run` unchanged, and the ladder must not spend its
        // plain re-encode on it: `FrameMismatch` on the fourth delivery
        // means exactly four deliveries were attempted.
        struct FailingFabric {
            inner: InProcessFabric,
            deliveries: usize,
        }
        impl Fabric for FailingFabric {
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
            fn deliver(
                &mut self,
                dst: usize,
                frame: &WireFrame,
                sink: &mut dyn FnMut(&[f32]),
            ) -> Result<(), FabricError> {
                self.deliveries += 1;
                if self.deliveries > 3 {
                    return Err(FabricError::FrameMismatch {
                        fabric: "failing",
                        got: "loopback",
                    });
                }
                self.inner.deliver(dst, frame, sink)
            }
            fn stats(&self) -> crate::fabric::FabricStats {
                self.inner.stats()
            }
        }
        let mut fabric = FailingFabric {
            inner: InProcessFabric::assemble(4, CodecSelection::None, &Recorder::off()),
            deliveries: 0,
        };
        let mut grads = random_grads(4, 64, 99);
        let err = Exchange::new(4)
            .run_all(ExchangeStrategy::Ring, &mut fabric, &mut grads)
            .expect_err("failing fabric must surface its error");
        assert!(matches!(err, FabricError::FrameMismatch { .. }), "{err}");
        assert_eq!(fabric.deliveries, 4, "no retry after a fatal error");
    }

    #[test]
    fn hierarchical_matches_direct_sum() {
        for (n, g) in [(4usize, 2usize), (6, 3), (8, 4), (8, 2), (4, 4)] {
            let mut grads = random_grads(n, 64, (n * 10 + g) as u64);
            let want = direct_sum(&grads);
            hierarchical_over(
                build(TransportKind::InProcess, n, None).as_mut(),
                &mut grads,
                g,
            );
            for w in &grads {
                for (a, b) in w.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-4, "n={n} g={g}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_over_nic_fabric_matches_in_process() {
        let grads = random_grads(6, 300, 91);
        let mut in_proc = grads.clone();
        hierarchical_over(
            build(TransportKind::InProcess, 6, None).as_mut(),
            &mut in_proc,
            3,
        );
        let mut over_nic = grads.clone();
        let mut fabric = build(TransportKind::Nic, 6, None);
        hierarchical_over(fabric.as_mut(), &mut over_nic, 3);
        assert_eq!(in_proc, over_nic);
    }

    #[test]
    fn hierarchical_broadcast_counts_no_self_transfers() {
        // Regression: the leader used to `transfer` the global sum to
        // itself, counting wire bytes and packets for a hop that never
        // crosses a link. Intra rings: 2 groups × 2(3−1)·3; leader ring
        // over 2 groups: 2(2−1)·2; broadcast: one hop per non-leader.
        let mut grads = random_grads(6, 300, 92);
        let mut fabric = build(TransportKind::Nic, 6, Some(ErrorBound::pow2(10)));
        hierarchical_over(fabric.as_mut(), &mut grads, 3);
        let expected = (2 * 12 + 4 + 2 * 2) as u64;
        assert_eq!(fabric.stats().transfers, expected);
    }

    #[test]
    fn hierarchical_compressed_leader_stays_bit_identical_to_its_group() {
        // The leader's local round trip must equal what its members
        // receive over the wire, on every transport.
        let bound = Some(ErrorBound::pow2(10));
        let grads = random_grads(6, 300, 93);
        let mut reference: Option<Vec<Vec<f32>>> = None;
        for kind in TransportKind::ALL {
            let mut workers = grads.clone();
            let mut fabric = build(kind, 6, bound);
            hierarchical_over(fabric.as_mut(), &mut workers, 3);
            for g in 0..2 {
                for m in 1..3 {
                    assert_eq!(
                        workers[g * 3],
                        workers[g * 3 + m],
                        "{kind:?}: group {g} member {m} diverged from its leader"
                    );
                }
            }
            match &reference {
                None => reference = Some(workers),
                Some(r) => assert_eq!(r, &workers, "{kind:?} diverged across transports"),
            }
        }
    }

    #[test]
    fn tree_matches_direct_sum_on_deep_topologies() {
        for arities in [
            [2usize, 2, 2].as_slice(),
            &[2, 2, 1],
            &[3, 2],
            &[2, 4],
            &[8],
            &[1, 4],
        ] {
            let topo = Topology::uniform(arities);
            let n = topo.worker_count();
            let mut grads = random_grads(n, 120, (n * 7 + arities.len()) as u64);
            let want = direct_sum(&grads);
            let mut fabric = build(TransportKind::InProcess, n, None);
            tree_over(fabric.as_mut(), &mut grads, &topo);
            for (i, g) in grads.iter().enumerate() {
                for (a, b) in g.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-4, "{arities:?} worker {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn tree_over_nic_matches_in_process_bit_exactly() {
        let topo = Topology::uniform(&[2, 2, 2]);
        for bound in [None, Some(ErrorBound::pow2(10))] {
            let grads = random_grads(8, 300, 94);
            let mut in_proc = grads.clone();
            let mut a = build(TransportKind::InProcess, 8, bound);
            tree_over(a.as_mut(), &mut in_proc, &topo);
            let mut over_nic = grads.clone();
            let mut b = build(TransportKind::Nic, 8, bound);
            tree_over(b.as_mut(), &mut over_nic, &topo);
            assert_eq!(in_proc, over_nic, "bound {bound:?}");
        }
    }

    #[test]
    fn tree_groups_stay_bit_identical_under_compression() {
        // The broadcast descends leader-to-leader, so every worker must
        // end bit-identical to its innermost group leader even when each
        // tier adds a quantization hop.
        let topo = Topology::uniform(&[2, 2, 2]);
        let mut grads = random_grads(8, 300, 95);
        let mut fabric = build(TransportKind::Nic, 8, Some(ErrorBound::pow2(10)));
        tree_over(fabric.as_mut(), &mut grads, &topo);
        for pair in 0..4 {
            assert_eq!(
                grads[pair * 2],
                grads[pair * 2 + 1],
                "pair {pair} diverged from its leader"
            );
        }
    }

    #[test]
    fn tree_on_two_tiers_matches_the_hierarchical_exchange_bit_exactly() {
        // `HierarchicalRing` lowers to a two-tier tree inside
        // `Exchange::run`; pin that lowering against the tree armed by
        // hand.
        let grads = random_grads(6, 300, 96);
        let mut via_wrapper = grads.clone();
        let mut a = build(TransportKind::Nic, 6, Some(ErrorBound::pow2(10)));
        hierarchical_over(a.as_mut(), &mut via_wrapper, 3);
        let mut via_tree = grads.clone();
        let mut b = build(TransportKind::Nic, 6, Some(ErrorBound::pow2(10)));
        tree_over(b.as_mut(), &mut via_tree, &Topology::two_tier(2, 3));
        assert_eq!(via_wrapper, via_tree);
        assert_eq!(a.stats().wire_bytes, b.stats().wire_bytes);
    }

    #[test]
    fn excised_tree_still_reduces_the_survivors() {
        // Losing leaf 3 of a [2,2,2] tree leaves 7 survivors; the
        // exchange must still produce the survivors' sum on each of them
        // while endpoint 3 is never touched.
        let topo = Topology::uniform(&[2, 2, 2])
            .excise(3)
            .expect("seven workers remain");
        let grads = random_grads(8, 120, 97);
        let survivors: Vec<usize> = topo.workers();
        assert_eq!(survivors, vec![0, 1, 2, 4, 5, 6, 7]);
        let mut live: Vec<Vec<f32>> = survivors.iter().map(|&w| grads[w].clone()).collect();
        let want = direct_sum(&live);
        let mut fabric = build(TransportKind::Nic, 8, None);
        tree_over(fabric.as_mut(), &mut live, &topo);
        for (k, g) in live.iter().enumerate() {
            for (a, b) in g.iter().zip(&want) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "survivor {} diverged: {a} vs {b}",
                    survivors[k]
                );
            }
        }
    }

    #[test]
    fn single_worker_is_identity() {
        let mut grads = vec![vec![1.0f32, 2.0, 3.0]];
        ring_allreduce(&mut grads, CodecSelection::None);
        assert_eq!(grads[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn block_range_partitions_exactly() {
        for (len, n) in [(10usize, 3usize), (8, 4), (7, 8), (0, 2)] {
            let mut covered = 0usize;
            for k in 0..n {
                let r = block_range(len, n, k);
                assert_eq!(r.start, covered, "gap at block {k}");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn rejects_ragged_inputs() {
        let mut grads = vec![vec![1.0f32], vec![1.0, 2.0]];
        ring_allreduce(&mut grads, CodecSelection::None);
    }

    proptest! {
        #[test]
        fn prop_ring_equals_direct_sum(
            n in 2usize..6,
            len in 1usize..80,
            seed in any::<u64>()
        ) {
            let mut grads = random_grads(n, len, seed);
            let want = direct_sum(&grads);
            ring_allreduce(&mut grads, CodecSelection::None);
            for g in &grads {
                for (a, b) in g.iter().zip(&want) {
                    prop_assert!((a - b).abs() < 1e-4);
                }
            }
        }
    }
}
