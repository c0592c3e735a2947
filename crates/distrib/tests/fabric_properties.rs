//! Property tests for the transport layer: with compression disabled,
//! every exchange strategy is a lossless all-reduce on **any** fabric —
//! replicas end bit-identical, equal across fabrics, and equal to the
//! direct sum up to float associativity. Exercises degenerate shapes
//! (`len < n`, empty gradients, single worker) where `block_range`
//! produces empty blocks.

use inceptionn_distrib::fabric::{Fabric, FabricBuilder, TransportKind};
use inceptionn_distrib::{Exchange, ExchangeStrategy, PipelineConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
        .collect()
}

fn direct_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let mut sum = vec![0.0f32; inputs[0].len()];
    for w in inputs {
        for (s, v) in sum.iter_mut().zip(w) {
            *s += v;
        }
    }
    sum
}

fn build(kind: TransportKind, endpoints: usize) -> Box<dyn Fabric> {
    FabricBuilder::new(endpoints).transport(kind).build()
}

/// One all-reduce through `Exchange::run`, worker `k` on endpoint `k`:
/// whole-leg when `chunk` is `None`, otherwise cut into `chunk`-value
/// pipeline chunks.
fn exchange(
    strategy: ExchangeStrategy,
    fabric: &mut dyn Fabric,
    workers: &mut [Vec<f32>],
    chunk: Option<usize>,
) {
    let live: Vec<usize> = (0..workers.len()).collect();
    let mut ex = Exchange::new(workers.len());
    if let Some(chunk) = chunk {
        ex = ex.pipelined(PipelineConfig::with_chunk(chunk));
    }
    ex.run(strategy, fabric, workers, &live).unwrap();
}

fn divisor_of(n: usize, pick: u64) -> usize {
    let divisors: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    divisors[pick as usize % divisors.len()]
}

fn assert_lossless_allreduce(workers: &[Vec<f32>], inputs: &[Vec<f32>], context: &str) {
    let want = direct_sum(inputs);
    for (i, w) in workers.iter().enumerate() {
        assert_eq!(workers[0], *w, "{context}: worker {i} diverged");
        for (a, b) in w.iter().zip(&want) {
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "{context}: worker {i}: {a} vs direct {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The acceptance property of the refactor: the fabric changes
    // accounting, never values — and neither does chunking. Includes
    // len < n, where trailing blocks are empty, and chunks longer and
    // shorter than a block.
    #[test]
    fn prop_every_exchange_is_lossless_on_every_fabric(
        n in 1usize..7,
        len in 0usize..40,
        chunk in 1usize..12,
        seed in any::<u64>(),
    ) {
        let inputs = random_grads(n, len, seed);
        let group_size = divisor_of(n, seed);
        let strategies = [
            ("ring", ExchangeStrategy::Ring, n),
            ("hier", ExchangeStrategy::HierarchicalRing { group_size }, n),
            ("agg", ExchangeStrategy::WorkerAggregator, n + 1),
            ("switch", ExchangeStrategy::SwitchReduce, n),
        ];

        let mut ring_reference: Option<Vec<Vec<f32>>> = None;
        for kind in TransportKind::ALL {
            for (name, strategy, endpoints) in strategies {
                let mut whole = inputs.clone();
                exchange(strategy, build(kind, endpoints).as_mut(), &mut whole, None);
                if len > 0 {
                    assert_lossless_allreduce(&whole, &inputs, &format!("{name}/{kind:?}"));
                }
                let mut chunked = inputs.clone();
                exchange(strategy, build(kind, endpoints).as_mut(), &mut chunked, Some(chunk));
                prop_assert_eq!(&whole, &chunked, "{}/{:?} chunk {}", name, kind, chunk);
                // Bit-exact across fabrics, not merely close.
                if name == "ring" {
                    match &ring_reference {
                        None => ring_reference = Some(whole),
                        Some(reference) => prop_assert_eq!(reference, &whole),
                    }
                }
            }
        }
    }
}
