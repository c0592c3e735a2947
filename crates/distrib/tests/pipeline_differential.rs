//! Differential contract of the chunked exchange executor: for every
//! strategy × codec × transport cell, a chunked, windowed run must land
//! on gradients bit-identical to the whole-leg default of the same
//! [`Exchange`]. Every codec quantizes per value, so splitting a leg
//! into pipeline chunks cannot change any encoded byte — these tests
//! pin that from outside the crate, over the public API, including
//! ragged final chunks and fault-plan replay under chunking. (That the
//! whole-leg default is itself right is pinned against
//! executor-independent references in `tests/fabric_stack.rs`.)

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::{
    CodecSelection, Exchange, ExchangeStrategy, Fabric, FabricBuilder, FaultPlan, FaultStats,
    PipelineConfig, TransportKind,
};
use inceptionn_netsim::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workers in every exchange; 4 keeps the two-tier tree balanced.
const WORKERS: usize = 4;

/// A deliberately ragged block length: not a multiple of any chunk size
/// used below, so every leg ends in a partial chunk.
const LEN: usize = 1013;

fn random_grads(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.4f32..0.4)).collect())
        .collect()
}

fn bits(workers: &[Vec<f32>]) -> Vec<Vec<u32>> {
    workers
        .iter()
        .map(|w| w.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Every codec the fabric can carry with chunk-stable semantics: the
/// INCEPTIONN quantizer, threshold-only sparsification and the
/// homomorphic sketch (all decide per element, so chunking cannot move
/// a byte). The top-k
/// sparse cap is deliberately absent — k is computed per encode call,
/// so a chunked leg legitimately picks a different transmit set than
/// the whole block (documented in `compress::sparse`).
fn all_codecs() -> Vec<(&'static str, CodecSelection)> {
    let bound = ErrorBound::pow2(9);
    vec![
        ("none", CodecSelection::None),
        ("inceptionn", CodecSelection::Burst(bound)),
        (
            "sparse-thresh",
            CodecSelection::Sparse {
                bound: ErrorBound::pow2(4),
                top_per_mille: 0,
            },
        ),
        ("sketch", CodecSelection::Sketch { frac_bits: 10 }),
    ]
}

fn build(endpoints: usize, transport: TransportKind, codec: CodecSelection) -> Box<dyn Fabric> {
    FabricBuilder::new(endpoints)
        .transport(transport)
        .codec(codec)
        .build()
}

/// Runs one (whole-leg, chunked) pair of `exchange()` over fresh
/// fabrics and asserts bit-identical results, labeling failures with
/// the cell.
fn assert_cell(
    label: &str,
    strategy: ExchangeStrategy,
    exchange: impl Fn() -> Exchange,
    transport: TransportKind,
    codec: CodecSelection,
    cfg: PipelineConfig,
    endpoints: usize,
) {
    let live: Vec<usize> = (0..WORKERS).collect();
    let grads = random_grads(WORKERS, LEN, 0xd1ff);
    let mut whole = grads.clone();
    let mut fabric = build(endpoints, transport, codec);
    exchange()
        .run(strategy, fabric.as_mut(), &mut whole, &live)
        .expect(label);
    let mut piped = grads;
    let mut fabric = build(endpoints, transport, codec);
    exchange()
        .pipelined(cfg)
        .run(strategy, fabric.as_mut(), &mut piped, &live)
        .expect(label);
    assert_eq!(
        bits(&whole),
        bits(&piped),
        "{label}/{codec:?}/{transport:?} chunk={} depth={}: chunked diverged",
        cfg.chunk_values,
        cfg.depth,
    );
}

/// Ring: every codec variant × both transports × ragged chunk sizes
/// (including depth 1, the stop-and-wait degenerate case).
#[test]
fn pipelined_ring_matches_for_every_codec_and_transport() {
    for (name, codec) in all_codecs() {
        for transport in [TransportKind::InProcess, TransportKind::Nic] {
            for cfg in [
                PipelineConfig::with_chunk(97),
                PipelineConfig {
                    chunk_values: 512,
                    depth: 1,
                },
            ] {
                assert_cell(
                    &format!("ring/{name}"),
                    ExchangeStrategy::Ring,
                    || Exchange::new(WORKERS),
                    transport,
                    codec,
                    cfg,
                    WORKERS,
                );
            }
        }
    }
}

/// Topology tree: every codec variant over the NIC datapath.
#[test]
fn pipelined_tree_matches_for_every_codec() {
    let topo = Topology::two_tier(2, WORKERS / 2);
    for (name, codec) in all_codecs() {
        assert_cell(
            &format!("tree/{name}"),
            ExchangeStrategy::Tree,
            || Exchange::new(WORKERS).with_topology(topo.clone()),
            TransportKind::Nic,
            codec,
            PipelineConfig::with_chunk(97),
            WORKERS,
        );
    }
}

/// Worker-aggregator: every codec variant; the aggregator endpoint
/// rides along as endpoint `WORKERS`.
#[test]
fn pipelined_worker_aggregator_matches_for_every_codec() {
    for (name, codec) in all_codecs() {
        assert_cell(
            &format!("worker-aggregator/{name}"),
            ExchangeStrategy::WorkerAggregator,
            || Exchange::new(WORKERS),
            TransportKind::Nic,
            codec,
            PipelineConfig::with_chunk(97),
            WORKERS + 1,
        );
    }
}

/// Switch-resident in-network reduction: every codec variant.
#[test]
fn pipelined_switch_matches_for_every_codec() {
    for (name, codec) in all_codecs() {
        assert_cell(
            &format!("switch/{name}"),
            ExchangeStrategy::SwitchReduce,
            || Exchange::new(WORKERS),
            TransportKind::Nic,
            codec,
            PipelineConfig::with_chunk(97),
            WORKERS,
        );
    }
}

/// The fault-determinism contract survives chunking: one seed and one
/// plan replayed over the chunked schedule land on byte-identical
/// gradients and identical fault counters, and the plan actually fires.
#[test]
fn pipelined_ring_replays_fault_plans_bit_exactly() {
    let live: Vec<usize> = (0..WORKERS).collect();
    let run = || -> (Vec<Vec<u32>>, FaultStats) {
        let mut grads = random_grads(WORKERS, LEN, 0xfa57);
        let mut fabric = FabricBuilder::new(WORKERS)
            .transport(TransportKind::Nic)
            .compression(Some(ErrorBound::pow2(10)))
            .faults(FaultPlan::new(91).drop_prob(0.05).corrupt_prob(0.02))
            .build();
        Exchange::new(WORKERS)
            .pipelined(PipelineConfig::with_chunk(97))
            .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut grads, &live)
            .expect("all injected faults in this plan are recoverable");
        (bits(&grads), fabric.fault_stats())
    };
    let (values_a, stats_a) = run();
    let (values_b, stats_b) = run();
    assert_eq!(values_a, values_b, "same seed+plan must replay bit-exactly");
    assert_eq!(stats_a, stats_b, "fault counters are part of the trace");
    assert!(
        stats_a.drops + stats_a.corruptions > 0,
        "the plan must actually have fired: {stats_a:?}"
    );
}
