//! Acceptance tests for the `Fabric` transport layer: the refactor must
//! be invisible to the algorithms (bit-exact with the pre-refactor ring
//! exchange), the `NicFabric` wire must carry real engine-encoded bytes
//! (not a `quantize()` shortcut), and the timed stack's accounting must
//! agree with the analytic engine and network models.

use inceptionn_compress::{ErrorBound, InceptionnCodec};
use inceptionn_distrib::fabric::{
    CodecSelection, Fabric, FabricBuilder, FrameBody, PayloadKind, TransportKind,
};
use inceptionn_distrib::ring::{block_range, ring_allreduce};
use inceptionn_distrib::{Exchange, ExchangeStrategy, FaultPlan, PipelineConfig};
use inceptionn_netsim::NetworkConfig;
use inceptionn_nicsim::engine::{CompressionEngine, DecompressionEngine, PIPELINE_DEPTH};
use inceptionn_nicsim::VALUES_PER_PACKET;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gradients(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect()
}

fn worker_grads(workers: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..workers)
        .map(|w| gradients(len, seed.wrapping_add(w as u64)))
        .collect()
}

/// The ring exchange exactly as it existed before the `Fabric` refactor
/// (Algorithm 1, simultaneous-step semantics), kept verbatim as the
/// regression oracle.
fn reference_ring_allreduce(workers: &mut [Vec<f32>], codec: Option<&InceptionnCodec>) {
    let maybe_quantize = |block: &[f32]| match codec {
        None => block.to_vec(),
        Some(c) => c.quantize(block),
    };
    let n = workers.len();
    let len = workers[0].len();
    if n == 1 || len == 0 {
        return;
    }
    for s in 1..n {
        let mut messages: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (i, w) in workers.iter().enumerate() {
            let k = (i + n - (s - 1)) % n;
            messages.push(maybe_quantize(&w[block_range(len, n, k)]));
        }
        for (i, worker) in workers.iter_mut().enumerate() {
            let from = (i + n - 1) % n;
            let k = (i + n - s) % n;
            let range = block_range(len, n, k);
            for (dst, src) in worker[range].iter_mut().zip(&messages[from]) {
                *dst += *src;
            }
        }
    }
    for t in 1..n {
        let mut messages: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (i, w) in workers.iter().enumerate() {
            let k = (i + 2 + n - t) % n;
            messages.push(maybe_quantize(&w[block_range(len, n, k)]));
        }
        for (i, worker) in workers.iter_mut().enumerate() {
            let from = (i + n - 1) % n;
            let k = (i + 1 + n - t) % n;
            let range = block_range(len, n, k);
            worker[range].copy_from_slice(&messages[from]);
        }
    }
}

/// The two fold-in-worker-order strategies (worker-aggregator and
/// switch reduce) as one line of arithmetic, independent of any
/// executor: `Σ_k quantize(w_k)`, folded in worker order from zero.
fn reference_gather_sum(workers: &[Vec<f32>], codec: Option<&InceptionnCodec>) -> Vec<f32> {
    let mut sum = vec![0.0f32; workers[0].len()];
    for w in workers {
        let contribution = match codec {
            None => w.clone(),
            Some(c) => c.quantize(w),
        };
        for (s, v) in sum.iter_mut().zip(&contribution) {
            *s += *v;
        }
    }
    sum
}

/// A ring all-reduce through [`Exchange::run`] with its whole-leg
/// default, worker `i` on endpoint `i`.
fn ring_over(fabric: &mut dyn Fabric, workers: &mut [Vec<f32>]) {
    let live: Vec<usize> = (0..workers.len()).collect();
    Exchange::new(workers.len())
        .run(ExchangeStrategy::Ring, fabric, workers, &live)
        .unwrap();
}

#[test]
fn fabric_ring_is_bit_exact_with_the_pre_refactor_reference() {
    // The refactor's core promise: routing Algorithm 1 through the
    // `Fabric` seam changes *nothing* about the numbers — lossless and
    // compressed, across worker counts, block-aligned or ragged.
    for (n, len) in [(2usize, 64usize), (3, 100), (4, 2000), (5, 37), (7, 3)] {
        for bound in [None, Some(ErrorBound::pow2(10)), Some(ErrorBound::pow2(6))] {
            let codec = bound.map(InceptionnCodec::new);
            let inputs = worker_grads(n, len, 1000 + n as u64 + len as u64);
            let mut want = inputs.clone();
            reference_ring_allreduce(&mut want, codec.as_ref());
            let mut got = inputs;
            let selection = match bound {
                None => CodecSelection::None,
                Some(b) => CodecSelection::Scalar(b),
            };
            ring_allreduce(&mut got, selection);
            assert_eq!(got, want, "n={n} len={len} bound={bound:?} diverged");
        }
    }
}

#[test]
fn gather_strategies_equal_the_ordered_quantized_sum_on_every_transport() {
    // The oracle for the strategies whose reference used to be the
    // whole-block schedule bodies: every worker ends with exactly
    // `Σ_k quantize(w_k)` in worker order, whole-leg or in ragged
    // chunks, on every transport.
    for (n, len) in [(2usize, 64usize), (4, 1013), (5, 37)] {
        for bound in [None, Some(ErrorBound::pow2(10)), Some(ErrorBound::pow2(6))] {
            let codec = bound.map(InceptionnCodec::new);
            let inputs = worker_grads(n, len, 2000 + n as u64 + len as u64);
            let want = reference_gather_sum(&inputs, codec.as_ref());
            let live: Vec<usize> = (0..n).collect();
            for (strategy, endpoints) in [
                (ExchangeStrategy::WorkerAggregator, n + 1),
                (ExchangeStrategy::SwitchReduce, n),
            ] {
                for kind in TransportKind::ALL {
                    for chunk in [None, Some(97)] {
                        let mut fabric = FabricBuilder::new(endpoints)
                            .transport(kind)
                            .compression(bound)
                            .build();
                        let mut exchange = Exchange::new(n);
                        if let Some(chunk) = chunk {
                            exchange = exchange.pipelined(PipelineConfig::with_chunk(chunk));
                        }
                        let mut got = inputs.clone();
                        exchange
                            .run(strategy, fabric.as_mut(), &mut got, &live)
                            .unwrap();
                        for (k, w) in got.iter().enumerate() {
                            assert_eq!(
                                w, &want,
                                "{strategy:?}/{kind:?} n={n} len={len} bound={bound:?} \
                                 chunk={chunk:?}: worker {k} diverged from the ordered sum"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn nic_wire_bytes_are_engine_output_not_a_quantize_shortcut() {
    // Every wire segment a `NicFabric` emits must carry the exact byte
    // stream the hardware `CompressionEngine` emits for that MTU chunk,
    // and the receive side must recover the values through the
    // `DecompressionEngine` — proving the fabric runs the real datapath
    // rather than quantizing in software and shipping raw floats.
    let bound = ErrorBound::pow2(10);
    let vals = gradients(1000, 42); // 2 full packets + 1 ragged tail
    let mut fabric = FabricBuilder::new(2)
        .transport(TransportKind::Nic)
        .compression(Some(bound))
        .build();
    let frame = fabric.encode(0, &vals, PayloadKind::Gradient);
    let FrameBody::Flat(payload) = frame.body() else {
        panic!("NicFabric must emit flat wire frames");
    };
    assert_eq!(payload.segs.len(), vals.len().div_ceil(VALUES_PER_PACKET));

    let tx_engine = CompressionEngine::new(bound);
    let rx_engine = DecompressionEngine::new(bound);
    let codec = InceptionnCodec::new(bound);
    for ((seg, wire), chunk) in payload.iter().zip(vals.chunks(VALUES_PER_PACKET)) {
        assert!(seg.compressed, "gradient segments carry the lossy marker");
        assert_eq!(seg.value_count as usize, chunk.len());
        let raw: Vec<u8> = chunk.iter().flat_map(|v| v.to_le_bytes()).collect();
        let want = tx_engine.process_bytes(&raw);
        assert_eq!(
            wire,
            &want.bytes[..],
            "wire payload is not the compression engine's output"
        );
        assert!(
            wire.len() < raw.len(),
            "engine output must actually be compressed"
        );
        // And the decompression engine — not a software decode — must be
        // able to consume those bytes back to the quantized values.
        let (_, restored) = rx_engine.process(wire, chunk.len()).unwrap();
        assert_eq!(restored, codec.quantize(chunk));
    }

    // Delivering the frame through the fabric's RX NIC composes to the
    // whole-stream quantization the in-process shortcut computes.
    let mut received = Vec::new();
    fabric
        .deliver(1, &frame, &mut |b| received.extend_from_slice(b))
        .unwrap();
    assert_eq!(received, codec.quantize(&vals));
}

/// Engine cycles the analytic model predicts for transferring `values`
/// values as one payload: per MTU chunk, compression occupies
/// `ceil(v/8) + PIPELINE_DEPTH` cycles and decompression the same (one
/// 8-lane burst per cycle plus pipeline fill on each side).
fn analytic_cycles(values: usize) -> u64 {
    let mut cycles = 0u64;
    let mut remaining = values;
    while remaining > 0 {
        let chunk = remaining.min(VALUES_PER_PACKET);
        cycles += 2 * ((chunk as u64).div_ceil(8) + PIPELINE_DEPTH);
        remaining -= chunk;
    }
    cycles
}

/// Raw (uncompressed) per-packet payload sizes for `values` values.
fn raw_packet_bytes(values: usize) -> Vec<u64> {
    let mut sizes = Vec::new();
    let mut remaining = values;
    while remaining > 0 {
        let chunk = remaining.min(VALUES_PER_PACKET);
        sizes.push((chunk * 4) as u64);
        remaining -= chunk;
    }
    sizes
}

#[test]
fn timed_nic_ring_matches_the_analytic_engine_and_network_models() {
    // End-to-end over the full co-design stack: a ring all-reduce on a
    // TimedFabric(NicFabric) must charge exactly the engine cycles the
    // pipeline model predicts, and link latency consistent with the
    // netsim closed form. Every block is transferred 2(n−1) times (once
    // per step in each phase), so both totals follow from block sizes.
    let n = 4usize;
    let len = 2000usize;
    let bound = ErrorBound::pow2(10);
    let net = NetworkConfig::ten_gbe(n);
    let block_values: Vec<usize> = (0..n).map(|k| block_range(len, n, k).len()).collect();
    let rounds = 2 * (n as u64 - 1);

    // Lossless run: wire bytes are the raw floats, so the netsim charge
    // is predictable to the nanosecond and the engines never spin.
    let mut fabric = FabricBuilder::new(n)
        .transport(TransportKind::TimedNic)
        .network(net)
        .build();
    let mut grads = worker_grads(n, len, 7);
    ring_over(fabric.as_mut(), &mut grads);
    let stats = fabric.stats();
    assert_eq!(
        stats.engine_cycles, 0,
        "lossless traffic bypasses the engines"
    );
    let want_link: u64 = rounds
        * block_values
            .iter()
            .map(|&v| net.message_latency_ns(&raw_packet_bytes(v)))
            .sum::<u64>();
    assert_eq!(
        stats.link_latency_ns, want_link,
        "lossless link charge must equal the netsim closed form exactly"
    );

    // Compressed run: engine cycles are exact (they depend only on value
    // counts), and the link charge must agree with the closed form
    // applied to ratio-shrunk payloads within 5%.
    let mut fabric = FabricBuilder::new(n)
        .transport(TransportKind::TimedNic)
        .compression(Some(bound))
        .network(net)
        .build();
    let mut grads = worker_grads(n, len, 7);
    ring_over(fabric.as_mut(), &mut grads);
    let stats = fabric.stats();
    let want_cycles: u64 = rounds
        * block_values
            .iter()
            .map(|&v| analytic_cycles(v))
            .sum::<u64>();
    assert!(stats.engine_cycles > 0 && stats.link_latency_ns > 0);
    assert_eq!(
        stats.engine_cycles, want_cycles,
        "engine occupancy must match the pipeline model exactly"
    );
    let ratio = stats.wire_ratio();
    assert!(ratio > 1.5, "compression ratio {ratio:.2}");
    let predicted: u64 = rounds
        * block_values
            .iter()
            .map(|&v| {
                let shrunk: Vec<u64> = raw_packet_bytes(v)
                    .iter()
                    .map(|&b| (b as f64 / ratio).round() as u64)
                    .collect();
                net.message_latency_ns(&shrunk)
            })
            .sum::<u64>();
    let rel = (stats.link_latency_ns as f64 - predicted as f64).abs() / predicted as f64;
    assert!(
        rel < 0.05,
        "compressed link charge {} vs analytic {} ({:.1}% off)",
        stats.link_latency_ns,
        predicted,
        rel * 100.0
    );
    // Consistency of the paper's headline: the compressed exchange holds
    // the wire for less time than the lossless one.
    assert!(stats.link_latency_ns < want_link);
}

#[test]
fn zero_fault_decorator_is_bit_invisible() {
    // Arming a `FaultPlan` whose probabilities are all zero must change
    // nothing: same floats, same transfer accounting, zero fault
    // counters — the decorator's pass-through path is free of side
    // effects.
    for bound in [None, Some(ErrorBound::pow2(10))] {
        let inputs = worker_grads(4, 900, 55);

        let mut plain = inputs.clone();
        let mut bare = FabricBuilder::new(4)
            .transport(TransportKind::TimedNic)
            .compression(bound)
            .build();
        ring_over(bare.as_mut(), &mut plain);

        let mut decorated = inputs;
        let mut faulty = FabricBuilder::new(4)
            .transport(TransportKind::TimedNic)
            .compression(bound)
            .faults(FaultPlan::new(99))
            .build();
        ring_over(faulty.as_mut(), &mut decorated);

        assert_eq!(plain, decorated, "bound {bound:?}: values changed");
        assert_eq!(
            bare.stats(),
            faulty.stats(),
            "bound {bound:?}: accounting changed"
        );
        assert_eq!(
            faulty.fault_stats(),
            inceptionn_distrib::FaultStats::default(),
            "a clean plan must inject nothing"
        );
    }
}
