//! Cross-crate consistency: the software codec, the modeled NIC
//! hardware, and the distributed runtime must agree bit-for-bit on the
//! wire format and its semantics.

use inceptionn::cluster::{compression_spec, measured_compression_ratio};
use inceptionn::{ErrorBound, InceptionnCodec};
use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_distrib::ring::ring_allreduce;
use inceptionn_distrib::{
    CodecSelection, Exchange, ExchangeStrategy, FabricBuilder, TransportKind,
};
use inceptionn_nicsim::engine::{CompressionEngine, DecompressionEngine};
use inceptionn_nicsim::{NicConfig, NicPipeline, Packet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample(preset: GradientPreset, n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    GradientModel::preset(preset).sample(&mut rng, n)
}

#[test]
fn software_hardware_and_nic_paths_are_bit_identical() {
    for e in [10u8, 8, 6] {
        let bound = ErrorBound::pow2(e);
        let grads = sample(GradientPreset::AlexNet, 5_000, e as u64);
        // Software reference.
        let sw = InceptionnCodec::new(bound).compress(&grads);
        // Burst-level engine.
        let hw = CompressionEngine::new(bound).process(&grads);
        assert_eq!(sw.bytes, hw.bytes, "engine disagrees at 2^-{e}");
        // Full NIC pipeline (payload framing).
        let mut nic = NicPipeline::new(NicConfig {
            bound,
            base_latency_ns: 0,
        });
        let payload: Vec<u8> = grads.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (wire, _) = nic.transmit(Packet::gradient(payload.into()));
        assert_eq!(
            wire.payload.as_ref(),
            sw.bytes.as_slice(),
            "NIC disagrees at 2^-{e}"
        );
    }
}

#[test]
fn decompression_matches_quantize_through_every_path() {
    let bound = ErrorBound::pow2(10);
    let grads = sample(GradientPreset::Vgg16, 3_000, 2);
    let codec = InceptionnCodec::new(bound);
    let want = codec.quantize(&grads);
    // Software stream path.
    let stream = codec.compress(&grads);
    assert_eq!(codec.decompress(&stream).unwrap(), want);
    // Hardware engine path.
    let hw = CompressionEngine::new(bound).process(&grads);
    let (_, restored) = DecompressionEngine::new(bound)
        .process(&hw.bytes, grads.len())
        .unwrap();
    assert_eq!(restored, want);
}

#[test]
fn nic_ring_carries_the_hardware_wire_format_correctly() {
    // The NIC transport exchanges real compressed byte streams; its
    // result must equal the in-process quantization shortcut on real
    // gradient distributions, for every bound.
    for e in [10u8, 6] {
        let codec = CodecSelection::Scalar(ErrorBound::pow2(e));
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|w| sample(GradientPreset::ResNet50, 400, 100 + w))
            .collect();
        let mut in_proc = inputs.clone();
        ring_allreduce(&mut in_proc, codec);
        let mut over_nic = inputs;
        let mut fabric = FabricBuilder::new(4)
            .transport(TransportKind::Nic)
            .codec(codec)
            .build();
        Exchange::new(4)
            .run(
                ExchangeStrategy::Ring,
                fabric.as_mut(),
                &mut over_nic,
                &[0, 1, 2, 3],
            )
            .unwrap();
        assert_eq!(in_proc, over_nic, "bound 2^-{e}");
    }
}

#[test]
fn cluster_model_ratio_matches_direct_measurement() {
    // The timing model's compression spec must reflect what the codec
    // actually achieves on the model's gradient distribution.
    let bound = ErrorBound::pow2(10);
    let spec = compression_spec(GradientPreset::AlexNet, bound, 30_000);
    let direct = measured_compression_ratio(GradientPreset::AlexNet, bound, 30_000, 0xC0FFEE);
    assert!((spec.ratio - direct).abs() < 1e-9);
    assert!(spec.ratio > 2.0, "AlexNet @2^-10 ratio {:.2}", spec.ratio);
    // Engine latency stays far below a 10 GbE MTU serialization time
    // (~1.2 us), so compression never throttles the link.
    assert!(spec.engine_latency_ns < 1_200);
}

#[test]
fn compression_is_worth_it_for_every_benchmark_model() {
    for preset in GradientPreset::ALL {
        for e in [10u8, 8, 6] {
            let r = measured_compression_ratio(preset, ErrorBound::pow2(e), 20_000, 7);
            assert!(r > 2.0, "{}: ratio {r:.2} at 2^-{e}", preset.name());
        }
    }
}
