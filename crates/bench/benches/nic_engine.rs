//! Criterion benchmarks of the modeled NIC engines: per-packet
//! compression/decompression and the packet-level network simulator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::ErrorBound;
use inceptionn_netsim::sim::NetworkConfig;
use inceptionn_netsim::topology::phase;
use inceptionn_netsim::transfer::Transfer;
use inceptionn_nicsim::engine::{CompressionEngine, DecompressionEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_engines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    // One MTU payload: 362 f32 lanes.
    let packet: Vec<f32> = GradientModel::preset(GradientPreset::AlexNet).sample(&mut rng, 362);
    let ce = CompressionEngine::new(ErrorBound::pow2(10));
    let de = DecompressionEngine::new(ErrorBound::pow2(10));
    let compressed = ce.process(&packet);

    let mut group = c.benchmark_group("nic_engine");
    group.throughput(Throughput::Bytes((packet.len() * 4) as u64));
    group.bench_function("compress_mtu_packet", |b| b.iter(|| ce.process(&packet)));
    group.bench_function("decompress_mtu_packet", |b| {
        b.iter(|| de.process(&compressed.bytes, packet.len()).unwrap())
    });
    group.finish();
}

fn bench_network_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_sim");
    group.sample_size(10);
    group.bench_function("wa_gather_100mb_4workers", |b| {
        b.iter(|| {
            phase(
                &NetworkConfig::ten_gbe(5).tree(),
                (0..4).map(|w| Transfer::new(w, 4, 25_000_000)),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engines, bench_network_sim
}
criterion_main!(benches);
