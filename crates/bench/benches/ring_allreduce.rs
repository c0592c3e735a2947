//! Criterion benchmarks of the gradient-exchange algorithms: sequential
//! and threaded ring all-reduce vs the worker-aggregator baseline, with
//! and without compression in the loop, plus the in-process shortcut vs
//! the modeled NIC datapath behind the `Fabric` seam.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use inceptionn_compress::ErrorBound;
use inceptionn_distrib::aggregator::worker_aggregator_allreduce;
use inceptionn_distrib::fabric::{CodecSelection, Fabric, FabricBuilder, TransportKind};
use inceptionn_distrib::ring::{ring_allreduce, threaded_ring_allreduce};
use inceptionn_distrib::{Exchange, ExchangeStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_grads(workers: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..workers)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
        .collect()
}

fn bench_exchanges(c: &mut Criterion) {
    let workers = 4usize;
    let len = 262_144usize; // 1 MiB per worker
    let grads = make_grads(workers, len);
    let bytes = (workers * len * 4) as u64;
    let codec = CodecSelection::Scalar(ErrorBound::pow2(10));

    let mut group = c.benchmark_group("gradient_exchange");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function(BenchmarkId::new("ring", "lossless"), |b| {
        b.iter(|| {
            let mut g = grads.clone();
            ring_allreduce(&mut g, CodecSelection::None);
            g
        })
    });
    group.bench_function(BenchmarkId::new("ring", "eb=2^-10"), |b| {
        b.iter(|| {
            let mut g = grads.clone();
            ring_allreduce(&mut g, codec);
            g
        })
    });
    group.bench_function(BenchmarkId::new("worker_aggregator", "lossless"), |b| {
        b.iter(|| {
            let mut g = grads.clone();
            worker_aggregator_allreduce(&mut g, CodecSelection::None);
            g
        })
    });
    group.bench_function(BenchmarkId::new("ring_threaded", "lossless"), |b| {
        b.iter(|| threaded_ring_allreduce(grads.clone(), CodecSelection::None))
    });
    group.bench_function(BenchmarkId::new("ring_threaded", "eb=2^-10"), |b| {
        b.iter(|| threaded_ring_allreduce(grads.clone(), codec))
    });
    group.finish();
}

/// One whole-leg ring all-reduce through the [`Exchange`] seam.
fn ring_over(fabric: &mut dyn Fabric, grads: &mut [Vec<f32>], endpoints: &[usize]) {
    Exchange::new(grads.len())
        .run(ExchangeStrategy::Ring, fabric, grads, endpoints)
        .unwrap();
}

/// The cost of realism: the same ring exchange over the in-process
/// quantize shortcut vs the full NIC datapath (per-packet engine
/// encode/decode). The two produce bit-identical values; the benchmark
/// shows what the extra fidelity costs, and reports the compression
/// ratio the hardware path actually achieves on the wire.
fn bench_fabrics(c: &mut Criterion) {
    let workers = 4usize;
    let len = 65_536usize; // 256 KiB per worker
    let grads = make_grads(workers, len);
    let bytes = (workers * len * 4) as u64;
    let bound = Some(ErrorBound::pow2(10));
    let endpoints: Vec<usize> = (0..workers).collect();

    // One instrumented run up front: the wire ratio is a property of the
    // data and codec, not of the timing loop.
    let mut probe = FabricBuilder::new(workers)
        .transport(TransportKind::Nic)
        .compression(bound)
        .build();
    let mut g = grads.clone();
    ring_over(probe.as_mut(), &mut g, &endpoints);
    let stats = probe.stats();
    println!(
        "ring over NicFabric: {} payload B -> {} wire B per exchange \
         (compressed-bytes-on-wire ratio {:.2}x, {} packets)",
        stats.payload_bytes,
        stats.wire_bytes,
        stats.wire_ratio(),
        stats.packets
    );

    let mut group = c.benchmark_group("ring_fabric");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function(BenchmarkId::new("in_process", "eb=2^-10"), |b| {
        b.iter(|| {
            let mut fabric = FabricBuilder::new(workers).compression(bound).build();
            let mut g = grads.clone();
            ring_over(fabric.as_mut(), &mut g, &endpoints);
            g
        })
    });
    group.bench_function(BenchmarkId::new("nic_datapath", "eb=2^-10"), |b| {
        b.iter(|| {
            let mut fabric = FabricBuilder::new(workers)
                .transport(TransportKind::Nic)
                .compression(bound)
                .build();
            let mut g = grads.clone();
            ring_over(fabric.as_mut(), &mut g, &endpoints);
            g
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exchanges, bench_fabrics
}
criterion_main!(benches);
