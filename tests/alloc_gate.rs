//! Dynamic zero-allocation gate for the ring, switch and
//! worker-aggregator exchanges.
//!
//! The static analyzer forbids allocation *sites* on hot paths; this
//! gate proves the dynamic property those rules approximate: after a
//! one-iteration warmup, a training loop that holds one [`Exchange`]
//! across iterations performs **zero heap allocations** in steady
//! state — for the ring all-reduce over the NIC transport chunked or
//! whole-leg, untimed or timed, and over the trainer's default
//! in-process transport; for the switch reduce of count-sketch frames
//! over the NIC transport chunked or whole-leg and over the in-process
//! transport; and for the worker-aggregator incast of error-feedback
//! sparse frames (threshold and top-k) over the timed and untimed NIC
//! transports, chunked or whole-leg, and over the in-process transport.
//! Every buffer the exchange touches — arena frames, flat wire
//! payloads, the in-flight windows, the recovery ladders, the fabric's
//! value scratch, the codec's append sink, the switch accumulator and
//! the timed fabric's per-packet size buffer — is recycled, and the
//! sparse encoder writes its frame without scratch of its own.
//!
//! The counting `#[global_allocator]` is compiled only under the
//! `alloc-gate` feature (see `crates/core/Cargo.toml`), so the rest of
//! the test suite keeps the system allocator untouched.
//!
//! The count is **per thread**. libtest's `main` thread allocates
//! (48–148 bytes at a time) while the test thread measures, so a
//! process-wide counter fails about one run in three with "allocated 4
//! times" at a random cell. Counting only the measuring thread loses
//! nothing: both transports run the codec and the engines inline on
//! the calling thread, so no exchange work happens on another thread.
//! (A cell that did hand work to other threads would have to sum their
//! counts.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{CodecSelection, FabricBuilder, TransportKind};
use inceptionn_distrib::{Exchange, ExchangeStrategy, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A passthrough allocator that counts the calling thread's allocations
/// and reallocations. Frees are not counted: the gate is about
/// *acquiring* memory in steady state, and a free implies a matching
/// earlier acquisition.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates or registers a TLS dtor from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone; that allocation is nobody's measurement.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers entirely to `System`, which upholds the contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Acquisitions made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn worker_grads(workers: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..workers)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
        .collect()
}

/// Runs `strategy` over `transport` on one held `exchange`: a warm-up
/// iteration, then three more that must allocate nothing and stay
/// bit-identical to the first. Each iteration begins with
/// `Fabric::begin_iteration`, as a trainer step does.
///
/// The same gradient values are re-exchanged each iteration — as a
/// fixed training step would re-fill the same gradient buffers — so
/// compressed wire sizes repeat and every warmed capacity suffices.
fn assert_steady_state_allocates_nothing(
    label: &str,
    strategy: ExchangeStrategy,
    transport: TransportKind,
    exchange: Exchange,
    n: usize,
    len: usize,
    codec: CodecSelection,
) {
    let inputs = worker_grads(n, len, 0xA110C);
    assert_steady_state_allocates_nothing_on(label, strategy, transport, exchange, codec, &inputs);
}

/// [`assert_steady_state_allocates_nothing`] on given `inputs`, one
/// vector per worker. The worker-aggregator strategy gets its
/// aggregator endpoint after the workers'.
///
/// Each measured iteration must equal the same iteration of a fresh
/// fabric's run: the sparse codec's residuals carry from one iteration
/// into the next, so its iterations differ by design. Every other
/// codec is stateless, and its iterations must all equal the first.
fn assert_steady_state_allocates_nothing_on(
    label: &str,
    strategy: ExchangeStrategy,
    transport: TransportKind,
    mut exchange: Exchange,
    codec: CodecSelection,
    inputs: &[Vec<f32>],
) {
    let n = inputs.len();
    let live: Vec<usize> = (0..n).collect();
    let endpoints = n + usize::from(strategy == ExchangeStrategy::WorkerAggregator);
    let build = || {
        FabricBuilder::new(endpoints)
            .transport(transport)
            .codec(codec)
            .build()
    };
    let mut reference = build();
    let expected: Vec<Vec<Vec<f32>>> = (0..4u64)
        .map(|iteration| {
            let mut grads = inputs.to_vec();
            reference.begin_iteration(iteration);
            exchange
                .run(strategy, reference.as_mut(), &mut grads, &live)
                .unwrap();
            grads
        })
        .collect();
    if !matches!(codec, CodecSelection::Sparse { .. }) {
        assert!(
            expected.iter().all(|e| *e == expected[0]),
            "{label}: a stateless codec must repeat its first iteration"
        );
    }

    // Warmup: one iteration populates the arena free lists, the
    // in-flight window, the fabric's decode scratch, and the codec's
    // wire buffers.
    let mut fabric = build();
    let mut warm = inputs.to_vec();
    fabric.begin_iteration(0);
    exchange
        .run(strategy, fabric.as_mut(), &mut warm, &live)
        .unwrap();
    assert_eq!(warm, expected[0], "{label}: the warm-up must match");

    for (iter, want) in expected[1..].iter().enumerate() {
        let mut grads = inputs.to_vec();
        // As the trainer does each step: rewinds the sparse codec's
        // residual slots; a no-op for the other codecs.
        fabric.begin_iteration(iter as u64 + 1);
        let before = allocations();
        exchange
            .run(strategy, fabric.as_mut(), &mut grads, &live)
            .unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state iteration {iter} of the {strategy:?} exchange allocated {} times",
            after - before
        );
        assert_eq!(
            grads, *want,
            "{label}: steady state must stay bit-identical"
        );
    }
}

/// The tentpole assertion: iteration 2..N of the ring exchange over the
/// NIC fabric allocates nothing — compressed and lossless (they share
/// every buffer), chunked and under the whole-leg default the trainer
/// runs — and neither does the timed NIC fabric's per-frame link
/// charge, nor the in-process fabric staging quantized values in its
/// scratch.
///
/// One test function: every cell rides on the same cold-exchange check
/// of the instrument.
#[test]
fn nic_ring_steady_state_allocates_nothing() {
    // Sanity check on the instrument itself: a cold exchange (nothing
    // warmed) *does* allocate, so a zero reading below reflects
    // recycling, not a broken counter.
    let mut fabric = FabricBuilder::new(3).transport(TransportKind::Nic).build();
    let mut grads = worker_grads(3, 1000, 7);
    let before = allocations();
    Exchange::new(3)
        .run(
            ExchangeStrategy::Ring,
            fabric.as_mut(),
            &mut grads,
            &[0, 1, 2],
        )
        .unwrap();
    assert!(
        allocations() > before,
        "a cold exchange must be visible to the counter"
    );

    let bound = CodecSelection::from_bound(Some(ErrorBound::pow2(10)));
    let lossless = CodecSelection::from_bound(None);
    let ring = ExchangeStrategy::Ring;
    let nic = TransportKind::Nic;
    assert_steady_state_allocates_nothing(
        "chunked/compressed",
        ring,
        nic,
        Exchange::new(4).pipelined(PipelineConfig::with_chunk(500)),
        4,
        4000,
        bound,
    );
    assert_steady_state_allocates_nothing(
        "chunked/lossless",
        ring,
        nic,
        Exchange::new(3).pipelined(PipelineConfig::with_chunk(700)),
        3,
        2500,
        lossless,
    );
    assert_steady_state_allocates_nothing(
        "whole/compressed",
        ring,
        nic,
        Exchange::new(4),
        4,
        4000,
        bound,
    );
    assert_steady_state_allocates_nothing(
        "whole/lossless",
        ring,
        nic,
        Exchange::new(3),
        3,
        2500,
        lossless,
    );
    assert_steady_state_allocates_nothing(
        "in-process/whole/compressed",
        ring,
        TransportKind::InProcess,
        Exchange::new(4),
        4,
        4000,
        bound,
    );
    assert_steady_state_allocates_nothing(
        "timed/chunked/compressed",
        ring,
        TransportKind::TimedNic,
        Exchange::new(4).pipelined(PipelineConfig::with_chunk(500)),
        4,
        4000,
        bound,
    );
}

/// The switch reduce of count-sketch frames: the encoder writes the
/// dense RAW frame straight into the fabric's wire buffer, and one
/// switch accumulator — reset per chunk, kept across runs — takes
/// every chunk's folds. The gradients are dense, so every frame is
/// RAW32, as on AlexNet-scale gradients; a sparse gradient takes the
/// sketch mode, whose peel check still works in scratch of its own.
#[test]
fn switch_sketch_steady_state_allocates_nothing() {
    let sketch = CodecSelection::Sketch { frac_bits: 10 };
    let switch = ExchangeStrategy::SwitchReduce;
    assert_steady_state_allocates_nothing(
        "switch/sketch/nic/chunked",
        switch,
        TransportKind::Nic,
        // A ragged last chunk: the accumulator shrinks and regrows
        // within every run.
        Exchange::new(4).pipelined(PipelineConfig::with_chunk(1500)),
        4,
        4000,
        sketch,
    );
    assert_steady_state_allocates_nothing(
        "switch/sketch/nic/whole",
        switch,
        TransportKind::Nic,
        Exchange::new(4),
        4,
        4000,
        sketch,
    );
    assert_steady_state_allocates_nothing(
        "switch/sketch/in-process/whole",
        switch,
        TransportKind::InProcess,
        Exchange::new(4),
        4,
        4000,
        sketch,
    );
}

/// The worker-aggregator incast of error-feedback sparse frames, the
/// exchange behind perfbench's `wa-sparse-timednic`: each worker's
/// encoder writes its frame straight into the fabric's wire buffer and
/// the aggregator decodes into the fabric's scratch. About half of
/// every gradient is zero and the rest lies above the 2^-6 threshold,
/// so a threshold encode empties its residual and every iteration
/// sends frames of one size; under top-k the candidates outnumber k
/// and the cut banks the rest, so residuals carry over while frames
/// keep k pairs.
#[test]
fn worker_aggregator_sparse_steady_state_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(0x5BA25E);
    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            (0..4000)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else if rng.gen_bool(0.5) {
                        rng.gen_range(0.02f32..0.1)
                    } else {
                        -rng.gen_range(0.02f32..0.1)
                    }
                })
                .collect()
        })
        .collect();
    let threshold = CodecSelection::Sparse {
        bound: ErrorBound::pow2(6),
        top_per_mille: 0,
    };
    let wa = ExchangeStrategy::WorkerAggregator;
    assert_steady_state_allocates_nothing_on(
        "wa/sparse/timed/whole",
        wa,
        TransportKind::TimedNic,
        Exchange::new(4),
        threshold,
        &inputs,
    );
    assert_steady_state_allocates_nothing_on(
        "wa/sparse/nic/chunked",
        wa,
        TransportKind::Nic,
        // A ragged last chunk: three legs per worker, three residual
        // slots.
        Exchange::new(4).pipelined(PipelineConfig::with_chunk(1500)),
        threshold,
        &inputs,
    );
    assert_steady_state_allocates_nothing_on(
        "wa/sparse/in-process/whole",
        wa,
        TransportKind::InProcess,
        Exchange::new(4),
        threshold,
        &inputs,
    );
    assert_steady_state_allocates_nothing_on(
        "wa/sparse-top-k/nic/whole",
        wa,
        TransportKind::Nic,
        Exchange::new(4),
        CodecSelection::Sparse {
            bound: ErrorBound::pow2(6),
            top_per_mille: 100,
        },
        &inputs,
    );
}
