//! Dynamic zero-allocation gate for the NIC exchange.
//!
//! The static analyzer forbids allocation *sites* on hot paths; this
//! gate proves the dynamic property those rules approximate: after a
//! one-iteration warmup, a training loop that holds one [`Exchange`]
//! across iterations of the NIC-transport ring all-reduce performs
//! **zero heap allocations** in steady state — chunked or whole-leg.
//! Every buffer the exchange touches — arena frames, flat wire payloads,
//! the in-flight window, the recovery ladders, the fabric's decode
//! scratch, and the codec's append sink — is recycled.
//!
//! The counting `#[global_allocator]` is compiled only under the
//! `alloc-gate` feature (see `crates/core/Cargo.toml`), so the rest of
//! the test suite keeps the system allocator untouched.
//!
//! The count is **per thread**. libtest's `main` thread allocates
//! (48–148 bytes at a time) while the test thread measures, so a
//! process-wide counter fails about one run in three with "allocated 4
//! times" at a random cell. Counting only the measuring thread loses
//! nothing: the NIC ring runs the engines inline and never enters the
//! codec pool, so no exchange work happens on another thread. (A cell
//! that does hand work to pool threads would have to sum their counts.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inceptionn_compress::ErrorBound;
use inceptionn_distrib::fabric::{FabricBuilder, TransportKind};
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

/// Runs the NIC-transport ring on one held `exchange`: a warm-up
/// iteration, then three more that must allocate nothing and stay
/// bit-identical to the first.
///
/// The same gradient values are re-exchanged each iteration — as a
/// fixed training step would re-fill the same gradient buffers — so
/// compressed wire sizes repeat and every warmed capacity suffices.
fn assert_steady_state_allocates_nothing(
    label: &str,
    mut exchange: Exchange,
    n: usize,
    len: usize,
    bound: Option<ErrorBound>,
) {
    let live: Vec<usize> = (0..n).collect();
    let mut fabric = FabricBuilder::new(n)
        .transport(TransportKind::Nic)
        .compression(bound)
        .build();
    let inputs = worker_grads(n, len, 0xA110C);

    // Warmup: one iteration populates the arena free lists, the
    // in-flight window, the fabric's decode scratch, and the codec's
    // wire buffers.
    let mut reduced = inputs.clone();
    exchange
        .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut reduced, &live)
        .unwrap();

    for iter in 0..3 {
        let mut grads = inputs.clone();
        let before = allocations();
        exchange
            .run(ExchangeStrategy::Ring, fabric.as_mut(), &mut grads, &live)
            .unwrap();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state iteration {iter} of the NIC ring exchange allocated {} times",
            after - before
        );
        assert_eq!(
            grads, reduced,
            "{label}: steady state must stay bit-identical"
        );
    }
}

/// The tentpole assertion: iteration 2..N of the ring exchange over the
/// (untimed) NIC fabric allocates nothing — compressed and lossless
/// (they share every buffer), chunked and under the whole-leg default
/// the trainer runs.
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

    let bound = Some(ErrorBound::pow2(10));
    assert_steady_state_allocates_nothing(
        "chunked/compressed",
        Exchange::new(4).pipelined(PipelineConfig::with_chunk(500)),
        4,
        4000,
        bound,
    );
    assert_steady_state_allocates_nothing(
        "chunked/lossless",
        Exchange::new(3).pipelined(PipelineConfig::with_chunk(700)),
        3,
        2500,
        None,
    );
    assert_steady_state_allocates_nothing("whole/compressed", Exchange::new(4), 4, 4000, bound);
    assert_steady_state_allocates_nothing("whole/lossless", Exchange::new(3), 3, 2500, None);
}
