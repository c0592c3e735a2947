//! Decoder robustness: arbitrary (corrupt, adversarial) byte streams
//! must produce clean errors or garbage values — never panics, hangs,
//! or unbounded allocations. The NIC decompression engine faces raw
//! network input, so this property is load-bearing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inceptionn_compress::szlike::SzCodec;
use inceptionn_compress::truncate::Truncation;
use inceptionn_compress::{
    lz, sketch, sparse, CompressedStream, ErrorBound, InceptionnCodec, ResidualState, SketchCodec,
    SketchFrame, SparseCodec, SparseConfig,
};
use proptest::prelude::*;

/// Largest single allocation this binary lets through. A decoder that
/// sizes a buffer from a forged header asks for far more and gets a
/// null pointer (an abort), never a machine-sized allocation.
const MAX_REQUEST: usize = 1 << 30;

/// Passthrough allocator that refuses requests above [`MAX_REQUEST`]
/// and records the calling thread's largest request.
struct CappedAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates from inside the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn admit(size: usize) -> bool {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    size <= MAX_REQUEST
}

// SAFETY: defers to `System` for every request it admits and returns
// null (a permitted allocation failure) for the rest.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if admit(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

/// Gradient-like values, mostly exact zeros, so the sparse and sketch
/// encoders produce their compact layouts rather than the dense ones.
fn sparse_values() -> impl Strategy<Value = Vec<f32>> {
    let value = (0u8..4, -4.0f32..4.0).prop_map(|(k, v)| if k == 0 { v } else { 0.0 });
    proptest::collection::vec(value, 0..300)
}

/// A valid frame damaged one of two ways: one bit flipped at `at`
/// (modulo its length), or cut short there.
fn damage(mut frame: Vec<u8>, at: usize, (flip, bit): (bool, u8)) -> Vec<u8> {
    if frame.is_empty() {
        return frame;
    }
    let at = at % frame.len();
    if flip {
        frame[at] ^= 1 << bit;
    } else {
        frame.truncate(at);
    }
    frame
}

/// The sparse decoders' contract on `bytes` for a block of `len`
/// values: a typed error, or exactly `len` values out and every folded
/// index inside the block.
fn check_sparse(bytes: &[u8], len: usize) -> Result<(), TestCaseError> {
    let mut out = vec![f32::NAN; len];
    let decoded = sparse::decode_frame(bytes, &mut out);
    prop_assert_eq!(out.len(), len);
    let mut folded = 0usize;
    let folds = sparse::fold_frame(bytes, len, |i, _| {
        assert!(i < len, "folded index {i} outside a block of {len}");
        folded += 1;
    });
    if let Ok(nnz) = folds {
        prop_assert_eq!(nnz, folded);
        prop_assert!(nnz <= len);
    }
    // Both entry points apply the same layout checks.
    prop_assert_eq!(decoded.is_ok(), folds.is_ok());
    Ok(())
}

/// The sketch decoders' contract on `bytes` for a block of `len`
/// values: a typed error, or a header inside the layout's ranges and
/// exactly `len` values out.
fn check_sketch(bytes: &[u8], len: usize) -> Result<(), TestCaseError> {
    if let Ok(meta) = sketch::frame_meta(bytes) {
        prop_assert!((1..=sketch::MAX_FRAC_BITS).contains(&meta.frac_bits));
    }
    let mut out = vec![f32::NAN; len];
    if sketch::decode_frame(bytes, &mut out).is_ok() {
        prop_assert_eq!(out.len(), len);
        prop_assert!(out.iter().all(|v| !v.is_nan()));
    }
    Ok(())
}

#[test]
fn forged_sketch_header_is_rejected_before_any_header_sized_allocation() {
    // A bare 16-byte header claiming 2^32 - 1 values: 16 GiB of RAW32
    // counts, 32 GiB of i64 scratch if the validator trusted it.
    for mode in 0u8..3 {
        let mut bytes = vec![mode, 10, sketch::ROWS as u8, 0];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0x00C0_FFEEu64.to_le_bytes());
        let meta = sketch::frame_meta(&bytes).expect("a plausible header");
        assert_eq!(meta.len, u32::MAX as usize);
        LARGEST.with(|c| c.set(0));
        assert!(SketchFrame::from_bytes(bytes).is_err(), "mode {mode}");
        let largest = LARGEST.with(Cell::get);
        assert!(largest < 1 << 20, "mode {mode} asked for {largest} bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn inceptionn_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        len in 0usize..2000,
        e in 1u8..=30,
    ) {
        let codec = InceptionnCodec::new(ErrorBound::pow2(e));
        let stream = CompressedStream {
            len,
            bit_len: bytes.len() * 8,
            bytes,
        };
        match codec.decompress(&stream) {
            Ok(values) => prop_assert_eq!(values.len(), len),
            Err(err) => prop_assert!(err.at_value <= len),
        }
    }

    #[test]
    fn lz_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..800)) {
        // Arbitrary token streams either decode or error; decoded output
        // is bounded by the max expansion a valid stream could produce.
        if let Ok(out) = lz::decompress(&bytes) {
            prop_assert!(out.len() <= bytes.len() * 200);
        }
    }

    #[test]
    fn sz_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        count in 0usize..500,
    ) {
        let codec = SzCodec::new(ErrorBound::pow2(10));
        if let Some(values) = codec.decompress(&bytes, count) {
            prop_assert_eq!(values.len(), count);
        }
    }

    #[test]
    fn truncation_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        count in 0usize..200,
        drop_bits in 1u8..32,
    ) {
        let t = Truncation::new(drop_bits);
        if let Some(values) = t.decompress(&bytes, count) {
            prop_assert_eq!(values.len(), count);
            // Reconstructed values honor the truncation mask.
            for v in values {
                prop_assert_eq!(v.to_bits() & ((1u32 << drop_bits) - 1), 0);
            }
        }
    }

    #[test]
    fn flipping_bits_in_valid_stream_is_safe(
        vals in proptest::collection::vec(-1.0f32..1.0, 1..100),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let codec = InceptionnCodec::new(ErrorBound::pow2(10));
        let mut stream = codec.compress(&vals);
        if !stream.bytes.is_empty() {
            let idx = flip_byte % stream.bytes.len();
            stream.bytes[idx] ^= 1 << flip_bit;
        }
        // Must not panic; values that do decode are arbitrary but finite
        // in count.
        if let Ok(out) = codec.decompress(&stream) {
            prop_assert_eq!(out.len(), vals.len());
        }
    }

    #[test]
    fn sparse_decoders_reject_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        len in 0usize..100,
    ) {
        check_sparse(&bytes, len)?;
    }

    #[test]
    fn sparse_decoders_reject_random_pairs(
        len in 0u32..100,
        pairs in proptest::collection::vec((0u32..120, any::<f32>()), 0..40),
    ) {
        // A well-formed header over arbitrary (index, value) pairs:
        // out-of-range, repeated and descending indices must be typed
        // errors.
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (i, v) in &pairs {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        check_sparse(&bytes, len as usize)?;
    }

    #[test]
    fn damaged_sparse_frames_are_safe(
        values in sparse_values(),
        top_per_mille in 0u16..200,
        at in any::<usize>(),
        flip in (any::<bool>(), 0u8..8),
    ) {
        let codec = SparseCodec::new(SparseConfig {
            bound: ErrorBound::pow2(4),
            top_per_mille,
            seed: 7,
        });
        let mut frame = Vec::new();
        codec.encode_append(3, &mut ResidualState::new(), &values, &mut frame);
        let mut out = vec![0.0; values.len()];
        prop_assert!(sparse::decode_frame(&frame, &mut out).is_ok());
        check_sparse(&damage(frame, at, flip), values.len())?;
    }

    #[test]
    fn sketch_decoders_reject_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        len in 0usize..100,
    ) {
        check_sketch(&bytes, len)?;
    }

    #[test]
    fn sketch_decoders_reject_random_payloads(
        mode in 0u8..4,
        frac_bits in 0u8..24,
        len in 0u32..200,
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // A plausible header over an arbitrary payload reaches the
        // per-mode length checks and the sketch peeling.
        let mut bytes = vec![mode, frac_bits, sketch::ROWS as u8, 0];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&0x00C0_FFEEu64.to_le_bytes());
        bytes.extend_from_slice(&payload);
        check_sketch(&bytes, len as usize)?;
    }

    #[test]
    fn damaged_sketch_frames_are_safe(
        values in sparse_values(),
        at in any::<usize>(),
        flip in (any::<bool>(), 0u8..8),
    ) {
        let frame = SketchCodec::new(10, 0x00C0_FFEE).encode(&values).into_bytes();
        let mut out = vec![0.0; values.len()];
        prop_assert!(sketch::decode_frame(&frame, &mut out).is_ok());
        check_sketch(&damage(frame, at, flip), values.len())?;
    }
}
