//! Differential tests: the burst fast path against the scalar reference
//! codec.
//!
//! The INCEPTIONN wire format has exactly one reference definition —
//! [`InceptionnCodec`] — and every accelerated implementation must be
//! *byte-identical* to it, not merely value-equivalent: the modeled
//! hardware engines, the fabric transports, and the regression bench
//! all pin their goldens against these bytes. These tests sweep the
//! paper's three error bounds (2⁻⁶, 2⁻⁸, 2⁻¹⁰), block lengths that are
//! not multiples of the 8-lane burst, and the value classes that sit on
//! classifier decision boundaries (±0, subnormals, |g| ≥ 1, NaN/inf).

use inceptionn_compress::{BurstCodec, ErrorBound, InceptionnCodec};
use proptest::prelude::*;

/// The paper's evaluated error-bound exponents.
const BOUNDS: [u8; 3] = [6, 8, 10];

/// Values that land on classifier decision boundaries, in both signs.
fn boundary_values(e: u8) -> Vec<f32> {
    let eb = (2.0f64.powi(-i32::from(e))) as f32;
    let mut vals = vec![
        0.0,
        -0.0,
        f32::from_bits(1), // smallest subnormal
        -f32::from_bits(1),
        f32::MIN_POSITIVE, // smallest normal
        -f32::MIN_POSITIVE,
        eb, // exactly the bound
        -eb,
        eb * 0.5,
        eb * 1.5,
        1.0, // |g| >= 1 falls back to Full
        -1.0,
        1.0 - f32::EPSILON / 2.0, // largest value below 1.0
        f32::from_bits(0x3f7f_ffff),
        1.5,
        -123.456,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
    ];
    // Values straddling the 8-bit/16-bit payload split for this bound.
    for shift in [7i32, 8, 15, 16] {
        let v = (2.0f64.powi(-i32::from(e) - shift)) as f32;
        vals.push(v);
        vals.push(-v);
        vals.push(v * 0.999);
    }
    vals
}

/// Asserts byte-identity and bit-exact round trips of the burst codec
/// against the scalar reference for one block.
fn assert_differential(e: u8, vals: &[f32]) {
    let bound = ErrorBound::pow2(e);
    let scalar = InceptionnCodec::new(bound);
    let burst = BurstCodec::new(bound);

    let reference = scalar.compress(vals);
    let fast = burst.compress(vals);
    assert_eq!(
        fast.bytes,
        reference.bytes,
        "burst stream diverged (e={e}, n={})",
        vals.len()
    );
    assert_eq!(fast.bit_len, reference.bit_len);

    // Round trips agree bit-for-bit (NaNs compare equal as bits).
    let want: Vec<u32> = scalar
        .decompress(&reference)
        .expect("scalar decode")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let got: Vec<u32> = burst
        .decompress(&fast)
        .expect("burst decode")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, want, "burst round trip diverged (e={e})");
    assert_eq!(
        burst
            .quantize(vals)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        want,
        "burst quantize diverged (e={e})"
    );
}

#[test]
fn boundary_values_differential_across_bounds_and_tails() {
    for &e in &BOUNDS {
        let pool = boundary_values(e);
        // Lengths around the burst width exercise padded final groups.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65] {
            let vals: Vec<f32> = (0..n).map(|i| pool[i % pool.len()]).collect();
            assert_differential(e, &vals);
        }
        // The full pool in order, and repeated past two bursts.
        assert_differential(e, &pool);
        let long: Vec<f32> = pool.iter().copied().cycle().take(pool.len() * 5).collect();
        assert_differential(e, &long);
    }
}

proptest! {
    /// Arbitrary bit patterns (every NaN payload, subnormal, and
    /// infinity included) through both implementations, across the
    /// paper's bounds and non-multiple-of-8 block lengths.
    #[test]
    fn prop_raw_bits_differential(
        bits in proptest::collection::vec(any::<u32>(), 0..100),
        which in 0usize..3,
    ) {
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        assert_differential(BOUNDS[which], &vals);
    }

    /// Gradient-magnitude values (the common case) with a tail that is
    /// rarely a whole number of bursts.
    #[test]
    fn prop_gradient_range_differential(
        vals in proptest::collection::vec(-1.5f32..1.5, 0..200),
        which in 0usize..3,
    ) {
        assert_differential(BOUNDS[which], &vals);
    }
}
