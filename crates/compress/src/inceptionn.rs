//! The INCEPTIONN lossy gradient codec (paper Sec. V, Algorithms 2–3).
//!
//! Each `f32` gradient is encoded independently into one of four forms,
//! identified by a 2-bit tag:
//!
//! | tag | payload | used for |
//! |---|---|---|
//! | `00` | 0 bits  | `\|g\| < eb` — the value is dropped entirely |
//! | `01` | 8 bits  | sign + 7 fixed-point MSBs, when that already meets the bound |
//! | `10` | 16 bits | sign + 15 fixed-point MSBs |
//! | `11` | 32 bits | `\|g\| ≥ 1.0` (or the bound cannot otherwise be met): raw IEEE bits |
//!
//! For the 8/16-bit forms the exponent is *normalized to 127*: the
//! significand (with its implicit leading `1` made explicit) is shifted
//! right by `127 − e`, producing a fixed-point field whose bit `i` has
//! weight `2^(i-32)`. The decompressor recovers the exponent from the
//! position of the leading one — that is why the hardware concatenates
//! the implicit `1` before shifting (Sec. V).
//!
//! The published pseudo-code is partially garbled in the available text;
//! the reconstruction here (smallest form whose *actual* error for this
//! value is strictly below the bound) is validated against Table III's
//! bitwidth distributions — see `DESIGN.md`. Every compare is strict so
//! that the round trip is a projection: a decoded value encodes to
//! itself, and a hop that forwards it changes nothing.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bitio::{BitReader, BitWriter};
use crate::stats::BitwidthHistogram;

/// Number of `f32` lanes the hardware compresses per 256-bit AXI burst.
pub const LANES_PER_BURST: usize = 8;

/// Upper bound on one group's wire size: 2 tag bytes + 8 full payloads.
pub(crate) const MAX_GROUP_BYTES: usize = 2 + LANES_PER_BURST * 4;

/// Worst-case stream size in bytes for `len` values — every group at
/// [`MAX_GROUP_BYTES`] — plus the 4 bytes of store slack the burst
/// encoder keeps past each group. A closed form, so sizing an encoder
/// buffer costs no pass over the values.
pub(crate) fn max_wire_bytes(len: usize) -> usize {
    len.div_ceil(LANES_PER_BURST) * MAX_GROUP_BYTES + 4
}

/// An absolute error bound of the form `2^-E`, the knob the paper sweeps
/// (`2^-10`, `2^-8`, `2^-6` in the evaluation).
///
/// # Examples
///
/// ```
/// use inceptionn_compress::ErrorBound;
///
/// let eb = ErrorBound::pow2(10);
/// assert_eq!(eb.value(), 2f32.powi(-10));
/// assert_eq!(eb.to_string(), "2^-10");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ErrorBound {
    /// The (positive) exponent `E` in `2^-E`.
    exponent: u8,
}

impl ErrorBound {
    /// Creates the bound `2^-exponent`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ exponent ≤ 30` (the hardware supports bounds
    /// strictly inside the gradient range `(0, 0.5]`).
    pub fn pow2(exponent: u8) -> Self {
        assert!(
            (1..=30).contains(&exponent),
            "error-bound exponent {exponent} outside 1..=30"
        );
        ErrorBound { exponent }
    }

    /// The bound as an `f32` (`2^-E`).
    pub fn value(self) -> f32 {
        2f32.powi(-(self.exponent as i32))
    }

    /// The exponent `E`.
    pub fn exponent(self) -> u8 {
        self.exponent
    }
}

impl fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^-{}", self.exponent)
    }
}

impl Default for ErrorBound {
    /// The paper's default evaluation bound, `2^-10`.
    fn default() -> Self {
        ErrorBound::pow2(10)
    }
}

/// The 2-bit compression mechanism tag attached to every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Tag {
    /// `2'b00` — value dropped (decodes to exactly 0.0).
    Zero = 0b00,
    /// `2'b01` — 8-bit compressed form.
    Bits8 = 0b01,
    /// `2'b10` — 16-bit compressed form.
    Bits16 = 0b10,
    /// `2'b11` — uncompressed 32-bit IEEE value.
    Full = 0b11,
}

impl Tag {
    /// Payload width in bits for this tag.
    pub fn payload_bits(self) -> u32 {
        match self {
            Tag::Zero => 0,
            Tag::Bits8 => 8,
            Tag::Bits16 => 16,
            Tag::Full => 32,
        }
    }

    /// Total on-wire width including the 2-bit tag itself
    /// (Table III's 2/10/18/34-bit columns).
    pub fn wire_bits(self) -> u32 {
        self.payload_bits() + 2
    }

    /// Decodes a 2-bit tag field.
    pub fn from_bits(bits: u8) -> Tag {
        match bits & 0b11 {
            0b00 => Tag::Zero,
            0b01 => Tag::Bits8,
            0b10 => Tag::Bits16,
            _ => Tag::Full,
        }
    }
}

/// One value compressed into `(tag, payload)` — the per-lane output of a
/// hardware Compression Block (CB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedValue {
    /// Compression mechanism chosen for this value.
    pub tag: Tag,
    /// Payload, in the low `tag.payload_bits()` bits.
    pub payload: u32,
}

/// A compressed gradient stream: the byte-exact wire format produced by
/// the NIC compression engine, plus enough metadata to decode and audit
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedStream {
    /// Number of encoded `f32` values.
    pub len: usize,
    /// Packed bit stream: per 8-lane group, 16 tag bits then the
    /// concatenated payloads (lane order, LSB-first packing).
    pub bytes: Vec<u8>,
    /// Exact bit count before byte padding.
    pub bit_len: usize,
}

impl CompressedStream {
    /// Uncompressed size in bytes (`4·len`).
    pub fn original_bytes(&self) -> usize {
        self.len * 4
    }

    /// Compressed payload size in bytes (padded).
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The achieved compression ratio (original bits / compressed bits).
    ///
    /// Returns 1.0 for an empty stream.
    pub fn compression_ratio(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            (self.len as f64 * 32.0) / self.bit_len.max(1) as f64
        }
    }
}

/// Error produced when decoding a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Index of the value whose payload could not be read.
    pub at_value: usize,
    /// Absolute bit offset into the stream where the failed read began.
    pub bit_offset: usize,
    /// Tag whose payload could not be read, or `None` when the 16-bit
    /// tag vector itself was truncated.
    pub tag: Option<Tag>,
}

impl DecodeError {
    /// Truncation detected while reading a group's 16-bit tag vector.
    pub(crate) fn at_tags(at_value: usize, bit_offset: usize) -> Self {
        DecodeError {
            at_value,
            bit_offset,
            tag: None,
        }
    }

    /// Truncation detected while reading the payload for `tag`.
    pub(crate) fn at_payload(at_value: usize, bit_offset: usize, tag: Tag) -> Self {
        DecodeError {
            at_value,
            bit_offset,
            tag: Some(tag),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compressed stream truncated at value {} (bit offset {}, ",
            self.at_value, self.bit_offset
        )?;
        match self.tag {
            Some(tag) => write!(
                f,
                "reading the {}-bit payload of {tag:?})",
                tag.payload_bits()
            ),
            None => write!(f, "reading the tag vector)"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The INCEPTIONN gradient codec at a fixed [`ErrorBound`].
///
/// This is the software-reference implementation; `inceptionn-nicsim`
/// implements the identical transform burst-by-burst as the hardware
/// does, and its tests assert bit-exact agreement with this codec.
///
/// # Examples
///
/// ```
/// use inceptionn_compress::{ErrorBound, InceptionnCodec};
///
/// let codec = InceptionnCodec::new(ErrorBound::pow2(8));
/// let stream = codec.compress(&[0.5f32, -0.001, 0.0000001]);
/// let out = codec.decompress(&stream).unwrap();
/// assert!((out[0] - 0.5).abs() <= 2f32.powi(-8));
/// assert_eq!(out[2], 0.0); // below the bound: dropped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionnCodec {
    bound: ErrorBound,
}

impl InceptionnCodec {
    /// Creates a codec for the given error bound.
    pub fn new(bound: ErrorBound) -> Self {
        InceptionnCodec { bound }
    }

    /// The configured error bound.
    pub fn bound(&self) -> ErrorBound {
        self.bound
    }

    /// Compresses one value — Algorithm 2.
    ///
    /// Deterministic, branch-light, and implementable as a combinational
    /// hardware block: one exponent compare, one shift, two candidate
    /// truncation-error compares. All three are strict: a value or
    /// residue exactly at `2^-E` takes the wider form, which makes
    /// `quantize` idempotent (see `DESIGN.md`).
    pub fn compress_value(&self, f: f32) -> CompressedValue {
        let bits = f.to_bits();
        let sign = bits >> 31;
        let exp = ((bits >> 23) & 0xff) as i32;
        // |f| >= 1.0, NaN, or infinity: never compressed (tag 2'b11).
        if exp >= 127 {
            return CompressedValue {
                tag: Tag::Full,
                payload: bits,
            };
        }
        let abs = f64::from(f.abs());
        let eb = f64::from(self.bound.value());
        if abs < eb {
            return CompressedValue {
                tag: Tag::Zero,
                payload: 0,
            };
        }
        // Normalize the exponent to 127: make the implicit one explicit
        // and shift right by d = 127 - e, yielding the fixed-point field
        // P = trunc(|f| * 2^32) (bit i weighs 2^(i-32)).
        let d = (127 - exp) as u32; // 1..=127 (zero/denormals fall in Zero above)
        let significand = (1u64 << 23) | u64::from(bits & 0x7f_ffff);
        let p = if d <= 9 + 32 {
            ((significand << 9) >> d) as u32
        } else {
            0
        };
        // Candidate 8-bit form: sign + P[31:25].
        let p8 = p >> 25 << 25;
        if abs - f64::from(p8) * 2f64.powi(-32) < eb {
            return CompressedValue {
                tag: Tag::Bits8,
                payload: (sign << 7) | (p >> 25),
            };
        }
        // Candidate 16-bit form: sign + P[31:17].
        let p16 = p >> 17 << 17;
        if abs - f64::from(p16) * 2f64.powi(-32) < eb {
            return CompressedValue {
                tag: Tag::Bits16,
                payload: (sign << 15) | (p >> 17),
            };
        }
        CompressedValue {
            tag: Tag::Full,
            payload: bits,
        }
    }

    /// Decompresses one `(tag, payload)` pair — Algorithm 3.
    pub fn decompress_value(&self, cv: CompressedValue) -> f32 {
        match cv.tag {
            Tag::Zero => 0.0,
            Tag::Full => f32::from_bits(cv.payload),
            Tag::Bits8 => Self::from_fixed(cv.payload >> 7 & 1, (cv.payload & 0x7f) << 25),
            Tag::Bits16 => Self::from_fixed(cv.payload >> 15 & 1, (cv.payload & 0x7fff) << 17),
        }
    }

    /// Reconstructs a float from the sign bit and the 32-bit fixed-point
    /// field (bit `i` weighs `2^(i-32)`). The leading-one position of the
    /// field encodes the exponent.
    fn from_fixed(sign: u32, p: u32) -> f32 {
        if p == 0 {
            return 0.0;
        }
        let magnitude = (f64::from(p) * 2f64.powi(-32)) as f32;
        if sign == 1 {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Compresses a gradient slice into the packed wire format.
    ///
    /// Values are processed in groups of [`LANES_PER_BURST`]; each group
    /// contributes its 16 concatenated tag bits followed by the
    /// concatenated variable-width payloads, exactly as the hardware
    /// Compression Unit emits them (Fig. 9). A final partial group is
    /// padded with `Zero` lanes (free: 2 bits each).
    ///
    /// This is the scalar *reference* implementation; the burst fast
    /// path in [`crate::burst`] produces byte-identical streams several
    /// times faster and is what the transport stack uses.
    pub fn compress(&self, values: &[f32]) -> CompressedStream {
        let mut w = BitWriter::with_capacity_bits(max_wire_bytes(values.len()) * 8);
        for group in values.chunks(LANES_PER_BURST) {
            let mut cvs = [CompressedValue {
                tag: Tag::Zero,
                payload: 0,
            }; LANES_PER_BURST];
            for (cv, &v) in cvs.iter_mut().zip(group.iter()) {
                *cv = self.compress_value(v);
            }
            // 16-bit tag vector first (lane 0 in the low bits)…
            let mut tags = 0u32;
            for (lane, cv) in cvs.iter().enumerate() {
                tags |= (cv.tag as u32) << (2 * lane);
            }
            w.write_bits(tags, 16);
            // …then the aligned payloads.
            for cv in &cvs {
                w.write_bits(cv.payload, cv.tag.payload_bits());
            }
        }
        let bit_len = w.bit_len();
        CompressedStream {
            len: values.len(),
            bytes: w.into_bytes(),
            bit_len,
        }
    }

    /// Decompresses a packed stream back to `f32` values.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream ends before `stream.len`
    /// values have been decoded.
    pub fn decompress(&self, stream: &CompressedStream) -> Result<Vec<f32>, DecodeError> {
        let mut r = BitReader::new(&stream.bytes);
        let mut out = Vec::with_capacity(stream.len);
        let mut remaining = stream.len;
        while remaining > 0 {
            let group = remaining.min(LANES_PER_BURST);
            let tags = r
                .read_bits(16)
                .ok_or_else(|| DecodeError::at_tags(out.len(), r.bit_pos()))?;
            let mut lane_tags = [Tag::Zero; LANES_PER_BURST];
            for (lane, t) in lane_tags.iter_mut().enumerate() {
                *t = Tag::from_bits((tags >> (2 * lane)) as u8);
            }
            for &tag in lane_tags.iter().take(group) {
                let payload = r
                    .read_bits(tag.payload_bits())
                    .ok_or_else(|| DecodeError::at_payload(out.len(), r.bit_pos(), tag))?;
                out.push(self.decompress_value(CompressedValue { tag, payload }));
            }
            // Padded lanes of a final partial group carry Zero tags and
            // no payload in well-formed streams; a corrupt stream that
            // claims payload bits here is a decode error, not something
            // to skip silently.
            for &tag in lane_tags.iter().skip(group) {
                r.read_bits(tag.payload_bits())
                    .ok_or_else(|| DecodeError::at_payload(out.len(), r.bit_pos(), tag))?;
            }
            remaining -= group;
        }
        Ok(out)
    }

    /// Compresses and immediately decompresses, returning the values the
    /// receiver will see. Used by training loops that want the lossy
    /// round trip without materializing the bit stream.
    pub fn quantize(&self, values: &[f32]) -> Vec<f32> {
        values
            .iter()
            .map(|&v| self.decompress_value(self.compress_value(v)))
            .collect()
    }

    /// Applies the lossy round trip in place.
    pub fn quantize_inplace(&self, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = self.decompress_value(self.compress_value(*v));
        }
    }

    /// Tallies the tag distribution of a gradient stream (Table III).
    pub fn histogram(&self, values: &[f32]) -> BitwidthHistogram {
        let mut h = BitwidthHistogram::default();
        for &v in values {
            h.record(self.compress_value(v).tag);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec(e: u8) -> InceptionnCodec {
        InceptionnCodec::new(ErrorBound::pow2(e))
    }

    #[test]
    fn values_at_or_above_one_are_uncompressed_and_lossless() {
        let c = codec(10);
        for v in [1.0f32, -1.0, 1.5, -123.456, 1e30, f32::INFINITY] {
            let cv = c.compress_value(v);
            assert_eq!(cv.tag, Tag::Full, "{v}");
            assert_eq!(c.decompress_value(cv), v);
        }
    }

    #[test]
    fn nan_survives_round_trip_as_nan() {
        let c = codec(10);
        let cv = c.compress_value(f32::NAN);
        assert_eq!(cv.tag, Tag::Full);
        assert!(c.decompress_value(cv).is_nan());
    }

    #[test]
    fn tiny_values_drop_to_zero() {
        let c = codec(10);
        for v in [
            0.0f32,
            -0.0,
            1e-20,
            2f32.powi(-11),
            -2f32.powi(-10) * 0.999_999_9,
        ] {
            let cv = c.compress_value(v);
            assert_eq!(cv.tag, Tag::Zero, "{v}");
            assert_eq!(c.decompress_value(cv), 0.0);
        }
    }

    #[test]
    fn a_value_exactly_at_the_bound_takes_the_wider_form() {
        // Zero means `|f| < 2^-E`, so a tie is kept, and exactly: 2^-10
        // lies on the 16-bit grid, and the 8-bit form's residue (all of
        // it) is not below the bound. Otherwise a value that truncates
        // to the bound would be dropped on its next hop.
        let c = codec(10);
        for v in [2f32.powi(-10), -2f32.powi(-10)] {
            let cv = c.compress_value(v);
            assert_eq!(cv.tag, Tag::Bits16, "{v}");
            assert_eq!(c.decompress_value(cv), v);
        }
    }

    #[test]
    fn quantize_is_a_projection_on_a_strided_sample_of_every_f32() {
        // An odd stride walks every exponent and a spread of mantissas,
        // sign bit included: ~1 M patterns per bound. The burst module's
        // ignored test covers all 2^32.
        let sample: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        for e in 1..=30 {
            let c = codec(e);
            let once = c.quantize(&sample);
            let twice = c.quantize(&once);
            for (i, (a, b)) in once.iter().zip(&twice).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "2^-{e}: {:e} -> {a:e} -> {b:e}",
                    sample[i]
                );
            }
        }
    }

    #[test]
    fn error_bound_is_respected_everywhere() {
        for e in [6u8, 8, 10, 14] {
            let c = codec(e);
            let eb = ErrorBound::pow2(e).value();
            let mut v = 1e-9f32;
            while v < 1.0 {
                for s in [v, -v] {
                    let out = c.decompress_value(c.compress_value(s));
                    assert!(
                        (s - out).abs() <= eb,
                        "bound 2^-{e}: {s} -> {out}, err {}",
                        (s - out).abs()
                    );
                }
                v *= 1.37;
            }
        }
    }

    #[test]
    fn loose_bound_uses_eight_bits_for_everything_nonzero() {
        // With eb = 2^-6 truncating at 2^-7 always meets the bound, so no
        // non-zero sub-1.0 value should need 16 bits (Table III: ~0%).
        let c = codec(6);
        let mut v = 2f32.powi(-6) * 1.01;
        while v < 1.0 {
            let cv = c.compress_value(v);
            assert_eq!(cv.tag, Tag::Bits8, "{v}");
            v *= 1.1;
        }
    }

    #[test]
    fn tight_bound_mostly_needs_sixteen_bits() {
        // With eb = 2^-10, a value with a dense mantissa cannot fit in the
        // 8-bit form (error ~2^-8 > 2^-10).
        let c = codec(10);
        let v = 0.3337f32; // dense mantissa
        assert_eq!(c.compress_value(v).tag, Tag::Bits16);
        // …but a value with zeros below bit 7 of the fixed field fits in 8.
        let v = 0.25f32;
        assert_eq!(c.compress_value(v).tag, Tag::Bits8);
    }

    #[test]
    fn sign_is_preserved() {
        let c = codec(10);
        for v in [0.3f32, 0.01, 0.9, 0.002] {
            let plus = c.decompress_value(c.compress_value(v));
            let minus = c.decompress_value(c.compress_value(-v));
            assert_eq!(plus, -minus);
            assert!(plus >= 0.0);
        }
    }

    #[test]
    fn stream_round_trip_exactly_matches_scalar_path() {
        let c = codec(10);
        let vals: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 1.2).collect();
        let stream = c.compress(&vals);
        let out = c.decompress(&stream).unwrap();
        let scalar = c.quantize(&vals);
        assert_eq!(out, scalar);
    }

    #[test]
    fn stream_handles_partial_final_group() {
        let c = codec(8);
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let vals: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.01).collect();
            let stream = c.compress(&vals);
            assert_eq!(stream.len, n);
            let out = c.decompress(&stream).unwrap();
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn truncated_stream_reports_decode_error() {
        let c = codec(10);
        let vals = vec![0.5f32; 16];
        let mut stream = c.compress(&vals);
        stream.bytes.truncate(2);
        let err = c.decompress(&stream).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn compression_ratio_matches_tag_accounting() {
        let c = codec(10);
        let vals: Vec<f32> = (0..800).map(|i| ((i * 37) % 101) as f32 * 1e-5).collect();
        let stream = c.compress(&vals);
        let hist = c.histogram(&vals);
        // groups of 8 -> 16 tag bits each + payload bits.
        let expected_bits = (vals.len() / 8) * 16 + hist.payload_bits();
        assert_eq!(stream.bit_len, expected_bits);
        assert!(stream.compression_ratio() > 2.0);
    }

    #[test]
    fn zero_only_stream_compresses_to_two_bits_per_value() {
        let c = codec(10);
        let stream = c.compress(&vec![0.0f32; 80]);
        assert_eq!(stream.bit_len, 80 / 8 * 16);
        assert!((stream.compression_ratio() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn wire_bits_match_table_iii_columns() {
        assert_eq!(Tag::Zero.wire_bits(), 2);
        assert_eq!(Tag::Bits8.wire_bits(), 10);
        assert_eq!(Tag::Bits16.wire_bits(), 18);
        assert_eq!(Tag::Full.wire_bits(), 34);
    }

    #[test]
    #[should_panic(expected = "outside 1..=30")]
    fn error_bound_rejects_zero_exponent() {
        ErrorBound::pow2(0);
    }

    proptest! {
        #[test]
        fn prop_round_trip_respects_bound(vals in proptest::collection::vec(-1.5f32..1.5, 1..300), e in 4u8..16) {
            let c = codec(e);
            let eb = ErrorBound::pow2(e).value();
            let stream = c.compress(&vals);
            let out = c.decompress(&stream).unwrap();
            prop_assert_eq!(out.len(), vals.len());
            for (v, o) in vals.iter().zip(&out) {
                if v.abs() >= 1.0 {
                    prop_assert_eq!(v.to_bits(), o.to_bits());
                } else {
                    prop_assert!((v - o).abs() <= eb, "{} -> {} (eb 2^-{})", v, o, e);
                }
            }
        }

        #[test]
        fn prop_quantize_is_a_projection(vals in proptest::collection::vec(-2f32..2.0, 1..200), e in 1u8..=30) {
            // A second pass changes no bit, and each value lands strictly
            // inside the bound: a hop that forwards a decoded value
            // delivers it unchanged.
            let c = codec(e);
            let eb = c.bound().value();
            let once = c.quantize(&vals);
            let twice = c.quantize(&once);
            for ((v, q), q2) in vals.iter().zip(&once).zip(&twice) {
                prop_assert_eq!(q.to_bits(), q2.to_bits(), "{} -> {} -> {}", v, q, q2);
                if v.abs() < 1.0 {
                    prop_assert!((v - q).abs() < eb, "{} -> {}", v, q);
                }
            }
        }

        #[test]
        fn prop_decompressed_magnitude_never_exceeds_original(v in -0.999f32..0.999) {
            // Truncation only ever shrinks the fixed-point field.
            let c = codec(10);
            let out = c.decompress_value(c.compress_value(v));
            prop_assert!(out.abs() <= v.abs() + 1e-12);
            prop_assert!(out == 0.0 || out.signum() == v.signum());
        }
    }
}
