//! Burst-oriented fast path for the INCEPTIONN codec.
//!
//! The hardware compresses eight `f32` lanes per 256-bit burst every
//! cycle (Fig. 9); the scalar reference codec instead walks values one
//! at a time through per-field [`BitWriter`](crate::bitio::BitWriter)
//! loops and per-value `f64` comparisons, which makes the software
//! transport stack codec-bound rather than network-bound. This module
//! mirrors the hardware datapath in software:
//!
//! * **Branchless classification** — the tag of each lane is derived
//!   purely from integer/bit operations on the IEEE-754 representation
//!   (no float compares, no data-dependent branches). On x86-64 hosts
//!   with AVX2 (detected at codec construction) a whole 8-lane burst is
//!   classified as one `__m256i`, the literal software image of the
//!   eight parallel Compression Blocks; everywhere else a scalar
//!   rendition of the same integer math runs lane by lane.
//! * **Byte-aligned emission** — every field of the wire format is a
//!   whole number of bytes (a 2-byte tag vector, then 0/1/2/4-byte
//!   payloads), so the encoder emits each lane as one overlapping
//!   little-endian `u32` store and advances the cursor by the lane's
//!   true width, the way fast varint encoders do — no bit accumulator
//!   at all. The generic bit-level `BitWriter` of the reference codec
//!   produces identical bytes, just one bit at a time.
//! * **Load-based unpacking** — the decoder mirrors that: one
//!   unaligned `u32` load per lane, masked to the tagged width, with
//!   branch-free integer reconstruction. The last few bytes, where a
//!   load could run past the buffer, are decoded from a zero-padded
//!   stack copy; only the final partial group and truncated input fall
//!   back to the careful bit-reader path, which reports truncation
//!   errors at exact bit offsets.
//!
//! The output is **bit-identical** to
//! [`InceptionnCodec::compress`](crate::InceptionnCodec::compress) /
//! [`InceptionnCodec::decompress`](crate::InceptionnCodec::decompress)
//! — pinned by the differential tests in `tests/differential.rs` and by
//! the `nicsim` golden tests, since the modeled hardware engines run on
//! this path.
//!
//! # Why the integer classifier is exact
//!
//! For a finite `f = ±significand·2^(e−150)` with biased exponent
//! `e < 127` and `d = 127 − e`, the scalar codec compares `f64`
//! quantities `|f|`, `|f| − p8·2⁻³²`, `|f| − p16·2⁻³²` against
//! `eb = 2⁻ᴱ`. Multiplying every comparison by `2^(32+d)` turns them
//! into *integer* comparisons against `2^(32+d−E)`, because
//! `|f|·2^(32+d) = significand·2⁹` exactly:
//!
//! * `|f| ≤ eb  ⟺  significand·2⁹ ≤ 2^(32+d−E)` — and trivially true
//!   once `32+d−E ≥ 34` (the left side is below `2³³`), which also
//!   covers subnormals (`d = 127`). Equivalently (and this is what the
//!   SIMD kernel uses) `|f| ≤ 2⁻ᴱ ⟺ abs_bits ≤ bits(2⁻ᴱ)`, since IEEE
//!   magnitudes order like their bit patterns.
//! * Values that fail the zero test satisfy `d ≤ E ≤ 30`, so the
//!   truncation residues `significand·2⁹ − (p8 << d)` fit in `u64` and
//!   the thresholds `2^(32+d−E) ≤ 2³²` are exact integers. Dividing
//!   both sides by `2⁹` moves the whole comparison into 32 bits:
//!   `residue ≤ 2^(32+d−E) ⟺ (significand & ((1 << (16+d)) − 1)) ≤
//!   2^(23+d−E)`, where a negative right-hand exponent degenerates to
//!   "residue is exactly zero" because the left side is a multiple of
//!   `2⁹` — precisely the saturating-shift semantics of `vpsllvd`.
//!
//! The scalar `f64` subtraction is itself exact whenever the result is
//! anywhere near the threshold (the residue then spans < 53 bits), so
//! the integer and float comparisons agree on every input — including
//! the equality edge, NaN (biased exponent 255 ⇒ tag `Full`), ±0 and
//! subnormals (zero test trivially true).

use crate::inceptionn::{
    max_wire_bytes, CompressedStream, DecodeError, ErrorBound, Tag, LANES_PER_BURST,
    MAX_GROUP_BYTES,
};

/// Payload width in bits, indexed by the 2-bit tag.
const PAYLOAD_BITS: [u32; 4] = [0, 8, 16, 32];

/// `2⁻³²` — the weight of bit 32 of the fixed-point field. A constant
/// so reconstruction does not re-evaluate `powi` per value; the value
/// is a power of two, hence identical to `2f64.powi(-32)`.
const FIXED_LSB: f64 = 1.0 / 4_294_967_296.0;

/// `2⁻³²` as `f32`. Scaling by a power of two is exact in either
/// precision, so `(p as f32) * FIXED_LSB_F32` equals the reference
/// `(f64::from(p) * FIXED_LSB) as f32`: both are `p` rounded once to 24
/// significant bits, then exactly rescaled.
const FIXED_LSB_F32: f32 = 1.0 / 4_294_967_296.0;

/// One classified lane: the 2-bit tag and its masked payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// The tag as an integer in `0..4` (same encoding as [`Tag`]).
    pub tag: u32,
    /// Payload in the low `PAYLOAD_BITS[tag]` bits.
    pub payload: u32,
}

/// Classifies one value with integer/bit operations only.
///
/// `eb_exp` is the error-bound exponent `E` (bound `2⁻ᴱ`, `1..=30`).
/// Equivalent to
/// [`InceptionnCodec::compress_value`](crate::InceptionnCodec::compress_value)
/// on every `f32` input — see the module docs for the argument.
#[inline]
pub fn classify(eb_exp: u32, f: f32) -> Lane {
    let bits = f.to_bits();
    let sign = bits >> 31;
    let exp = (bits >> 23) & 0xff;
    // |f| >= 1.0, NaN, infinity: uncompressed.
    let full = (exp >= 127) as u32;
    // d = 127 - e, clamped into shiftable range; every lane where the
    // clamp bites resolves to Full (d <= 0) or Zero (d >= 34) before d
    // is consulted, so the clamped value is never observable.
    let d = (127i32 - exp as i32).clamp(1, 63) as u32;
    // significand·2⁹ = |f|·2^(32+d) for normal values.
    let s33 = ((1u64 << 23) | u64::from(bits & 0x7f_ffff)) << 9;
    // Zero test: |f| <= 2^-E  ⟺  s33 <= 2^(32+d-E).
    let zshift = 32 + d - eb_exp; // >= 3 (d >= 1, E <= 30)
    let zero = (zshift >= 34 || s33 <= 1u64 << zshift.min(63)) as u32;
    // Fixed-point field P = trunc(|f|·2^32); meaningful only when the
    // value is neither Zero nor Full (then d <= E <= 30).
    let p = (s33 >> d) as u32;
    let p8 = p >> 25 << 25;
    let p16 = p >> 17 << 17;
    // Truncation residues vs the bound, in units of 2^-(32+d).
    let threshold = 1u64 << zshift.min(62);
    let fits8 = ((s33 - (u64::from(p8) << d)) <= threshold) as u32;
    let fits16 = ((s33 - (u64::from(p16) << d)) <= threshold) as u32;
    // fits8 -> 1, !fits8 & fits16 -> 2, neither -> 3.
    let mid = 3 - 2 * fits8 - (1 - fits8) * fits16;
    let tag = full * 3 + (1 - full) * (1 - zero) * mid;
    let payloads = [0, (sign << 7) | (p >> 25), (sign << 15) | (p >> 17), bits];
    Lane {
        tag,
        payload: payloads[tag as usize],
    }
}

/// Reconstructs the receiver-side value of one classified lane.
///
/// Identical to
/// [`InceptionnCodec::decompress_value`](crate::InceptionnCodec::decompress_value)
/// (same operations on the same fields, with the `2⁻³²` scale
/// pre-folded).
#[inline]
pub fn reconstruct(tag: u32, payload: u32) -> f32 {
    match tag & 0b11 {
        0b00 => 0.0,
        0b01 => from_fixed(payload >> 7 & 1, (payload & 0x7f) << 25),
        0b10 => from_fixed(payload >> 15 & 1, (payload & 0x7fff) << 17),
        _ => f32::from_bits(payload),
    }
}

#[inline]
fn from_fixed(sign: u32, p: u32) -> f32 {
    if p == 0 {
        return 0.0;
    }
    let magnitude = (f64::from(p) * FIXED_LSB) as f32;
    if sign == 1 {
        -magnitude
    } else {
        magnitude
    }
}

/// Branch-free [`reconstruct`] used by the decode hot loop. Equal to
/// `reconstruct(tag, payload)` for every payload masked to its tag's
/// width (the only payloads a well-formed stream or classifier emits).
#[inline]
fn recon_fast(tag: u32, pay: u32) -> f32 {
    const PAY_MASK: [u32; 4] = [0, 0x7f, 0x7fff, 0];
    const PAY_SHIFT: [u32; 4] = [0, 25, 17, 0];
    const SIGN_SHIFT: [u32; 4] = [0, 7, 15, 0];
    let t = (tag & 3) as usize;
    let p = (pay & PAY_MASK[t]) << PAY_SHIFT[t];
    let sign = (pay >> SIGN_SHIFT[t]) & 1;
    // +0.0 when the field is all zeros, regardless of the sign bit —
    // the reference `from_fixed` behaves the same way.
    let neg = sign & (p != 0) as u32;
    let fixed = f32::from_bits(((p as f32) * FIXED_LSB_F32).to_bits() | (neg << 31));
    if t == 3 {
        f32::from_bits(pay)
    } else {
        fixed
    }
}

/// Classifies up to eight lanes with the scalar classifier, padding
/// missing lanes with Zero tags (exactly the final-group padding of the
/// scalar codec and the hardware). Returns the 16-bit tag vector and
/// the eight payloads.
#[inline]
fn classify_group_scalar(eb_exp: u32, vals: &[f32]) -> (u32, [u32; 8]) {
    let mut tags16 = 0u32;
    let mut pays = [0u32; 8];
    for (i, &v) in vals.iter().enumerate() {
        let lane = classify(eb_exp, v);
        tags16 |= lane.tag << (2 * i);
        pays[i] = lane.payload;
    }
    (tags16, pays)
}

/// AVX2 image of the hardware datapath: one `__m256i` holds the eight
/// lanes of a burst, classified with the 32-bit integer reformulation
/// from the module docs.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// `SPREAD[b]` places bit `i` of the byte `b` at bit `2i` — used to
    /// interleave the two tag-bit planes into the 16-bit tag vector.
    const SPREAD: [u16; 256] = {
        let mut t = [0u16; 256];
        let mut i = 0;
        while i < 256 {
            let mut v = 0u16;
            let mut b = 0;
            while b < 8 {
                v |= (((i >> b) & 1) as u16) << (2 * b);
                b += 1;
            }
            t[i] = v;
            i += 1;
        }
        t
    };

    /// Classifies one 8-lane group. Equivalent to
    /// [`classify_group_scalar`](super::classify_group_scalar) on every
    /// input (pinned by `prop_group_kernel_matches_scalar`).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support on the running CPU.
    // SAFETY: contract above — sound iff the CPU supports AVX2; all
    // memory accesses go through the `&[f32; 8]` reference.
    #[target_feature(enable = "avx2")]
    pub unsafe fn classify8_avx2(eb_exp: u32, group: &[f32; 8]) -> (u32, [u32; 8]) {
        let e = eb_exp as i32;
        // SAFETY: `loadu`/`storeu` tolerate any alignment; `group` and
        // `pays` are exactly 32 bytes.
        unsafe {
            let v = _mm256_loadu_si256(group.as_ptr().cast());
            let abs = _mm256_and_si256(v, _mm256_set1_epi32(0x7fff_ffff));
            let sgn = _mm256_srli_epi32::<31>(v);
            // Signed compares are safe: every operand is < 2^31.
            let full = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x3f7f_ffff));
            let notzero = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32((127 - e) << 23));
            let exp = _mm256_srli_epi32::<23>(abs);
            let d = _mm256_sub_epi32(_mm256_set1_epi32(127), exp);
            let sig = _mm256_or_si256(
                _mm256_and_si256(abs, _mm256_set1_epi32(0x007f_ffff)),
                _mm256_set1_epi32(0x0080_0000),
            );
            let one = _mm256_set1_epi32(1);
            let c16 = _mm256_add_epi32(d, _mm256_set1_epi32(16));
            let c8 = _mm256_add_epi32(d, _mm256_set1_epi32(8));
            let ct = _mm256_add_epi32(d, _mm256_set1_epi32(23 - e));
            // vpsllvd/vpsrlvd yield 0 for any count >= 32 (including
            // negative counts viewed as u32) — exactly the saturation
            // the 32-bit reformulation needs: oversized masks become
            // all-ones, out-of-range thresholds become "must be 0".
            let m8 = _mm256_sub_epi32(_mm256_sllv_epi32(one, c16), one);
            let m16 = _mm256_sub_epi32(_mm256_sllv_epi32(one, c8), one);
            let t = _mm256_sllv_epi32(one, ct);
            let nf8 = _mm256_cmpgt_epi32(_mm256_and_si256(sig, m8), t);
            let nf16 = _mm256_cmpgt_epi32(_mm256_and_si256(sig, m16), t);
            let pay1 = _mm256_or_si256(_mm256_slli_epi32::<7>(sgn), _mm256_srlv_epi32(sig, c16));
            let pay2 = _mm256_or_si256(_mm256_slli_epi32::<15>(sgn), _mm256_srlv_epi32(sig, c8));
            // fits8 -> (1, pay1); else fits16 -> (2, pay2); else (3, raw).
            let pay_m = _mm256_blendv_epi8(pay1, _mm256_blendv_epi8(pay2, v, nf16), nf8);
            let tag_m = _mm256_blendv_epi8(
                one,
                _mm256_blendv_epi8(_mm256_set1_epi32(2), _mm256_set1_epi32(3), nf16),
                nf8,
            );
            // Zero lanes drop to (0, 0); Full lanes override to (3, raw).
            let tags_v =
                _mm256_blendv_epi8(_mm256_and_si256(tag_m, notzero), _mm256_set1_epi32(3), full);
            let pays_v = _mm256_blendv_epi8(_mm256_and_si256(pay_m, notzero), v, full);
            // Interleave the two tag-bit planes into the wire's 16-bit
            // tag vector (tag i at bits 2i..2i+2).
            let b0 = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32::<31>(tags_v)));
            let b1 = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32::<30>(tags_v)));
            let tags16 = u32::from(SPREAD[(b0 & 0xff) as usize])
                | u32::from(SPREAD[(b1 & 0xff) as usize]) << 1;
            let mut pays = [0u32; 8];
            _mm256_storeu_si256(pays.as_mut_ptr().cast(), pays_v);
            (tags16, pays)
        }
    }

    /// Interleaves two 16-bit tag-bit planes into a 32-bit tag vector
    /// (bit `i` of `m0` to bit `2i`, bit `i` of `m1` to bit `2i + 1`).
    #[inline]
    fn interleave16(m0: u16, m1: u16) -> u32 {
        let lo =
            u32::from(SPREAD[(m0 & 0xff) as usize]) | u32::from(SPREAD[(m0 >> 8) as usize]) << 16;
        let hi =
            u32::from(SPREAD[(m1 & 0xff) as usize]) | u32::from(SPREAD[(m1 >> 8) as usize]) << 16;
        lo | hi << 1
    }

    /// Sixteen-lane (two-burst) classifier: the AVX-512 widening of
    /// [`classify8_avx2`], with compare results in mask registers.
    /// Returns the two groups' tag vectors (first group in the low 16
    /// bits) and stores the sixteen payloads.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support on the running
    /// CPU.
    // SAFETY: contract above — sound iff the CPU supports AVX-512F;
    // all memory accesses go through the two array references.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn classify16_avx512(eb_exp: u32, group: &[f32; 16], pays: &mut [u32; 16]) -> u32 {
        let e = eb_exp as i32;
        // SAFETY: unaligned load/store of exactly 64 bytes each.
        unsafe {
            let v = _mm512_loadu_si512(group.as_ptr().cast());
            let abs = _mm512_and_si512(v, _mm512_set1_epi32(0x7fff_ffff));
            let sgn = _mm512_srli_epi32::<31>(v);
            let full = _mm512_cmpgt_epi32_mask(abs, _mm512_set1_epi32(0x3f7f_ffff));
            let notzero = _mm512_cmpgt_epi32_mask(abs, _mm512_set1_epi32((127 - e) << 23));
            let exp = _mm512_srli_epi32::<23>(abs);
            let d = _mm512_sub_epi32(_mm512_set1_epi32(127), exp);
            let sig = _mm512_or_si512(
                _mm512_and_si512(abs, _mm512_set1_epi32(0x007f_ffff)),
                _mm512_set1_epi32(0x0080_0000),
            );
            let one = _mm512_set1_epi32(1);
            let c16 = _mm512_add_epi32(d, _mm512_set1_epi32(16));
            let c8 = _mm512_add_epi32(d, _mm512_set1_epi32(8));
            let ct = _mm512_add_epi32(d, _mm512_set1_epi32(23 - e));
            let m8 = _mm512_sub_epi32(_mm512_sllv_epi32(one, c16), one);
            let m16 = _mm512_sub_epi32(_mm512_sllv_epi32(one, c8), one);
            let t = _mm512_sllv_epi32(one, ct);
            let f8 = _mm512_cmple_epi32_mask(_mm512_and_si512(sig, m8), t);
            let f16 = _mm512_cmple_epi32_mask(_mm512_and_si512(sig, m16), t);
            let pay1 = _mm512_or_si512(_mm512_slli_epi32::<7>(sgn), _mm512_srlv_epi32(sig, c16));
            let pay2 = _mm512_or_si512(_mm512_slli_epi32::<15>(sgn), _mm512_srlv_epi32(sig, c8));
            // blend(k, a, b) takes b where k is set: fits8 wins, then
            // fits16, else Full's raw bits.
            let pay_m = _mm512_mask_blend_epi32(f8, _mm512_mask_blend_epi32(f16, v, pay2), pay1);
            let tag_m = _mm512_mask_blend_epi32(
                f8,
                _mm512_mask_blend_epi32(f16, _mm512_set1_epi32(3), _mm512_set1_epi32(2)),
                one,
            );
            // Zero lanes drop to (0, 0); Full lanes override to (3, raw).
            let tags_v = _mm512_mask_blend_epi32(
                full,
                _mm512_maskz_mov_epi32(notzero, tag_m),
                _mm512_set1_epi32(3),
            );
            let pays_v = _mm512_mask_blend_epi32(full, _mm512_maskz_mov_epi32(notzero, pay_m), v);
            let m0 = _mm512_test_epi32_mask(tags_v, one);
            let m1 = _mm512_test_epi32_mask(tags_v, _mm512_set1_epi32(2));
            _mm512_storeu_si512(pays.as_mut_ptr().cast(), pays_v);
            interleave16(m0, m1)
        }
    }

    /// Decodes one full 8-lane group: gathers the eight payload words
    /// at their tag-derived byte offsets and hands them to the shared
    /// vector reconstruction ([`recon8_avx2`]).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support; `src..src+32` must
    /// be readable and `dst` must have room for eight `f32`s.
    // SAFETY: contract above — AVX2 present, `src..src+32` readable,
    // `dst..dst+8` writable.
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_group_avx2(src: *const u8, tags16: u32, dst: *mut f32) {
        let (offs, _) = super::lane_offsets(tags16);
        // SAFETY: gather indices are lane offsets <= 28, so every 4-byte
        // read stays inside `src..src+32`; the store writes 32 bytes to
        // `dst`, both guaranteed by the caller.
        unsafe {
            let idx = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(offs as i64));
            let pay = _mm256_i32gather_epi32::<1>(src.cast::<i32>(), idx);
            recon8_avx2(pay, tags16, dst);
        }
    }

    /// Decodes one full 8-lane group on AVX-512VBMI: the whole ≤32-byte
    /// payload is pulled in with a single unaligned load and one
    /// `vpermb` byte shuffle scatters each lane's word into place —
    /// lane `i`'s four permutation-index bytes are its byte offset
    /// broadcast four times plus `0..3`. Replaces the AVX2 gather
    /// (multi-cycle per element on this microarchitecture) with a
    /// 1-per-cycle shuffle.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512vbmi` + `avx512vl` support;
    /// `src..src+32` must be readable and `dst` must have room for
    /// eight `f32`s.
    // SAFETY: contract above — the listed AVX-512 extensions present,
    // `src..src+32` readable, `dst..dst+8` writable.
    #[target_feature(enable = "avx512vbmi,avx512vl,avx512bw,avx2")]
    pub unsafe fn decode_group_vbmi(src: *const u8, tags16: u32, dst: *mut f32) {
        let (offs, _) = super::lane_offsets(tags16);
        // SAFETY: lane offsets are <= 28, so every permuted byte comes
        // from inside the 32 loaded bytes; the store writes 32 bytes to
        // `dst`, both guaranteed by the caller.
        unsafe {
            let payload = _mm256_loadu_si256(src.cast());
            let off8 = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(offs as i64));
            // Offsets stay below 29, so the byte-broadcast multiply
            // cannot carry between index bytes.
            let idx = _mm256_add_epi32(
                _mm256_mullo_epi32(off8, _mm256_set1_epi32(0x0101_0101)),
                _mm256_set1_epi32(0x0302_0100),
            );
            let pay = _mm256_permutexvar_epi8(idx, payload);
            recon8_avx2(pay, tags16, dst);
        }
    }

    /// Shared vector reconstruction: turns eight gathered payload words
    /// plus the group's tag vector into eight `f32`s, the
    /// exact-arithmetic vector image of
    /// [`recon_fast`](super::recon_fast). A lane's fixed-point field
    /// spans at most 15 bits, so the `i32 → f32` conversion is exact
    /// and the power-of-two rescale keeps it exact — bit-equal to the
    /// reference `(f64::from(p) * 2⁻³²) as f32` rounding.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support and `dst` must have
    /// room for eight `f32`s.
    // SAFETY: contract above — AVX2 present, `dst..dst+8` writable.
    #[target_feature(enable = "avx2")]
    unsafe fn recon8_avx2(pay: __m256i, tags16: u32, dst: *mut f32) {
        // SAFETY: everything here is register arithmetic except the
        // final 32-byte store, covered by the caller's `dst` contract.
        unsafe {
            let tags = _mm256_and_si256(
                _mm256_srlv_epi32(
                    _mm256_set1_epi32(tags16 as i32),
                    _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14),
                ),
                _mm256_set1_epi32(3),
            );
            let is1 = _mm256_cmpeq_epi32(tags, _mm256_set1_epi32(1));
            let is2 = _mm256_cmpeq_epi32(tags, _mm256_set1_epi32(2));
            let is3 = _mm256_cmpeq_epi32(tags, _mm256_set1_epi32(3));
            // Fixed-point field and sign bit of the 8/16-bit forms;
            // Zero/Full lanes resolve to field 0 (then overridden for
            // Full below), so gathered garbage never leaks through.
            let field = _mm256_or_si256(
                _mm256_and_si256(_mm256_and_si256(pay, _mm256_set1_epi32(0x7f)), is1),
                _mm256_and_si256(_mm256_and_si256(pay, _mm256_set1_epi32(0x7fff)), is2),
            );
            let sign = _mm256_and_si256(
                _mm256_or_si256(
                    _mm256_and_si256(_mm256_srli_epi32::<7>(pay), is1),
                    _mm256_and_si256(_mm256_srli_epi32::<15>(pay), is2),
                ),
                _mm256_set1_epi32(1),
            );
            let mag = _mm256_mul_ps(
                _mm256_cvtepi32_ps(field),
                _mm256_blendv_ps(
                    _mm256_set1_ps(1.0 / 128.0),   // 2^-7: 7-bit field << 25, times 2^-32
                    _mm256_set1_ps(1.0 / 32768.0), // 2^-15: 15-bit field << 17, times 2^-32
                    _mm256_castsi256_ps(is2),
                ),
            );
            // +0.0 when the field is all zeros regardless of the sign
            // bit, like the reference `from_fixed`.
            let sgn_live = _mm256_andnot_si256(
                _mm256_cmpeq_epi32(field, _mm256_setzero_si256()),
                _mm256_slli_epi32::<31>(sign),
            );
            let fixed = _mm256_or_si256(_mm256_castps_si256(mag), sgn_live);
            let vals = _mm256_blendv_epi8(fixed, pay, is3);
            _mm256_storeu_si256(dst.cast(), vals);
        }
    }
}

/// Payload width in whole bytes, indexed by the 2-bit tag. Every wire
/// field is byte-sized — the reason the fast path needs no bit
/// accumulator.
const PAYLOAD_BYTES: [usize; 4] = [0, 1, 2, 4];

/// Per-tag-byte layout tables, removing the lane-to-lane offset chain
/// from both the encoder and the decoder: for the four tags packed in
/// byte `b`, `OFF4[b]` holds each lane's byte offset from the payload
/// base (lane `j`'s offset in byte `j` — all below 16, so no carries),
/// and `SUM4[b]` the four lanes' total width in bytes.
const LANE_LAYOUT: ([u32; 256], [u32; 256]) = {
    let mut off = [0u32; 256];
    let mut sum = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut o = 0u32;
        let mut packed = 0u32;
        let mut j = 0;
        while j < 4 {
            packed |= o << (8 * j);
            o += PAYLOAD_BYTES[(b >> (2 * j)) & 3] as u32;
            j += 1;
        }
        off[b] = packed;
        sum[b] = o;
        b += 1;
    }
    (off, sum)
};
const OFF4: [u32; 256] = LANE_LAYOUT.0;
const SUM4: [u32; 256] = LANE_LAYOUT.1;

/// Byte offsets of all eight lanes of a group from the payload base,
/// packed one per byte (offsets reach at most 28, so no carries), plus
/// the group's total payload width in bytes.
#[inline]
fn lane_offsets(tags16: u32) -> (u64, usize) {
    let b0 = (tags16 & 0xff) as usize;
    let b1 = ((tags16 >> 8) & 0xff) as usize;
    let lo_total = SUM4[b0];
    let offs = u64::from(OFF4[b0]) | u64::from(OFF4[b1] + lo_total * 0x0101_0101) << 32;
    (offs, (lo_total + SUM4[b1]) as usize)
}

/// Byte sink emitting one classified group per call.
///
/// Produces byte-for-byte the layout of the reference
/// [`BitWriter`](crate::bitio::BitWriter): LSB-first bit packing of
/// byte-aligned fields is exactly little-endian byte order.
#[derive(Debug, Clone)]
struct ByteSink {
    out: Vec<u8>,
}

impl ByteSink {
    /// Wraps an existing buffer, reserving the worst case for `len`
    /// more values once, so no group's own reservation reallocates:
    /// groups append after whatever the buffer already holds.
    fn appending_to(mut out: Vec<u8>, len: usize) -> Self {
        out.reserve(max_wire_bytes(len));
        ByteSink { out }
    }

    /// Appends one group: the 16-bit tag vector, then each payload as
    /// an overlapping 4-byte store at its table-derived offset, in lane
    /// order so each store's spill bytes are overwritten by the next
    /// lane (or discarded by the final length).
    #[inline]
    fn put_group(&mut self, tags16: u32, pays: &[u32; 8]) {
        let (offs, payload_bytes) = lane_offsets(tags16);
        let len = self.out.len();
        self.out.reserve(MAX_GROUP_BYTES + 4);
        // SAFETY: the reserve above guarantees capacity for `len +
        // MAX_GROUP_BYTES + 4` bytes; the tag store writes 2 bytes at
        // offset 0 and every payload store writes 4 bytes at an offset
        // of at most 2 + 28; `set_len` exposes `len + 2 +
        // payload_bytes <= len + MAX_GROUP_BYTES` bytes, all of them
        // initialized because lane offsets tile the payload area.
        unsafe {
            let base = self.out.as_mut_ptr().add(len);
            core::ptr::write_unaligned(base.cast::<u16>(), (tags16 as u16).to_le());
            for (i, &p) in pays.iter().enumerate() {
                let at = 2 + ((offs >> (8 * i)) & 0xff) as usize;
                core::ptr::write_unaligned(base.add(at).cast::<u32>(), p.to_le());
            }
            self.out.set_len(len + 2 + payload_bytes);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// LSB-first bit source draining a `u64` buffer refilled bytewise.
#[derive(Debug, Clone)]
struct WordReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the buffer.
    next: usize,
    acc: u64,
    have: u32,
}

impl<'a> WordReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        WordReader {
            bytes,
            next: 0,
            acc: 0,
            have: 0,
        }
    }

    /// Positions the cursor at an absolute bit offset. The offset must
    /// lie inside the stream whenever it is not byte-aligned.
    fn skip(&mut self, bits: usize) {
        self.next = bits / 8;
        let rem = (bits % 8) as u32;
        if rem > 0 {
            let skipped = self.take(rem);
            debug_assert!(skipped.is_some(), "skip target must lie inside the stream");
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.have <= 56 && self.next < self.bytes.len() {
            self.acc |= u64::from(self.bytes[self.next]) << self.have;
            self.next += 1;
            self.have += 8;
        }
    }

    /// Reads the next `width` bits (`width <= 32`), or `None` past the
    /// end of the stream — the same boundary as the reference
    /// `BitReader` (the zero padding of the final byte is readable).
    #[inline]
    fn take(&mut self, width: u32) -> Option<u32> {
        if self.have < width {
            self.refill();
            if self.have < width {
                return None;
            }
        }
        let v = (self.acc & ((1u64 << width) - 1)) as u32;
        self.acc >>= width;
        self.have -= width;
        Some(v)
    }

    /// Absolute bit position of the cursor.
    #[inline]
    fn bit_pos(&self) -> usize {
        self.next * 8 - self.have as usize
    }
}

/// The burst-vectorized INCEPTIONN codec.
///
/// Produces and consumes exactly the wire format of the scalar
/// [`InceptionnCodec`](crate::InceptionnCodec) — same bytes, same bit
/// length, same decode errors — several times faster. The modeled NIC
/// engines (`inceptionn-nicsim`) and both fabric implementations run on
/// this path.
///
/// # Examples
///
/// ```
/// use inceptionn_compress::burst::BurstCodec;
/// use inceptionn_compress::{ErrorBound, InceptionnCodec};
///
/// let bound = ErrorBound::pow2(10);
/// let vals = vec![0.25f32, -0.0031, 1.5, 0.0];
/// let fast = BurstCodec::new(bound).compress(&vals);
/// let slow = InceptionnCodec::new(bound).compress(&vals);
/// assert_eq!(fast, slow); // bit-identical streams
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstCodec {
    bound: ErrorBound,
    eb_exp: u32,
    /// Host supports the AVX2 kernels (probed once at construction).
    avx2: bool,
    /// Host supports the two-burst AVX-512 classifier.
    avx512: bool,
    /// Host supports the `vpermb` group decoder (AVX-512VBMI + VL).
    vbmi: bool,
}

impl BurstCodec {
    /// Creates a burst codec for the given error bound.
    pub fn new(bound: ErrorBound) -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512, vbmi) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
            std::arch::is_x86_feature_detected!("avx512vbmi")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512bw"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512, vbmi) = (false, false, false);
        BurstCodec {
            bound,
            eb_exp: u32::from(bound.exponent()),
            avx2,
            avx512,
            vbmi,
        }
    }

    /// The configured error bound.
    pub fn bound(&self) -> ErrorBound {
        self.bound
    }

    /// Classifies one full 8-lane group on the best kernel the host
    /// supports.
    #[inline]
    fn classify_group(&self, group: &[f32; 8]) -> (u32, [u32; 8]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: AVX2 support was verified at construction.
            return unsafe { x86::classify8_avx2(self.eb_exp, group) };
        }
        classify_group_scalar(self.eb_exp, group)
    }

    /// Compresses a gradient slice — bit-identical to
    /// [`InceptionnCodec::compress`](crate::InceptionnCodec::compress).
    pub fn compress(&self, values: &[f32]) -> CompressedStream {
        let mut bytes = Vec::new();
        let bit_len = self.compress_append(values, &mut bytes);
        CompressedStream {
            len: values.len(),
            bytes,
            bit_len,
        }
    }

    /// Compresses a gradient slice **appending** to `out`, so a stream
    /// can serialize straight into a caller-owned wire buffer with no
    /// intermediate `Vec`. The appended bytes are exactly
    /// [`BurstCodec::compress`]'s stream for `values`; returns its bit
    /// length.
    pub fn compress_append(&self, values: &[f32], out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let mut w = ByteSink::appending_to(std::mem::take(out), values.len());
        let mut rest = values;
        #[cfg(target_arch = "x86_64")]
        if self.avx512 {
            let mut wide = rest.chunks_exact(2 * LANES_PER_BURST);
            let mut pays = [0u32; 16];
            for pair in &mut wide {
                // SAFETY: AVX-512F support was verified at construction.
                let tags32 = unsafe {
                    x86::classify16_avx512(
                        self.eb_exp,
                        pair.try_into().expect("two-burst group"),
                        &mut pays,
                    )
                };
                w.put_group(tags32 & 0xffff, pays[..8].try_into().expect("8 lanes"));
                w.put_group(tags32 >> 16, pays[8..].try_into().expect("8 lanes"));
            }
            rest = wide.remainder();
        }
        let mut chunks = rest.chunks_exact(LANES_PER_BURST);
        for group in &mut chunks {
            let (tags16, pays) = self.classify_group(group.try_into().expect("8-lane group"));
            w.put_group(tags16, &pays);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Pad the final group with Zero lanes (tag 0, no payload) —
            // the same padding the scalar codec and the hardware apply.
            let (tags16, pays) = classify_group_scalar(self.eb_exp, rem);
            w.put_group(tags16, &pays);
        }
        *out = w.into_bytes();
        (out.len() - start) * 8
    }

    /// Decompresses a packed stream — same values and same
    /// [`DecodeError`]s as
    /// [`InceptionnCodec::decompress`](crate::InceptionnCodec::decompress).
    pub fn decompress(&self, stream: &CompressedStream) -> Result<Vec<f32>, DecodeError> {
        let mut out = vec![0f32; stream.len];
        self.decompress_into(&stream.bytes, stream.len, &mut out)?;
        Ok(out)
    }

    /// Decompresses `count` values from raw stream bytes into `out`
    /// (which must hold exactly `count` slots), with no allocation: the
    /// NIC decode path and the switch reduce unit write into buffers
    /// they hold.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the bytes end before `count` values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != count`.
    pub fn decompress_into(
        &self,
        bytes: &[u8],
        count: usize,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        assert_eq!(
            out.len(),
            count,
            "output slice must hold exactly count values"
        );
        let (cur, done) = self.decode_fast(bytes, count, out);
        self.decode_tail(bytes, cur * 8, done, count, out)
    }

    /// Fast decode of every whole group that lies inside `bytes`. Groups
    /// are decoded in place while a maximal group's loads stay in
    /// bounds; the remaining `< MAX_GROUP_BYTES` bytes are copied into
    /// a zero-padded stack buffer and their whole groups go through the
    /// same loop, so only the final partial group and a group that
    /// overruns the input are left to [`decode_tail`](Self::decode_tail).
    /// No error is possible here: a group is decoded only when its tag
    /// vector and payload lie entirely inside the real bytes, and every
    /// lane load is masked to its tagged width, so padding never reaches
    /// a value. Returns the byte cursor and value count consumed.
    fn decode_fast(&self, bytes: &[u8], count: usize, out: &mut [f32]) -> (usize, usize) {
        let (cur, done) = self.decode_groups(bytes, bytes.len(), 0, out);
        if done + LANES_PER_BURST > count {
            return (cur, done);
        }
        // The in-place loop stopped for want of a 32-byte load window,
        // so `rest` is shorter than `MAX_GROUP_BYTES`: a group in it
        // starts below byte 32 and loads at most `MAX_GROUP_BYTES`
        // bytes from there.
        let rest = &bytes[cur..];
        let mut pad = [0u8; 2 * MAX_GROUP_BYTES];
        pad[..rest.len()].copy_from_slice(rest);
        let (more, done) = self.decode_groups(&pad, rest.len(), done, out);
        (cur + more, done)
    }

    /// Decodes whole groups from the start of `buf` into `out[done..]`
    /// while the next group's tag vector and payload lie inside
    /// `buf[..end]`, its 32-byte load window inside `buf`, and its eight
    /// values inside `out`. Returns the bytes and value count consumed.
    fn decode_groups(
        &self,
        buf: &[u8],
        end: usize,
        mut done: usize,
        out: &mut [f32],
    ) -> (usize, usize) {
        let mut cur = 0usize;
        while cur + 2 <= end {
            let (Some(src), Some(dst)) = (
                buf.get(cur + 2..).and_then(|b| b.first_chunk::<32>()),
                out.get_mut(done..)
                    .and_then(|o| o.first_chunk_mut::<LANES_PER_BURST>()),
            ) else {
                break;
            };
            let tags16 = u32::from(u16::from_le_bytes([buf[cur], buf[cur + 1]]));
            let width = 2 + lane_offsets(tags16).1;
            if cur + width > end {
                break;
            }
            self.decode_group(src, tags16, dst);
            cur += width;
            done += LANES_PER_BURST;
        }
        (cur, done)
    }

    /// Decodes one full group from its payload's 32-byte load window:
    /// one unaligned u32 load per lane, masked to the tagged width
    /// (gathered or shuffled as a whole burst on AVX2 hosts).
    #[inline]
    fn decode_group(&self, src: &[u8; 32], tags16: u32, dst: &mut [f32; LANES_PER_BURST]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: the kernels' feature sets were verified at
            // construction; `src` is the 32 readable bytes and `dst` the
            // eight writable slots their contracts ask for.
            unsafe {
                if self.vbmi {
                    x86::decode_group_vbmi(src.as_ptr(), tags16, dst.as_mut_ptr());
                } else {
                    x86::decode_group_avx2(src.as_ptr(), tags16, dst.as_mut_ptr());
                }
            }
            return;
        }
        const PAY_MASK32: [u32; 4] = [0, 0xff, 0xffff, u32::MAX];
        let mut at = 0;
        for (i, slot) in dst.iter_mut().enumerate() {
            let tag = (tags16 >> (2 * i)) & 3;
            // Lane offsets stay below 29, so the load stays in `src`.
            let raw = u32::from_le_bytes(src[at..at + 4].try_into().expect("4-byte load"));
            *slot = recon_fast(tag, raw & PAY_MASK32[tag as usize]);
            at += PAYLOAD_BYTES[tag as usize];
        }
    }

    /// Exact bit-reader decode of everything the fast path leaves: the
    /// final partial group and a group that overruns the input, where
    /// truncation errors must be reported at their precise value index
    /// and bit offset.
    fn decode_tail(
        &self,
        bytes: &[u8],
        bit_pos: usize,
        mut done: usize,
        count: usize,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        let mut r = WordReader::new(bytes);
        r.skip(bit_pos);
        while done < count {
            let group = (count - done).min(LANES_PER_BURST);
            let tags = r
                .take(16)
                .ok_or_else(|| DecodeError::at_tags(done, r.bit_pos()))?;
            for lane in 0..group {
                let tag = (tags >> (2 * lane)) & 0b11;
                let payload = r.take(PAYLOAD_BITS[tag as usize]).ok_or_else(|| {
                    DecodeError::at_payload(done + lane, r.bit_pos(), Tag::from_bits(tag as u8))
                })?;
                out[done + lane] = reconstruct(tag, payload);
            }
            // Padded lanes of a final partial group: Zero tags carry no
            // payload in well-formed streams; anything else is corrupt.
            for lane in group..LANES_PER_BURST {
                let tag = (tags >> (2 * lane)) & 0b11;
                r.take(PAYLOAD_BITS[tag as usize]).ok_or_else(|| {
                    DecodeError::at_payload(done + group, r.bit_pos(), Tag::from_bits(tag as u8))
                })?;
            }
            done += group;
        }
        Ok(())
    }

    /// The lossy round trip without materializing the bit stream —
    /// identical values to
    /// [`InceptionnCodec::quantize`](crate::InceptionnCodec::quantize).
    pub fn quantize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.quantize_inplace(&mut out);
        out
    }

    /// Applies the lossy round trip in place.
    pub fn quantize_inplace(&self, values: &mut [f32]) {
        let mut chunks = values.chunks_exact_mut(LANES_PER_BURST);
        for group in &mut chunks {
            let (tags16, pays) = self.classify_group((&*group).try_into().expect("8-lane group"));
            for (i, v) in group.iter_mut().enumerate() {
                *v = recon_fast((tags16 >> (2 * i)) & 3, pays[i]);
            }
        }
        for v in chunks.into_remainder() {
            let lane = classify(self.eb_exp, *v);
            *v = reconstruct(lane.tag, lane.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inceptionn::InceptionnCodec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair(e: u8) -> (BurstCodec, InceptionnCodec) {
        let b = ErrorBound::pow2(e);
        (BurstCodec::new(b), InceptionnCodec::new(b))
    }

    #[test]
    fn classify_matches_scalar_on_edge_values() {
        for e in [6u8, 8, 10, 14, 30] {
            let (_, codec) = pair(e);
            for v in [
                0.0f32,
                -0.0,
                f32::MIN_POSITIVE,        // smallest normal
                f32::MIN_POSITIVE / 2.0,  // subnormal
                -f32::MIN_POSITIVE / 4.0, // subnormal
                1e-38,
                2f32.powi(-(e as i32)), // exactly the bound
                -2f32.powi(-(e as i32)),
                2f32.powi(-(e as i32)) * 1.0000001,
                0.25,
                0.3337,
                -0.5,
                0.999_999_9,
                1.0,
                -1.0,
                123.456,
                f32::MAX,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ] {
                let lane = classify(u32::from(e), v);
                let cv = codec.compress_value(v);
                assert_eq!(lane.tag, cv.tag as u32, "tag mismatch for {v} at 2^-{e}");
                assert_eq!(
                    lane.payload, cv.payload,
                    "payload mismatch for {v} at 2^-{e}"
                );
            }
        }
    }

    #[test]
    fn group_kernel_matches_scalar_on_edge_values() {
        let edge = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            2f32.powi(-10),
            -0.5,
            1.0,
            f32::NAN,
            f32::INFINITY,
        ];
        for e in [1u8, 6, 10, 23, 30] {
            let codec = BurstCodec::new(ErrorBound::pow2(e));
            assert_eq!(
                codec.classify_group(&edge),
                classify_group_scalar(u32::from(e), &edge),
                "kernel diverged at 2^-{e}"
            );
        }
    }

    #[test]
    fn streams_are_bit_identical_with_scalar() {
        let (fast, slow) = pair(10);
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let vals: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.377).sin() * 1.3).collect();
            assert_eq!(fast.compress(&vals), slow.compress(&vals), "n={n}");
        }
    }

    #[test]
    fn decode_round_trips_and_matches_scalar_quantize() {
        let (fast, slow) = pair(8);
        let vals: Vec<f32> = (0..777).map(|i| ((i as f32) * 0.73).cos() * 0.9).collect();
        let stream = fast.compress(&vals);
        let out = fast.decompress(&stream).unwrap();
        assert_eq!(out, slow.quantize(&vals));
        assert_eq!(fast.quantize(&vals), slow.quantize(&vals));
    }

    #[test]
    fn truncated_stream_errors_match_scalar() {
        let (fast, slow) = pair(10);
        let vals = vec![0.5f32; 40];
        let mut stream = fast.compress(&vals);
        for cut in [0usize, 1, 2, 5, 9] {
            let mut t = stream.clone();
            t.bytes.truncate(cut);
            assert_eq!(
                fast.decompress(&t).unwrap_err(),
                slow.decompress(&t).unwrap_err(),
                "cut={cut}"
            );
        }
        stream.bytes.clear();
        assert!(fast.decompress(&stream).is_err());
    }

    #[test]
    fn long_stream_truncation_errors_match_scalar() {
        // Cuts landing inside the fast loop's operating range must
        // still divert to the exact tail path and report the scalar
        // codec's positions.
        let (fast, slow) = pair(8);
        let vals: Vec<f32> = (0..512).map(|i| ((i as f32) * 0.119).sin()).collect();
        let stream = fast.compress(&vals);
        for cut in [10usize, 41, 42, 43, 100, stream.bytes.len() - 1] {
            let mut t = stream.clone();
            t.bytes.truncate(cut);
            assert_eq!(
                fast.decompress(&t).unwrap_err(),
                slow.decompress(&t).unwrap_err(),
                "cut={cut}"
            );
        }
    }

    /// The host's detected kernels, its AVX2-only kernels (the detected
    /// ones again on a host without AVX-512) and the portable scalar
    /// path.
    fn kernels(e: u8) -> [BurstCodec; 3] {
        let detected = BurstCodec::new(ErrorBound::pow2(e));
        let avx2_only = BurstCodec {
            avx512: false,
            vbmi: false,
            ..detected
        };
        let portable = BurstCodec {
            avx2: false,
            ..avx2_only
        };
        [detected, avx2_only, portable]
    }

    /// Every length up to a few MTU chunks, plus whole-packet sizes.
    fn tail_lengths() -> impl Iterator<Item = usize> {
        (0..=400).chain([1447, 1448, 2896])
    }

    /// Random lanes spanning all four tags at every tested bound, then
    /// all-Full and all-Zero lanes.
    fn tail_inputs(n: usize) -> [Vec<f32>; 3] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let random = (0..n)
            .map(|_| {
                let mag = 2f32.powi(-rng.gen_range(0i32..14)) * rng.gen_range(1.0f32..2.0);
                if rng.gen::<bool>() {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        let full = (0..n).map(|i| 1.0 + i as f32).collect();
        [random, full, vec![0.0; n]]
    }

    fn bits(vals: &[f32]) -> Vec<u32> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn decompress_into_matches_scalar_on_every_tail_shape() {
        for e in [6u8, 8, 10] {
            let slow = InceptionnCodec::new(ErrorBound::pow2(e));
            for n in tail_lengths() {
                for vals in tail_inputs(n) {
                    let stream = slow.compress(&vals);
                    let want = bits(&slow.decompress(&stream).unwrap());
                    for fast in kernels(e) {
                        let mut out = vec![f32::NAN; n];
                        fast.decompress_into(&stream.bytes, n, &mut out).unwrap();
                        assert_eq!(bits(&out), want, "n={n} e={e} {fast:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_prefix_truncation_errors_like_scalar() {
        for e in [6u8, 8, 10] {
            let slow = InceptionnCodec::new(ErrorBound::pow2(e));
            for n in tail_lengths() {
                for vals in tail_inputs(n) {
                    let stream = slow.compress(&vals);
                    for cut in 0..stream.bytes.len() {
                        let mut t = stream.clone();
                        t.bytes.truncate(cut);
                        let want = slow.decompress(&t).unwrap_err();
                        for fast in kernels(e) {
                            let mut out = vec![0f32; n];
                            let got = fast.decompress_into(&t.bytes, n, &mut out).unwrap_err();
                            assert_eq!(got, want, "n={n} e={e} cut={cut} {fast:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compress_append_is_independent_of_the_buffer_state() {
        for e in [6u8, 8, 10] {
            for n in tail_lengths() {
                for vals in tail_inputs(n) {
                    for codec in kernels(e) {
                        let want = codec.compress(&vals);
                        let mut empty = Vec::new();
                        let mut exact = Vec::with_capacity(want.bytes.len());
                        let mut warmed = Vec::with_capacity(8 * want.bytes.len() + 64);
                        warmed.extend_from_slice(b"prefix");
                        for buf in [&mut empty, &mut exact, &mut warmed] {
                            let start = buf.len();
                            let bit_len = codec.compress_append(&vals, buf);
                            assert_eq!(&buf[start..], &want.bytes[..], "n={n} e={e}");
                            assert_eq!(bit_len, want.bit_len);
                        }
                        assert_eq!(&warmed[..6], b"prefix");
                    }
                }
            }
        }
    }

    #[test]
    fn decompress_into_writes_exactly_count() {
        let (fast, _) = pair(10);
        let vals: Vec<f32> = (0..19).map(|i| (i as f32) * 0.013).collect();
        let stream = fast.compress(&vals);
        let mut out = vec![0f32; 19];
        fast.decompress_into(&stream.bytes, 19, &mut out).unwrap();
        assert_eq!(out, fast.decompress(&stream).unwrap());
    }

    proptest! {
        #[test]
        fn prop_classify_equals_scalar(bits in any::<u32>(), e in 1u8..=30) {
            let v = f32::from_bits(bits);
            let (_, codec) = pair(e);
            let lane = classify(u32::from(e), v);
            let cv = codec.compress_value(v);
            prop_assert_eq!(lane.tag, cv.tag as u32);
            prop_assert_eq!(lane.payload, cv.payload);
        }

        #[test]
        fn prop_group_kernel_matches_scalar(
            bits in proptest::collection::vec(any::<u32>(), 8),
            e in 1u8..=30
        ) {
            // On AVX2 hosts this pins the SIMD kernel against the
            // scalar classifier over raw bit patterns (subnormals, NaN
            // payloads, infinities included); elsewhere it is a no-op
            // identity check.
            let mut group = [0f32; 8];
            for (g, b) in group.iter_mut().zip(&bits) {
                *g = f32::from_bits(*b);
            }
            let codec = BurstCodec::new(ErrorBound::pow2(e));
            prop_assert_eq!(
                codec.classify_group(&group),
                classify_group_scalar(u32::from(e), &group)
            );
        }

        #[test]
        fn prop_recon_fast_matches_reference(pay in any::<u32>(), tag in 0u32..4) {
            let masked = if PAYLOAD_BITS[tag as usize] == 32 {
                pay
            } else {
                pay & ((1u32 << PAYLOAD_BITS[tag as usize]) - 1)
            };
            let fast = recon_fast(tag, masked);
            let slow = reconstruct(tag, masked);
            prop_assert_eq!(fast.to_bits(), slow.to_bits());
        }

        #[test]
        fn prop_raw_bit_streams_bit_identical(
            bits in proptest::collection::vec(any::<u32>(), 0..64),
            e in 1u8..=30
        ) {
            // Raw bit patterns (NaNs, infinities, subnormals included)
            // through the full dispatch stack — exercises the AVX-512
            // two-burst path on blocks of 16+ values. Decoded values
            // compared as bits so NaNs compare equal.
            let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let (fast, slow) = pair(e);
            let f = fast.compress(&vals);
            let s = slow.compress(&vals);
            prop_assert_eq!(&f.bytes, &s.bytes);
            prop_assert_eq!(f.bit_len, s.bit_len);
            let df: Vec<u32> = fast.decompress(&f).unwrap().iter().map(|v| v.to_bits()).collect();
            let ds: Vec<u32> = slow.decompress(&s).unwrap().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(df, ds);
        }

        #[test]
        fn prop_streams_bit_identical(
            vals in proptest::collection::vec(-2f32..2.0, 0..300),
            e in 4u8..16
        ) {
            let (fast, slow) = pair(e);
            let f = fast.compress(&vals);
            let s = slow.compress(&vals);
            prop_assert_eq!(&f.bytes, &s.bytes);
            prop_assert_eq!(f.bit_len, s.bit_len);
            prop_assert_eq!(fast.decompress(&f).unwrap(), slow.decompress(&s).unwrap());
        }
    }
}
