//! Lossless homomorphic gradient compression (count-sketch family).
//!
//! Li et al. 2024 (PAPERS.md) observe that gradient aggregation only
//! ever *adds* tensors, so a codec whose compressed representations
//! form an additive group lets every aggregation point — host or
//! in-network switch — fold frames **without decompressing**. This
//! module implements that idea over exact fixed-point arithmetic:
//!
//! 1. Values are quantized to a `2^-frac_bits` grid as `i64` counts
//!    (`q = round(v · 2^frac_bits)`). All further arithmetic is integer
//!    and therefore exact, associative, and commutative — the
//!    properties the `add_compressed` proptests pin.
//! 2. The `q` vector is framed in one of three self-describing modes,
//!    chosen canonically from the content:
//!    * `RAW32` / `RAW64` — the **exact-recovery dense path**: the grid
//!      counts verbatim (narrowest width that fits). This is the
//!      fallback whenever sketching would not shrink the frame or the
//!      sketch would not peel.
//!    * `SKETCH` — a support bitmap (`⌈n/8⌉` bytes) plus
//!      [`ROWS`] hashed rows of `i64` cells. Each nonzero index is
//!      added into one seeded cell per row; the decoder rebuilds each
//!      cell's occupancy from the bitmap and *peels* singleton cells
//!      (classic invertible-sketch recovery), so decoding is exact,
//!      not approximate. The encoder verifies peelability before
//!      committing and falls back to RAW otherwise — no lossy path
//!      exists in this codec.
//! 3. Merging two frames ([`SketchFrame::add_compressed`]) decodes
//!    both to grid counts, adds exactly, and re-encodes. Because the
//!    re-encode is a pure function of the summed counts, a merged
//!    frame is **byte-identical** to encoding the sum directly, and
//!    merge order cannot matter.
//!
//! The frame header (16 bytes, little-endian) makes frames fully
//! self-contained so a merge needs no out-of-band codec handle:
//! `[mode: u8][frac_bits: u8][rows: u8][reserved: u8][len: u32]`
//! `[seed: u64]`, followed by the mode-specific payload. Hashing uses
//! the same seeded splitmix64 chain as the sparsifier — nothing about
//! the wire layout depends on time, addresses, or a global RNG.

use crate::inceptionn::DecodeError;
use crate::sparse::splitmix64;

/// Frame header size: `[mode][frac_bits][rows][reserved][len: u32][seed: u64]`.
pub const FRAME_HEADER_BYTES: usize = 16;
/// Hash rows in a `SKETCH`-mode frame.
pub const ROWS: usize = 3;
/// Largest supported grid precision (keeps `f64` round trips exact for
/// gradient-scale magnitudes).
pub const MAX_FRAC_BITS: u8 = 20;

const MODE_RAW32: u8 = 0;
const MODE_RAW64: u8 = 1;
const MODE_SKETCH: u8 = 2;
/// Salt mixed with the frame seed per hash row.
const ROW_SALT: u64 = 0x005E_EDC0_DE0F_5A17;

#[inline]
fn fail(at_value: usize) -> DecodeError {
    DecodeError {
        at_value,
        bit_offset: 0,
        tag: None,
    }
}

/// Frame mode tag (which payload layout follows the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameMode {
    /// Dense grid counts as `i32` — the exact-recovery dense tail.
    Raw32,
    /// Dense grid counts as `i64` (counts overflow `i32`).
    Raw64,
    /// Support bitmap + peelable hashed rows.
    Sketch,
}

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Payload layout.
    pub mode: FrameMode,
    /// Grid precision: counts are multiples of `2^-frac_bits`.
    pub frac_bits: u8,
    /// Uncompressed value count.
    pub len: usize,
    /// Hash seed (carried on the wire so frames merge without a codec
    /// handle).
    pub seed: u64,
}

/// Parses and validates a frame header.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, an unknown mode tag, an
/// out-of-range `frac_bits`, or a row count other than [`ROWS`].
pub fn frame_meta(bytes: &[u8]) -> Result<FrameMeta, DecodeError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(fail(0));
    }
    let mode = match bytes[0] {
        MODE_RAW32 => FrameMode::Raw32,
        MODE_RAW64 => FrameMode::Raw64,
        MODE_SKETCH => FrameMode::Sketch,
        _ => return Err(fail(0)),
    };
    let frac_bits = bytes[1];
    if frac_bits == 0 || frac_bits > MAX_FRAC_BITS || bytes[2] as usize != ROWS || bytes[3] != 0 {
        return Err(fail(0));
    }
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let seed = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    Ok(FrameMeta {
        mode,
        frac_bits,
        len,
        seed,
    })
}

/// The fewest payload bytes a well-formed frame with this header
/// carries: the dense counts of a RAW frame, the support bitmap of a
/// `SKETCH` one. [`fold_frame_into_q`] checks the exact lengths.
fn min_payload_bytes(meta: FrameMeta) -> usize {
    match meta.mode {
        FrameMode::Raw32 => meta.len * 4,
        FrameMode::Raw64 => meta.len * 8,
        FrameMode::Sketch => meta.len.div_ceil(8),
    }
}

/// Cells per hash row for a frame with `support` nonzero entries: load
/// factor ~0.5 across [`ROWS`] rows, which peels with overwhelming
/// probability; the encoder still verifies and falls back to RAW on
/// the rare failure. Derived from the bitmap's popcount, so encoder
/// and decoder always agree.
fn cells_per_row(support: usize) -> usize {
    ((support * 2).div_ceil(ROWS)).max(4)
}

#[inline]
fn row_base(seed: u64, row: usize) -> u64 {
    splitmix64(seed ^ ROW_SALT.wrapping_add(row as u64))
}

#[inline]
fn cell_of(base: u64, index: usize, cells: usize) -> usize {
    (splitmix64(base ^ index as u64) % cells as u64) as usize
}

#[inline]
fn grid_scale(frac_bits: u8) -> f64 {
    (1u64 << frac_bits) as f64
}

/// Quantizes `v` to grid counts: `round(v · 2^frac_bits)` with
/// saturation at the `i64` range (NaN quantizes to 0).
#[inline]
pub fn quantize_value(v: f32, frac_bits: u8) -> i64 {
    (f64::from(v) * grid_scale(frac_bits)).round() as i64
}

/// The grid value a count decodes to.
#[inline]
pub fn grid_value(q: i64, frac_bits: u8) -> f32 {
    (q as f64 / grid_scale(frac_bits)) as f32
}

/// Converts accumulated grid counts back to `f32` — the final step of
/// both host decode and the switch's sketch fold, so the two finish
/// bit-identically by construction.
pub fn finish_q(q: &[i64], frac_bits: u8, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(q) {
        *o = grid_value(c, frac_bits);
    }
}

/// Structural peel over cell occupancy only (no values): returns true
/// if every support index resolves through singleton elimination.
fn peels(support: &[u32], cells: usize, seed: u64) -> bool {
    let total = ROWS * cells;
    let mut counts = vec![0u32; total];
    let mut idx_xor = vec![0u64; total];
    let bases = [row_base(seed, 0), row_base(seed, 1), row_base(seed, 2)];
    for &i in support {
        for (r, &base) in bases.iter().enumerate() {
            let c = r * cells + cell_of(base, i as usize, cells);
            counts[c] += 1;
            idx_xor[c] ^= u64::from(i);
        }
    }
    let mut stack: Vec<usize> = (0..total).filter(|&c| counts[c] == 1).collect();
    let mut peeled = 0usize;
    while let Some(c) = stack.pop() {
        if counts[c] != 1 {
            continue;
        }
        let i = idx_xor[c] as usize;
        peeled += 1;
        for (r, &base) in bases.iter().enumerate() {
            let cc = r * cells + cell_of(base, i, cells);
            counts[cc] -= 1;
            idx_xor[cc] ^= i as u64;
            if counts[cc] == 1 {
                stack.push(cc);
            }
        }
    }
    peeled == support.len()
}

/// Encodes grid counts into the canonical frame for `(frac_bits, seed)`:
/// `SKETCH` when it both shrinks the frame and peels, else the
/// narrowest RAW width. Appends to `out`; returns appended bytes.
fn encode_q_append(q: &[i64], frac_bits: u8, seed: u64, out: &mut Vec<u8>) -> usize {
    let before = out.len();
    let n = q.len();
    let mut support: Vec<u32> = Vec::with_capacity(n);
    let mut fits32 = true;
    for (i, &c) in q.iter().enumerate() {
        if c != 0 {
            support.push(i as u32);
        }
        fits32 &= i64::from(c as i32) == c;
    }
    let raw_bytes = FRAME_HEADER_BYTES + n * if fits32 { 4 } else { 8 };
    let cells = cells_per_row(support.len());
    let bitmap_bytes = n.div_ceil(8);
    let sketch_bytes = FRAME_HEADER_BYTES + bitmap_bytes + ROWS * cells * 8;
    let sketchable = sketch_bytes < raw_bytes && peels(&support, cells, seed);

    let mode = if sketchable {
        MODE_SKETCH
    } else if fits32 {
        MODE_RAW32
    } else {
        MODE_RAW64
    };
    out.push(mode);
    out.push(frac_bits);
    out.push(ROWS as u8);
    out.push(0);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    match mode {
        MODE_RAW32 => {
            for &c in q {
                out.extend_from_slice(&(c as i32).to_le_bytes());
            }
        }
        MODE_RAW64 => {
            for &c in q {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        _ => {
            let mut bitmap = vec![0u8; bitmap_bytes];
            for &i in &support {
                bitmap[i as usize / 8] |= 1 << (i % 8);
            }
            out.extend_from_slice(&bitmap);
            let mut rows = vec![0i64; ROWS * cells];
            let bases = [row_base(seed, 0), row_base(seed, 1), row_base(seed, 2)];
            for &i in &support {
                let c = q[i as usize];
                for (r, &base) in bases.iter().enumerate() {
                    let cell = r * cells + cell_of(base, i as usize, cells);
                    rows[cell] = rows[cell].wrapping_add(c);
                }
            }
            for &cell in &rows {
                out.extend_from_slice(&cell.to_le_bytes());
            }
        }
    }
    out.len() - before
}

/// Folds a frame's grid counts into `acc` (exact `i64` adds) without
/// materializing the dense vector for RAW frames and via singleton
/// peeling for `SKETCH` frames. This is the switch reduce-unit's
/// native operation and the host merge's workhorse.
///
/// # Errors
///
/// Returns [`DecodeError`] if the header is malformed, `acc.len()`
/// disagrees with the frame, the payload is truncated, or a sketch
/// fails to peel cleanly (only possible on a corrupt frame — the
/// encoder verified peelability).
pub fn fold_frame_into_q(bytes: &[u8], acc: &mut [i64]) -> Result<FrameMeta, DecodeError> {
    let meta = frame_meta(bytes)?;
    let n = meta.len;
    if n != acc.len() {
        return Err(fail(0));
    }
    let payload = &bytes[FRAME_HEADER_BYTES..];
    match meta.mode {
        FrameMode::Raw32 => {
            if payload.len() != n * 4 {
                return Err(fail(0));
            }
            for (a, chunk) in acc.iter_mut().zip(payload.chunks_exact(4)) {
                let c = i32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                *a = a.wrapping_add(i64::from(c));
            }
        }
        FrameMode::Raw64 => {
            if payload.len() != n * 8 {
                return Err(fail(0));
            }
            for (a, chunk) in acc.iter_mut().zip(payload.chunks_exact(8)) {
                let c = i64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ]);
                *a = a.wrapping_add(c);
            }
        }
        FrameMode::Sketch => {
            let bitmap_bytes = n.div_ceil(8);
            if payload.len() < bitmap_bytes {
                return Err(fail(0));
            }
            let (bitmap, cell_bytes) = payload.split_at(bitmap_bytes);
            let support_count: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            let cells = cells_per_row(support_count);
            let total = ROWS * cells;
            if cell_bytes.len() != total * 8 {
                return Err(fail(0));
            }
            let mut counts = vec![0u32; total];
            let mut idx_xor = vec![0u64; total];
            let mut vals = vec![0i64; total];
            for (cell, chunk) in vals.iter_mut().zip(cell_bytes.chunks_exact(8)) {
                *cell = i64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ]);
            }
            let bases = [
                row_base(meta.seed, 0),
                row_base(meta.seed, 1),
                row_base(meta.seed, 2),
            ];
            for i in 0..n {
                if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                    for (r, &base) in bases.iter().enumerate() {
                        let c = r * cells + cell_of(base, i, cells);
                        counts[c] += 1;
                        idx_xor[c] ^= i as u64;
                    }
                }
            }
            let mut stack: Vec<usize> = (0..total).filter(|&c| counts[c] == 1).collect();
            let mut peeled = 0usize;
            while let Some(c) = stack.pop() {
                if counts[c] != 1 {
                    continue;
                }
                let i = idx_xor[c] as usize;
                if i >= n {
                    return Err(fail(i));
                }
                let q = vals[c];
                acc[i] = acc[i].wrapping_add(q);
                peeled += 1;
                for (r, &base) in bases.iter().enumerate() {
                    let cc = r * cells + cell_of(base, i, cells);
                    counts[cc] -= 1;
                    idx_xor[cc] ^= i as u64;
                    vals[cc] = vals[cc].wrapping_sub(q);
                    if counts[cc] == 1 {
                        stack.push(cc);
                    }
                }
            }
            if peeled != support_count || counts.iter().any(|&c| c != 0) {
                return Err(fail(0));
            }
        }
    }
    Ok(meta)
}

/// Decodes a frame into `out` — exact recovery for every mode.
///
/// # Errors
///
/// Same conditions as [`fold_frame_into_q`].
pub fn decode_frame(bytes: &[u8], out: &mut [f32]) -> Result<(), DecodeError> {
    let mut q = vec![0i64; out.len()];
    let meta = fold_frame_into_q(bytes, &mut q)?;
    finish_q(&q, meta.frac_bits, out);
    Ok(())
}

/// The homomorphic codec: grid precision + hash seed, no interior
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchCodec {
    frac_bits: u8,
    seed: u64,
}

impl SketchCodec {
    /// Creates a codec with the given grid precision and hash seed.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= frac_bits <= MAX_FRAC_BITS`.
    pub fn new(frac_bits: u8, seed: u64) -> Self {
        assert!(
            (1..=MAX_FRAC_BITS).contains(&frac_bits),
            "frac_bits must be in 1..={MAX_FRAC_BITS}",
        );
        SketchCodec { frac_bits, seed }
    }

    /// Grid precision in fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Hash seed carried into every frame.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Snaps `values` to the codec grid in place — the loopback
    /// shortcut: exactly what encode → decode reconstructs.
    pub fn quantize_inplace(&self, values: &mut [f32]) {
        for v in values.iter_mut() {
            *v = grid_value(quantize_value(*v, self.frac_bits), self.frac_bits);
        }
    }

    /// Allocating variant of [`quantize_inplace`](Self::quantize_inplace).
    pub fn quantize(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.quantize_inplace(&mut out);
        out
    }

    /// Encodes `values`, appending the frame to `out`; returns the
    /// appended byte count.
    pub fn encode_append(&self, values: &[f32], out: &mut Vec<u8>) -> usize {
        let mut q = vec![0i64; values.len()];
        for (c, &v) in q.iter_mut().zip(values) {
            *c = quantize_value(v, self.frac_bits);
        }
        encode_q_append(&q, self.frac_bits, self.seed, out)
    }

    /// Encodes `values` into an owned [`SketchFrame`].
    pub fn encode(&self, values: &[f32]) -> SketchFrame {
        let mut bytes = Vec::new();
        self.encode_append(values, &mut bytes);
        SketchFrame { bytes }
    }
}

/// An owned, validated frame supporting compressed-domain merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchFrame {
    bytes: Vec<u8>,
}

impl SketchFrame {
    /// Wraps raw frame bytes after a full structural validation
    /// (header plus a trial fold).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the bytes are not a well-formed
    /// frame.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, DecodeError> {
        let meta = frame_meta(&bytes)?;
        // The trial fold's scratch is sized from the header, so check
        // first that the payload can hold that many values: a forged
        // `len` must not drive the allocation.
        if bytes.len() - FRAME_HEADER_BYTES < min_payload_bytes(meta) {
            return Err(fail(0));
        }
        let mut scratch = vec![0i64; meta.len];
        fold_frame_into_q(&bytes, &mut scratch)?;
        Ok(SketchFrame { bytes })
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the frame, yielding its wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parsed header.
    pub fn meta(&self) -> FrameMeta {
        // Validated at construction; re-parse is infallible here.
        match frame_meta(&self.bytes) {
            Ok(meta) => meta,
            Err(_) => unreachable!("SketchFrame bytes validated at construction"),
        }
    }

    /// Uncompressed value count.
    pub fn values(&self) -> usize {
        self.meta().len
    }

    /// Frame size on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Merges `other` into `self` **in the compressed domain**: the
    /// result is byte-identical to encoding the exact sum of the two
    /// frames' grid counts (canonical re-encode), so the merge is
    /// associative and commutative and the switch's native fold agrees
    /// with it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the frames disagree on length,
    /// precision, or seed.
    pub fn add_compressed(&mut self, other: &SketchFrame) -> Result<(), DecodeError> {
        let meta = self.meta();
        let other_meta = other.meta();
        if meta.len != other_meta.len
            || meta.frac_bits != other_meta.frac_bits
            || meta.seed != other_meta.seed
        {
            return Err(fail(0));
        }
        let mut q = vec![0i64; meta.len];
        fold_frame_into_q(&self.bytes, &mut q)?;
        fold_frame_into_q(&other.bytes, &mut q)?;
        self.bytes.clear();
        encode_q_append(&q, meta.frac_bits, meta.seed, &mut self.bytes);
        Ok(())
    }

    /// Decodes the frame into `out` (exact recovery).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if `out.len()` disagrees with the
    /// frame.
    pub fn decode_into(&self, out: &mut [f32]) -> Result<(), DecodeError> {
        decode_frame(&self.bytes, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec() -> SketchCodec {
        SketchCodec::new(10, 0x00C0_FFEE)
    }

    /// On-grid values with small integer numerators: f32 addition over
    /// them is exact, so encode-after-sum is well-defined bitwise.
    fn on_grid(raw: &[i32], frac_bits: u8) -> Vec<f32> {
        raw.iter()
            .map(|&k| grid_value(i64::from(k), frac_bits))
            .collect()
    }

    #[test]
    fn dense_input_takes_the_raw_path_and_recovers_exactly() {
        let c = codec();
        let values: Vec<f32> = (0..64).map(|i| grid_value(i - 32, c.frac_bits())).collect();
        let frame = c.encode(&values);
        assert_eq!(frame.meta().mode, FrameMode::Raw32);
        let mut out = vec![0.0f32; 64];
        frame.decode_into(&mut out).unwrap();
        assert_eq!(values, out, "raw dense tail must recover exactly");
    }

    #[test]
    fn sparse_input_takes_the_sketch_path_and_recovers_exactly() {
        let mut values = vec![0.0f32; 1024];
        values[3] = 0.5;
        values[100] = -0.25;
        values[777] = 1.5;
        let frame = codec().encode(&values);
        assert_eq!(frame.meta().mode, FrameMode::Sketch);
        assert!(frame.wire_bytes() < FRAME_HEADER_BYTES + 1024 * 4);
        let mut out = vec![0.0f32; 1024];
        frame.decode_into(&mut out).unwrap();
        assert_eq!(values, out, "sketch recovery must be exact");
    }

    #[test]
    fn decode_is_exact_on_the_grid_and_within_half_step_off_it() {
        let c = codec();
        let step = 1.0 / grid_scale(c.frac_bits()) as f32;
        let values: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let frame = c.encode(&values);
        assert_eq!(frame.meta().mode, FrameMode::Raw32);
        let mut out = vec![0.0f32; 256];
        frame.decode_into(&mut out).unwrap();
        for (&v, &o) in values.iter().zip(&out) {
            assert!((v - o).abs() <= step / 2.0 + f32::EPSILON);
        }
        // Idempotence: re-encoding the decoded grid reproduces the counts.
        let again = c.encode(&out);
        assert_eq!(frame.as_bytes(), again.as_bytes());
    }

    #[test]
    fn wide_counts_fall_back_to_raw64() {
        let c = SketchCodec::new(20, 1);
        let values = vec![3.0e6f32; 8];
        let frame = c.encode(&values);
        assert_eq!(frame.meta().mode, FrameMode::Raw64);
        let mut out = vec![0.0f32; 8];
        frame.decode_into(&mut out).unwrap();
        for &o in &out {
            assert!((o - 3.0e6).abs() < 1.0);
        }
    }

    #[test]
    fn truncated_or_mislabeled_frames_fail_with_a_typed_error() {
        let frame = codec().encode(&[0.5f32; 16]).into_bytes();
        let mut out = vec![0.0f32; 16];
        assert!(decode_frame(&frame[..frame.len() - 2], &mut out).is_err());
        assert!(decode_frame(&frame, &mut out[..8].to_vec()).is_err());
        let mut bad_mode = frame.clone();
        bad_mode[0] = 9;
        assert!(decode_frame(&bad_mode, &mut out).is_err());
        assert!(decode_frame(&frame, &mut out).is_ok());
    }

    #[test]
    fn switch_style_fold_matches_host_merge_bit_for_bit() {
        let c = codec();
        let a: Vec<f32> = (0..300).map(|i| ((i % 17) as f32 - 8.0) / 32.0).collect();
        let b: Vec<f32> = (0..300).map(|i| ((i % 23) as f32 - 11.0) / 64.0).collect();
        // Host path: compressed-domain merge, then decode.
        let mut merged = c.encode(&a);
        merged.add_compressed(&c.encode(&b)).unwrap();
        let mut host = vec![0.0f32; 300];
        merged.decode_into(&mut host).unwrap();
        // Switch path: fold both frames into one i64 accumulator.
        let mut acc = vec![0i64; 300];
        fold_frame_into_q(c.encode(&a).as_bytes(), &mut acc).unwrap();
        fold_frame_into_q(c.encode(&b).as_bytes(), &mut acc).unwrap();
        let mut switch = vec![0.0f32; 300];
        finish_q(&acc, c.frac_bits(), &mut switch);
        let host_bits: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        let switch_bits: Vec<u32> = switch.iter().map(|v| v.to_bits()).collect();
        assert_eq!(host_bits, switch_bits);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn add_compressed_is_bit_identical_to_encode_after_sum(
            raw_a in proptest::collection::vec(-512i32..512, 1..200),
            raw_b in proptest::collection::vec(-512i32..512, 1..200),
        ) {
            let c = codec();
            let n = raw_a.len().min(raw_b.len());
            let a = on_grid(&raw_a[..n], c.frac_bits());
            let b = on_grid(&raw_b[..n], c.frac_bits());
            let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let mut merged = c.encode(&a);
            merged.add_compressed(&c.encode(&b)).unwrap();
            let direct = c.encode(&sum);
            prop_assert_eq!(merged.as_bytes(), direct.as_bytes());
        }

        #[test]
        fn add_compressed_is_commutative_and_associative(
            raw_a in proptest::collection::vec(-256i32..256, 1..120),
            raw_b in proptest::collection::vec(-256i32..256, 1..120),
            raw_c in proptest::collection::vec(-256i32..256, 1..120),
        ) {
            let c = codec();
            let n = raw_a.len().min(raw_b.len()).min(raw_c.len());
            let a = on_grid(&raw_a[..n], c.frac_bits());
            let b = on_grid(&raw_b[..n], c.frac_bits());
            let d = on_grid(&raw_c[..n], c.frac_bits());
            // Commutativity: a+b == b+a.
            let mut ab = c.encode(&a);
            ab.add_compressed(&c.encode(&b)).unwrap();
            let mut ba = c.encode(&b);
            ba.add_compressed(&c.encode(&a)).unwrap();
            prop_assert_eq!(ab.as_bytes(), ba.as_bytes());
            // Associativity: (a+b)+d == a+(b+d).
            let mut ab_d = ab.clone();
            ab_d.add_compressed(&c.encode(&d)).unwrap();
            let mut bd = c.encode(&b);
            bd.add_compressed(&c.encode(&d)).unwrap();
            let mut a_bd = c.encode(&a);
            a_bd.add_compressed(&bd).unwrap();
            prop_assert_eq!(ab_d.as_bytes(), a_bd.as_bytes());
        }

        #[test]
        fn every_frame_roundtrips_exactly_on_grid(
            raw in proptest::collection::vec(-1024i32..1024, 0..300),
            sparsity in 0u8..4,
        ) {
            let c = codec();
            let values: Vec<f32> = raw
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    // Higher sparsity levels zero more positions to
                    // exercise the sketch path as well as RAW.
                    if sparsity > 0 && (i % (1 << sparsity)) != 0 {
                        0.0
                    } else {
                        grid_value(i64::from(k), c.frac_bits())
                    }
                })
                .collect();
            let frame = c.encode(&values);
            let mut out = vec![0.0f32; values.len()];
            frame.decode_into(&mut out).unwrap();
            prop_assert_eq!(values, out);
        }
    }
}
