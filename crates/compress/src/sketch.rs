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
//!
//!    The mode is decided from the tallies of one pass: the encoder
//!    quantizes each value and writes it straight into the RAW32 body
//!    while counting the support size and checking the `i32` width.
//!    Those two numbers fix the RAW width and the sketch size, so a
//!    dense frame — the common case for real gradients — is finished
//!    in that one pass with no scratch at all. Only a frame that must
//!    widen to RAW64, or that is a sketch candidate, is rewritten from
//!    a second walk over the values; a candidate builds its cell table
//!    in one hashing pass, and both the peel check and the rows it
//!    writes read that table.
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

/// The largest `f64` below one half.
const HALF_BELOW: f64 = 0.5 - f64::EPSILON / 4.0;

/// Quantizes `v` to grid counts: `round(v · 2^frac_bits)` (ties away
/// from zero) with saturation at the `i64` range (NaN quantizes to 0).
///
/// Branch-free: adding the largest `f64` below one half, with `x`'s
/// sign, and truncating is LLVM's own lowering of `f64::round`. It is
/// bit-equal to `x.round() as i64` for every `f32` — `x` is an exact
/// power-of-two scaling of `v`, so the one add rounds the way `round`
/// does, ±0, ties, NaN, ±inf and saturation included. Tests pin this
/// on a strided sample of all `f32` patterns at every precision, and
/// (ignored, run in CI) on all 2^32 patterns at four precisions. The
/// encoder, the in-process shortcut and the switch's value fold all
/// quantize through this one definition.
#[inline]
pub fn quantize_value(v: f32, frac_bits: u8) -> i64 {
    let x = f64::from(v) * grid_scale(frac_bits);
    (x + HALF_BELOW.copysign(x)) as i64
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

/// One cell of a sketch under construction: how many support indices
/// hash into it, the XOR of those indices (they fit `u32`, as the
/// frame's length does), and the sum of their grid counts — side by
/// side, so building the rows touches one cache line per cell.
#[derive(Clone, Copy, Default)]
struct Cell {
    occupants: u32,
    index_xor: u32,
    sum: i64,
}

/// Structural peel over cell occupancy only (sums untouched): returns
/// true if all `support` indices resolve through singleton
/// elimination. A peeled index's cells are recomputed from the index:
/// three hashes cost less than fetching them from a per-index buffer,
/// which misses the cache on every visit of a large sketch.
fn peels(table: &mut [Cell], cells: usize, bases: &[u64; ROWS], support: usize) -> bool {
    let mut stack: Vec<usize> = (0..table.len())
        .filter(|&c| table[c].occupants == 1)
        .collect();
    let mut peeled = 0usize;
    while let Some(c) = stack.pop() {
        if table[c].occupants != 1 {
            continue;
        }
        let i = table[c].index_xor;
        peeled += 1;
        for (r, &base) in bases.iter().enumerate() {
            let cc = r * cells + cell_of(base, i as usize, cells);
            table[cc].occupants -= 1;
            table[cc].index_xor ^= i;
            if table[cc].occupants == 1 {
                stack.push(cc);
            }
        }
    }
    peeled == support
}

fn put_header(out: &mut Vec<u8>, mode: u8, frac_bits: u8, n: usize, seed: u64) {
    out.extend_from_slice(&[mode, frac_bits, ROWS as u8, 0]);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
}

/// What one pass over the grid counts learns: their number, the
/// support size, and whether every count fits an `i32`.
struct Tally {
    n: usize,
    nnz: usize,
    fits32: bool,
}

/// Appends a RAW frame of `counts` — `i64` cells if `wide`, else `i32`
/// cells — and tallies the counts on the way. In a frame that turns
/// out not to fit `i32`, the narrow cells are truncations the caller
/// must discard.
fn put_raw<I>(counts: I, wide: bool, frac_bits: u8, seed: u64, out: &mut Vec<u8>) -> Tally
where
    I: ExactSizeIterator<Item = i64>,
{
    let n = counts.len();
    let width = if wide { 8 } else { 4 };
    put_header(
        out,
        if wide { MODE_RAW64 } else { MODE_RAW32 },
        frac_bits,
        n,
        seed,
    );
    let body = out.len();
    out.resize(body + n * width, 0);
    let mut tally = Tally {
        n,
        nnz: 0,
        fits32: true,
    };
    for (cell, c) in out[body..].chunks_exact_mut(width).zip(counts) {
        if wide {
            cell.copy_from_slice(&c.to_le_bytes());
        } else {
            cell.copy_from_slice(&(c as i32).to_le_bytes());
        }
        tally.nnz += usize::from(c != 0);
        tally.fits32 &= i64::from(c as i32) == c;
    }
    tally
}

/// Appends a `SKETCH` frame of `counts` (whose support size is `nnz`)
/// if it peels; returns false, with `out` to be truncated by the
/// caller, if it does not. One pass sets the bitmap and hashes each
/// support index into its cells, which then drive both the peel check
/// and the rows written out.
fn put_sketch<I>(counts: I, nnz: usize, frac_bits: u8, seed: u64, out: &mut Vec<u8>) -> bool
where
    I: ExactSizeIterator<Item = i64>,
{
    let n = counts.len();
    let cells = cells_per_row(nnz);
    put_header(out, MODE_SKETCH, frac_bits, n, seed);
    let bitmap = out.len();
    out.resize(bitmap + n.div_ceil(8), 0);
    let bases = [row_base(seed, 0), row_base(seed, 1), row_base(seed, 2)];
    let mut table = vec![Cell::default(); ROWS * cells];
    for (i, c) in counts.enumerate() {
        if c != 0 {
            out[bitmap + i / 8] |= 1 << (i % 8);
            for (r, &base) in bases.iter().enumerate() {
                let cell = &mut table[r * cells + cell_of(base, i, cells)];
                cell.occupants += 1;
                cell.index_xor ^= i as u32;
                cell.sum = cell.sum.wrapping_add(c);
            }
        }
    }
    if !peels(&mut table, cells, &bases, nnz) {
        return false;
    }
    for cell in &table {
        out.extend_from_slice(&cell.sum.to_le_bytes());
    }
    true
}

/// Encodes the grid counts each `counts()` call yields into the
/// canonical frame for `(frac_bits, seed)`: `SKETCH` when it both
/// shrinks the frame and peels, else the narrowest RAW width. Appends
/// to `out`; returns the appended bytes.
///
/// One pass writes the header and the RAW32 body straight into `out`
/// and tallies the support size and width; the mode follows from those
/// tallies alone. Only a frame that must widen to RAW64, or that is a
/// sketch candidate, is rewritten — from a second walk of `counts()`,
/// so no dense count vector is ever stored.
fn encode_counts<F, I>(counts: F, frac_bits: u8, seed: u64, out: &mut Vec<u8>) -> usize
where
    F: Fn() -> I,
    I: ExactSizeIterator<Item = i64>,
{
    let before = out.len();
    let tally = put_raw(counts(), false, frac_bits, seed, out);
    let n = tally.n;
    let raw_bytes = FRAME_HEADER_BYTES + n * if tally.fits32 { 4 } else { 8 };
    let sketch_bytes = FRAME_HEADER_BYTES + n.div_ceil(8) + ROWS * cells_per_row(tally.nnz) * 8;
    let candidate = sketch_bytes < raw_bytes;
    if tally.fits32 && !candidate {
        return out.len() - before;
    }
    out.truncate(before);
    if candidate && put_sketch(counts(), tally.nnz, frac_bits, seed, out) {
        return out.len() - before;
    }
    out.truncate(before);
    put_raw(counts(), !tally.fits32, frac_bits, seed, out);
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
        let frac_bits = self.frac_bits;
        let counts = || values.iter().map(move |&v| quantize_value(v, frac_bits));
        encode_counts(counts, frac_bits, self.seed, out)
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
        encode_counts(
            || q.iter().copied(),
            meta.frac_bits,
            meta.seed,
            &mut self.bytes,
        );
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

    /// The rounding `quantize_value` replaced: the oracle it must match
    /// bit for bit.
    fn reference_quantize(v: f32, frac_bits: u8) -> i64 {
        (f64::from(v) * grid_scale(frac_bits)).round() as i64
    }

    /// The structural peel the reference encoder runs: hashes every
    /// support index again on each visit.
    fn reference_peels(support: &[u32], cells: usize, seed: u64) -> bool {
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

    /// The reference encoder: a stored dense count vector, a support
    /// list, and the mode decided before any byte is written. The fused
    /// encoder must reproduce its frames byte for byte.
    fn reference_encode_q(q: &[i64], frac_bits: u8, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
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
        let sketchable = sketch_bytes < raw_bytes && reference_peels(&support, cells, seed);

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
        out
    }

    fn reference_encode(values: &[f32], frac_bits: u8, seed: u64) -> Vec<u8> {
        let q: Vec<i64> = values
            .iter()
            .map(|&v| reference_quantize(v, frac_bits))
            .collect();
        reference_encode_q(&q, frac_bits, seed)
    }

    /// Asserts the fused encoder's frame equals the reference's, and
    /// that appending leaves what `out` held before untouched.
    fn assert_encodes_like_reference(values: &[f32], frac_bits: u8, seed: u64) -> FrameMode {
        let want = reference_encode(values, frac_bits, seed);
        let mut got = vec![0xA5u8; 3];
        let appended = SketchCodec::new(frac_bits, seed).encode_append(values, &mut got);
        assert_eq!(&got[..3], &[0xA5; 3], "encode_append touched prior bytes");
        assert_eq!(appended, got.len() - 3);
        assert!(
            got[3..] == want[..],
            "frame differs from the reference encoder (n {}, frac_bits {frac_bits})",
            values.len()
        );
        frame_meta(&want).unwrap().mode
    }

    /// `f32` values the rounding must get right beyond a uniform sample:
    /// signed zeros, subnormals, NaNs, infinities, the extremes, and
    /// magnitudes whose counts straddle the `i32` and `i64` limits.
    fn special_values() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            0.5,
            -0.5,
            1.5,
            -2.5,
        ];
        for e in [31, 32, 52, 53, 62, 63, 64] {
            let p = (2.0f64).powi(e) as f32;
            v.extend([p, -p, p.next_up(), p.next_down(), -p.next_up()]);
        }
        v
    }

    #[test]
    fn quantize_value_matches_round_on_a_strided_sample_of_every_f32() {
        // An odd prime stride walks every exponent and a spread of
        // mantissas, sign bit included: ~1 M patterns per precision.
        const STRIDE: usize = 4099;
        let specials = special_values();
        for frac_bits in 1..=MAX_FRAC_BITS {
            let ties = (-64i32..64).map(|k| ((k as f32) + 0.5) / grid_scale(frac_bits) as f32);
            let sample = (0..=u32::MAX).step_by(STRIDE).map(f32::from_bits);
            for v in sample.chain(specials.iter().copied()).chain(ties) {
                assert_eq!(
                    quantize_value(v, frac_bits),
                    reference_quantize(v, frac_bits),
                    "{v:e} (bits {:#010x}) at frac_bits {frac_bits}",
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    #[ignore = "exhaustive: 2^32 patterns at four precisions; run with --release --ignored"]
    fn quantize_value_matches_round_on_every_f32() {
        for frac_bits in [1, 10, 12, 20] {
            let first_bad = (0..=u32::MAX).find(|&bits| {
                let v = f32::from_bits(bits);
                quantize_value(v, frac_bits) != reference_quantize(v, frac_bits)
            });
            assert_eq!(first_bad, None, "frac_bits {frac_bits}");
        }
    }

    #[test]
    fn encode_matches_the_reference_on_both_sides_of_the_sketch_boundary() {
        // Walk the support size from empty to dense at several lengths:
        // the mode flips from SKETCH to RAW where `sketch_bytes` stops
        // undercutting `raw_bytes`, and every frame on the way must
        // match. Wide counts move the boundary (RAW64 is the rival).
        let mut seen = std::collections::HashSet::new();
        for &(n, frac_bits, magnitude) in &[
            (64usize, 10u8, 0.75f32),
            (257, 6, 3.0),
            (1000, 10, 0.01),
            (300, 20, 5.0e4),
        ] {
            for nnz in 0..=n {
                let values: Vec<f32> = (0..n)
                    .map(|i| {
                        // Positions 0, 1, …, visited in a scrambled
                        // order so the support is not a prefix.
                        let rank = (i * 7919) % n;
                        if rank < nnz {
                            magnitude * if i % 2 == 0 { 1.0 } else { -0.5 }
                        } else {
                            0.0
                        }
                    })
                    .collect();
                seen.insert(assert_encodes_like_reference(&values, frac_bits, n as u64));
            }
        }
        assert_eq!(seen.len(), 3, "the walk must hit every mode: {seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_append_is_byte_identical_to_the_reference_encoder(
            raw in proptest::collection::vec((0u8..12, any::<u32>(), -4096i32..4096), 0..400),
            density in 0u32..=100,
            frac_bits in 1u8..=MAX_FRAC_BITS,
            seed in any::<u64>(),
        ) {
            let scale = grid_scale(frac_bits) as f32;
            let specials = special_values();
            let values: Vec<f32> = raw
                .iter()
                .map(|&(kind, bits, k)| {
                    if bits % 100 >= density {
                        return 0.0;
                    }
                    match kind {
                        // An exact tie between two grid points.
                        0 => (k as f32 + 0.5) / scale,
                        1 => if k < 0 { -0.0 } else { 0.0 },
                        // A subnormal of either sign.
                        2 => f32::from_bits((bits & 0x807F_FFFF) | 1),
                        3 => specials[bits as usize % specials.len()],
                        4 => f32::from_bits(bits),
                        // Counts past i32 at most precisions.
                        5 => k as f32 * 1.0e6,
                        _ => k as f32 / scale,
                    }
                })
                .collect();
            assert_encodes_like_reference(&values, frac_bits, seed);
        }
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
