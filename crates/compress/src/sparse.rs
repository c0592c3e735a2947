//! Error-feedback gradient sparsification (threshold + top-k).
//!
//! The RedSync family of gradient compressors (Fang et al., PAPERS.md)
//! transmits only the largest-magnitude gradient entries each iteration
//! and *accumulates everything it withheld* into a local residual that
//! is added back before the next selection — so no gradient mass is
//! ever lost, only delayed. Two selection rules are implemented:
//!
//! * **Threshold**: every residual-corrected entry with magnitude
//!   strictly above `2^-e` ([`ErrorBound`]) is sent. Selection is
//!   purely elementwise, so a block split into chunks selects exactly
//!   what the whole block would — the property the pipelined exchange
//!   differential tests pin.
//! * **Top-k** (`top_per_mille > 0`): the threshold survivors are
//!   additionally capped at `⌈len·k/1000⌉` entries, keeping the
//!   largest magnitudes. Ties at the cut are broken by a seeded
//!   [`splitmix64`] key over `(seed, rank, index)` — never by wall
//!   clock, address, or a global RNG — so replaying a run reproduces
//!   the wire bytes exactly. Top-k selection is per *encode call*: a
//!   chunked (pipelined) leg budgets k per chunk rather than per
//!   block, which is documented behavior, not drift.
//!
//! Selected values travel as exact `f32` bits — the lossiness is
//! *omission*, not rounding — in a deterministic, self-describing
//! frame: `[len: u32][nnz: u32]` then `nnz` ascending
//! `[index: u32][value: f32]` pairs, all little-endian.
//!
//! Selection is one fused pass per block of 64 values: the residual
//! fold `r = leg + v` and the strict `|r| > 2^-e` compare build a
//! 64-bit mask branch-free (so the compiler vectorizes them), and a
//! walk over the mask's set bits writes each selected pair straight
//! into the frame and zeroes its residual slot.
//! [`SparseCodec::encode_append`] and [`SparseCodec::apply`] share that
//! kernel, so there is one selection rule. Top-k then cuts the
//! candidates in place, where they already sit in the frame. Encoding
//! allocates nothing beyond growing the caller's frame buffer; only
//! `apply`'s top-k mode, which runs in process, collects candidate
//! indices.
//!
//! Residual-state ownership: the codec itself is an immutable
//! configuration; all mutable state lives in a caller-owned
//! [`ResidualState`], one per worker endpoint. Within an iteration,
//! consecutive gradient encodes at one endpoint get consecutive *leg
//! slots* (a pipelined leg's chunk sequence is positionally aligned
//! with the whole-block slot it replaces); `begin_iteration` rewinds
//! the slot cursor so iteration `t+1`'s legs see iteration `t`'s
//! residuals. Recovery never touches the state: retransmits re-deliver
//! the already-encoded frame and renegotiation re-encodes the leg
//! *plain*, so a seeded fault schedule leaves residuals byte-identical
//! to the clean run's.

use std::cmp::Ordering;

use crate::inceptionn::{DecodeError, ErrorBound};

/// Frame header: `[len: u32][nnz: u32]`, little-endian.
pub const FRAME_HEADER_BYTES: usize = 8;
/// Bytes per transmitted entry: `[index: u32][value: f32]`.
pub const PAIR_BYTES: usize = 8;

/// splitmix64 finalizer: the stateless mixer behind every tie-break
/// draw (the same construction the fault planner uses — deterministic
/// by design, no global RNG state anywhere near the wire layout).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic tie-break key for `index` at `rank`: equal-magnitude
/// entries at the top-k cut are ordered by this key, so two workers
/// with identical gradients still make independent (but replayable)
/// choices.
#[inline]
fn tie_key(seed: u64, rank: u64, index: u32) -> u64 {
    let mut h = splitmix64(seed ^ rank);
    h = splitmix64(h ^ u64::from(index));
    h
}

/// Immutable sparsification configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparseConfig {
    /// Threshold: entries with `|residual + g| > 2^-e` are candidates.
    pub bound: ErrorBound,
    /// Top-k cap in per-mille of the block length (`0` = threshold
    /// only, no cap).
    pub top_per_mille: u16,
    /// Seed for the tie-break key (mixed with the worker rank).
    pub seed: u64,
}

/// Per-endpoint error-feedback residual state: one slot per gradient
/// encode *leg* within an iteration, rewound by
/// [`begin_iteration`](ResidualState::begin_iteration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResidualState {
    legs: Vec<Vec<f32>>,
    cursor: usize,
}

impl ResidualState {
    /// Fresh state: all residuals zero, cursor at leg 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the leg cursor: the next encode reuses leg slot 0 (and
    /// therefore sees the residual that slot accumulated last
    /// iteration). Residual *values* are untouched — that is the whole
    /// point of error feedback.
    pub fn begin_iteration(&mut self) {
        self.cursor = 0;
    }

    /// Number of leg slots materialized so far.
    pub fn legs(&self) -> usize {
        self.legs.len()
    }

    /// A leg slot's residual vector, if that slot exists.
    pub fn residual(&self, leg: usize) -> Option<&[f32]> {
        self.legs.get(leg).map(|v| v.as_slice())
    }

    /// The next leg slot, sized to `len` (a changed gradient length
    /// restarts that slot's residual from zero).
    fn next_leg(&mut self, len: usize) -> &mut Vec<f32> {
        if self.cursor == self.legs.len() {
            self.legs.push(Vec::with_capacity(len));
        }
        let slot = &mut self.legs[self.cursor];
        self.cursor += 1;
        if slot.len() != len {
            slot.clear();
            slot.resize(len, 0.0);
        }
        slot
    }
}

/// The sparsifying codec: pure configuration, no interior state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparseCodec {
    config: SparseConfig,
}

impl SparseCodec {
    /// Creates a codec from its configuration.
    pub fn new(config: SparseConfig) -> Self {
        SparseCodec { config }
    }

    /// The configuration.
    pub fn config(&self) -> SparseConfig {
        self.config
    }

    /// Worst-case frame size for a block of `len` values.
    pub fn max_wire_bytes(len: usize) -> usize {
        FRAME_HEADER_BYTES + len * PAIR_BYTES
    }

    /// `k` for a block of `len` values in top-k mode, `None` in
    /// threshold mode.
    fn top_k(&self, len: usize) -> Option<usize> {
        (self.config.top_per_mille > 0).then(|| {
            (len * usize::from(self.config.top_per_mille))
                .div_ceil(1000)
                .max(1)
        })
    }

    /// The top-k order over candidates `(index, value)`: larger
    /// magnitude first, equal magnitudes by the seeded tie key.
    fn top_k_order(&self, rank: u64, (ia, va): (u32, f32), (ib, vb): (u32, f32)) -> Ordering {
        let seed = self.config.seed;
        vb.abs()
            .total_cmp(&va.abs())
            .then_with(|| tie_key(seed, rank, ia).cmp(&tie_key(seed, rank, ib)))
    }

    /// Encodes one gradient leg at `rank`, appending the frame to
    /// `out`; returns the appended byte count. Advances `state` to the
    /// next leg slot and updates its residual. Allocates nothing beyond
    /// growing `out`.
    pub fn encode_append(
        &self,
        rank: u64,
        state: &mut ResidualState,
        values: &[f32],
        out: &mut Vec<u8>,
    ) -> usize {
        let before = out.len();
        let leg = state.next_leg(values.len());
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        // nnz is patched after selection.
        let nnz_at = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        let pairs_at = out.len();
        let tau = self.config.bound.value();
        let mut nnz = select_into(tau, leg, values, out);
        if let Some(k) = self.top_k(values.len()).filter(|&k| nnz > k) {
            // The candidates are already on the wire in index order and
            // out of the residual; keep the k first in the top-k order,
            // bank the rest back, and restore index order.
            let (pairs, _) = out[pairs_at..].as_chunks_mut::<PAIR_BYTES>();
            pairs
                .select_nth_unstable_by(k - 1, |a, b| self.top_k_order(rank, unpack(a), unpack(b)));
            let (kept, dropped) = pairs.split_at_mut(k);
            for pair in dropped.iter() {
                let (i, v) = unpack(pair);
                leg[i as usize] = v;
            }
            kept.sort_unstable_by_key(|pair| unpack(pair).0);
            out.truncate(pairs_at + k * PAIR_BYTES);
            nnz = k;
        }
        out[nnz_at..nnz_at + 4].copy_from_slice(&(nnz as u32).to_le_bytes());
        out.len() - before
    }

    /// The wire round trip applied in place: `values` becomes exactly
    /// what [`decode_frame`] would reconstruct from
    /// [`encode_append`](Self::encode_append)'s frame, with the same
    /// state advance — the in-process fabrics' shortcut. Threshold mode
    /// allocates nothing; top-k mode collects its candidate indices.
    pub fn apply(&self, rank: u64, state: &mut ResidualState, values: &mut [f32]) {
        let leg = state.next_leg(values.len());
        let tau = self.config.bound.value();
        let Some(k) = self.top_k(values.len()) else {
            for (leg, values) in leg.chunks_mut(BLOCK).zip(values.chunks_mut(BLOCK)) {
                let mask = fold_block(tau, leg, values);
                for (j, (r, v)) in leg.iter_mut().zip(values.iter_mut()).enumerate() {
                    let sent = mask >> j & 1 != 0;
                    *v = if sent { *r } else { 0.0 };
                    *r = if sent { 0.0 } else { *r };
                }
            }
            return;
        };
        let mut picks = Vec::with_capacity(values.len());
        for (b, (leg, values)) in leg.chunks_mut(BLOCK).zip(values.chunks(BLOCK)).enumerate() {
            let mut mask = fold_block(tau, leg, values);
            while mask != 0 {
                picks.push((b * BLOCK) as u32 + mask.trailing_zeros());
                mask &= mask - 1;
            }
        }
        if picks.len() > k {
            picks.select_nth_unstable_by(k - 1, |&a, &b| {
                self.top_k_order(rank, (a, leg[a as usize]), (b, leg[b as usize]))
            });
            picks.truncate(k);
            picks.sort_unstable();
        }
        values.fill(0.0);
        for &i in &picks {
            values[i as usize] = leg[i as usize];
            leg[i as usize] = 0.0;
        }
    }
}

/// Values per selection block: one block's fold and compare build one
/// `u64` mask.
const BLOCK: usize = 64;

/// The one selection rule, for a block of at most [`BLOCK`] values:
/// folds `values` into the leg residual (`r = leg[j] + v`) and returns
/// the mask of slots with `|r| > tau`, bit `j` for slot `j`. The compare
/// is strict: exact zeros, values at `±tau` and NaNs never transmit, so
/// wire values are always nonzero and the switch's skip-the-zeros fold
/// is bit-identical to a dense add.
///
/// Branch-free, so it vectorizes: the compares land as 0/1 bytes, and
/// one multiply gathers each 8 of them into a mask byte (the `b`-th
/// byte's low bit lands at bit `56 + b`, and no carry reaches there).
#[inline(always)]
fn fold_block(tau: f32, leg: &mut [f32], values: &[f32]) -> u64 {
    let mut sent = [0u8; BLOCK];
    for ((r, &v), s) in leg.iter_mut().zip(values).zip(&mut sent) {
        *r += v;
        *s = u8::from(r.abs() > tau);
    }
    let (bytes, _) = sent.as_chunks::<8>();
    bytes.iter().enumerate().fold(0, |mask, (g, &b)| {
        mask | (u64::from_le_bytes(b).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g)
    })
}

/// Threshold selection written straight into the frame: per block, the
/// fold and compare of [`fold_block`], then a walk over the mask's set
/// bits that appends each `(index, value)` pair to `out` (grown once per
/// block) and zeroes that residual slot. Returns the pair count.
fn select_into(tau: f32, leg: &mut [f32], values: &[f32], out: &mut Vec<u8>) -> usize {
    let mut nnz = 0;
    for (b, (leg, values)) in leg.chunks_mut(BLOCK).zip(values.chunks(BLOCK)).enumerate() {
        let mut mask = fold_block(tau, leg, values);
        let at = out.len();
        let count = mask.count_ones() as usize;
        out.resize(at + count * PAIR_BYTES, 0);
        let (pairs, _) = out[at..].as_chunks_mut::<PAIR_BYTES>();
        for pair in pairs {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            *pair = pack((b * BLOCK + j) as u32, leg[j]);
            leg[j] = 0.0;
        }
        nnz += count;
    }
    nnz
}

/// One wire pair: `[index: u32][value: f32]`, little-endian.
#[inline]
fn pack(index: u32, value: f32) -> [u8; PAIR_BYTES] {
    (u64::from(index) | u64::from(value.to_bits()) << 32).to_le_bytes()
}

/// The `(index, value)` of one wire pair.
#[inline]
fn unpack(pair: &[u8; PAIR_BYTES]) -> (u32, f32) {
    let word = u64::from_le_bytes(*pair);
    (word as u32, f32::from_bits((word >> 32) as u32))
}

/// Decodes a sparse frame into `out` (zero-filled then scattered).
///
/// # Errors
///
/// Returns [`DecodeError`] if the frame is truncated, its length does
/// not match `out.len()`, or its indices are not strictly ascending
/// and in range — the canonical-layout checks that make corruption
/// surface as a typed decode failure rather than silent drift.
pub fn decode_frame(bytes: &[u8], out: &mut [f32]) -> Result<(), DecodeError> {
    let fail = |at_value: usize| DecodeError {
        at_value,
        bit_offset: 0,
        tag: None,
    };
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(fail(0));
    }
    let n = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let nnz = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if n != out.len() || nnz > n || bytes.len() != FRAME_HEADER_BYTES + nnz * PAIR_BYTES {
        return Err(fail(0));
    }
    out.fill(0.0);
    let mut prev: Option<u32> = None;
    for (pair, chunk) in bytes[FRAME_HEADER_BYTES..]
        .chunks_exact(PAIR_BYTES)
        .enumerate()
    {
        let idx = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        if idx as usize >= n || prev.is_some_and(|p| p >= idx) {
            return Err(fail(pair));
        }
        out[idx as usize] = f32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        prev = Some(idx);
    }
    Ok(())
}

/// Streams a sparse frame's `(index, value)` pairs into a fold
/// callback without materializing the dense block — the switch
/// reduce-unit entry point. Returns the entry count folded.
///
/// # Errors
///
/// Same canonical-layout checks as [`decode_frame`], with `len` as the
/// expected block length.
pub fn fold_frame(
    bytes: &[u8],
    len: usize,
    mut fold: impl FnMut(usize, f32),
) -> Result<usize, DecodeError> {
    let fail = |at_value: usize| DecodeError {
        at_value,
        bit_offset: 0,
        tag: None,
    };
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(fail(0));
    }
    let n = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let nnz = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if n != len || nnz > n || bytes.len() != FRAME_HEADER_BYTES + nnz * PAIR_BYTES {
        return Err(fail(0));
    }
    let mut prev: Option<u32> = None;
    for (pair, chunk) in bytes[FRAME_HEADER_BYTES..]
        .chunks_exact(PAIR_BYTES)
        .enumerate()
    {
        let idx = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        if idx as usize >= n || prev.is_some_and(|p| p >= idx) {
            return Err(fail(pair));
        }
        fold(
            idx as usize,
            f32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]),
        );
        prev = Some(idx);
    }
    Ok(nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass encoder the fused kernel replaced, kept as the
    /// oracle [`SparseCodec::encode_append`] and [`SparseCodec::apply`]
    /// must match bit for bit: fold the whole leg, collect every
    /// transmit index (top-k cuts them with `select_nth_unstable_by`),
    /// then write the pairs and zero their residual slots.
    fn reference_encode_append(
        codec: &SparseCodec,
        rank: u64,
        state: &mut ResidualState,
        values: &[f32],
        out: &mut Vec<u8>,
    ) -> usize {
        let before = out.len();
        let leg = state.next_leg(values.len());
        for (r, &v) in leg.iter_mut().zip(values) {
            *r += v;
        }
        let tau = codec.config.bound.value();
        let mut picks: Vec<u32> = (0..leg.len() as u32)
            .filter(|&i| leg[i as usize].abs() > tau)
            .collect();
        if codec.config.top_per_mille > 0 {
            let k = (leg.len() * usize::from(codec.config.top_per_mille))
                .div_ceil(1000)
                .max(1);
            if picks.len() > k {
                let seed = codec.config.seed;
                picks.select_nth_unstable_by(k - 1, |&a, &b| {
                    let ma = leg[a as usize].abs();
                    let mb = leg[b as usize].abs();
                    mb.total_cmp(&ma)
                        .then_with(|| tie_key(seed, rank, a).cmp(&tie_key(seed, rank, b)))
                });
                picks.truncate(k);
                picks.sort_unstable();
            }
        }
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        out.extend_from_slice(&(picks.len() as u32).to_le_bytes());
        for &i in &picks {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&leg[i as usize].to_le_bytes());
            leg[i as usize] = 0.0;
        }
        out.len() - before
    }

    /// Every residual bit of every leg slot (`PartialEq` on `f32` would
    /// equate ±0 and fail on NaN).
    fn residual_bits(state: &ResidualState) -> Vec<Vec<u32>> {
        (0..state.legs())
            .map(|l| {
                state
                    .residual(l)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    /// Runs `rounds` iterations of `values` (scaled per round, in legs
    /// of `chunk` values) through the fused encoder, the oracle and
    /// `apply`, and asserts identical frames, decoded images and
    /// residual bits after every leg.
    fn assert_matches_reference(
        codec: &SparseCodec,
        rank: u64,
        values: &[f32],
        chunk: usize,
        rounds: usize,
    ) -> Result<(), TestCaseError> {
        let mut fused = ResidualState::new();
        let mut oracle = ResidualState::new();
        let mut applied = ResidualState::new();
        for round in 0..rounds {
            fused.begin_iteration();
            oracle.begin_iteration();
            applied.begin_iteration();
            let scaled: Vec<f32> = values.iter().map(|&v| v * (1.0 + round as f32)).collect();
            let legs: Vec<&[f32]> = if scaled.is_empty() {
                vec![&scaled[..]]
            } else {
                scaled.chunks(chunk).collect()
            };
            for leg in legs {
                // A non-empty prefix: encode_append appends, never
                // overwrites.
                let mut got = vec![0xAB];
                let got_len = codec.encode_append(rank, &mut fused, leg, &mut got);
                let mut want = vec![0xAB];
                let want_len = reference_encode_append(codec, rank, &mut oracle, leg, &mut want);
                prop_assert_eq!(got_len, want_len);
                prop_assert_eq!(&got, &want);
                let mut decoded = vec![f32::NAN; leg.len()];
                decode_frame(&want[1..], &mut decoded).expect("well-formed frame");
                let mut image = leg.to_vec();
                codec.apply(rank, &mut applied, &mut image);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&image), bits(&decoded));
                prop_assert_eq!(residual_bits(&fused), residual_bits(&oracle));
                prop_assert_eq!(residual_bits(&applied), residual_bits(&oracle));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_encoder_is_byte_identical_to_the_two_pass_reference(
            raw in proptest::collection::vec((0u8..12, any::<u32>(), -4096i32..4096), 1..300),
            shape in 0usize..6,
            density in 0u32..=100,
            exponent in 1u8..=12,
            top_k in any::<bool>(),
            top_per_mille in 1u16..=1000,
            chunk in 1usize..200,
            rank in 0u64..8,
        ) {
            let tau = ErrorBound::pow2(exponent).value();
            let len = [0, 1, 63, 64, 65, raw.len()][shape];
            let values: Vec<f32> = (0..len)
                .map(|i| {
                    let (kind, bits, k) = raw[i % raw.len()];
                    let sign = if k < 0 { -1.0 } else { 1.0 };
                    if bits % 100 >= density {
                        // Below the threshold on its own; residuals
                        // may still carry it over in a later round.
                        return k as f32 * tau / 8192.0;
                    }
                    match kind {
                        // Exactly at the threshold: never sent alone.
                        0 => sign * tau,
                        1 => sign * 0.0,
                        2 => f32::from_bits(0x7FC0_0000 | (bits & 0x803F_FFFF)),
                        3 => sign * f32::INFINITY,
                        // A subnormal of either sign.
                        4 => f32::from_bits((bits & 0x807F_FFFF) | 1),
                        5 => f32::from_bits(bits),
                        // Equal magnitudes: top-k ties at the cut.
                        6 | 7 => sign * 0.5,
                        _ => k as f32 * tau / 1024.0,
                    }
                })
                .collect();
            let codec = SparseCodec::new(SparseConfig {
                bound: ErrorBound::pow2(exponent),
                top_per_mille: if top_k { top_per_mille } else { 0 },
                seed: 0xD15C_0DEC,
            });
            // A third of the cases encode the block as one leg.
            let chunk = if chunk % 3 == 0 { len } else { chunk };
            assert_matches_reference(&codec, rank, &values, chunk, 3)?;
        }
    }

    fn codec(exponent: u8, top_per_mille: u16) -> SparseCodec {
        SparseCodec::new(SparseConfig {
            bound: ErrorBound::pow2(exponent),
            top_per_mille,
            seed: 0xD15C_0DEC,
        })
    }

    fn roundtrip(codec: &SparseCodec, state: &mut ResidualState, values: &[f32]) -> Vec<f32> {
        let mut frame = Vec::new();
        codec.encode_append(7, state, values, &mut frame);
        let mut out = vec![0.0f32; values.len()];
        decode_frame(&frame, &mut out).expect("well-formed frame");
        out
    }

    #[test]
    fn threshold_keeps_large_entries_exactly_and_banks_the_rest() {
        let codec = codec(4, 0); // tau = 2^-4 = 0.0625
        let mut state = ResidualState::new();
        let values = [0.5f32, 0.01, -0.25, 0.0, 0.03];
        let out = roundtrip(&codec, &mut state, &values);
        assert_eq!(out, [0.5, 0.0, -0.25, 0.0, 0.0]);
        let residual = state.residual(0).unwrap();
        assert_eq!(residual, [0.0, 0.01, 0.0, 0.0, 0.03]);
    }

    #[test]
    fn error_feedback_flushes_banked_mass_once_it_crosses_the_threshold() {
        let codec = codec(4, 0);
        let mut state = ResidualState::new();
        // 0.04 < tau alone, but two iterations accumulate to 0.08 > tau.
        let first = roundtrip(&codec, &mut state, &[0.04f32]);
        assert_eq!(first, [0.0]);
        state.begin_iteration();
        let second = roundtrip(&codec, &mut state, &[0.04f32]);
        assert_eq!(second, [0.08]);
        assert_eq!(state.residual(0).unwrap(), [0.0]);
    }

    #[test]
    fn top_k_caps_the_transmit_set_at_per_mille_of_the_block() {
        let codec = codec(10, 250); // k = ceil(8 * 250 / 1000) = 2
        let mut state = ResidualState::new();
        let values = [0.9f32, 0.1, 0.2, 0.8, 0.3, 0.4, 0.5, 0.6];
        let out = roundtrip(&codec, &mut state, &values);
        assert_eq!(out, [0.9, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0]);
        let banked: f32 = state.residual(0).unwrap().iter().sum();
        assert!((banked - (0.1 + 0.2 + 0.3 + 0.4 + 0.5 + 0.6)).abs() < 1e-6);
    }

    #[test]
    fn tie_break_is_deterministic_and_rank_keyed() {
        let codec = codec(10, 250); // k = 1 on a 4-block
        let values = [0.5f32, 0.5, 0.5, 0.5];
        let pick = |rank: u64| {
            let mut state = ResidualState::new();
            let mut frame = Vec::new();
            codec.encode_append(rank, &mut state, &values, &mut frame);
            let mut out = vec![0.0f32; 4];
            decode_frame(&frame, &mut out).unwrap();
            out.iter().position(|&v| v != 0.0).unwrap()
        };
        assert_eq!(pick(3), pick(3), "same rank must replay identically");
        let distinct: std::collections::BTreeSet<usize> = (0..16).map(pick).collect();
        assert!(distinct.len() > 1, "ranks should not all agree on ties");
    }

    #[test]
    fn apply_matches_the_wire_roundtrip_bit_for_bit() {
        // Top-k on one whole block, and threshold on a ragged last block.
        for (codec, len) in [(codec(6, 125), 64), (codec(6, 0), 100)] {
            let mut wire_state = ResidualState::new();
            let mut apply_state = ResidualState::new();
            let mut h = 0x5EED_u64;
            for _ in 0..4 {
                wire_state.begin_iteration();
                apply_state.begin_iteration();
                let values: Vec<f32> = (0..len)
                    .map(|_| {
                        h = splitmix64(h);
                        (h as f64 / u64::MAX as f64) as f32 - 0.5
                    })
                    .collect();
                let wire = roundtrip(&codec, &mut wire_state, &values);
                let mut applied = values.clone();
                codec.apply(7, &mut apply_state, &mut applied);
                let wire_bits: Vec<u32> = wire.iter().map(|v| v.to_bits()).collect();
                let applied_bits: Vec<u32> = applied.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wire_bits, applied_bits);
                assert_eq!(wire_state, apply_state);
            }
        }
    }

    #[test]
    fn chunked_threshold_encoding_matches_the_whole_block() {
        let codec = codec(5, 0);
        let values: Vec<f32> = (0..96)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) / 64.0)
            .collect();
        let mut whole_state = ResidualState::new();
        let mut whole = values.clone();
        codec.apply(2, &mut whole_state, &mut whole);
        let mut chunk_state = ResidualState::new();
        let mut chunked = values.clone();
        for piece in chunked.chunks_mut(32) {
            codec.apply(2, &mut chunk_state, piece);
        }
        assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn decode_rejects_truncation_bad_length_and_disorder() {
        let codec = codec(8, 0);
        let mut state = ResidualState::new();
        let mut frame = Vec::new();
        codec.encode_append(0, &mut state, &[1.0f32, -1.0, 0.5], &mut frame);
        let mut out = vec![0.0f32; 3];
        assert!(decode_frame(&frame[..frame.len() - 1], &mut out).is_err());
        assert!(decode_frame(&frame, &mut out[..2].to_vec()).is_err());
        let mut disordered = frame.clone();
        // Swap the first two pairs' index bytes to break ascending order.
        disordered.swap(8, 16);
        assert!(decode_frame(&disordered, &mut out).is_err());
        assert!(decode_frame(&frame, &mut out).is_ok());
    }

    #[test]
    fn fold_frame_streams_the_same_pairs_decode_scatters() {
        let codec = codec(6, 0);
        let mut state = ResidualState::new();
        let values = [0.5f32, -0.25, 0.01, 0.75];
        let mut frame = Vec::new();
        codec.encode_append(1, &mut state, &values, &mut frame);
        let mut dense = vec![0.0f32; 4];
        decode_frame(&frame, &mut dense).unwrap();
        let mut folded = vec![0.0f32; 4];
        let nnz = fold_frame(&frame, 4, |i, v| folded[i] += v).unwrap();
        assert_eq!(nnz, 3);
        assert_eq!(dense, folded);
    }
}
