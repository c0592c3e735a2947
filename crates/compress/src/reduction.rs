//! Related-work gradient-reduction baselines (paper Sec. IX).
//!
//! The paper positions INCEPTIONN against the algorithmic families of
//! gradient traffic reduction; all of them are implemented here so the
//! reproduction can compare against them directly:
//!
//! * **1-bit SGD** (Seide et al., INTERSPEECH'14) — sign quantization
//!   with per-column scale and *error feedback* (the quantization
//!   residual is added to the next iteration's gradient);
//! * **TernGrad** (Wen et al., NIPS'17) — stochastic ternarization to
//!   `{-s, 0, +s}` with `s = max|g|`;
//! * **QSGD** (Alistarh et al., NIPS'17 — the paper's citation \[27\]) —
//!   stochastic uniform quantization against per-chunk L2 norms;
//! * **Deep Gradient Compression**-style top-k sparsification (Lin et
//!   al., ICLR'18) — only the largest-magnitude fraction of gradients is
//!   transmitted (index + value), the rest accumulates locally.
//!
//! Unlike the INCEPTIONN codec these are *stateful training-algorithm
//! changes*, not transparent wire codecs: they carry residual state
//! across iterations and (for top-k) change sparsity patterns — which is
//! exactly the paper's argument for a stateless in-network codec.

use rand::Rng;

use crate::bitio::BitReader;
use crate::inceptionn::{
    CompressedStream, CompressedValue, DecodeError, InceptionnCodec, Tag, LANES_PER_BURST,
};

/// The transmitted form of one reduced gradient vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedGradient {
    /// The dense gradient the receiver reconstructs (what actually
    /// enters the weight update).
    pub dense: Vec<f32>,
    /// On-wire size in bits.
    pub wire_bits: u64,
}

impl ReducedGradient {
    /// Achieved compression ratio vs raw `f32` transmission.
    pub fn compression_ratio(&self) -> f64 {
        if self.dense.is_empty() {
            1.0
        } else {
            (self.dense.len() as f64 * 32.0) / self.wire_bits.max(1) as f64
        }
    }
}

/// A stateful gradient-reduction strategy applied at the sender each
/// iteration.
pub trait GradientReduction: Send {
    /// Reduces one gradient vector, updating internal residual state.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grads.len()` changes between calls.
    fn reduce(&mut self, grads: &[f32]) -> ReducedGradient;

    /// Short display name.
    fn name(&self) -> &'static str;
}

/// 1-bit SGD: transmit `sign(g + r)` plus two scale factors; keep the
/// residual `r` locally.
#[derive(Debug, Clone, Default)]
pub struct OneBitSgd {
    residual: Vec<f32>,
}

impl OneBitSgd {
    /// Creates the reducer (residual initialized lazily on first call).
    pub fn new() -> Self {
        Self::default()
    }
}

impl GradientReduction for OneBitSgd {
    fn reduce(&mut self, grads: &[f32]) -> ReducedGradient {
        if self.residual.is_empty() {
            self.residual = vec![0.0; grads.len()];
        }
        assert_eq!(grads.len(), self.residual.len(), "gradient length changed");
        // Error-feedback corrected gradient.
        let corrected: Vec<f32> = grads
            .iter()
            .zip(&self.residual)
            .map(|(g, r)| g + r)
            .collect();
        // Per-sign mean magnitudes reconstruct an unbiased-ish estimate.
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0f64, 0u64, 0f64, 0u64);
        for &v in &corrected {
            if v >= 0.0 {
                pos_sum += f64::from(v);
                pos_n += 1;
            } else {
                neg_sum += f64::from(v);
                neg_n += 1;
            }
        }
        let pos_scale = if pos_n > 0 {
            (pos_sum / pos_n as f64) as f32
        } else {
            0.0
        };
        let neg_scale = if neg_n > 0 {
            (neg_sum / neg_n as f64) as f32
        } else {
            0.0
        };
        let dense: Vec<f32> = corrected
            .iter()
            .map(|&v| if v >= 0.0 { pos_scale } else { neg_scale })
            .collect();
        for ((r, &c), &d) in self.residual.iter_mut().zip(&corrected).zip(&dense) {
            *r = c - d;
        }
        ReducedGradient {
            wire_bits: grads.len() as u64 + 64,
            dense,
        }
    }

    fn name(&self) -> &'static str {
        "1-bit SGD"
    }
}

/// TernGrad: stochastic ternarization to `{-s, 0, +s}` with the scaler
/// `s = max|g|` computed per chunk (the published method scales per
/// layer; a fixed chunk stands in for layer boundaries on flat
/// gradient vectors).
#[derive(Debug, Clone)]
pub struct TernGrad<R: Rng> {
    rng: R,
    chunk: usize,
}

impl<R: Rng> TernGrad<R> {
    /// Creates the reducer with the given randomness source and the
    /// default 1024-value scaling chunk.
    pub fn new(rng: R) -> Self {
        TernGrad { rng, chunk: 1024 }
    }

    /// Creates the reducer with an explicit scaling-chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_chunk(rng: R, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        TernGrad { rng, chunk }
    }
}

impl<R: Rng + Send> GradientReduction for TernGrad<R> {
    fn reduce(&mut self, grads: &[f32]) -> ReducedGradient {
        let mut dense = Vec::with_capacity(grads.len());
        let mut chunks = 0u64;
        for block in grads.chunks(self.chunk) {
            chunks += 1;
            let s = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if s == 0.0 {
                dense.extend(std::iter::repeat_n(0.0f32, block.len()));
                continue;
            }
            for &g in block {
                let p = f64::from(g.abs() / s);
                if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    dense.push(s * g.signum());
                } else {
                    dense.push(0.0);
                }
            }
        }
        ReducedGradient {
            // 2 bits per ternary value plus a 32-bit scaler per chunk.
            wire_bits: 2 * grads.len() as u64 + 32 * chunks,
            dense,
        }
    }

    fn name(&self) -> &'static str {
        "TernGrad"
    }
}

/// Deep-Gradient-Compression-style top-k sparsification with local
/// accumulation: only the largest `keep_fraction` of `|g + r|` is sent.
#[derive(Debug, Clone)]
pub struct TopK {
    keep_fraction: f64,
    residual: Vec<f32>,
}

impl TopK {
    /// Creates the reducer keeping `keep_fraction` of coordinates.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_fraction <= 1`.
    pub fn new(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction {keep_fraction} outside (0, 1]"
        );
        TopK {
            keep_fraction,
            residual: Vec::new(),
        }
    }
}

impl GradientReduction for TopK {
    fn reduce(&mut self, grads: &[f32]) -> ReducedGradient {
        if self.residual.is_empty() {
            self.residual = vec![0.0; grads.len()];
        }
        assert_eq!(grads.len(), self.residual.len(), "gradient length changed");
        let corrected: Vec<f32> = grads
            .iter()
            .zip(&self.residual)
            .map(|(g, r)| g + r)
            .collect();
        let keep =
            ((grads.len() as f64 * self.keep_fraction).ceil() as usize).clamp(1, grads.len());
        // Threshold selection via a partial sort of magnitudes.
        let mut order: Vec<usize> = (0..corrected.len()).collect();
        order.select_nth_unstable_by(keep - 1, |&a, &b| {
            corrected[b]
                .abs()
                .partial_cmp(&corrected[a].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut dense = vec![0.0f32; corrected.len()];
        for &i in &order[..keep] {
            dense[i] = corrected[i];
        }
        for ((r, &c), &d) in self.residual.iter_mut().zip(&corrected).zip(&dense) {
            *r = c - d;
        }
        ReducedGradient {
            // Index (32b) + value (32b) per kept coordinate.
            wire_bits: 64 * keep as u64,
            dense,
        }
    }

    fn name(&self) -> &'static str {
        "top-k (DGC)"
    }
}

/// QSGD (Alistarh et al., NIPS'17 — the paper's citation \[27\]):
/// stochastic uniform quantization to `s` levels per chunk-norm,
/// `Q(g) = ‖g‖₂ · sign(g) · ξ(g, s)` with `ξ` the stochastically rounded
/// level. Wire cost modeled as the dense code (sign + level per value
/// plus the chunk norm); QSGD's Elias coding would shrink sparse level
/// vectors further, which only strengthens the baseline's ratio.
#[derive(Debug, Clone)]
pub struct Qsgd<R: Rng> {
    rng: R,
    /// Quantization levels `s` (codes 0..=s).
    levels: u32,
    /// Values per norm chunk.
    chunk: usize,
}

impl<R: Rng> Qsgd<R> {
    /// Creates QSGD with `levels` quantization levels and a 1024-value
    /// norm chunk.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(rng: R, levels: u32) -> Self {
        assert!(levels > 0, "at least one quantization level required");
        Qsgd {
            rng,
            levels,
            chunk: 1024,
        }
    }

    /// Bits per transmitted value (sign + ceil(log2(levels + 1))).
    fn bits_per_value(&self) -> u64 {
        1 + (u64::from(self.levels) + 1)
            .next_power_of_two()
            .trailing_zeros() as u64
    }
}

impl<R: Rng + Send> GradientReduction for Qsgd<R> {
    fn reduce(&mut self, grads: &[f32]) -> ReducedGradient {
        let s = self.levels as f64;
        let mut dense = Vec::with_capacity(grads.len());
        let mut chunks = 0u64;
        for block in grads.chunks(self.chunk) {
            chunks += 1;
            let norm = block
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
            if norm == 0.0 {
                dense.extend(std::iter::repeat_n(0.0f32, block.len()));
                continue;
            }
            for &g in block {
                // Position in [0, s]; stochastic rounding between levels.
                let pos = f64::from(g.abs()) / norm * s;
                let floor = pos.floor();
                let level = if self.rng.gen_bool((pos - floor).clamp(0.0, 1.0)) {
                    floor + 1.0
                } else {
                    floor
                };
                dense.push((norm * level / s) as f32 * g.signum());
            }
        }
        ReducedGradient {
            wire_bits: self.bits_per_value() * grads.len() as u64 + 32 * chunks,
            dense,
        }
    }

    fn name(&self) -> &'static str {
        "QSGD"
    }
}

/// Streams one INCEPTIONN-compressed gradient into an accumulator
/// without materializing the decoded vector: the reduction-friendly
/// codec hook behind switch-resident in-network aggregation (NetReduce;
/// Li et al. 2024's homomorphic-compression argument).
///
/// A switch reduce unit holds the running sum and walks arriving
/// compressed payloads value by value — 16 tag bits per 8-lane group,
/// then each lane's variable-width payload — adding each decoded `f32`
/// in stream order. Because the fold is a plain `f32` add in arrival
/// order, folding workers 0..n at the switch is bit-identical to the
/// host-side gather fold over the same round-tripped values, which is
/// what lets the trainer swap the aggregator out for the switch without
/// perturbing training.
///
/// `stream` is the wire form ([`CompressedStream`]); `acc` must have
/// exactly `stream.len` elements.
///
/// # Errors
///
/// Returns the same [`DecodeError`]s as
/// [`InceptionnCodec::decompress`] on truncated or corrupt payloads.
///
/// # Panics
///
/// Panics if `acc.len() != stream.len`.
pub fn fold_compressed_into(
    codec: &InceptionnCodec,
    acc: &mut [f32],
    stream: &CompressedStream,
) -> Result<(), DecodeError> {
    assert_eq!(
        acc.len(),
        stream.len,
        "accumulator shape must match the stream"
    );
    let mut r = BitReader::new(&stream.bytes);
    let mut at = 0usize;
    while at < stream.len {
        let group = (stream.len - at).min(LANES_PER_BURST);
        let tags = r
            .read_bits(16)
            .ok_or_else(|| DecodeError::at_tags(at, r.bit_pos()))?;
        let mut lane_tags = [Tag::Zero; LANES_PER_BURST];
        for (lane, t) in lane_tags.iter_mut().enumerate() {
            *t = Tag::from_bits((tags >> (2 * lane)) as u8);
        }
        for &tag in lane_tags.iter().take(group) {
            let payload = r
                .read_bits(tag.payload_bits())
                .ok_or_else(|| DecodeError::at_payload(at, r.bit_pos(), tag))?;
            acc[at] += codec.decompress_value(CompressedValue { tag, payload });
            at += 1;
        }
        // Padded lanes of a final partial group consume their (empty in
        // well-formed streams) payload bits, exactly as in decompress.
        for &tag in lane_tags.iter().skip(group) {
            r.read_bits(tag.payload_bits())
                .ok_or_else(|| DecodeError::at_payload(at, r.bit_pos(), tag))?;
        }
    }
    Ok(())
}

/// [`fold_compressed_into`] over a raw payload (`bytes` + value count),
/// the form a switch port actually receives: packet payload bytes and
/// the header's value-count field, no [`CompressedStream`] envelope.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt payloads.
///
/// # Panics
///
/// Panics if `acc.len() != values`.
pub fn fold_compressed_payload_into(
    codec: &InceptionnCodec,
    acc: &mut [f32],
    bytes: &[u8],
    values: usize,
) -> Result<(), DecodeError> {
    let stream = CompressedStream {
        len: values,
        bit_len: bytes.len() * 8,
        bytes: bytes.to_vec(),
    };
    fold_compressed_into(codec, acc, &stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grads(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect()
    }

    #[test]
    fn one_bit_ratio_and_error_feedback() {
        let mut r = OneBitSgd::new();
        let g = grads(1, 10_000);
        let out = r.reduce(&g);
        assert!(
            out.compression_ratio() > 30.0,
            "{}",
            out.compression_ratio()
        );
        // Error feedback: residual + transmitted == corrected gradient,
        // so over two steps the total transmitted approaches the total
        // gradient (the bias cancels).
        let out2 = r.reduce(&g);
        let sum_sent: f64 = out
            .dense
            .iter()
            .zip(&out2.dense)
            .map(|(a, b)| f64::from(a + b))
            .sum();
        let sum_true: f64 = g.iter().map(|&v| 2.0 * f64::from(v)).sum();
        assert!(
            (sum_sent - sum_true).abs() < 0.02 * sum_true.abs().max(1.0),
            "{sum_sent} vs {sum_true}"
        );
    }

    #[test]
    fn one_bit_signs_match() {
        let mut r = OneBitSgd::new();
        let g = vec![0.5f32, -0.3, 0.1, -0.9];
        let out = r.reduce(&g);
        for (a, b) in g.iter().zip(&out.dense) {
            assert!(a.signum() == b.signum() || *b == 0.0);
        }
    }

    #[test]
    fn terngrad_is_unbiased_in_expectation() {
        let mut r = TernGrad::new(StdRng::seed_from_u64(3));
        let g = vec![0.05f32; 50_000];
        let out = r.reduce(&g);
        let mean: f64 =
            out.dense.iter().map(|&v| f64::from(v)).sum::<f64>() / out.dense.len() as f64;
        assert!((mean - 0.05).abs() < 0.005, "mean {mean}");
        // Values are exactly ternary.
        let s = 0.05f32;
        assert!(out.dense.iter().all(|&v| v == 0.0 || v == s || v == -s));
        assert!((out.compression_ratio() - 16.0).abs() < 0.5);
    }

    #[test]
    fn terngrad_scales_per_chunk() {
        // One huge outlier must not inflate the scaler of other chunks.
        let mut r = TernGrad::with_chunk(StdRng::seed_from_u64(6), 4);
        let mut g = vec![0.01f32; 8];
        g[0] = 100.0;
        let out = r.reduce(&g);
        // Second chunk's nonzero values use its own max (0.01), not 100.
        for &v in &out.dense[4..] {
            assert!(v == 0.0 || v.abs() == 0.01, "{v}");
        }
    }

    #[test]
    fn terngrad_zero_vector() {
        let mut r = TernGrad::new(StdRng::seed_from_u64(4));
        let out = r.reduce(&[0.0f32; 8]);
        assert_eq!(out.dense, vec![0.0; 8]);
    }

    #[test]
    fn topk_keeps_only_largest_until_residual_flushes() {
        let mut r = TopK::new(0.25);
        let g = vec![0.9f32, 0.01, -0.5, 0.02];
        let out = r.reduce(&g);
        // One of four kept: the 0.9.
        assert_eq!(out.dense.iter().filter(|&&v| v != 0.0).count(), 1);
        assert_eq!(out.dense[0], 0.9);
        // Accumulated small coordinates eventually transmit.
        let mut seen_third = false;
        for _ in 0..60 {
            let out = r.reduce(&g);
            if out.dense[2] != 0.0 {
                seen_third = true;
                break;
            }
        }
        assert!(seen_third, "residual accumulation never flushed index 2");
    }

    #[test]
    fn topk_ratio_scales_inversely_with_fraction() {
        let g = grads(5, 10_000);
        let r1 = TopK::new(0.01).reduce(&g).compression_ratio();
        let r10 = TopK::new(0.10).reduce(&g).compression_ratio();
        assert!(r1 > 45.0, "{r1}");
        assert!((r1 / r10 - 10.0).abs() < 1.0, "{r1} vs {r10}");
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn topk_rejects_zero_fraction() {
        TopK::new(0.0);
    }

    #[test]
    fn qsgd_is_unbiased_in_expectation() {
        let mut r = Qsgd::new(StdRng::seed_from_u64(8), 4);
        let g = vec![0.02f32; 20_000];
        let out = r.reduce(&g);
        let mean: f64 =
            out.dense.iter().map(|&v| f64::from(v)).sum::<f64>() / out.dense.len() as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean {mean}");
        // Each chunk's nonzero values are multiples of norm/s.
        let norm = (0.02f64 * 0.02 * 1024.0).sqrt();
        let quantum = (norm / 4.0) as f32;
        for &v in &out.dense[..1024] {
            let k = v / quantum;
            assert!((k - k.round()).abs() < 1e-3, "{v} not on the grid");
        }
    }

    #[test]
    fn qsgd_wire_cost_reflects_level_count() {
        // 4 levels -> 1 sign + 3 level bits = 4 bits/value -> ratio 8x
        // (minus chunk-norm overhead).
        let g = grads(9, 10_000);
        let ratio = Qsgd::new(StdRng::seed_from_u64(9), 4)
            .reduce(&g)
            .compression_ratio();
        assert!((7.0..8.1).contains(&ratio), "{ratio}");
        let ratio1 = Qsgd::new(StdRng::seed_from_u64(9), 1)
            .reduce(&g)
            .compression_ratio();
        assert!(ratio1 > 15.0, "1-level QSGD ratio {ratio1}");
    }

    #[test]
    fn qsgd_zero_chunk_stays_zero() {
        let mut r = Qsgd::new(StdRng::seed_from_u64(10), 4);
        assert!(r.reduce(&[0.0f32; 16]).dense.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "gradient length changed")]
    fn reducers_validate_length_stability() {
        let mut r = OneBitSgd::new();
        r.reduce(&[1.0, 2.0]);
        r.reduce(&[1.0]);
    }

    #[test]
    fn streaming_fold_is_bit_identical_to_decode_then_add() {
        let codec = InceptionnCodec::new(crate::ErrorBound::pow2(10));
        let g = grads(21, 1003); // deliberately not a multiple of 8
        let stream = codec.compress(&g);

        let mut acc = grads(22, 1003);
        let mut expected = acc.clone();
        for (a, v) in expected.iter_mut().zip(codec.decompress(&stream).unwrap()) {
            *a += v;
        }
        fold_compressed_into(&codec, &mut acc, &stream).unwrap();
        assert_eq!(acc, expected, "fold diverged from decode-then-add");
    }

    #[test]
    fn multi_worker_switch_fold_matches_host_gather_fold() {
        // The bit-identity contract behind switch-resident reduction:
        // folding each worker's compressed stream into the accumulator
        // in worker order equals the host-side gather loop that
        // decompresses and adds in the same order.
        let codec = InceptionnCodec::new(crate::ErrorBound::pow2(12));
        let streams: Vec<_> = (0..4).map(|w| codec.compress(&grads(w, 257))).collect();

        let mut host = vec![0.0f32; 257];
        for s in &streams {
            for (a, v) in host.iter_mut().zip(codec.decompress(s).unwrap()) {
                *a += v;
            }
        }
        let mut switch = vec![0.0f32; 257];
        for s in &streams {
            fold_compressed_into(&codec, &mut switch, s).unwrap();
        }
        assert_eq!(switch, host);
    }

    #[test]
    fn payload_fold_decodes_the_raw_wire_form() {
        let codec = InceptionnCodec::new(crate::ErrorBound::pow2(10));
        let g = grads(23, 100);
        let stream = codec.compress(&g);
        let mut from_payload = vec![0.0f32; 100];
        fold_compressed_payload_into(&codec, &mut from_payload, &stream.bytes, stream.len).unwrap();
        assert_eq!(from_payload, codec.decompress(&stream).unwrap());
    }

    #[test]
    fn truncated_stream_is_a_decode_error_not_a_partial_fold() {
        let codec = InceptionnCodec::new(crate::ErrorBound::pow2(10));
        let mut stream = codec.compress(&grads(24, 64));
        stream.bytes.truncate(stream.bytes.len() / 2);
        let mut acc = vec![0.0f32; 64];
        assert!(fold_compressed_into(&codec, &mut acc, &stream).is_err());
    }

    #[test]
    #[should_panic(expected = "accumulator shape")]
    fn fold_rejects_shape_mismatch() {
        let codec = InceptionnCodec::new(crate::ErrorBound::pow2(10));
        let stream = codec.compress(&[1.0f32; 8]);
        fold_compressed_into(&codec, &mut [0.0f32; 4], &stream).unwrap();
    }
}
