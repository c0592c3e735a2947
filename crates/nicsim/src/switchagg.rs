//! Switch-resident in-network aggregation: the reduce unit a switch
//! port runs when gradient packets are folded in flight.
//!
//! NetReduce (PAPERS.md) observes that the gather leg of a
//! worker-aggregator exchange disappears entirely once the switch sums
//! gradient packets as they arrive: no contribution ever descends to an
//! aggregation host. This module models that reduce unit at MTU-segment
//! granularity over the flat wire form ([`FlatPayload`]):
//!
//! * **plain path** — uncompressed segments carry raw little-endian
//!   `f32` lanes; the unit adds them straight into the running sum;
//! * **compressed path** — engine-compressed segments are decoded by the
//!   same burst kernel the NICs run ([`BurstCodec::decompress_into`])
//!   into a scratch the unit holds across segments, then added lane by
//!   lane.
//!
//! Both paths are plain `f32` adds in worker arrival order, so the
//! switch sum is bit-identical to the host-side gather fold over the
//! same (round-tripped) values — the property the trainer's
//! switch-reduce strategy relies on.

use inceptionn_compress::{BurstCodec, DecodeError, ErrorBound};

use crate::chunker::VALUES_PER_PACKET;
use crate::flat::FlatPayload;

/// Reduce-unit cycles charged per 8-lane group of folded values: one
/// decode+add per lane per cycle, mirroring the NIC engines' burst
/// width.
const LANES_PER_CYCLE: u64 = 8;

/// The per-port gradient reduce unit of an aggregation-capable switch.
///
/// Holds one running sum sized to the gradient vector; workers'
/// contributions are folded in the order they are offered (the
/// collective layer presents them in worker-id order, which pins the
/// floating-point fold order and hence bit-identity with the host
/// path).
///
/// # Examples
///
/// ```
/// use inceptionn_nicsim::switchagg::SwitchReducer;
/// use inceptionn_nicsim::{encode_payload_flat, FlatPayload, NicConfig, NicPipeline};
///
/// let mut tx = NicPipeline::new(NicConfig::default());
/// let grad = vec![0.5f32; 100];
/// let mut wire = FlatPayload::new();
/// encode_payload_flat(&mut tx, &grad, false, &mut wire);
/// let mut unit = SwitchReducer::plain(100);
/// unit.fold_flat_contribution(&wire).unwrap();
/// unit.fold_flat_contribution(&wire).unwrap();
/// assert_eq!(unit.sum()[0], 1.0);
/// assert_eq!(unit.contributions(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SwitchReducer {
    acc: Vec<f32>,
    codec: Option<BurstCodec>,
    /// Decoded lanes of the compressed segment being folded, sized for
    /// one MTU segment and held across segments and contributions.
    scratch: Vec<f32>,
    contributions: u32,
    cycles: u64,
}

impl SwitchReducer {
    /// A reduce unit for uncompressed gradient traffic of `values`
    /// lanes.
    pub fn plain(values: usize) -> Self {
        SwitchReducer {
            acc: vec![0.0; values],
            codec: None,
            scratch: vec![],
            contributions: 0,
            cycles: 0,
        }
    }

    /// A reduce unit that also decodes INCEPTIONN-compressed segments
    /// under `bound` (plain segments are still accepted — a mixed
    /// contribution stream folds fine).
    pub fn with_codec(values: usize, bound: ErrorBound) -> Self {
        SwitchReducer {
            acc: vec![0.0; values],
            codec: Some(BurstCodec::new(bound)),
            scratch: Vec::with_capacity(values.min(VALUES_PER_PACKET)),
            contributions: 0,
            cycles: 0,
        }
    }

    /// Folds one worker's full contribution — the segments of one
    /// gradient transfer in wire order, values in stream order — into
    /// the running sum, allocating no per-contribution buffers.
    ///
    /// # Errors
    ///
    /// Fails with the codec's [`DecodeError`] on a corrupt or truncated
    /// compressed segment. The segments before it stay folded, as real
    /// reduce hardware would have committed them; the failing segment
    /// adds nothing. Callers recover by restarting the exchange, not
    /// the segment.
    ///
    /// # Panics
    ///
    /// Panics if the contribution does not cover exactly the unit's
    /// lane count, if a compressed segment arrives on a plain-only unit,
    /// or if a plain segment is not whole `f32`s — all collective-layer
    /// bugs, not wire faults.
    pub fn fold_flat_contribution(&mut self, payload: &FlatPayload) -> Result<(), DecodeError> {
        let mut at = 0usize;
        for (seg, bytes) in payload.iter() {
            let values = seg.value_count as usize;
            assert!(
                at + values <= self.acc.len(),
                "contribution overruns the sum"
            );
            if seg.compressed {
                let codec = self
                    .codec
                    .as_ref()
                    .expect("compressed segment reached a plain-only reduce unit");
                self.scratch.resize(values, 0.0);
                codec.decompress_into(bytes, values, &mut self.scratch)?;
                for (a, &v) in self.acc[at..at + values].iter_mut().zip(&self.scratch) {
                    *a += v;
                }
            } else {
                assert!(
                    bytes.len() == values * 4,
                    "plain gradient segment must be whole f32s"
                );
                for (lane, chunk) in bytes.chunks_exact(4).enumerate() {
                    self.acc[at + lane] +=
                        f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
            self.cycles += (values as u64).div_ceil(LANES_PER_CYCLE);
            at += values;
        }
        assert_eq!(
            at,
            self.acc.len(),
            "contribution covered {at} of {} lanes",
            self.acc.len()
        );
        self.contributions += 1;
        Ok(())
    }

    /// The running sum.
    pub fn sum(&self) -> &[f32] {
        &self.acc
    }

    /// Consumes the unit, returning the folded sum.
    pub fn into_sum(self) -> Vec<f32> {
        self.acc
    }

    /// How many full contributions have been folded.
    pub fn contributions(&self) -> u32 {
        self.contributions
    }

    /// Reduce-unit cycles spent folding so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets the sum and counters for the next iteration, keeping the
    /// codec configuration.
    pub fn reset(&mut self) {
        self.acc.fill(0.0);
        self.contributions = 0;
        self.cycles = 0;
    }
}

/// Reduce-unit cycles for folding one sparsified contribution: the
/// unit streams the frame's `(index, value)` pairs through one indexed
/// accumulate port per cycle (random-access lanes don't batch the way
/// dense lanes do).
pub fn sparse_fold_cycles(pairs: u64) -> u64 {
    pairs.max(1)
}

/// The switch reduce unit for homomorphic sketch traffic: folds
/// compressed frames **without decompressing them to `f32`**.
///
/// Where [`SwitchReducer`] decodes every contribution into dense
/// gradient lanes before adding, this unit exploits the sketch codec's
/// additive structure (`inceptionn_compress::sketch`): frames fold
/// into a fixed-point `i64` accumulator by exact integer addition, and
/// the dense gradient only materializes once, at
/// [`finish_into`](Self::finish_into). Because integer addition is
/// associative and commutative and the finish step is the codec's own
/// grid conversion, the result is bit-identical to merging the same
/// frames host-side with `SketchFrame::add_compressed` and decoding —
/// on any transport, in any fold order. (The collective layer still
/// folds in worker order, matching the dense unit's convention.)
#[derive(Debug, Clone)]
pub struct SketchSwitchUnit {
    q: Vec<i64>,
    frac_bits: u8,
    contributions: u32,
    cycles: u64,
}

impl SketchSwitchUnit {
    /// A reduce unit for `values` gradient lanes at the codec's grid
    /// precision.
    pub fn new(values: usize, frac_bits: u8) -> Self {
        SketchSwitchUnit {
            q: vec![0i64; values],
            frac_bits,
            contributions: 0,
            cycles: 0,
        }
    }

    /// Gradient lane count.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the unit has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The grid precision contributions must arrive at.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Folds one worker's sketch frame natively: exact `i64` adds in
    /// the compressed domain, 64-bit cells streamed eight lanes per
    /// cycle like the dense unit's `f32` lanes.
    ///
    /// # Errors
    ///
    /// Fails with [`DecodeError`] on a malformed frame, a lane-count
    /// mismatch, or a grid-precision mismatch; the accumulator keeps
    /// whatever the partial fold committed (callers restart the
    /// exchange, as with [`SwitchReducer`]).
    pub fn fold_frame(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let meta = inceptionn_compress::sketch::fold_frame_into_q(bytes, &mut self.q)?;
        if meta.frac_bits != self.frac_bits {
            return Err(DecodeError {
                at_value: 0,
                bit_offset: 0,
                tag: None,
            });
        }
        let payload_words =
            ((bytes.len() - inceptionn_compress::sketch::FRAME_HEADER_BYTES) as u64).div_ceil(8);
        self.cycles += payload_words.div_ceil(LANES_PER_CYCLE).max(1);
        self.contributions += 1;
        Ok(())
    }

    /// Folds a contribution that arrived as raw values by re-quantizing
    /// it to the grid — the in-process transport's path: its raw
    /// segments carry values the sender already round-tripped onto grid
    /// points, so the re-quantization is exact and the fold stays
    /// bit-identical with [`fold_frame`](Self::fold_frame).
    ///
    /// # Panics
    ///
    /// Panics on a lane-count mismatch (a collective-layer bug, not a
    /// wire fault).
    pub fn fold_values(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.q.len(),
            "contribution covered {} of {} lanes",
            values.len(),
            self.q.len()
        );
        for (a, &v) in self.q.iter_mut().zip(values) {
            *a = a.wrapping_add(inceptionn_compress::sketch::quantize_value(
                v,
                self.frac_bits,
            ));
        }
        self.cycles += (values.len() as u64).div_ceil(LANES_PER_CYCLE);
        self.contributions += 1;
    }

    /// Converts the accumulated grid counts to the dense gradient sum —
    /// the one decompression in the whole exchange.
    ///
    /// # Panics
    ///
    /// Panics on a lane-count mismatch.
    pub fn finish_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.q.len(), "finish buffer lane mismatch");
        inceptionn_compress::sketch::finish_q(&self.q, self.frac_bits, out);
    }

    /// How many contributions have been folded.
    pub fn contributions(&self) -> u32 {
        self.contributions
    }

    /// Reduce-unit cycles spent folding so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets the accumulator and counters for the next chunk,
    /// keeping the grid precision.
    pub fn reset(&mut self) {
        self.q.fill(0);
        self.contributions = 0;
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{decode_payload_flat, encode_payload_flat};
    use crate::nic::{NicConfig, NicPipeline};
    use inceptionn_compress::SketchCodec;

    fn grad(seed: u32, len: usize) -> Vec<f32> {
        // Small deterministic values spanning the codec's interesting
        // tag range.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 2048;
                (x as f32 - 1024.0) / 8192.0
            })
            .collect()
    }

    fn pipeline() -> NicPipeline {
        NicPipeline::new(NicConfig::default())
    }

    #[test]
    fn plain_fold_matches_host_sum_bit_for_bit() {
        let grads: Vec<Vec<f32>> = (0..4).map(|w| grad(w, 1000)).collect();
        let mut unit = SwitchReducer::plain(1000);
        let mut wire = FlatPayload::new();
        for g in &grads {
            encode_payload_flat(&mut pipeline(), g, false, &mut wire);
            unit.fold_flat_contribution(&wire).unwrap();
        }
        let mut host = vec![0.0f32; 1000];
        for g in &grads {
            for (a, &v) in host.iter_mut().zip(g) {
                *a += v;
            }
        }
        assert_eq!(unit.sum(), &host[..]);
        assert_eq!(unit.contributions(), 4);
        assert!(unit.cycles() >= 4 * 1000 / 8);
    }

    #[test]
    fn compressed_fold_matches_host_fold_over_roundtripped_values() {
        let bound = inceptionn_compress::ErrorBound::pow2(10);
        let grads: Vec<Vec<f32>> = (0..3).map(|w| grad(w + 9, 725)).collect();
        let mut unit = SwitchReducer::with_codec(725, bound);
        let mut wire = FlatPayload::new();
        for g in &grads {
            encode_payload_flat(&mut pipeline(), g, true, &mut wire);
            unit.fold_flat_contribution(&wire).unwrap();
        }
        // Host side: decode every contribution (the lossy round trip)
        // and add in the same worker order.
        let mut host = vec![0.0f32; 725];
        let mut vals = Vec::new();
        for g in &grads {
            encode_payload_flat(&mut pipeline(), g, true, &mut wire);
            decode_payload_flat(&mut pipeline(), &wire, &mut vals).unwrap();
            for (a, &v) in host.iter_mut().zip(&vals) {
                *a += v;
            }
        }
        assert_eq!(unit.sum(), &host[..]);
    }

    #[test]
    fn reset_clears_state_for_the_next_iteration() {
        let mut unit = SwitchReducer::plain(10);
        let mut wire = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(1, 10), false, &mut wire);
        unit.fold_flat_contribution(&wire).unwrap();
        unit.reset();
        assert!(unit.sum().iter().all(|&v| v == 0.0));
        assert_eq!(unit.contributions(), 0);
        assert_eq!(unit.cycles(), 0);
    }

    #[test]
    fn corrupt_compressed_payload_is_an_error() {
        let bound = inceptionn_compress::ErrorBound::pow2(10);
        let mut wire = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(2, 500), true, &mut wire);
        wire.truncate_seg(0, 3);
        let mut unit = SwitchReducer::with_codec(500, bound);
        assert!(unit.fold_flat_contribution(&wire).is_err());
    }

    #[test]
    fn truncated_segment_fails_exactly_like_the_scalar_decoder() {
        // Every prefix of a compressed segment: the burst decode the
        // unit runs must report the scalar reference's error, value
        // index and bit offset included.
        let bound = inceptionn_compress::ErrorBound::pow2(10);
        let scalar = inceptionn_compress::InceptionnCodec::new(bound);
        let mut whole = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(5, 203), true, &mut whole);
        assert_eq!(whole.segs.len(), 1);
        for keep in 0..whole.bytes.len() {
            let mut wire = whole.clone();
            wire.truncate_seg(0, keep);
            let want = scalar
                .decompress(&inceptionn_compress::CompressedStream {
                    len: 203,
                    bytes: wire.bytes.clone(),
                    bit_len: keep * 8,
                })
                .unwrap_err();
            let got = SwitchReducer::with_codec(203, bound)
                .fold_flat_contribution(&wire)
                .unwrap_err();
            assert_eq!(got, want, "prefix of {keep} bytes");
        }
    }

    #[test]
    #[should_panic(expected = "covered")]
    fn short_contribution_is_a_collective_bug() {
        let mut unit = SwitchReducer::plain(100);
        let mut wire = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(3, 50), false, &mut wire);
        unit.fold_flat_contribution(&wire).unwrap();
    }

    #[test]
    #[should_panic(expected = "plain-only reduce unit")]
    fn compressed_packet_needs_a_codec() {
        let mut unit = SwitchReducer::plain(500);
        let mut wire = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(4, 500), true, &mut wire);
        let _ = unit.fold_flat_contribution(&wire);
    }

    #[test]
    fn sketch_unit_fold_is_bit_identical_with_host_merge() {
        let codec = SketchCodec::new(12, 77);
        let grads: Vec<Vec<f32>> = (0..4).map(|w| grad(w + 31, 640)).collect();
        // Switch path: native compressed-domain folds.
        let mut unit = SketchSwitchUnit::new(640, codec.frac_bits());
        for g in &grads {
            unit.fold_frame(codec.encode(g).as_bytes()).unwrap();
        }
        let mut switch = vec![0.0f32; 640];
        unit.finish_into(&mut switch);
        // Host path: merge the same frames compressed, decode once.
        let mut merged = codec.encode(&grads[0]);
        for g in &grads[1..] {
            merged.add_compressed(&codec.encode(g)).unwrap();
        }
        let mut host = vec![0.0f32; 640];
        merged.decode_into(&mut host).unwrap();
        let switch_bits: Vec<u32> = switch.iter().map(|v| v.to_bits()).collect();
        let host_bits: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        assert_eq!(switch_bits, host_bits);
        assert_eq!(unit.contributions(), 4);
        assert!(unit.cycles() > 0);
    }

    #[test]
    fn sketch_unit_value_fold_matches_frame_fold_on_grid_inputs() {
        let codec = SketchCodec::new(12, 5);
        // In-process values are already grid round-tripped.
        let grads: Vec<Vec<f32>> = (0..3).map(|w| codec.quantize(&grad(w, 256))).collect();
        let mut by_frame = SketchSwitchUnit::new(256, codec.frac_bits());
        let mut by_value = SketchSwitchUnit::new(256, codec.frac_bits());
        for g in &grads {
            by_frame.fold_frame(codec.encode(g).as_bytes()).unwrap();
            by_value.fold_values(g);
        }
        let mut a = vec![0.0f32; 256];
        let mut b = vec![0.0f32; 256];
        by_frame.finish_into(&mut a);
        by_value.finish_into(&mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn sketch_unit_rejects_mismatched_frames_and_resets_clean() {
        let codec = SketchCodec::new(12, 5);
        let other = SketchCodec::new(8, 5);
        let mut unit = SketchSwitchUnit::new(64, codec.frac_bits());
        assert!(unit
            .fold_frame(other.encode(&vec![0.5f32; 64]).as_bytes())
            .is_err());
        assert!(unit
            .fold_frame(codec.encode(&[0.5f32; 32]).as_bytes())
            .is_err());
        unit.fold_frame(codec.encode(&vec![0.5f32; 64]).as_bytes())
            .unwrap();
        unit.reset();
        assert_eq!(unit.contributions(), 0);
        assert_eq!(unit.cycles(), 0);
        let mut out = vec![1.0f32; 64];
        unit.finish_into(&mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
