//! The compression and decompression engines (Figs. 9 and 10).

use inceptionn_compress::burst::BurstCodec;
use inceptionn_compress::inceptionn::LANES_PER_BURST;
use inceptionn_compress::{DecodeError, ErrorBound};

/// Bits per AXI-stream burst: eight 32-bit lanes (derived from the
/// codec's shared lane constant so software and modeled hardware can
/// never disagree on the burst shape).
pub const BURST_BITS: u64 = (LANES_PER_BURST * 32) as u64;
/// Engine clock, Hz (the reference design's 100 MHz).
pub const CLOCK_HZ: u64 = 100_000_000;
/// Pipeline depth of either engine in cycles (extract → compress →
/// align → emit).
pub const PIPELINE_DEPTH: u64 = 4;

/// Nanoseconds per engine cycle.
pub const NS_PER_CYCLE: u64 = 1_000_000_000 / CLOCK_HZ;

/// Result of streaming one payload through an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOutput {
    /// The transformed payload bytes.
    pub bytes: Vec<u8>,
    /// Engine-occupancy cycles (pipelined: one burst per cycle plus the
    /// pipeline depth).
    pub cycles: u64,
    /// 256-bit bursts consumed on the input side.
    pub input_bursts: u64,
    /// 256-bit bursts produced on the output side (final partial burst
    /// counted).
    pub output_bursts: u64,
}

impl EngineOutput {
    /// The engine latency contribution in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.cycles * NS_PER_CYCLE
    }
}

/// Cycle and burst accounting of one engine pass, without the payload
/// bytes: what the buffer-reusing entry points return so steady-state
/// datapath traversals move no owned allocations at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Engine-occupancy cycles (pipelined: one burst per cycle plus the
    /// pipeline depth).
    pub cycles: u64,
    /// 256-bit bursts consumed on the input side.
    pub input_bursts: u64,
    /// 256-bit bursts produced on the output side (final partial burst
    /// counted).
    pub output_bursts: u64,
}

impl EngineMetrics {
    /// The engine latency contribution in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.cycles * NS_PER_CYCLE
    }
}

/// The 256-bit burst compressor: eight Compression Blocks plus the
/// alignment unit (Fig. 9).
///
/// Functionally bit-exact with
/// [`InceptionnCodec::compress`](inceptionn_compress::InceptionnCodec::compress);
/// additionally accounts hardware cycles.
#[derive(Debug, Clone, Copy)]
pub struct CompressionEngine {
    codec: BurstCodec,
}

impl CompressionEngine {
    /// Creates an engine configured for the given error bound.
    pub fn new(bound: ErrorBound) -> Self {
        CompressionEngine {
            codec: BurstCodec::new(bound),
        }
    }

    /// The configured error bound.
    pub fn bound(&self) -> ErrorBound {
        self.codec.bound()
    }

    /// Streams a gradient payload through the engine.
    ///
    /// Each input burst carries eight lanes; every lane's Compression
    /// Block emits a `(2-bit tag, 0/8/16/32-bit vector)` pair, the tag
    /// vector (16 bits) and aligned payload bits (0–256) are
    /// concatenated, and the alignment unit accumulates the variable
    /// 16–272-bit group outputs into dense 256-bit bursts.
    ///
    /// The functional transform runs on the software burst fast path
    /// ([`BurstCodec`]), which packs exactly the bytes this engine used
    /// to produce value by value — the golden tests pin the equality —
    /// while the cycle model stays the closed form of the pipelined
    /// hardware: one input burst per cycle plus the pipeline depth.
    pub fn process(&self, values: &[f32]) -> EngineOutput {
        let stream = self.codec.compress(values);
        let input_bursts = values.len().div_ceil(LANES_PER_BURST) as u64;
        let output_bursts = (stream.bit_len as u64).div_ceil(BURST_BITS);
        EngineOutput {
            bytes: stream.bytes,
            cycles: input_bursts + PIPELINE_DEPTH,
            input_bursts,
            output_bursts,
        }
    }

    /// [`process`](Self::process) appending the wire bytes to a
    /// caller-owned buffer instead of materializing an [`EngineOutput`]:
    /// returns the accounting plus the appended byte length.
    /// Reserve-only growth, so the pass is allocation-free once `out`
    /// has warmed to capacity — the entry point of the flat zero-copy
    /// datapath.
    pub fn process_append(&self, values: &[f32], out: &mut Vec<u8>) -> (EngineMetrics, usize) {
        let before = out.len();
        let bit_len = self.codec.compress_append(values, out);
        let input_bursts = values.len().div_ceil(LANES_PER_BURST) as u64;
        let output_bursts = (bit_len as u64).div_ceil(BURST_BITS);
        (
            EngineMetrics {
                cycles: input_bursts + PIPELINE_DEPTH,
                input_bursts,
                output_bursts,
            },
            out.len() - before,
        )
    }

    /// Convenience: payload given as little-endian `f32` bytes, as it
    /// arrives from the packet DMA.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len()` is not a multiple of 4 (the software
    /// API only tags whole-`f32` gradient payloads for compression).
    pub fn process_bytes(&self, payload: &[u8]) -> EngineOutput {
        assert!(
            payload.len().is_multiple_of(4),
            "compressible payload must be whole f32s ({} bytes)",
            payload.len()
        );
        let values: Vec<f32> = payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        self.process(&values)
    }

    /// Sustained input throughput in bits per second (one burst per
    /// cycle at [`CLOCK_HZ`]).
    pub fn line_throughput_bps() -> u64 {
        BURST_BITS * CLOCK_HZ
    }
}

/// The 256-bit burst decompressor: burst buffer, tag decoder, and eight
/// Decompression Blocks (Fig. 10).
#[derive(Debug, Clone, Copy)]
pub struct DecompressionEngine {
    codec: BurstCodec,
}

impl DecompressionEngine {
    /// Creates an engine configured for the given error bound.
    pub fn new(bound: ErrorBound) -> Self {
        DecompressionEngine {
            codec: BurstCodec::new(bound),
        }
    }

    /// Streams a compressed payload back into `count` gradient values.
    ///
    /// The hardware keeps up to two bursts (512 bits) buffered because a
    /// compressed 8-value group can straddle a burst boundary; the tag
    /// decoder reads the 16-bit tag vector, computes the eight payload
    /// widths, slices the group, and the eight DBs reconstruct one
    /// 256-bit output burst per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is too short for `count`
    /// values.
    pub fn process(
        &self,
        payload: &[u8],
        count: usize,
    ) -> Result<(EngineOutput, Vec<f32>), DecodeError> {
        // Functional transform on the burst fast path (tag decoder +
        // eight DBs per group, word-level bit extraction); cycle model
        // is the closed form of the pipelined hardware: one output
        // burst per cycle plus the pipeline depth.
        let mut out = vec![0f32; count];
        self.codec.decompress_into(payload, count, &mut out)?;
        let output_bursts = count.div_ceil(LANES_PER_BURST) as u64;
        let input_bursts = (payload.len() as u64 * 8).div_ceil(BURST_BITS);
        Ok((
            EngineOutput {
                bytes: out.iter().flat_map(|v| v.to_le_bytes()).collect(),
                cycles: output_bursts + PIPELINE_DEPTH,
                input_bursts,
                output_bursts,
            },
            out,
        ))
    }

    /// [`process`](Self::process) decoding straight into a caller-owned
    /// slice (`out.len()` is the value count): no byte vector, no value
    /// vector — the allocation-free receive half of the flat datapath.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is too short for
    /// `out.len()` values.
    pub fn process_into(
        &self,
        payload: &[u8],
        out: &mut [f32],
    ) -> Result<EngineMetrics, DecodeError> {
        let count = out.len();
        self.codec.decompress_into(payload, count, out)?;
        let output_bursts = count.div_ceil(LANES_PER_BURST) as u64;
        let input_bursts = (payload.len() as u64 * 8).div_ceil(BURST_BITS);
        Ok(EngineMetrics {
            cycles: output_bursts + PIPELINE_DEPTH,
            input_bursts,
            output_bursts,
        })
    }
}

/// Cycle model for the sparsifier engine's encode pass: the residual
/// update and threshold compare stream eight lanes per cycle (the same
/// 256-bit datapath as the truncation engine), but the selected
/// `(index, value)` pairs leave through a single emit port — priority
/// encoders don't batch — so each transmitted pair costs one extra
/// cycle, plus the shared pipeline depth.
pub fn sparse_encode_cycles(values: usize, pairs: usize) -> u64 {
    (values.div_ceil(LANES_PER_BURST) + pairs) as u64 + PIPELINE_DEPTH
}

/// Cycle model for the sparsifier engine's decode pass: zero-fill runs
/// eight lanes per cycle; each received pair is a single-port scatter
/// write, one per cycle, plus the pipeline depth.
pub fn sparse_decode_cycles(values: usize, pairs: usize) -> u64 {
    (values.div_ceil(LANES_PER_BURST) + pairs) as u64 + PIPELINE_DEPTH
}

/// Cycle model for the sketch engine's encode pass: fixed-point
/// quantization streams eight lanes per cycle with the hash banks
/// ([`inceptionn_compress::sketch::ROWS`] single-ported SRAMs, one per
/// row) updated in parallel, then the frame drains at one 256-bit
/// burst per cycle, plus the pipeline depth.
pub fn sketch_encode_cycles(values: usize, wire_bytes: usize) -> u64 {
    let lane_cycles = values.div_ceil(LANES_PER_BURST) as u64;
    let drain_cycles = (wire_bytes as u64 * 8).div_ceil(BURST_BITS);
    lane_cycles + drain_cycles + PIPELINE_DEPTH
}

/// Cycle model for the sketch engine's decode pass: the frame streams
/// in at one 256-bit burst per cycle, peeling/copy-out emits eight
/// lanes per cycle, plus the pipeline depth.
pub fn sketch_decode_cycles(values: usize, wire_bytes: usize) -> u64 {
    let lane_cycles = values.div_ceil(LANES_PER_BURST) as u64;
    let fill_cycles = (wire_bytes as u64 * 8).div_ceil(BURST_BITS);
    lane_cycles + fill_cycles + PIPELINE_DEPTH
}

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_compress::InceptionnCodec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engines(e: u8) -> (CompressionEngine, DecompressionEngine, InceptionnCodec) {
        let b = ErrorBound::pow2(e);
        (
            CompressionEngine::new(b),
            DecompressionEngine::new(b),
            InceptionnCodec::new(b),
        )
    }

    fn gradient_stream(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f32 = rng.gen_range(-1.0f32..1.0);
                u * u * u // peaked toward zero
            })
            .collect()
    }

    #[test]
    fn hardware_is_bit_exact_with_reference_codec() {
        let (ce, _, codec) = engines(10);
        for n in [0usize, 1, 7, 8, 9, 100, 1024] {
            let vals = gradient_stream(n, n as u64);
            let hw = ce.process(&vals);
            let sw = codec.compress(&vals);
            assert_eq!(hw.bytes, sw.bytes, "n={n}");
        }
    }

    #[test]
    fn round_trip_through_both_engines() {
        let (ce, de, codec) = engines(8);
        let vals = gradient_stream(1000, 3);
        let compressed = ce.process(&vals);
        let (out, restored) = de.process(&compressed.bytes, vals.len()).unwrap();
        assert_eq!(restored, codec.quantize(&vals));
        assert_eq!(out.bytes.len(), vals.len() * 4);
    }

    #[test]
    fn cycle_accounting_is_pipelined() {
        let (ce, _, _) = engines(10);
        // 80 values = 10 input bursts -> 10 + depth cycles.
        let vals = gradient_stream(80, 1);
        let out = ce.process(&vals);
        assert_eq!(out.input_bursts, 10);
        assert_eq!(out.cycles, 10 + PIPELINE_DEPTH);
        assert_eq!(out.latency_ns(), (10 + PIPELINE_DEPTH) * 10);
    }

    #[test]
    fn decompression_cycles_track_output_bursts() {
        let (ce, de, _) = engines(10);
        let vals = gradient_stream(64, 2);
        let c = ce.process(&vals);
        let (out, _) = de.process(&c.bytes, 64).unwrap();
        assert_eq!(out.output_bursts, 8);
        assert_eq!(out.cycles, 8 + PIPELINE_DEPTH);
    }

    #[test]
    fn engine_throughput_exceeds_ten_gbe() {
        // Sec. VII-C: the accelerators must not curtail NIC bandwidth.
        assert!(CompressionEngine::line_throughput_bps() > 10_000_000_000);
    }

    #[test]
    fn compressed_output_bursts_shrink() {
        let (ce, _, _) = engines(6);
        // Tiny gradients: nearly everything drops to the 2-bit form.
        let vals = vec![1e-4f32; 800];
        let out = ce.process(&vals);
        assert_eq!(out.input_bursts, 100);
        assert!(
            out.output_bursts <= 8,
            "2-bit values should pack ~16x: {} bursts",
            out.output_bursts
        );
    }

    #[test]
    fn truncated_payload_is_a_decode_error() {
        let (ce, de, _) = engines(10);
        let vals = gradient_stream(64, 9);
        let c = ce.process(&vals);
        let err = de.process(&c.bytes[..1], 64).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn process_bytes_accepts_le_f32_payload() {
        let (ce, _, codec) = engines(10);
        let vals = gradient_stream(256, 11);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(ce.process_bytes(&bytes).bytes, codec.compress(&vals).bytes);
    }

    #[test]
    #[should_panic(expected = "whole f32s")]
    fn process_bytes_rejects_ragged_payload() {
        let (ce, _, _) = engines(10);
        ce.process_bytes(&[1, 2, 3]);
    }

    proptest! {
        #[test]
        fn prop_hw_sw_equivalence(vals in proptest::collection::vec(-1.2f32..1.2, 0..200), e in 5u8..14) {
            let (ce, de, codec) = engines(e);
            let hw = ce.process(&vals);
            let sw = codec.compress(&vals);
            prop_assert_eq!(&hw.bytes, &sw.bytes);
            let (_, restored) = de.process(&hw.bytes, vals.len()).unwrap();
            prop_assert_eq!(restored, codec.quantize(&vals));
        }
    }
}
