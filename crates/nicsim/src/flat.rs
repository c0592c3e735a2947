//! The flat wire representation, the one transport path: one
//! contiguous byte buffer per payload, plus per-MTU-segment descriptors.
//!
//! A real NIC's descriptor rings hold one buffer per MTU packet, and
//! the per-packet reference ([`crate::chunker`] driving
//! [`NicPipeline::transmit`] / [`NicPipeline::receive`]) models exactly
//! that — faithful, but impossible to drive allocation-free, since every
//! packet owns a fresh `Bytes`. The flat path keeps the exact same
//! per-packet engine application (each [`VALUES_PER_PACKET`]-value chunk
//! is compressed independently, so the wire bytes are bit-identical
//! segment for segment — the differential tests below compare the two)
//! while landing every segment back to back in one reusable `Vec<u8>`,
//! described by a [`FlatSeg`] table. Exchange loops that recycle the
//! [`FlatPayload`] run the whole TX→wire→RX traversal with **zero
//! steady-state heap allocations** — the property `tests/alloc_gate.rs`
//! enforces.

use inceptionn_compress::inceptionn::LANES_PER_BURST;
use inceptionn_compress::DecodeError;

use crate::chunker::VALUES_PER_PACKET;
use crate::engine::NS_PER_CYCLE;
use crate::nic::NicPipeline;

/// One wire segment of a [`FlatPayload`]: the flat-path equivalent of
/// one MTU packet's header metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatSeg {
    /// Post-compression payload bytes this segment occupies on the wire.
    pub wire_bytes: u32,
    /// `f32` values the segment decodes to.
    pub value_count: u32,
    /// Whether the segment traversed the compression engine
    /// (uncompressed segments carry raw little-endian `f32` bytes).
    pub compressed: bool,
}

/// One application payload as a contiguous wire image: every segment's
/// post-engine bytes laid back to back in `bytes`, described in order
/// by `segs`. Both vectors are reused across legs via
/// [`clear`](Self::clear), which keeps their capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatPayload {
    /// The concatenated wire bytes of all segments.
    pub bytes: Vec<u8>,
    /// Per-segment descriptors, in wire order.
    pub segs: Vec<FlatSeg>,
}

impl FlatPayload {
    /// An empty payload with no capacity.
    pub fn new() -> Self {
        FlatPayload::default()
    }

    /// Empties the payload, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.segs.clear();
    }

    /// Total `f32` values across all segments.
    pub fn value_count(&self) -> usize {
        self.segs.iter().map(|s| s.value_count as usize).sum()
    }

    /// Total wire bytes (equals `bytes.len()` for a well-formed
    /// payload).
    pub fn wire_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.wire_bytes as u64).sum()
    }

    /// Whether the first segment is compressed (the frame-level marker,
    /// like the ToS classification of a transfer's first packet).
    pub fn is_compressed(&self) -> bool {
        self.segs.first().is_some_and(|s| s.compressed)
    }

    /// Iterates segments with their byte ranges, in wire order.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor table overruns `bytes` (a construction
    /// bug, not a wire fault — wire faults keep both sides consistent).
    pub fn iter(&self) -> impl Iterator<Item = (FlatSeg, &[u8])> {
        let mut off = 0usize;
        self.segs.iter().map(move |&s| {
            let start = off;
            off += s.wire_bytes as usize;
            (s, &self.bytes[start..off])
        })
    }

    /// Byte offset of segment `i` within `bytes`.
    fn seg_offset(&self, i: usize) -> usize {
        self.segs[..i].iter().map(|s| s.wire_bytes as usize).sum()
    }

    /// Fault-model helper: flips one bit of the wire image in place
    /// (callers clone first; the CRC riding next to the payload goes
    /// stale, which is what lets the receiver catch it).
    pub fn flip_bit(&mut self, bit: usize) {
        if !self.bytes.is_empty() {
            let bit = bit % (self.bytes.len() * 8);
            self.bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Fault-model helper: swaps segments `i` and `i+1` (wrapping) —
    /// both the descriptors and their byte ranges — modeling packets
    /// arriving out of order.
    pub fn swap_adjacent_segs(&mut self, i: usize) {
        if self.segs.len() < 2 {
            return;
        }
        let i = i % self.segs.len();
        let j = (i + 1) % self.segs.len();
        let (a, b) = (i.min(j), i.max(j));
        let start = self.seg_offset(a);
        let a_len = self.segs[a].wire_bytes as usize;
        let b_len = self.segs[b].wire_bytes as usize;
        let end = self.seg_offset(b) + b_len;
        // [A|M|B] -> [M|B|A] -> [B|M|A]; M is empty unless the pair
        // wraps around (last and first segment).
        let span = &mut self.bytes[start..end];
        span.rotate_left(a_len);
        let prefix = span.len() - a_len;
        span[..prefix].rotate_right(b_len);
        self.segs.swap(a, b);
    }

    /// Fault-model helper: truncates segment `i`'s wire bytes to `keep`
    /// bytes, shifting later segments down and fixing the descriptor —
    /// stream damage that predates framing, so a rebuilt frame carries
    /// a *fresh* CRC and only the decode step can notice.
    pub fn truncate_seg(&mut self, i: usize, keep: usize) {
        if i >= self.segs.len() {
            return;
        }
        let start = self.seg_offset(i);
        let len = self.segs[i].wire_bytes as usize;
        let keep = keep.min(len);
        self.bytes.drain(start + keep..start + len);
        self.segs[i].wire_bytes = keep as u32;
    }
}

/// What the TX NIC did to one flat payload: the sizes that hit the wire
/// and the cycles/latency the datapath spent producing them. Per-packet
/// sizes live in the payload's own segment table, so the trace is `Copy`
/// and the encode path moves no allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatTrace {
    /// Application payload bytes entering the TX NIC.
    pub payload_bytes_in: u64,
    /// Post-compression payload bytes across all segments.
    pub wire_payload_bytes: u64,
    /// Segments (MTU packets) the payload was cut into.
    pub packets: u64,
    /// TX NIC traversal latency, nanoseconds (base cost + engine).
    pub nic_latency_ns: u64,
    /// Compression-engine cycles spent on this payload.
    pub engine_cycles: u64,
}

/// Pushes one application payload through the TX NIC segment by segment
/// into a caller-owned [`FlatPayload`] (cleared first, capacity kept).
///
/// Stats, cycles, and wire bytes are accounted exactly as one
/// [`NicPipeline::transmit`] per packet accounts them: each
/// [`VALUES_PER_PACKET`] chunk traverses the engine independently, so
/// the wire image is bit-identical segment for segment.
pub fn encode_payload_flat(
    tx: &mut NicPipeline,
    values: &[f32],
    compressible: bool,
    out: &mut FlatPayload,
) -> FlatTrace {
    let base = tx.config().base_latency_ns;
    out.clear();
    out.segs.reserve(values.len().div_ceil(VALUES_PER_PACKET));
    let mut trace = FlatTrace {
        payload_bytes_in: (values.len() * 4) as u64,
        ..FlatTrace::default()
    };
    for chunk in values.chunks(VALUES_PER_PACKET) {
        let (seg, ns) = tx.transmit_chunk(chunk, compressible, &mut out.bytes);
        out.segs.push(seg);
        trace.wire_payload_bytes += seg.wire_bytes as u64;
        trace.packets += 1;
        trace.nic_latency_ns += ns;
        // `transmit_chunk` reports base cost plus engine time; recover
        // the cycles.
        trace.engine_cycles += ns.saturating_sub(base) / NS_PER_CYCLE;
    }
    trace
}

/// Receives a flat payload through the RX NIC, reassembling the value
/// stream **into** a caller-owned buffer (cleared first, capacity
/// kept). Returns the RX NIC traversal latency in nanoseconds and the
/// decompression-engine cycles spent.
///
/// # Errors
///
/// Returns [`DecodeError`] if the segment table cannot describe `bytes`
/// (checked before `values` is touched), or if a compressed segment is
/// truncated or corrupt, in which case `values` holds a partial
/// reassembly.
pub fn decode_payload_flat(
    rx: &mut NicPipeline,
    payload: &FlatPayload,
    values: &mut Vec<f32>,
) -> Result<(u64, u64), DecodeError> {
    let count = checked_value_count(payload)?;
    let base = rx.config().base_latency_ns;
    values.clear();
    values.resize(count, 0.0);
    let mut total_ns = 0u64;
    let mut cycles = 0u64;
    let mut at = 0usize;
    for (seg, bytes) in payload.iter() {
        let n = seg.value_count as usize;
        let ns = rx.receive_chunk(seg, bytes, &mut values[at..at + n])?;
        at += n;
        total_ns += ns;
        cycles += ns.saturating_sub(base) / NS_PER_CYCLE;
    }
    Ok((total_ns, cycles))
}

/// Checks a received segment table against its byte image before
/// anything is sized from it, and returns the total value count. A
/// bypass segment holds exactly four bytes per value; a compressed one
/// at least the densest legal encoding, a 2-byte tag vector per group
/// of Zero lanes; and the segments tile `bytes` exactly. So a forged
/// `value_count` cannot reserve more than four values per wire byte,
/// and a table that overruns `bytes` is an error, not a panic.
fn checked_value_count(payload: &FlatPayload) -> Result<usize, DecodeError> {
    let (mut values, mut bytes) = (0usize, 0usize);
    let reject = |at_value: usize, at_byte: usize| DecodeError {
        at_value,
        bit_offset: at_byte * 8,
        tag: None,
    };
    for seg in &payload.segs {
        let (n, wire) = (seg.value_count as usize, seg.wire_bytes as usize);
        let legal = if seg.compressed {
            2 * n.div_ceil(LANES_PER_BURST) <= wire
        } else {
            wire == 4 * n
        };
        if !legal {
            return Err(reject(values, bytes));
        }
        values += n;
        bytes += wire;
    }
    if bytes != payload.bytes.len() {
        return Err(reject(values, bytes));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::{packetize, reassemble};
    use crate::nic::NicConfig;
    use crate::packet::Packet;
    use inceptionn_compress::{ErrorBound, InceptionnCodec};

    fn grad(seed: u32, len: usize) -> Vec<f32> {
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

    /// The per-packet reference TX: [`packetize`] pushed packet by
    /// packet through `transmit`. Returns the wire packets, the summed
    /// latency and the engine cycles, recovered from each packet's
    /// latency exactly as [`encode_payload_flat`] recovers them.
    fn packet_tx(tx: &mut NicPipeline, vals: &[f32]) -> (Vec<Packet>, u64, u64) {
        let base = tx.config().base_latency_ns;
        let (mut wire, mut total_ns, mut cycles) = (Vec::new(), 0, 0);
        for pkt in packetize(vals) {
            let (out, ns) = tx.transmit(pkt);
            total_ns += ns;
            cycles += ns.saturating_sub(base) / NS_PER_CYCLE;
            wire.push(out);
        }
        (wire, total_ns, cycles)
    }

    /// The per-packet reference RX: every wire packet through `receive`,
    /// then [`reassemble`]. Returns the values and the engine cycles.
    fn packet_rx(rx: &mut NicPipeline, wire: &[Packet]) -> (Vec<f32>, u64) {
        let base = rx.config().base_latency_ns;
        let (mut plain, mut cycles) = (Vec::new(), 0);
        for pkt in wire {
            let (out, ns) = rx.receive(pkt.clone()).unwrap();
            cycles += ns.saturating_sub(base) / NS_PER_CYCLE;
            plain.push(out);
        }
        (reassemble(&plain), cycles)
    }

    #[test]
    fn flat_wire_bytes_match_the_packet_path_segment_for_segment() {
        for n in [0usize, 1, 361, 362, 363, 1000, 3620] {
            let vals = grad(n as u32, n);
            let (wire, pkt_ns, pkt_cycles) = packet_tx(&mut pipeline(), &vals);
            let mut flat = FlatPayload::new();
            let ftrace = encode_payload_flat(&mut pipeline(), &vals, true, &mut flat);
            assert_eq!(flat.segs.len(), wire.len(), "n={n}");
            for ((seg, bytes), pkt) in flat.iter().zip(&wire) {
                assert_eq!(bytes, &pkt.payload[..], "n={n}");
                assert_eq!(seg.value_count as usize, pkt.value_count.unwrap());
                assert!(seg.compressed);
            }
            let pkt_wire: u64 = wire.iter().map(|p| p.payload.len() as u64).sum();
            assert_eq!(ftrace.payload_bytes_in, (n * 4) as u64);
            assert_eq!(ftrace.wire_payload_bytes, pkt_wire);
            assert_eq!(ftrace.packets, wire.len() as u64);
            assert_eq!(ftrace.engine_cycles, pkt_cycles);
            assert_eq!(ftrace.nic_latency_ns, pkt_ns);
        }
    }

    #[test]
    fn flat_round_trip_matches_packet_decode_and_quantization() {
        let bound = ErrorBound::pow2(10);
        let cfg = NicConfig {
            bound,
            ..NicConfig::default()
        };
        let vals = grad(7, 2000);
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut NicPipeline::new(cfg), &vals, true, &mut flat);
        let mut rx = NicPipeline::new(cfg);
        let mut out = Vec::new();
        let (ns, cycles) = decode_payload_flat(&mut rx, &flat, &mut out).unwrap();
        assert_eq!(out, InceptionnCodec::new(bound).quantize(&vals));
        assert!(ns > 0 && cycles > 0);

        let (wire, _, _) = packet_tx(&mut NicPipeline::new(cfg), &vals);
        let (pkt_vals, pkt_cycles) = packet_rx(&mut NicPipeline::new(cfg), &wire);
        assert_eq!(out, pkt_vals);
        assert_eq!(cycles, pkt_cycles);
    }

    #[test]
    fn flat_stats_match_the_packet_path() {
        let vals = grad(3, 3620);
        let mut ptx = pipeline();
        let (wire, _, _) = packet_tx(&mut ptx, &vals);
        let mut prx = pipeline();
        packet_rx(&mut prx, &wire);

        let mut ftx = pipeline();
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut ftx, &vals, true, &mut flat);
        let mut frx = pipeline();
        let mut out = Vec::new();
        decode_payload_flat(&mut frx, &flat, &mut out).unwrap();

        assert_eq!(ftx.stats(), ptx.stats());
        assert_eq!(frx.stats(), prx.stats());
        assert_eq!(ftx.stats().compressed_packets, 10);
        assert_eq!(ftx.stats().tx_payload_in, 3620 * 4);
        // 1.90 on this ramp: mostly 16-bit tags.
        assert!(ftx.stats().tx_ratio() > 1.5);
    }

    #[test]
    fn plain_flat_payload_bypasses_the_engines_losslessly() {
        let vals = grad(5, 725);
        let mut tx = pipeline();
        let mut flat = FlatPayload::new();
        let trace = encode_payload_flat(&mut tx, &vals, false, &mut flat);
        assert!(!flat.is_compressed());
        assert_eq!(trace.wire_payload_bytes, trace.payload_bytes_in);
        assert_eq!(trace.engine_cycles, 0);
        assert_eq!(tx.stats().compressed_packets, 0);
        assert_eq!(tx.stats().bypassed_packets, 3);
        let mut out = Vec::new();
        let mut rx = pipeline();
        let (_, cycles) = decode_payload_flat(&mut rx, &flat, &mut out).unwrap();
        assert_eq!(out, vals, "bypass path must be lossless");
        assert_eq!(cycles, 0);
    }

    #[test]
    fn truncated_segment_is_a_decode_error() {
        let vals = grad(9, 500);
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &vals, true, &mut flat);
        flat.truncate_seg(0, 2);
        let mut out = Vec::new();
        assert!(decode_payload_flat(&mut pipeline(), &flat, &mut out).is_err());
    }

    #[test]
    fn forged_value_count_is_rejected_before_sizing_the_output() {
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(15, 500), true, &mut flat);
        let mut out = Vec::with_capacity(16);
        for compressed in [true, false] {
            let mut forged = flat.clone();
            forged.segs[1] = FlatSeg {
                value_count: u32::MAX,
                compressed,
                ..forged.segs[1]
            };
            let err = decode_payload_flat(&mut pipeline(), &forged, &mut out).unwrap_err();
            assert_eq!(err.at_value, VALUES_PER_PACKET);
            assert_eq!(out.capacity(), 16);
        }
    }

    #[test]
    fn overrunning_segment_table_is_a_decode_error() {
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &grad(17, 500), true, &mut flat);
        let mut out = Vec::new();
        let mut long = flat.clone();
        long.segs[0].wire_bytes += 1;
        assert!(decode_payload_flat(&mut pipeline(), &long, &mut out).is_err());
        let mut extra = flat.clone();
        extra.segs.push(flat.segs[0]);
        assert!(decode_payload_flat(&mut pipeline(), &extra, &mut out).is_err());
        let mut short = flat;
        short.segs.pop();
        assert!(decode_payload_flat(&mut pipeline(), &short, &mut out).is_err());
    }

    #[test]
    fn swap_adjacent_segs_moves_bytes_with_descriptors() {
        let vals = grad(11, 1000);
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &vals, true, &mut flat);
        let before: Vec<Vec<u8>> = flat.iter().map(|(_, b)| b.to_vec()).collect();
        let mut swapped = flat.clone();
        swapped.swap_adjacent_segs(0);
        let after: Vec<Vec<u8>> = swapped.iter().map(|(_, b)| b.to_vec()).collect();
        assert_eq!(after[0], before[1]);
        assert_eq!(after[1], before[0]);
        assert_eq!(after[2], before[2]);
        assert_eq!(swapped.bytes.len(), flat.bytes.len());
    }

    #[test]
    fn swap_adjacent_segs_wraps_the_last_segment_onto_the_first() {
        // 1000 values compress to three segments of unequal length; the
        // wrapping pair (2, 0) must exchange whole byte ranges and leave
        // the middle segment's bytes where its descriptor says they are.
        let vals = grad(11, 1000);
        let mut flat = FlatPayload::new();
        encode_payload_flat(&mut pipeline(), &vals, true, &mut flat);
        let mut want: Vec<Vec<u8>> = flat.iter().map(|(_, b)| b.to_vec()).collect();
        assert_eq!(want.len(), 3);
        want.swap(0, 2);
        let mut swapped = flat.clone();
        swapped.swap_adjacent_segs(2);
        let after: Vec<Vec<u8>> = swapped.iter().map(|(_, b)| b.to_vec()).collect();
        assert_eq!(after, want);
        assert_eq!(swapped.segs, [flat.segs[2], flat.segs[1], flat.segs[0]]);
    }

    #[test]
    fn encode_into_a_warm_payload_reuses_capacity() {
        let vals = grad(13, 1448);
        let mut flat = FlatPayload::new();
        let mut tx = pipeline();
        encode_payload_flat(&mut tx, &vals, true, &mut flat);
        let (bytes_cap, segs_cap) = (flat.bytes.capacity(), flat.segs.capacity());
        let first = flat.clone();
        encode_payload_flat(&mut tx, &vals, true, &mut flat);
        assert_eq!(flat, first, "re-encoding the same values must repeat");
        assert_eq!(flat.bytes.capacity(), bytes_cap);
        assert_eq!(flat.segs.capacity(), segs_cap);
    }
}
