//! The NIC TX/RX pipeline wrapping the engines (Fig. 8).

use bytes::Bytes;
use inceptionn_compress::{DecodeError, ErrorBound};
use serde::{Deserialize, Serialize};

use crate::engine::{CompressionEngine, DecompressionEngine, NS_PER_CYCLE};
use crate::flat::{append_raw_seg, read_raw_seg, FlatSeg};
use crate::packet::Packet;

/// Static NIC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicConfig {
    /// Error bound programmed into the engines.
    pub bound: ErrorBound,
    /// Fixed DMA + MAC traversal cost per packet, nanoseconds (either
    /// direction, engines excluded).
    pub base_latency_ns: u64,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            bound: ErrorBound::default(),
            base_latency_ns: 1_000,
        }
    }
}

/// Running statistics of a pipeline instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NicStats {
    /// Packets that went through the compression engine.
    pub compressed_packets: u64,
    /// Packets that bypassed the engines.
    pub bypassed_packets: u64,
    /// Payload bytes in (TX side, pre-compression).
    pub tx_payload_in: u64,
    /// Payload bytes out (TX side, post-compression).
    pub tx_payload_out: u64,
    /// 256-bit bursts consumed by the compression engine (TX side).
    pub tx_bursts: u64,
    /// 256-bit bursts produced by the decompression engine (RX side).
    pub rx_bursts: u64,
}

impl NicStats {
    /// Average TX payload compression ratio so far (1.0 when idle).
    pub fn tx_ratio(&self) -> f64 {
        if self.tx_payload_out == 0 {
            1.0
        } else {
            self.tx_payload_in as f64 / self.tx_payload_out as f64
        }
    }
}

/// A NIC with INCEPTIONN engines on both paths.
///
/// # Examples
///
/// ```
/// use inceptionn_nicsim::{NicConfig, NicPipeline, Packet};
///
/// let mut nic = NicPipeline::new(NicConfig::default());
/// let grads: Vec<u8> = (0..64).flat_map(|i| (i as f32 * 1e-3).to_le_bytes()).collect();
/// let (wire_pkt, _tx_ns) = nic.transmit(Packet::gradient(grads.into()));
/// let (restored, _rx_ns) = nic.receive(wire_pkt).unwrap();
/// assert_eq!(restored.payload.len(), 64 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct NicPipeline {
    cfg: NicConfig,
    compressor: CompressionEngine,
    decompressor: DecompressionEngine,
    stats: NicStats,
}

impl NicPipeline {
    /// Creates a pipeline with both engines programmed to `cfg.bound`.
    pub fn new(cfg: NicConfig) -> Self {
        NicPipeline {
            cfg,
            compressor: CompressionEngine::new(cfg.bound),
            decompressor: DecompressionEngine::new(cfg.bound),
            stats: NicStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// TX path: classify by ToS, compress gradient payloads, pass
    /// everything else through. Returns the on-wire packet and the NIC
    /// traversal latency in nanoseconds.
    ///
    /// A gradient packet whose payload is not whole `f32`s is treated as
    /// regular traffic (the software API never produces one).
    pub fn transmit(&mut self, packet: Packet) -> (Packet, u64) {
        if !packet.is_compressible()
            || !packet.payload.len().is_multiple_of(4)
            || packet.payload.is_empty()
        {
            self.stats.bypassed_packets += 1;
            return (packet, self.cfg.base_latency_ns);
        }
        let out = self.compressor.process_bytes(&packet.payload);
        self.stats.compressed_packets += 1;
        self.stats.tx_payload_in += packet.payload.len() as u64;
        self.stats.tx_payload_out += out.bytes.len() as u64;
        self.stats.tx_bursts += out.input_bursts;
        let latency = self.cfg.base_latency_ns + out.latency_ns();
        (
            Packet {
                tos: packet.tos,
                value_count: Some(packet.payload.len() / 4),
                payload: Bytes::from(out.bytes),
            },
            latency,
        )
    }

    /// TX path, flat wire representation: pushes one
    /// [`VALUES_PER_PACKET`](crate::chunker::VALUES_PER_PACKET)-sized
    /// value chunk through the engine, appending its wire bytes to a
    /// caller-owned buffer. Stats and latency are accounted exactly as
    /// [`transmit`](Self::transmit) accounts one packet, and the
    /// appended bytes are bit-identical to that packet's payload — the
    /// flat path changes the memory discipline, not the wire contents.
    ///
    /// An empty or non-compressible chunk bypasses the engine and lands
    /// as raw little-endian `f32` bytes, mirroring the packet bypass.
    pub fn transmit_chunk(
        &mut self,
        chunk: &[f32],
        compressible: bool,
        bytes: &mut Vec<u8>,
    ) -> (FlatSeg, u64) {
        if !compressible || chunk.is_empty() {
            self.stats.bypassed_packets += 1;
            return (append_raw_seg(chunk, bytes), self.cfg.base_latency_ns);
        }
        let (metrics, wire_len) = self.compressor.process_append(chunk, bytes);
        self.stats.compressed_packets += 1;
        self.stats.tx_payload_in += (chunk.len() * 4) as u64;
        self.stats.tx_payload_out += wire_len as u64;
        self.stats.tx_bursts += metrics.input_bursts;
        (
            FlatSeg {
                wire_bytes: wire_len as u32,
                value_count: chunk.len() as u32,
                compressed: true,
            },
            self.cfg.base_latency_ns + metrics.latency_ns(),
        )
    }

    /// RX path, flat wire representation: decodes one segment's wire
    /// bytes straight into `out` (whose length must equal the segment's
    /// value count). Stats and latency mirror [`receive`](Self::receive)
    /// packet for packet. Returns the traversal latency in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when a compressed segment is truncated or
    /// corrupt.
    pub fn receive_chunk(
        &mut self,
        seg: FlatSeg,
        payload: &[u8],
        out: &mut [f32],
    ) -> Result<u64, DecodeError> {
        debug_assert_eq!(out.len(), seg.value_count as usize);
        if !seg.compressed {
            self.stats.bypassed_packets += 1;
            read_raw_seg(payload, out)?;
            return Ok(self.cfg.base_latency_ns);
        }
        let metrics = self.decompressor.process_into(payload, out)?;
        self.stats.rx_bursts += metrics.output_bursts;
        Ok(self.cfg.base_latency_ns + metrics.cycles * NS_PER_CYCLE)
    }

    /// RX path: classify by ToS, decompress gradient payloads back to
    /// `f32` streams, pass everything else through.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when a compressed payload is truncated or
    /// corrupt.
    pub fn receive(&mut self, packet: Packet) -> Result<(Packet, u64), DecodeError> {
        let Some(count) = packet.value_count else {
            self.stats.bypassed_packets += 1;
            return Ok((packet, self.cfg.base_latency_ns));
        };
        if !packet.is_compressible() {
            self.stats.bypassed_packets += 1;
            return Ok((packet, self.cfg.base_latency_ns));
        }
        let (out, _values) = self.decompressor.process(&packet.payload, count)?;
        self.stats.rx_bursts += out.output_bursts;
        let latency = self.cfg.base_latency_ns + out.cycles * NS_PER_CYCLE;
        Ok((
            Packet {
                tos: packet.tos,
                value_count: None,
                payload: Bytes::from(out.bytes),
            },
            latency,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inceptionn_compress::InceptionnCodec;

    fn f32_payload(vals: &[f32]) -> Bytes {
        vals.iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>()
            .into()
    }

    #[test]
    fn gradient_packet_round_trip_matches_codec_quantization() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let vals: Vec<f32> = (0..300).map(|i| ((i as f32) * 0.01).sin() * 0.2).collect();
        let (wire, tx_ns) = nic.transmit(Packet::gradient(f32_payload(&vals)));
        assert!(wire.payload.len() < vals.len() * 4);
        assert!(tx_ns > 0);
        let (restored, rx_ns) = nic.receive(wire).unwrap();
        assert!(rx_ns > 0);
        let codec = InceptionnCodec::new(ErrorBound::default());
        assert_eq!(restored.payload, f32_payload(&codec.quantize(&vals)));
    }

    #[test]
    fn regular_traffic_bypasses_untouched() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let pkt = Packet::regular(0x10, vec![9u8; 100].into());
        let (wire, ns) = nic.transmit(pkt.clone());
        assert_eq!(wire, pkt);
        assert_eq!(ns, nic.config().base_latency_ns);
        let (rx, _) = nic.receive(wire).unwrap();
        assert_eq!(rx, pkt);
        assert_eq!(nic.stats().bypassed_packets, 2);
        assert_eq!(nic.stats().compressed_packets, 0);
    }

    #[test]
    fn ragged_gradient_payload_falls_back_to_bypass() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let pkt = Packet::gradient(vec![1u8, 2, 3].into());
        let (wire, _) = nic.transmit(pkt.clone());
        assert_eq!(wire, pkt);
    }

    #[test]
    fn stats_track_compression_ratio() {
        let mut nic = NicPipeline::new(NicConfig::default());
        // Values below the bound compress ~16x.
        let vals = vec![1e-5f32; 400];
        let (_, _) = nic.transmit(Packet::gradient(f32_payload(&vals)));
        assert_eq!(nic.stats().compressed_packets, 1);
        assert!(nic.stats().tx_ratio() > 10.0);
        // 400 values = 50 full 8-lane input bursts.
        assert_eq!(nic.stats().tx_bursts, 50);
    }

    #[test]
    fn stats_track_bursts_both_directions() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let vals: Vec<f32> = (0..320).map(|i| ((i as f32) * 0.03).cos() * 0.1).collect();
        let (wire, _) = nic.transmit(Packet::gradient(f32_payload(&vals)));
        assert_eq!(nic.stats().tx_bursts, 320 / 8);
        nic.receive(wire).unwrap();
        // RX reproduces the full f32 stream: same burst count out.
        assert_eq!(nic.stats().rx_bursts, 320 / 8);
    }

    #[test]
    fn corrupt_wire_payload_errors() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let vals = vec![0.5f32; 64];
        let (mut wire, _) = nic.transmit(Packet::gradient(f32_payload(&vals)));
        wire.payload = wire.payload.slice(0..2);
        assert!(nic.receive(wire).is_err());
    }

    #[test]
    fn engine_latency_scales_with_packet_size() {
        let mut nic = NicPipeline::new(NicConfig::default());
        let small = f32_payload(&[0.1f32; 8]);
        let large = f32_payload(&vec![0.1f32; 8 * 100]);
        let (_, t_small) = nic.transmit(Packet::gradient(small));
        let (_, t_large) = nic.transmit(Packet::gradient(large));
        assert!(t_large > t_small);
        // 100 bursts at 10 ns each, plus constant parts: under 3 us, far
        // below a 10 GbE MTU serialization quantum budget per packet.
        assert!(t_large < 3_000);
    }
}
