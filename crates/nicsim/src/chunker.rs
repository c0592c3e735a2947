//! Splitting gradient streams into MTU-sized ToS-tagged packets: the
//! per-packet reference the flat transport path is checked against.
//!
//! The NIC engines operate per packet (Sec. VI-A): a multi-megabyte
//! gradient transfer reaches them as thousands of independent
//! ~1448-byte TCP segments, each compressed on its own. This module is
//! the software side of that contract: [`packetize`] cuts a gradient
//! slice into gradient packets sized so every payload is whole `f32`s,
//! and [`reassemble`] restores the stream on the receive side. Pushed
//! packet by packet through [`NicPipeline`](crate::nic::NicPipeline)'s
//! `transmit` and `receive` they are the oracle that [`crate::flat`] —
//! the one path a fabric moves payloads on — is compared with, segment
//! for segment. The tests here pin the end-to-end property the system
//! relies on: per-packet compression composes to exactly the same
//! values as compressing the whole stream.

use bytes::Bytes;

use crate::packet::Packet;

/// `f32` lanes per MTU payload (1448 B / 4).
pub const VALUES_PER_PACKET: usize = 362;

/// Cuts a gradient slice into ToS-tagged MTU packets (the last packet
/// may be short).
pub fn packetize(values: &[f32]) -> Vec<Packet> {
    values
        .chunks(VALUES_PER_PACKET)
        .map(|chunk| {
            let payload: Vec<u8> = chunk.iter().flat_map(|v| v.to_le_bytes()).collect();
            Packet::gradient(Bytes::from(payload))
        })
        .collect()
}

/// Restores the gradient stream from received (already-decompressed)
/// gradient packets.
///
/// # Panics
///
/// Panics if any payload is not whole `f32`s.
pub fn reassemble(packets: &[Packet]) -> Vec<f32> {
    let mut out = Vec::new();
    for p in packets {
        assert!(
            p.payload.len() % 4 == 0,
            "gradient payload must be whole f32s"
        );
        out.extend(
            p.payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::{NicConfig, NicPipeline};
    use inceptionn_compress::{ErrorBound, InceptionnCodec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gradients(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f32 = rng.gen_range(-1.0f32..1.0);
                u * u * u * 0.1
            })
            .collect()
    }

    #[test]
    fn packetize_reassemble_is_lossless() {
        for n in [0usize, 1, 361, 362, 363, 3000] {
            let vals = gradients(n, n as u64);
            let packets = packetize(&vals);
            assert_eq!(packets.len(), n.div_ceil(VALUES_PER_PACKET));
            assert_eq!(reassemble(&packets), vals);
        }
    }

    #[test]
    fn per_packet_compression_equals_whole_stream_quantization() {
        // The property the distributed algorithm relies on: cutting the
        // stream at packet boundaries does not change what the receiver
        // sees, because the codec is per-value (groups of 8 divide 362?
        // no — 362 = 45*8 + 2, so packet boundaries do NOT align with
        // burst groups, which is exactly what this test must survive).
        let bound = ErrorBound::pow2(10);
        let mut tx = NicPipeline::new(NicConfig {
            bound,
            base_latency_ns: 0,
        });
        let mut rx = NicPipeline::new(*tx.config());
        let vals = gradients(2000, 5);
        let mut ns = 0;
        let mut received = Vec::new();
        for pkt in packetize(&vals) {
            let (wire, tx_ns) = tx.transmit(pkt);
            let (out, rx_ns) = rx.receive(wire).unwrap();
            ns += tx_ns + rx_ns;
            received.push(out);
        }
        let want = InceptionnCodec::new(bound).quantize(&vals);
        assert_eq!(reassemble(&received), want);
        assert!(ns > 0);
    }
}
