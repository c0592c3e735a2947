//! ToS-tagged packets and the classify/bypass rule (Sec. VI-B).

use bytes::Bytes;

/// The reserved ToS value that marks a packet for lossy compression
/// (the paper tags gradient sockets with `setsockopt` ToS `0x28`).
pub const TOS_COMPRESSED: u8 = 0x28;

/// Bytes of TCP/IP header the engines never touch.
pub const HEADER_BYTES: usize = 40;

/// A simplified TCP/IP packet as the NIC pipeline sees it.
///
/// # Examples
///
/// ```
/// use inceptionn_nicsim::packet::{Packet, TOS_COMPRESSED};
///
/// let gradient_pkt = Packet::gradient(vec![0u8; 64].into());
/// assert!(gradient_pkt.is_compressible());
/// let ssh_pkt = Packet::regular(0x00, vec![1, 2, 3].into());
/// assert!(!ssh_pkt.is_compressible());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The IP Type-of-Service byte.
    pub tos: u8,
    /// Application payload (what the engines may transform).
    pub payload: Bytes,
    /// Count of `f32` values the payload encodes *when compressed*;
    /// `None` for plain payloads. The real hardware infers this from
    /// packet framing; the model carries it explicitly.
    pub value_count: Option<usize>,
}

impl Packet {
    /// Creates a regular (never-compressed) packet.
    pub fn regular(tos: u8, payload: Bytes) -> Self {
        Packet {
            tos,
            payload,
            value_count: None,
        }
    }

    /// Creates a gradient packet tagged for compression.
    pub fn gradient(payload: Bytes) -> Self {
        Packet {
            tos: TOS_COMPRESSED,
            payload,
            value_count: None,
        }
    }

    /// The classification the engines apply at the first burst: only the
    /// reserved ToS value routes through compression.
    pub fn is_compressible(&self) -> bool {
        self.tos == TOS_COMPRESSED
    }

    /// Total on-wire size including the (never-compressed) header.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_tos() {
        assert!(Packet::gradient(Bytes::new()).is_compressible());
        assert!(!Packet::regular(0, Bytes::new()).is_compressible());
        assert!(!Packet::regular(0x29, Bytes::new()).is_compressible());
        // Only the exact reserved value matches.
        assert!(Packet::regular(TOS_COMPRESSED, Bytes::new()).is_compressible());
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = Packet::gradient(vec![0u8; 100].into());
        assert_eq!(p.wire_bytes(), 140);
    }
}
