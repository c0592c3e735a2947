//! LSB-first bit-level writer and reader.
//!
//! The INCEPTIONN wire format is a bit stream (variable 0/8/16/32-bit
//! fields packed back to back, exactly like the hardware alignment unit
//! in Fig. 9). These helpers pack bits LSB-first into bytes, which keeps
//! the packing order independent of field width.

/// Accumulates bit fields LSB-first into a byte buffer.
///
/// # Examples
///
/// ```
/// use inceptionn_compress::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xff, 8);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_bits(8), Some(0xff));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0 means byte-aligned).
    bit_pos: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose backing buffer can hold `bits` bits
    /// without reallocating.
    ///
    /// Encoders that know a bound on their output size use this to
    /// avoid the repeated `Vec` growth that otherwise dominates
    /// small-field packing.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            bit_pos: 0,
        }
    }

    /// Appends the low `width` bits of `value` (`width ≤ 32`).
    ///
    /// # Panics
    ///
    /// Panics if `width > 32`.
    pub fn write_bits(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "width {width} exceeds 32");
        if width == 0 {
            return;
        }
        let mut v = value as u64 & ((1u64 << width) - 1);
        let mut remaining = width;
        while remaining > 0 {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.bit_pos;
            let take = free.min(remaining);
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= ((v & ((1u64 << take) - 1)) as u8) << self.bit_pos;
            v >>= take;
            self.bit_pos = (self.bit_pos + take) % 8;
            remaining -= take;
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bytes.is_empty() {
            0
        } else {
            (self.bytes.len() - 1) * 8
                + if self.bit_pos == 0 {
                    8
                } else {
                    self.bit_pos as usize
                }
        }
    }

    /// Finishes the stream, returning the backing bytes (final byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bit fields LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads the next `width` bits, or `None` if the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `width > 32`.
    pub fn read_bits(&mut self, width: u32) -> Option<u32> {
        assert!(width <= 32, "width {width} exceeds 32");
        if width == 0 {
            return Some(0);
        }
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.bytes[self.pos / 8];
            let offset = (self.pos % 8) as u32;
            let avail = 8 - offset;
            let take = avail.min(width - got);
            let chunk = ((byte >> offset) as u64) & ((1u64 << take) - 1);
            out |= chunk << got;
            got += take;
            self.pos += take as usize;
        }
        Some(out as u32)
    }

    /// Absolute bit position of the read cursor (bits consumed so far).
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_mixed_widths() {
        let fields: Vec<(u32, u32)> = vec![
            (0b1, 1),
            (0xdead_beef, 32),
            (0, 0),
            (0x7f, 7),
            (0xffff, 16),
            (0b101, 3),
        ];
        let mut w = BitWriter::new();
        for &(v, width) in &fields {
            w.write_bits(v, width);
        }
        let total: u32 = fields.iter().map(|f| f.1).sum();
        assert_eq!(w.bit_len(), total as usize);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &fields {
            assert_eq!(
                r.read_bits(width),
                Some(v & ((1u64 << width) - 1) as u32),
                "width {width}"
            );
        }
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn masked_write_ignores_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xffff_ffff, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0f]);
    }

    #[test]
    fn empty_writer_yields_nothing() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    proptest! {
        #[test]
        fn prop_round_trip(fields in proptest::collection::vec((any::<u32>(), 0u32..=32), 0..200)) {
            let mut w = BitWriter::new();
            for &(v, width) in &fields {
                w.write_bits(v, width);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &(v, width) in &fields {
                let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
                prop_assert_eq!(r.read_bits(width), Some(v & mask));
            }
        }
    }
}
