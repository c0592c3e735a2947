//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the kernel
//! behind the [`WireFrame`](crate::fabric::WireFrame) integrity tag.
//!
//! Every frame body is hashed twice per hop (stamped at encode, verified
//! at deliver), so this loop sees each wire byte of an exchange at least
//! twice. It is slice-by-16: sixteen lookup tables let one step consume
//! sixteen input bytes with independent loads instead of a sixteen-deep
//! chain of dependent ones. Portable safe Rust, one code path on every
//! host; the values are those of the classic byte-at-a-time table loop,
//! which survives under `#[cfg(test)]` as the oracle.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the register after byte `b` followed by `k` zero bytes. Built at
/// compile time so framing stays dependency-free.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32 over a frame body. The state is the one `u32`
/// register, so `update` calls of any length compose to the CRC of the
/// concatenated bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The register folds into the first four bytes; the other
            // twelve index their tables directly.
            let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = TABLES[15][(head & 0xFF) as usize]
                ^ TABLES[14][((head >> 8) & 0xFF) as usize]
                ^ TABLES[13][((head >> 16) & 0xFF) as usize]
                ^ TABLES[12][(head >> 24) as usize]
                ^ TABLES[11][b[4] as usize]
                ^ TABLES[10][b[5] as usize]
                ^ TABLES[9][b[6] as usize]
                ^ TABLES[8][b[7] as usize]
                ^ TABLES[7][b[8] as usize]
                ^ TABLES[6][b[9] as usize]
                ^ TABLES[5][b[10] as usize]
                ^ TABLES[4][b[11] as usize]
                ^ TABLES[3][b[12] as usize]
                ^ TABLES[2][b[13] as usize]
                ^ TABLES[1][b[14] as usize]
                ^ TABLES[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }

    /// The byte-at-a-time table loop `update` replaced: the oracle its
    /// values are checked against.
    #[cfg(test)]
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = TABLES[0][((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn crc(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc(b""), 0);
        assert_eq!(crc(b"123456789"), 0xCBF4_3926);
        // Table 0 is the generator the frame tag has always used.
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn update_matches_the_bytewise_oracle_at_every_length_and_split() {
        let mut rng = StdRng::seed_from_u64(0xC3C3_2016);
        let data: Vec<u8> = (0..3 << 20).map(|_| rng.next_u32() as u8).collect();
        let lengths = (0..=600).chain([1023, 1024, 4095, 4096, 4097, 65_537, data.len()]);
        for len in lengths {
            let bytes = &data[data.len() - len..];
            let mut oracle = Crc32::new();
            oracle.update_bytewise(bytes);
            let want = oracle.finish();
            for split in [0, 1, 17, len / 2] {
                let (a, b) = bytes.split_at(split.min(len));
                let mut c = Crc32::new();
                c.update(a);
                c.update(b);
                assert_eq!(c.finish(), want, "len {len} split {split}");
            }
        }
    }
}
