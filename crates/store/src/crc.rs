//! Slicing-by-8 CRC-32, the integrity check of every stored record and
//! every wire frame.
//!
//! This is the canonical home of the checksum the whole suite uses:
//! `cordial-served` re-exports [`crc32`] for its wire protocol (the store
//! must sit *below* the daemon in the dependency graph, since the daemon
//! journals into it), and every segment record carries a CRC computed
//! here. On the serving path the checksum covers every ingested event
//! three times (client encode, daemon decode, journal frame), so it runs
//! eight bytes per step: eight compile-time tables, each folding one byte
//! position of the step, replace the byte table's one lookup per byte.
//! The polynomial and the output are unchanged; the tail shorter than
//! eight bytes runs through the first table alone, which *is* the
//! classic byte table.

/// `TABLES[0]` is the reflected-polynomial (`0xEDB88320`) byte table;
/// `TABLES[k][i]` is the CRC contribution of byte `i` followed by `k`
/// zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(8);
    for step in &mut steps {
        let lo = u32::from_le_bytes([step[0], step[1], step[2], step[3]]) ^ crc;
        let hi = u32::from_le_bytes([step[4], step[5], step[6], step[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in steps.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference the sliced loop must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference vectors ("check" values from the CRC catalogue).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let bytes = b"cordial-store record body";
        let clean = crc32(bytes);
        for bit in 0..bytes.len() * 8 {
            let mut corrupted = *bytes;
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), clean, "flip of bit {bit} undetected");
        }
    }

    #[test]
    fn sliced_crc_matches_the_byte_table_on_short_inputs() {
        // Every tail length and alignment the 8-byte step can meet.
        let bytes: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for start in 0..8 {
            for end in start..bytes.len() {
                let slice = &bytes[start..end];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "bytes {start}..{end}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length up to 64 KiB, read from every start offset
        /// modulo the 8-byte step, checksums exactly as the byte table
        /// does.
        #[test]
        fn sliced_crc_matches_the_byte_table(
            len in 0usize..=64 * 1024,
            start in 0usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let bytes: Vec<u8> = (0..start + len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 56) as u8
                })
                .collect();
            let slice = &bytes[start..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
