//! CRC-32, the integrity check of every stored record and every wire
//! frame.
//!
//! This is the canonical home of the checksum the whole suite uses:
//! `cordial-served` re-exports [`crc32`] for its wire protocol (the store
//! must sit *below* the daemon in the dependency graph, since the daemon
//! journals into it), and every segment record carries a CRC computed
//! here. On the serving path the checksum covers every ingested event
//! three times (client encode, daemon decode, journal frame), and a
//! restart checks the whole journal twice (the recovery scan in
//! `Store::open`, then the replay reader), so it has two kernels with
//! one output:
//!
//! - **Carry-less multiply** (x86_64 with `pclmulqdq`, inputs of at least
//!   64 bytes): four 128-bit lanes fold 64 bytes per
//!   step, the lanes fold into one, which folds in the remaining 16-byte
//!   blocks; the 128-bit remainder is reduced to 64 bits and then, by a
//!   Barrett reduction, to the 32-bit register. The last 0–15 bytes run
//!   through the portable loop. This is the folding scheme of Intel's
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction" in its bit-reflected form.
//! - **Slicing-by-8** ([`crc32_portable`]): eight compile-time tables,
//!   each folding one byte position of an eight-byte step; the tail
//!   shorter than eight bytes runs through the first table alone, which
//!   *is* the classic byte table.
//!
//! [`crc32`] picks the kernel at run time: `is_x86_feature_detected!`
//! (cached by the standard library after its first call) for inputs of
//! at least 64 bytes, the portable loop for shorter inputs, other CPUs
//! and other architectures. Both compute the same polynomial, initial
//! value and final xor, so every frame, segment and checkpoint is
//! byte-identical whichever kernel wrote or checked it.

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

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// through the carry-less-multiply kernel when the CPU has one and the
/// input is at least 64 bytes long, else [`crc32_portable`].
pub fn crc32(bytes: &[u8]) -> u32 {
    clmul::crc32(bytes).unwrap_or_else(|| crc32_portable(bytes))
}

/// [`crc32`] through the slicing-by-8 loop alone, on every CPU: the
/// reference the carry-less-multiply kernel is tested and timed against.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !update_sliced(0xFFFF_FFFF, bytes)
}

/// Advances the CRC register `crc` (no initial or final inversion) over
/// `bytes`, eight bytes per step.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The carry-less-multiply kernel. Each fold constant `K*` is the residue
/// `x^n mod P(x)` of the CRC-32 polynomial `P(x)` (`0x104C11DB7`),
/// bit-reflected as a 32-bit value and shifted left by one so the
/// 64×64-bit products line up with the reflected data; `P_X` and `MU`
/// are bit-reflected as 33-bit values.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`: fold a lane 512
    /// bits forward.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P` and `x^(128-32) mod P`: fold 128 bits forward.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: fold the 96-bit remainder to 64 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)` and `μ = ⌊x^64 / P(x)⌋`, the Barrett reduction's pair.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The shortest input the kernel takes: four 16-byte lanes.
    const MIN_LEN: usize = 64;

    /// The CRC-32 of `bytes` when the CPU has `pclmulqdq` and `bytes` is
    /// at least [`MIN_LEN`] long; `None` otherwise.
    #[allow(unsafe_code)]
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN_LEN || !is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: `update`'s only requirement is its target feature,
        // `pclmulqdq` (which implies the SSE2 of `load`), and this CPU was
        // just detected to have it.
        Some(!unsafe { update(0xFFFF_FFFF, bytes) })
    }

    /// One 16-byte block as a vector, byte 0 lowest (the layout of an
    /// unaligned vector load).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Folds `acc` forward over the distance `keys` encodes and adds
    /// `next`: `acc.lo · keys.lo ⊕ acc.hi · keys.hi ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the CRC register `crc` over `bytes`, which must hold at
    /// least four 16-byte blocks.
    #[target_feature(enable = "pclmulqdq")]
    fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);

        // Fold by 4: the register enters through the first lane's low
        // 32 bits, then each lane folds 64 bytes forward per step.
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by4 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), by4);
            }
        }

        // Fold the lanes into one, then by 1 over the remaining blocks.
        let by1 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold(x, lane, by1);
        }
        for block in quads.remainder() {
            x = fold(x, load(block), by1);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 → 32 bits: the reflected register is the
        // remainder's upper half.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let reg = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;

        super::update_sliced(reg, tail)
    }
}

/// No carry-less-multiply kernel off x86_64: [`crc32`] always runs the
/// portable loop.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn crc32(_: &[u8]) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference both kernels must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// Whether [`crc32`] runs the carry-less-multiply kernel on long
    /// inputs on this CPU.
    #[cfg(target_arch = "x86_64")]
    fn kernel_detected() -> bool {
        is_x86_feature_detected!("pclmulqdq")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn kernel_detected() -> bool {
        false
    }

    /// `len` pseudo-random bytes from `seed`. Callers checksum slices
    /// that start past the allocation's first byte, so the 16-byte blocks
    /// sit at every offset from its alignment.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference vectors ("check" values from the CRC catalogue).
        for crc in [crc32, crc32_portable] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
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
    fn both_kernels_match_the_byte_table_at_every_short_length_and_offset() {
        // Every length through the 64-byte kernel threshold, the fold-by-4
        // loop's entry at 128 bytes and every 0–15-byte tail, from every
        // start offset modulo the 16-byte block.
        let bytes = noise(0x5EED, 16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                let expected = crc32_bytewise(slice);
                assert_eq!(crc32_portable(slice), expected, "portable, {start}+{len}");
                assert_eq!(crc32(slice), expected, "dispatched, {start}+{len}");
                // The kernel takes every input from 64 bytes on, the
                // fold-by-4 entry with no 64-byte step to loop over.
                let kernel = clmul::crc32(slice);
                if len >= 64 && kernel_detected() {
                    assert_eq!(kernel, Some(expected), "kernel, {start}+{len}");
                } else {
                    assert_eq!(kernel, None, "no kernel below the threshold, {start}+{len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length up to 64 KiB, read from every start offset
        /// modulo the 16-byte block, checksums exactly as the byte table
        /// does, through both kernels.
        #[test]
        fn both_kernels_match_the_byte_table(
            len in 0usize..=64 * 1024,
            start in 0usize..16,
            seed in 0u64..u64::MAX,
        ) {
            let bytes = noise(seed, start + len);
            let slice = &bytes[start..];
            let expected = crc32_bytewise(slice);
            prop_assert_eq!(crc32_portable(slice), expected);
            prop_assert_eq!(crc32(slice), expected);
            if let Some(kernel) = clmul::crc32(slice) {
                prop_assert_eq!(kernel, expected);
            }
        }
    }
}
