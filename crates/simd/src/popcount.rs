//! Population-count building blocks.
//!
//! The paper's accumulation step is `bitcount` (Table I lists
//! `_mm512_popcnt_epi64` / `_mm512_maskz_popcnt_epi64` from AVX-512
//! VPOPCNTDQ). Pre-VPOPCNTDQ silicon has no vector popcount, so practical
//! engines use one of:
//!
//! * the scalar `POPCNT` instruction on extracted 64-bit lanes, or
//! * the SSSE3/AVX2 **nibble-lookup** algorithm (Muła et al.): shuffle a
//!   16-entry table of nibble popcounts with `PSHUFB`, then horizontally
//!   sum with `PSADBW`.
//!
//! Both are provided here; the scheduler picks per hardware.

/// Portable software popcount (SWAR), used as the ground-truth reference in
/// property tests. Identical algorithm to the classic Hacker's Delight
/// implementation; `u64::count_ones` compiles to `POPCNT` when available,
/// so this deliberately avoids it.
#[inline]
pub const fn popcount_swar(mut x: u64) -> u32 {
    x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    x = (x + (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    ((x.wrapping_mul(0x0101_0101_0101_0101)) >> 56) as u32
}

/// Sum of popcounts over a slice using the portable SWAR kernel.
pub fn popcount_slice_swar(xs: &[u64]) -> u64 {
    xs.iter().map(|&x| popcount_swar(x) as u64).sum()
}

/// Sum of popcounts using `u64::count_ones` (lowers to the scalar `POPCNT`
/// instruction when the target has it).
#[inline]
pub fn popcount_slice_scalar(xs: &[u64]) -> u64 {
    xs.iter().map(|&x| x.count_ones() as u64).sum()
}

/// AVX2 nibble-lookup popcount over a 256-bit register, returning per-64-bit
/// lane counts in a `__m256i`.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub unsafe fn popcount_m256_lookup(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // Table of popcounts of all 4-bit values, replicated across both lanes.
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
    let cnt_lo = _mm256_shuffle_epi8(table, lo);
    let cnt_hi = _mm256_shuffle_epi8(table, hi);
    let bytes = _mm256_add_epi8(cnt_lo, cnt_hi);
    // Horizontal sum of groups of 8 bytes into the four 64-bit lanes.
    _mm256_sad_epu8(bytes, _mm256_setzero_si256())
}

/// Sum of popcounts over a slice using the AVX2 nibble-lookup kernel with a
/// scalar tail.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn popcount_slice_avx2(xs: &[u64]) -> u64 {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_si256();
    let chunks = xs.chunks_exact(4);
    let rem = chunks.remainder();
    for chunk in chunks {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        acc = _mm256_add_epi64(acc, popcount_m256_lookup(v));
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    lanes.iter().sum::<u64>() + popcount_slice_scalar(rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn swar_matches_count_ones_on_edge_values() {
        for x in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
        ] {
            assert_eq!(popcount_swar(x), x.count_ones(), "x={x:#x}");
        }
    }

    #[test]
    fn swar_matches_count_ones_random() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let x: u64 = rng.gen();
            assert_eq!(popcount_swar(x), x.count_ones());
        }
    }

    #[test]
    fn slice_kernels_agree() {
        let mut rng = StdRng::seed_from_u64(43);
        for len in [0usize, 1, 3, 4, 5, 8, 17, 64, 1000] {
            let xs: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            let want = popcount_slice_swar(&xs);
            assert_eq!(popcount_slice_scalar(&xs), want, "scalar len={len}");
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                // SAFETY: feature checked above.
                assert_eq!(unsafe { popcount_slice_avx2(&xs) }, want, "avx2 len={len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lane_counts() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        use std::arch::x86_64::*;
        // SAFETY: avx2 checked.
        unsafe {
            let v = _mm256_setr_epi64x(-1i64, 0, 0x0F0F, 1 << 63 | 1);
            let counts = popcount_m256_lookup(v);
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, counts);
            assert_eq!(lanes, [64, 0, 8, 2]);
        }
    }
}
