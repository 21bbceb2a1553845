//! Rust counterparts of the paper's SIMD union types (Table II).
//!
//! The C implementation reads SIMD registers back as `int64_t` lanes through
//! unions (`m128_u`, `m256_u`, `m512_u`). In Rust the same reinterpretation
//! is expressed with `#[repr(C)]` unions over `std::arch` vector types; the
//! accessors below encapsulate the (trivially sound, same-size POD) unsafe
//! reads. Each union is exactly its register's size, as in the paper:
//!
//! ```
//! use bitflow_simd::vec_u::{M128U, M256U, M512U};
//! use std::mem::size_of;
//! assert_eq!((size_of::<M128U>(), size_of::<M256U>(), size_of::<M512U>()), (16, 32, 64));
//! assert_eq!(M256U::from_lanes([1, 2, 3, 4]).lanes(), [1, 2, 3, 4]);
//! ```

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::{__m128i, __m256i, __m512i};

/// 128-bit register viewed as two `u64` lanes (paper's `m128_u`).
#[derive(Clone, Copy)]
#[repr(C)]
pub union M128U {
    /// SIMD register view.
    pub m: __m128i,
    /// Lane view.
    pub i: [u64; 2],
}

/// 256-bit register viewed as four `u64` lanes (paper's `m256_u`).
#[derive(Clone, Copy)]
#[repr(C)]
pub union M256U {
    /// SIMD register view.
    pub m: __m256i,
    /// Lane view.
    pub i: [u64; 4],
}

/// 512-bit register viewed as eight `u64` lanes (paper's `m512_u`; the
/// paper's listing has a typo — `__m256i` inside `m512_u` — corrected here).
#[derive(Clone, Copy)]
#[repr(C)]
pub union M512U {
    /// SIMD register view.
    pub m: __m512i,
    /// Lane view.
    pub i: [u64; 8],
}

impl M128U {
    /// Builds from lanes.
    pub fn from_lanes(i: [u64; 2]) -> Self {
        Self { i }
    }
    /// Reads the lanes.
    pub fn lanes(self) -> [u64; 2] {
        // SAFETY: both views are plain 128-bit POD.
        unsafe { self.i }
    }
}

impl M256U {
    /// Builds from lanes.
    pub fn from_lanes(i: [u64; 4]) -> Self {
        Self { i }
    }
    /// Reads the lanes.
    pub fn lanes(self) -> [u64; 4] {
        // SAFETY: both views are plain 256-bit POD.
        unsafe { self.i }
    }
}

impl M512U {
    /// Builds from lanes.
    pub fn from_lanes(i: [u64; 8]) -> Self {
        Self { i }
    }
    /// Reads the lanes.
    pub fn lanes(self) -> [u64; 8] {
        // SAFETY: both views are plain 512-bit POD.
        unsafe { self.i }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_registers() {
        assert_eq!(std::mem::size_of::<M128U>(), 16);
        assert_eq!(std::mem::size_of::<M256U>(), 32);
        assert_eq!(std::mem::size_of::<M512U>(), 64);
    }

    #[test]
    fn lane_round_trip() {
        let u = M128U::from_lanes([1, 2]);
        assert_eq!(u.lanes(), [1, 2]);
        let u = M256U::from_lanes([1, 2, 3, 4]);
        assert_eq!(u.lanes(), [1, 2, 3, 4]);
        let u = M512U::from_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(u.lanes(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn register_view_round_trip() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        use std::arch::x86_64::*;
        // SAFETY: avx2 checked; union views are same-size POD.
        unsafe {
            let v = _mm256_setr_epi64x(10, 20, 30, 40);
            let u = M256U { m: v };
            assert_eq!(u.lanes(), [10, 20, 30, 40]);
        }
    }
}
