//! The vector execution scheduler (paper §III-B, Fig. 4).
//!
//! Three components:
//!
//! 1. **Shape inferer** — computes the output dimensions of every operator
//!    from input and filter sizes ([`try_infer_conv`], [`try_infer_pool`]).
//! 2. **Hardware detector** — [`crate::detect`].
//! 3. **Code generator / kernel selector** — [`VectorScheduler::select`]
//!    applies the paper's rules to pick a computing kernel per operator:
//!
//!    * channel bits ≡ 0 (mod 512) → pack into `__m512i`, use AVX-512;
//!    * ≡ 0 (mod 256) → `__m256i`, AVX2;
//!    * ≡ 0 (mod 128) → `__m128i`, SSE;
//!    * ≡ 0 (mod 32/64) → scalar word intrinsics;
//!    * otherwise → pad extra zero channels, then scalar words.
//!
//!    A rule whose ISA is missing demotes to the next narrower one — e.g.
//!    C = 512 on an AVX2-only i7 runs the AVX2 kernel, exactly as the paper
//!    describes for conv5.1 on the i7-7700HQ.

use crate::detect::{features, HwFeatures};
use crate::kernels::SimdLevel;
use serde::{Deserialize, Serialize};

/// Word size used for channel packing (we press into `u64`).
pub const PACK_BITS: usize = 64;

/// A geometry the kernel selector / shape inferer cannot schedule.
///
/// These are the typed forms of every precondition §III-B's scheduler
/// imposes on an operator: the serving path surfaces them as errors
/// *before* a kernel is dispatched instead of panicking mid-inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsupportedKernel {
    /// Convolution kernel does not fit in the (padded) input.
    KernelExceedsInput {
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Padded input height.
        h: usize,
        /// Padded input width.
        w: usize,
    },
    /// Pooling window does not fit in the input.
    WindowExceedsInput {
        /// Window height.
        kh: usize,
        /// Window width.
        kw: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
    },
    /// Stride of zero never advances.
    ZeroStride,
    /// A zero-sized dimension (no kernel operates on nothing).
    ZeroDim {
        /// Which dimension was zero.
        what: &'static str,
    },
    /// Channel count so large that padding it to a packable multiple
    /// overflows `usize` — no buffer of that size can exist.
    ChannelOverflow {
        /// The offending channel count.
        c: usize,
    },
    /// Spatial pooling padding is not supported by this engine.
    PoolPadding {
        /// Requested padding.
        pad: usize,
    },
}

impl std::fmt::Display for UnsupportedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsupportedKernel::KernelExceedsInput { kh, kw, h, w } => {
                write!(
                    f,
                    "kernel larger than padded input ({kh}x{kw} over {h}x{w})"
                )
            }
            UnsupportedKernel::WindowExceedsInput { kh, kw, h, w } => {
                write!(f, "window larger than input ({kh}x{kw} over {h}x{w})")
            }
            UnsupportedKernel::ZeroStride => write!(f, "stride must be positive"),
            UnsupportedKernel::ZeroDim { what } => write!(f, "zero-sized {what}"),
            UnsupportedKernel::ChannelOverflow { c } => {
                write!(f, "channel count {c} overflows the packing arithmetic")
            }
            UnsupportedKernel::PoolPadding { pad } => {
                write!(f, "pooling uses no padding in this engine (got pad={pad})")
            }
        }
    }
}

impl std::error::Error for UnsupportedKernel {}

/// The kernel decision for one operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelChoice {
    /// Selected vector width.
    pub level: SimdLevel,
    /// Channel count after zero-padding to a packable multiple.
    pub c_padded: usize,
    /// `u64` words per packed channel vector.
    pub c_words: usize,
    /// True if rule 5 fired (channels were padded).
    pub padded: bool,
}

/// Geometry of a convolution/pooling operator as seen by the shape inferer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Output channels (K for conv, C for pool).
    pub out_c: usize,
}

/// Fallible shape inferer for convolution: input (h, w, c) with symmetric
/// spatial padding `pad`, K filters of kh×kw, given stride. Every geometry
/// a kernel could not run on comes back as a typed [`UnsupportedKernel`].
pub fn try_infer_conv(
    h: usize,
    w: usize,
    k: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<ConvGeometry, UnsupportedKernel> {
    if kh == 0 || kw == 0 {
        return Err(UnsupportedKernel::ZeroDim { what: "kernel" });
    }
    if k == 0 {
        return Err(UnsupportedKernel::ZeroDim {
            what: "filter count",
        });
    }
    if stride == 0 {
        return Err(UnsupportedKernel::ZeroStride);
    }
    let margin = pad
        .checked_mul(2)
        .ok_or(UnsupportedKernel::ChannelOverflow { c: pad })?;
    let (ph, pw) = (
        h.checked_add(margin)
            .ok_or(UnsupportedKernel::ChannelOverflow { c: h })?,
        w.checked_add(margin)
            .ok_or(UnsupportedKernel::ChannelOverflow { c: w })?,
    );
    if kh > ph || kw > pw {
        return Err(UnsupportedKernel::KernelExceedsInput {
            kh,
            kw,
            h: ph,
            w: pw,
        });
    }
    Ok(ConvGeometry {
        out_h: (ph - kh) / stride + 1,
        out_w: (pw - kw) / stride + 1,
        out_c: k,
    })
}

/// Fallible shape inferer for pooling: window kh×kw with given stride,
/// channels kept.
pub fn try_infer_pool(
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
) -> Result<ConvGeometry, UnsupportedKernel> {
    if kh == 0 || kw == 0 {
        return Err(UnsupportedKernel::ZeroDim { what: "window" });
    }
    if c == 0 {
        return Err(UnsupportedKernel::ZeroDim { what: "channels" });
    }
    if stride == 0 {
        return Err(UnsupportedKernel::ZeroStride);
    }
    if kh > h || kw > w {
        return Err(UnsupportedKernel::WindowExceedsInput { kh, kw, h, w });
    }
    Ok(ConvGeometry {
        out_h: (h - kh) / stride + 1,
        out_w: (w - kw) / stride + 1,
        out_c: c,
    })
}

/// The scheduler proper: holds a (possibly capped) hardware feature set and
/// maps channel widths to kernels.
#[derive(Clone, Copy, Debug)]
pub struct VectorScheduler {
    features: HwFeatures,
}

impl Default for VectorScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorScheduler {
    /// Scheduler for the running CPU.
    pub fn new() -> Self {
        Self {
            features: features(),
        }
    }

    /// Scheduler for an explicit feature set (tests, ablations, the
    /// unoptimized-binary baseline).
    pub fn with_features(features: HwFeatures) -> Self {
        Self { features }
    }

    /// The feature set this scheduler plans for.
    pub fn features(&self) -> HwFeatures {
        self.features
    }

    /// Applies the paper's kernel-selection rules to a channel width,
    /// rejecting widths no kernel can serve (zero, or so large that the
    /// pad-to-packable rule overflows) instead of panicking.
    pub fn try_select(&self, c: usize) -> Result<KernelChoice, UnsupportedKernel> {
        if c == 0 {
            return Err(UnsupportedKernel::ZeroDim { what: "channels" });
        }
        let f = self.features;
        let padded = !c.is_multiple_of(32);
        // We pack into u64 words, so pad to the next multiple of 64 whenever
        // padding is needed at all; for c ≡ 32 (mod 64) the top half of the
        // final word is a zero press-tail handled by the packing invariant.
        let c_padded = if padded {
            c.div_ceil(PACK_BITS)
                .checked_mul(PACK_BITS)
                .ok_or(UnsupportedKernel::ChannelOverflow { c })?
        } else {
            c
        };
        let c_words = c_padded.div_ceil(PACK_BITS);
        let level = Self::select_level(c_padded, f);
        Ok(KernelChoice {
            level,
            c_padded,
            c_words,
            padded,
        })
    }

    /// Applies the paper's kernel-selection rules to a channel width
    /// (panicking wrapper over [`VectorScheduler::try_select`]).
    ///
    /// # Panics
    /// On a channel width no kernel can serve (see [`UnsupportedKernel`]).
    pub fn select(&self, c: usize) -> KernelChoice {
        match self.try_select(c) {
            Ok(k) => k,
            Err(e) => panic!("{e}"),
        }
    }

    fn select_level(c_bits: usize, f: HwFeatures) -> SimdLevel {
        // Paper rules, cascading to narrower ISAs when a width is not a
        // divisor or the ISA is absent.
        if c_bits.is_multiple_of(512) && f.avx512f {
            SimdLevel::Avx512
        } else if c_bits.is_multiple_of(256) && f.avx2 {
            SimdLevel::Avx2
        } else if c_bits.is_multiple_of(128) && f.sse2 {
            SimdLevel::Sse
        } else {
            SimdLevel::Scalar
        }
    }

    /// The level for operators whose vector width is not tied to the
    /// per-pixel channel width: bgemm rows (long contiguous word runs, where
    /// masked tails make any length efficient) and the filter-lane conv core
    /// ([`crate::conv`], whose lanes are eight output filters at every C).
    /// Simply the widest available. [`Self::select`] keeps the §III-B
    /// channel rule for packing width, pools and reporting.
    pub fn streaming_level(&self) -> SimdLevel {
        SimdLevel::best_for(self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> HwFeatures {
        HwFeatures {
            sse2: true,
            ssse3: true,
            popcnt: true,
            avx2: true,
            avx512f: true,
            avx512bw: true,
            avx512vpopcntdq: true,
            amx_int8: true,
        }
    }

    #[test]
    fn paper_vgg_mapping_on_xeon_phi() {
        // Paper Fig. 6: conv1.1 C=3 → pad; conv2.1 C=64 → scalar words;
        // conv3.1 C=128 → SSE; conv4.1 C=256 → AVX2; conv5.1 C=512 → AVX-512.
        let s = VectorScheduler::with_features(full());
        let c3 = s.select(3);
        assert!(c3.padded);
        assert_eq!(c3.c_padded, 64);
        assert_eq!(c3.level, SimdLevel::Scalar);
        assert_eq!(s.select(64).level, SimdLevel::Scalar);
        assert_eq!(s.select(128).level, SimdLevel::Sse);
        assert_eq!(s.select(256).level, SimdLevel::Avx2);
        assert_eq!(s.select(512).level, SimdLevel::Avx512);
    }

    #[test]
    fn demotion_without_avx512_matches_i7_behaviour() {
        // Paper: conv5.1 uses AVX-512 on Xeon Phi, otherwise AVX2 on Core i7.
        let i7 = HwFeatures {
            avx512f: false,
            avx512bw: false,
            avx512vpopcntdq: false,
            ..full()
        };
        let s = VectorScheduler::with_features(i7);
        assert_eq!(s.select(512).level, SimdLevel::Avx2);
        assert_eq!(s.select(256).level, SimdLevel::Avx2);
    }

    #[test]
    fn scalar_only_always_scalar() {
        let s = VectorScheduler::with_features(HwFeatures::scalar_only());
        for c in [3usize, 64, 128, 256, 512, 4096] {
            assert_eq!(s.select(c).level, SimdLevel::Scalar, "c={c}");
        }
    }

    #[test]
    fn padding_rule() {
        let s = VectorScheduler::with_features(full());
        for (c, want_pad, want_c) in [
            (1usize, true, 64usize),
            (31, true, 64),
            (32, false, 32),
            (33, true, 64),
            (65, true, 128),
            (96, false, 96),
        ] {
            let k = s.select(c);
            assert_eq!(k.padded, want_pad, "c={c}");
            assert_eq!(k.c_padded, want_c, "c={c}");
        }
    }

    #[test]
    fn c_words_consistent() {
        let s = VectorScheduler::with_features(full());
        assert_eq!(s.select(512).c_words, 8);
        assert_eq!(s.select(64).c_words, 1);
        assert_eq!(s.select(3).c_words, 1);
        assert_eq!(s.select(96).c_words, 2);
    }

    #[test]
    fn shape_inferer_conv() {
        // VGG 3x3 stride-1 pad-1 keeps spatial dims.
        let g = try_infer_conv(112, 112, 128, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w, g.out_c), (112, 112, 128));
        // No pad shrinks by k-1.
        let g = try_infer_conv(112, 112, 128, 3, 3, 1, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (110, 110));
        // Stride 2.
        let g = try_infer_conv(8, 8, 4, 2, 2, 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn shape_inferer_pool() {
        let g = try_infer_pool(28, 28, 512, 2, 2, 2).unwrap();
        assert_eq!((g.out_h, g.out_w, g.out_c), (14, 14, 512));
    }

    #[test]
    fn oversized_kernel_rejected_with_typed_error() {
        // Once a panic, now a value: the serving path matches on this.
        assert_eq!(
            try_infer_conv(2, 2, 1, 3, 3, 1, 0),
            Err(UnsupportedKernel::KernelExceedsInput {
                kh: 3,
                kw: 3,
                h: 2,
                w: 2,
            })
        );
        // Padding that makes the kernel fit turns the same call Ok.
        assert!(try_infer_conv(2, 2, 1, 3, 3, 1, 1).is_ok());
    }

    #[test]
    fn hostile_geometries_are_typed_errors() {
        assert_eq!(
            try_infer_conv(8, 8, 4, 3, 3, 0, 1),
            Err(UnsupportedKernel::ZeroStride)
        );
        assert_eq!(
            try_infer_conv(8, 8, 4, 0, 3, 1, 1),
            Err(UnsupportedKernel::ZeroDim { what: "kernel" })
        );
        assert_eq!(
            try_infer_conv(8, 8, 0, 3, 3, 1, 1),
            Err(UnsupportedKernel::ZeroDim {
                what: "filter count"
            })
        );
        assert_eq!(
            try_infer_pool(4, 4, 16, 8, 8, 2),
            Err(UnsupportedKernel::WindowExceedsInput {
                kh: 8,
                kw: 8,
                h: 4,
                w: 4,
            })
        );
        assert_eq!(
            try_infer_pool(4, 4, 0, 2, 2, 2),
            Err(UnsupportedKernel::ZeroDim { what: "channels" })
        );
        // Overflow-sized paddings must not wrap around.
        assert!(try_infer_conv(usize::MAX, 8, 4, 3, 3, 1, 1).is_err());
    }

    #[test]
    fn try_select_rejects_zero_and_overflow_widths() {
        let s = VectorScheduler::with_features(full());
        assert_eq!(
            s.try_select(0),
            Err(UnsupportedKernel::ZeroDim { what: "channels" })
        );
        assert_eq!(
            s.try_select(usize::MAX - 1),
            Err(UnsupportedKernel::ChannelOverflow { c: usize::MAX - 1 })
        );
        assert_eq!(s.try_select(512).map(|k| k.level), Ok(SimdLevel::Avx512));
    }

    #[test]
    fn streaming_level_is_widest() {
        let s = VectorScheduler::with_features(full());
        assert_eq!(s.streaming_level(), SimdLevel::Avx512);
        let s = VectorScheduler::with_features(HwFeatures::scalar_only());
        assert_eq!(s.streaming_level(), SimdLevel::Scalar);
    }
}
