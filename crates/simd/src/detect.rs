//! Hardware detector — one of the three components of the paper's vector
//! execution scheduler (shape inferer, **hardware detector**, code
//! generator/kernel selector).
//!
//! Detection runs once per process and is cached; kernels then trust the
//! cached flags, which is sound because CPU features never disappear at
//! runtime.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The SIMD capabilities BitFlow cares about.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwFeatures {
    /// 128-bit integer SIMD (`_mm_xor_si128`). Baseline on all x86-64.
    pub sse2: bool,
    /// Byte shuffles used by the nibble-lookup popcount.
    pub ssse3: bool,
    /// Scalar `POPCNT` instruction.
    pub popcnt: bool,
    /// 256-bit integer SIMD (`_mm256_xor_si256`).
    pub avx2: bool,
    /// 512-bit foundation (`_mm512_xor_si512`, masked ops).
    pub avx512f: bool,
    /// AVX-512 byte/word ops (needed by some popcount fallbacks).
    pub avx512bw: bool,
    /// `_mm512_popcnt_epi64` — the VPOPCNTDQ extension of paper Table I.
    pub avx512vpopcntdq: bool,
    /// The AMX int8 matrix unit (`tdpbssd`), usable by this process: the
    /// CPU has it, the OS saves its tile state, and the kernel granted the
    /// tile-data permission. Absent from JSON written before it existed.
    #[serde(default)]
    pub amx_int8: bool,
}

impl HwFeatures {
    /// Queries the running CPU.
    #[cfg(target_arch = "x86_64")]
    pub fn detect() -> Self {
        Self {
            sse2: is_x86_feature_detected!("sse2"),
            ssse3: is_x86_feature_detected!("ssse3"),
            popcnt: is_x86_feature_detected!("popcnt"),
            avx2: is_x86_feature_detected!("avx2"),
            avx512f: is_x86_feature_detected!("avx512f"),
            avx512bw: is_x86_feature_detected!("avx512bw"),
            avx512vpopcntdq: is_x86_feature_detected!("avx512vpopcntdq"),
            amx_int8: amx_int8_usable(),
        }
    }

    /// Non-x86 fallback: everything scalar.
    #[cfg(not(target_arch = "x86_64"))]
    pub fn detect() -> Self {
        Self::default()
    }

    /// A feature set with everything disabled — forces the scalar path,
    /// used by tests and by the `unoptimized binary` baseline of the paper's
    /// Fig. 7.
    pub const fn scalar_only() -> Self {
        Self {
            sse2: false,
            ssse3: false,
            popcnt: false,
            avx2: false,
            avx512f: false,
            avx512bw: false,
            avx512vpopcntdq: false,
            amx_int8: false,
        }
    }

    /// Caps this feature set at a maximum vector width in bits (128/256/512).
    /// Used by the ablation benches to force narrower kernels on wide
    /// hardware, reproducing the paper's per-ISA comparisons on one machine.
    /// The matrix unit goes with AVX-512, whose registers its epilogue uses.
    pub fn capped(mut self, max_bits: usize) -> Self {
        if max_bits < 512 {
            self.avx512f = false;
            self.avx512bw = false;
            self.avx512vpopcntdq = false;
            self.amx_int8 = false;
        }
        if max_bits < 256 {
            self.avx2 = false;
        }
        if max_bits < 128 {
            self.sse2 = false;
            self.ssse3 = false;
        }
        self
    }

    /// Widest usable xor+popcount path in bits.
    pub fn max_width_bits(&self) -> usize {
        if self.avx512f {
            512
        } else if self.avx2 {
            256
        } else if self.sse2 {
            128
        } else {
            64
        }
    }
}

impl fmt::Display for HwFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.sse2 {
            names.push("sse2");
        }
        if self.ssse3 {
            names.push("ssse3");
        }
        if self.popcnt {
            names.push("popcnt");
        }
        if self.avx2 {
            names.push("avx2");
        }
        if self.avx512f {
            names.push("avx512f");
        }
        if self.avx512bw {
            names.push("avx512bw");
        }
        if self.avx512vpopcntdq {
            names.push("avx512vpopcntdq");
        }
        if self.amx_int8 {
            names.push("amx-int8");
        }
        if names.is_empty() {
            write!(f, "scalar-only")
        } else {
            write!(f, "{}", names.join("+"))
        }
    }
}

/// Process-wide cached feature set of the running CPU.
pub fn features() -> HwFeatures {
    static CACHE: OnceLock<HwFeatures> = OnceLock::new();
    *CACHE.get_or_init(HwFeatures::detect)
}

/// Whether this process may run AMX int8 instructions: CPUID.(7,0):EDX
/// bits 24 (AMX-TILE) and 25 (AMX-INT8), XCR0 bits 17 and 18 (the OS
/// saves TILECFG and TILEDATA), and the tile-data permission Linux grants
/// per process on request (`arch_prctl(ARCH_REQ_XCOMP_PERM,
/// XFEATURE_XTILEDATA)`). The request is made once; a refusal means no
/// AMX, never a fault.
#[cfg(target_arch = "x86_64")]
fn amx_int8_usable() -> bool {
    use std::arch::x86_64::{__cpuid_count, _xgetbv};
    const AMX_TILE_INT8: u32 = 0b11 << 24;
    const XTILECFG_XTILEDATA: u64 = 0b11 << 17;
    static PERMITTED: OnceLock<bool> = OnceLock::new();
    // `xgetbv` faults unless the OS enabled XSAVE, which `xsave` implies.
    if !is_x86_feature_detected!("xsave")
        || __cpuid_count(7, 0).edx & AMX_TILE_INT8 != AMX_TILE_INT8
    {
        return false;
    }
    // SAFETY: XSAVE is enabled (checked above), so XGETBV is defined.
    if unsafe { _xgetbv(0) } & XTILECFG_XTILEDATA != XTILECFG_XTILEDATA {
        return false;
    }
    *PERMITTED.get_or_init(request_tile_data)
}

#[cfg(not(target_arch = "x86_64"))]
fn amx_int8_usable() -> bool {
    false
}

/// Asks Linux for the tile-data permission; `true` when granted.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn request_tile_data() -> bool {
    const SYS_ARCH_PRCTL: i64 = 158;
    const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
    const XFEATURE_XTILEDATA: i64 = 18;
    extern "C" {
        fn syscall(number: i64, ...) -> i64;
    }
    // SAFETY: `arch_prctl(ARCH_REQ_XCOMP_PERM, feature)` takes two integer
    // arguments and only changes which XSAVE components the process may
    // use; an older kernel answers −1 (EINVAL).
    unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0 }
}

#[cfg(all(target_arch = "x86_64", not(target_os = "linux")))]
fn request_tile_data() -> bool {
    false
}

/// Where a [`MachineInfo`] frequency estimate came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FreqSource {
    /// Parsed from `/proc/cpuinfo` (`cpu MHz`, max over cores).
    Cpuinfo,
    /// Timed dependent-multiply chain (3 cycles per iteration assumed).
    Calibrated,
    /// Neither worked; a conservative 2.0 GHz default.
    Assumed,
}

/// What the roofline model needs to know about the machine beyond ISA
/// feature bits: how many cores it has and how fast they run. The paper's
/// speedups are all relative to hardware peak; this struct is the
/// denominator's raw material.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// SIMD capability flags (same as [`features`]).
    pub features: HwFeatures,
    /// Logical cores visible to this process.
    pub logical_cores: usize,
    /// Estimated sustained core frequency in GHz. An *estimate*: cpuinfo
    /// reports the current governor frequency, and the calibration loop
    /// assumes a 3-cycle dependent multiply — either is within the ~10%
    /// accuracy a roofline needs.
    pub freq_ghz: f64,
    /// Where the frequency estimate came from.
    pub freq_source: FreqSource,
}

impl MachineInfo {
    /// Queries the running machine (features, core count, frequency).
    pub fn detect() -> Self {
        let (freq_ghz, freq_source) = match cpuinfo_max_mhz() {
            Some(mhz) if mhz > 100.0 => (mhz / 1e3, FreqSource::Cpuinfo),
            _ => match calibrate_ghz() {
                Some(ghz) => (ghz, FreqSource::Calibrated),
                None => (2.0, FreqSource::Assumed),
            },
        };
        Self {
            features: features(),
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            freq_ghz,
            freq_source,
        }
    }
}

/// Process-wide cached [`MachineInfo`] (frequency is sampled once).
pub fn machine() -> MachineInfo {
    static CACHE: OnceLock<MachineInfo> = OnceLock::new();
    *CACHE.get_or_init(MachineInfo::detect)
}

/// Maximum `cpu MHz` reported by `/proc/cpuinfo`, if the file exists and
/// carries the field (bare-metal and most VMs do; some containers do not).
fn cpuinfo_max_mhz() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .filter(|l| l.starts_with("cpu MHz"))
        .filter_map(|l| l.split(':').nth(1)?.trim().parse::<f64>().ok())
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        })
}

/// Frequency estimate from a timed dependent-multiply chain. A 64-bit
/// integer multiply has had 3-cycle latency on every mainstream x86 core
/// since Sandy Bridge, so `3 × iterations / elapsed` approximates the
/// clock. Returns `None` for implausible results (interpreter-speed debug
/// builds, pathological preemption).
fn calibrate_ghz() -> Option<f64> {
    use std::time::Instant;
    const ITERS: u64 = 10_000_000;
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        // LCG step: the multiply's 3-cycle latency chain dominates; the
        // add hides in the same dependency slot.
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    let dt = t0.elapsed();
    std::hint::black_box(x);
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        return None;
    }
    let ghz = 3.0 * ITERS as f64 / secs / 1e9;
    // Anything outside [0.2, 8] GHz means the 1-mul-per-3-cycles model
    // didn't hold (unoptimized build, SMT preemption storm): report failure
    // rather than a wild number.
    (0.2..=8.0).contains(&ghz).then_some(ghz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_consistent_with_cache() {
        assert_eq!(features(), HwFeatures::detect());
    }

    #[test]
    fn x86_64_always_has_sse2() {
        #[cfg(target_arch = "x86_64")]
        assert!(features().sse2, "SSE2 is architectural on x86-64");
    }

    #[test]
    fn scalar_only_has_no_width() {
        let f = HwFeatures::scalar_only();
        assert_eq!(f.max_width_bits(), 64);
        assert_eq!(f.to_string(), "scalar-only");
    }

    #[test]
    fn capping_demotes_monotonically() {
        let full = HwFeatures {
            sse2: true,
            ssse3: true,
            popcnt: true,
            avx2: true,
            avx512f: true,
            avx512bw: true,
            avx512vpopcntdq: true,
            amx_int8: true,
        };
        assert_eq!(full.max_width_bits(), 512);
        assert_eq!(full.capped(256).max_width_bits(), 256);
        assert_eq!(full.capped(128).max_width_bits(), 128);
        assert_eq!(full.capped(64).max_width_bits(), 64);
        // Capping never re-enables features.
        assert!(!full.capped(128).avx2);
        assert_eq!(full.capped(512), full);
        // The matrix unit leaves with AVX-512, and with everything else.
        assert!(!full.capped(256).amx_int8);
        assert!(!full.capped(511).amx_int8);
        assert!(!HwFeatures::scalar_only().amx_int8);
        assert_eq!(
            full.to_string(),
            "sse2+ssse3+popcnt+avx2+avx512f+avx512bw+avx512vpopcntdq+amx-int8"
        );
        assert!(!full.capped(256).to_string().contains("amx"));
    }

    #[test]
    fn json_written_before_the_amx_flag_reads_as_no_amx() {
        let old = r#"{"sse2":true,"ssse3":true,"popcnt":true,"avx2":true,
            "avx512f":true,"avx512bw":true,"avx512vpopcntdq":true}"#;
        let f: HwFeatures = serde_json::from_str(old).expect("pre-AMX JSON parses");
        assert!(f.avx512vpopcntdq && !f.amx_int8);
        let with = serde_json::to_string(&HwFeatures {
            amx_int8: true,
            ..f
        })
        .expect("serialize");
        let back: HwFeatures = serde_json::from_str(&with).expect("round trip");
        assert!(back.amx_int8);
    }

    #[test]
    fn amx_implies_the_avx512_registers_its_epilogue_uses() {
        let f = features();
        if f.amx_int8 {
            assert!(f.avx512f && f.avx512bw, "{f}");
        }
    }

    #[test]
    fn machine_info_is_sane_and_cached() {
        let m = machine();
        assert_eq!(m, machine(), "second call returns the cached value");
        assert!(m.logical_cores >= 1);
        assert!(
            (0.2..=8.0).contains(&m.freq_ghz),
            "freq {} GHz from {:?}",
            m.freq_ghz,
            m.freq_source
        );
        assert_eq!(m.features, features());
    }

    #[test]
    fn machine_info_round_trips_through_json() {
        let m = machine();
        let json = serde_json::to_string(&m).expect("serialize");
        let back: MachineInfo = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, m);
    }

    #[test]
    fn avx512_implication() {
        let f = features();
        // vpopcntdq never appears without avx512f on real silicon.
        if f.avx512vpopcntdq {
            assert!(f.avx512f);
        }
    }
}
