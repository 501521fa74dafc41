//! SIMD dispatch policy shared by every vectorized kernel in the workspace.
//!
//! Each hot-loop kernel (bit-unpacking, hash folding, selection compaction)
//! ships three arms with bit-identical results:
//!
//! * **Avx2** — explicit `std::arch::x86_64` intrinsics, selected at runtime
//!   with `is_x86_feature_detected!` so a single binary runs everywhere;
//! * **Swar** — portable "SIMD within a register": multiple values per `u64`
//!   word with unrolled fixed-shift groups, no target features required;
//! * **Scalar** — the original value-at-a-time loops, kept as the property
//!   test oracle and as the "before" arm of the perf trajectory.
//!
//! The active arm is resolved once and cached. Two overrides exist for CI
//! and benchmarking:
//!
//! * the `VH_SIMD` environment variable (`avx2` / `swar` / `scalar`) pins the
//!   arm for the whole process — CI runs the test suite under `VH_SIMD=swar`
//!   so the portable arm is exercised even on AVX2 hosts;
//! * building with `--cfg vectorh_force_swar` compiles the AVX2 arm out
//!   entirely, proving the portable path has no hidden AVX2 dependency.
//!
//! Benchmarks flip arms at runtime with [`force_mode`] to measure
//! before/after pairs inside one process.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel arm to run. See the module docs for the selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Explicit AVX2 intrinsics (x86_64 with runtime feature detection).
    Avx2,
    /// Portable multi-value-per-u64 arm.
    Swar,
    /// Value-at-a-time oracle loops.
    Scalar,
}

impl SimdMode {
    /// Parse a `VH_SIMD` value. Unknown strings return `None` (auto-detect).
    pub fn from_env_str(s: &str) -> Option<SimdMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx2" => Some(SimdMode::Avx2),
            "swar" => Some(SimdMode::Swar),
            "scalar" => Some(SimdMode::Scalar),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Avx2 => "avx2",
            SimdMode::Swar => "swar",
            SimdMode::Scalar => "scalar",
        }
    }
}

const MODE_UNSET: u8 = 0;
const MODE_AVX2: u8 = 1;
const MODE_SWAR: u8 = 2;
const MODE_SCALAR: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn encode(m: SimdMode) -> u8 {
    match m {
        SimdMode::Avx2 => MODE_AVX2,
        SimdMode::Swar => MODE_SWAR,
        SimdMode::Scalar => MODE_SCALAR,
    }
}

fn decode(v: u8) -> Option<SimdMode> {
    match v {
        MODE_AVX2 => Some(SimdMode::Avx2),
        MODE_SWAR => Some(SimdMode::Swar),
        MODE_SCALAR => Some(SimdMode::Scalar),
        _ => None,
    }
}

/// True when the AVX2 arm is compiled in *and* the CPU supports it.
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(vectorh_force_swar)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(vectorh_force_swar))))]
    {
        false
    }
}

fn detect() -> SimdMode {
    if let Ok(s) = std::env::var("VH_SIMD") {
        if let Some(m) = SimdMode::from_env_str(&s) {
            // An env request for AVX2 on a host without it falls back to
            // SWAR rather than executing illegal instructions.
            if m != SimdMode::Avx2 || avx2_available() {
                return m;
            }
            return SimdMode::Swar;
        }
    }
    if avx2_available() {
        SimdMode::Avx2
    } else {
        SimdMode::Swar
    }
}

/// The process-wide kernel arm (detected once, then cached).
#[inline]
pub fn simd_mode() -> SimdMode {
    if let Some(m) = decode(MODE.load(Ordering::Relaxed)) {
        return m;
    }
    let m = detect();
    MODE.store(encode(m), Ordering::Relaxed);
    m
}

/// Pin (or with `None`, re-detect) the kernel arm. Tests use this to run
/// every arm in one process and compare it with the scalar oracle;
/// production code never calls it. Requests for an unavailable arm degrade
/// like [`simd_mode`] detection.
pub fn force_mode(mode: Option<SimdMode>) {
    match mode {
        None => MODE.store(MODE_UNSET, Ordering::Relaxed),
        Some(SimdMode::Avx2) if !avx2_available() => {
            MODE.store(MODE_SWAR, Ordering::Relaxed);
        }
        Some(m) => MODE.store(encode(m), Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_strings_parse() {
        assert_eq!(SimdMode::from_env_str("avx2"), Some(SimdMode::Avx2));
        assert_eq!(SimdMode::from_env_str(" SWAR "), Some(SimdMode::Swar));
        assert_eq!(SimdMode::from_env_str("Scalar"), Some(SimdMode::Scalar));
        assert_eq!(SimdMode::from_env_str("neon"), None);
        assert_eq!(SimdMode::from_env_str(""), None);
    }

    #[test]
    fn forcing_pins_and_unpinning_redetects() {
        let auto = simd_mode();
        force_mode(Some(SimdMode::Scalar));
        assert_eq!(simd_mode(), SimdMode::Scalar);
        force_mode(Some(SimdMode::Swar));
        assert_eq!(simd_mode(), SimdMode::Swar);
        force_mode(None);
        assert_eq!(simd_mode(), auto);
    }

    #[test]
    fn avx2_request_degrades_when_unavailable() {
        force_mode(Some(SimdMode::Avx2));
        let got = simd_mode();
        if avx2_available() {
            assert_eq!(got, SimdMode::Avx2);
        } else {
            assert_eq!(got, SimdMode::Swar);
        }
        force_mode(None);
    }
}
