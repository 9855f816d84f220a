//! Tuning knobs for the sweep kernels — the `KernelConfig` seam.
//!
//! The seed hard-coded the staging-buffer budget (256 KB) and the
//! transpose tile side (64) for one cache size, and its inner loops were
//! scalar. This module centralises those constants, adds the SIMD and
//! computed-index toggles, and gives every front door (the native
//! executor, the engines, the queue drainers, and every backend) one
//! place to read them from:
//!
//! * [`KernelConfig::default`] — the seed's values, SIMD on;
//! * [`KernelConfig::from_env`] — the default with [`SIMD_ENV`]
//!   (`HMM_NATIVE_SIMD`) and [`COMPUTED_INDEX_ENV`]
//!   (`HMM_NATIVE_COMPUTED_INDEX`) applied, so a deployment can force
//!   the scalar reference path or the materialized-map gather path
//!   without recompiling;
//! * [`KernelConfig::global`] — the process-wide snapshot engines use
//!   unless a caller threads an explicit config through;
//! * [`KernelConfig::scalar`] — the always-available scalar reference:
//!   scalar kernel tiers and map-loaded indices. The differential suite
//!   uses it as the correctness oracle for every other config point.
//!
//! The kernels stage through one buffer and issue no software prefetch:
//! an A/B (EXPERIMENTS.md, "Knob ablation") showed neither a second
//! staging buffer nor gather-map prefetch beating run-to-run noise.
//!
//! The config is backend-neutral on purpose: the CPU executor reads
//! `stage_bytes`/`simd`/`computed_index`, while the sweep-kernel IR
//! lowering ([`crate::sweep::SweepIr`]) reads `tile` as the tiled
//! transpose's side — so a calibrated tile travels to the WGSL codegen
//! and the interpreter unchanged.

use crate::env::parse_env;
use std::sync::OnceLock;

/// Environment variable: set to `0`/`off`/`false` to disable the SIMD
/// kernel tiers process-wide, `1`/`on`/`true` to leave them enabled
/// (also the unset default; the `core::arch` tier additionally requires
/// runtime CPU support). Anything else is loudly ignored — like
/// `HMM_NATIVE_THREADS`, a typo'd override must never silently select
/// the wrong kernels.
pub const SIMD_ENV: &str = "HMM_NATIVE_SIMD";

/// Environment variable: set to `0`/`off`/`false` to disable the
/// computed-index (affine-fold) kernel path for structured plans —
/// forcing every gather sweep back onto materialized map loads — or
/// `1`/`on`/`true` to leave it enabled (also the unset default). Parsed
/// with the same strict warn-once rules as [`SIMD_ENV`]: a typo'd value
/// never silently selects a kernel path.
pub const COMPUTED_INDEX_ENV: &str = "HMM_NATIVE_COMPUTED_INDEX";

/// Default per-worker staging-buffer budget in bytes (the seed's
/// `262_144`): one gathered input block must fit in the last-level
/// private cache alongside the output tile being written.
pub const DEFAULT_STAGE_BYTES: usize = 262_144;

/// Default blocked-transpose tile side in elements (the seed's `64`):
/// 64×64 u32 tiles are 16 KB, comfortably L1/L2-resident.
pub const DEFAULT_TILE: usize = 64;

/// Tuning parameters for the three fused sweep kernels.
///
/// All fields are plain data; a config is cheap to copy and carries no
/// invariants beyond "non-zero where zero makes no sense" — the kernels
/// clamp degenerate values (`tile` to ≥ 8, `stage_bytes` to at least one
/// input row) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Per-worker staging-buffer budget in bytes. Bounds how many input
    /// rows one gather block stages before transposing out.
    pub stage_bytes: usize,
    /// Blocked-transpose tile side in elements. Also the tile side the
    /// sweep-kernel IR lowers into [`crate::sweep::SweepKernel`]'s tiled
    /// transpose (clamped there to the matrix's smaller dimension).
    pub tile: usize,
    /// Enable the vectorized kernel tiers: the width-specialized
    /// no-bounds-check chunked paths everywhere, plus the `core::arch`
    /// AVX2 paths on x86-64 hosts that support them (runtime-detected).
    /// `false` selects the scalar reference kernels.
    pub simd: bool,
    /// Compute gather indices in registers (the affine XOR-fold) for
    /// plans that carry verified descriptors, instead of loading the
    /// materialized map alongside the data. Plans without descriptors
    /// (König-colored) always use map loads regardless of this flag.
    pub computed_index: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            stage_bytes: DEFAULT_STAGE_BYTES,
            tile: DEFAULT_TILE,
            simd: true,
            computed_index: true,
        }
    }
}

impl KernelConfig {
    /// The default config with [`SIMD_ENV`] and [`COMPUTED_INDEX_ENV`]
    /// applied. For [`SIMD_ENV`], a disabling value (`0`/`off`/`false`)
    /// selects the scalar kernel tiers and nothing else, an enabling
    /// value (`1`/`on`/`true`) or unset keeps the default, and anything
    /// else warns once (via [`crate::env::parse_env`]) and keeps the
    /// default. [`COMPUTED_INDEX_ENV`] follows the same rules for
    /// [`KernelConfig::computed_index`].
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(simd) = parse_env(
            SIMD_ENV,
            "0/1/on/off/true/false; keeping SIMD enabled",
            parse_simd_override,
        ) {
            cfg.simd = simd;
        }
        if let Some(computed) = parse_env(
            COMPUTED_INDEX_ENV,
            "0/1/on/off/true/false; keeping computed-index enabled",
            parse_simd_override,
        ) {
            cfg.computed_index = computed;
        }
        cfg
    }

    /// The process-wide config: [`KernelConfig::from_env`] evaluated
    /// once, at first use. Callers that need a different config per
    /// plan thread one through explicitly instead.
    pub fn global() -> Self {
        static GLOBAL: OnceLock<KernelConfig> = OnceLock::new();
        *GLOBAL.get_or_init(Self::from_env)
    }

    /// The scalar reference configuration: scalar kernel tiers and
    /// map-loaded indices (no computed-index fold), default block and
    /// tile sizes.
    /// This is the correctness oracle every vectorized or computed
    /// config point is differentially tested against, and the "before"
    /// side of the bench's `engine_simd_off` rows.
    pub fn scalar() -> Self {
        KernelConfig {
            simd: false,
            computed_index: false,
            ..Self::default()
        }
    }
}

/// Parse an `HMM_NATIVE_SIMD` override: `1`/`on`/`true` enable,
/// `0`/`off`/`false` disable (ASCII case-insensitive, surrounding
/// whitespace ignored); anything else is invalid and yields `None`.
/// Factored out of [`KernelConfig::from_env`] so the parse rules are
/// testable without racing on the process-global environment (the same
/// split `HMM_NATIVE_THREADS` uses).
fn parse_simd_override(v: &str) -> Option<bool> {
    match v.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_seed_constants() {
        let cfg = KernelConfig::default();
        assert_eq!(cfg.stage_bytes, 262_144);
        assert_eq!(cfg.tile, 64);
        assert!(cfg.simd);
        assert!(cfg.computed_index);
    }

    #[test]
    fn scalar_is_the_reference_point() {
        let cfg = KernelConfig::scalar();
        assert!(!cfg.simd);
        assert!(!cfg.computed_index);
        assert_eq!(cfg.tile, DEFAULT_TILE);
        assert_eq!(cfg.stage_bytes, DEFAULT_STAGE_BYTES);
    }

    #[test]
    fn simd_override_parse_matrix() {
        // Disabling spellings — the old code only honored the literal "0",
        // so "off"/"false" silently *enabled* SIMD.
        for v in ["0", "off", "false", "OFF", "False", " 0 ", "\toff\n"] {
            assert_eq!(parse_simd_override(v), Some(false), "{v:?}");
        }
        for v in ["1", "on", "true", "ON", "True", " 1 "] {
            assert_eq!(parse_simd_override(v), Some(true), "{v:?}");
        }
        // Invalid values are rejected (from_env warns and keeps the
        // default) rather than being treated as "enable".
        for v in ["", "2", "yes", "no", "garbage", "0x1", "-1"] {
            assert_eq!(parse_simd_override(v), None, "{v:?}");
        }
    }
}
