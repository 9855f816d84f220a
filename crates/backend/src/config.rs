//! Tuning knobs for the sweep kernels — the `KernelConfig` seam.
//!
//! The seed hard-coded the transpose tile side (64) for one cache size,
//! and its inner loops were scalar. This module centralises that
//! constant, adds the SIMD and computed-index toggles, and gives every
//! front door (the native executor, the engines, and every backend) one
//! place to read them from:
//!
//! * [`KernelConfig::default`] — the seed's tile with SIMD and computed
//!   indices on: what every engine starts with until a caller threads
//!   another config through (`SharedEngine::set_kernel_config`);
//! * [`KernelConfig::scalar`] — the always-available scalar reference:
//!   scalar kernel tiers and map-loaded indices. The differential suite
//!   uses it as the correctness oracle for every other config point.
//!
//! There is no staging budget: the native fused sweeps gather each band
//! of input rows straight into its transposed place and stage nothing
//! (EXPERIMENTS.md, "König sweeps without a staging buffer"). They issue
//! no software prefetch either; an A/B (EXPERIMENTS.md, "Knob ablation")
//! showed gather-map prefetch not beating run-to-run noise.
//!
//! The config is backend-neutral on purpose: the CPU executor reads
//! `simd`/`computed_index`, while the sweep-kernel IR lowering
//! ([`crate::sweep::SweepIr`]) reads `tile` as the tiled transpose's
//! side — so a tile set through `KernelConfig` reaches the WGSL codegen
//! and the interpreter unchanged.

/// Default blocked-transpose tile side in elements (the seed's `64`):
/// 64×64 u32 tiles are 16 KB, comfortably L1/L2-resident.
pub const DEFAULT_TILE: usize = 64;

/// Tuning parameters for the three fused sweep kernels.
///
/// All fields are plain data; a config is cheap to copy and carries no
/// invariants beyond "non-zero where zero makes no sense" — the kernels
/// clamp a degenerate `tile` (to ≥ 8) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Blocked-transpose tile side in elements: the tile side the
    /// sweep-kernel IR lowers into [`crate::sweep::SweepKernel`]'s tiled
    /// transpose (clamped there to the matrix's smaller dimension). The
    /// native CPU sweeps gather whole bands into place and do not read
    /// it.
    pub tile: usize,
    /// Enable the vectorized kernel tiers: the width-specialized
    /// no-bounds-check chunked paths everywhere, plus the `core::arch`
    /// AVX2 paths on x86-64 hosts that support them (runtime-detected).
    /// `false` selects the scalar reference kernels.
    pub simd: bool,
    /// Map-free kernels for structured plans (those that carry verified
    /// affine descriptors): the native backend runs such a plan as one
    /// tiled pass over its BMMC instead of the three map-load sweeps, and
    /// the sweep-IR lowering folds each gather index from its descriptor
    /// instead of loading the materialized map. Plans without
    /// descriptors (König-colored) always run the map-load sweeps
    /// regardless of this flag.
    pub computed_index: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tile: DEFAULT_TILE,
            simd: true,
            computed_index: true,
        }
    }
}

impl KernelConfig {
    /// The scalar reference configuration: scalar kernel tiers and
    /// map-loaded indices (no computed-index fold), the default tile.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_seed_constants() {
        let cfg = KernelConfig::default();
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
    }
}
