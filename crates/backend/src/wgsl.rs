//! WGSL code generation from the sweep-kernel IR — the GPU-facing
//! consumer of [`SweepIr`].
//!
//! [`module_wgsl`] emits one self-contained WGSL compute module per
//! lowered plan: a constants block baked from the plan's geometry, four
//! storage bindings matching [`BufferId`], and one entry point per
//! [`SweepStep`] instantiated from three kernel templates (row gather,
//! tiled transpose, row permute). The style is a monomorphising text
//! lowering, kubecl-style: no runtime uniforms, no specialisation
//! constants — every shape, tile side, and pad is a `const` in the
//! source, so the shader text *is* the program and two map-lowered
//! plans with the same geometry produce byte-identical modules. That
//! determinism is what the golden-snapshot tests pin. Computed-index
//! programs (structured plans lowered with their affine descriptors)
//! additionally bake the descriptor's masks into the gather kernels,
//! so their text is keyed by the *permutation*, not just the geometry
//! — still deterministic, snapshot-pinned per structured family.
//!
//! WGSL has no 64-bit integer type, so 8-byte elements lower to
//! `vec2<u32>` ([`WgslElem::U64`]) — the kernels only move values, never
//! inspect them, so the lane split is free.
//!
//! The gather maps are *not* embedded in the text (they are plan-sized
//! data); a host runtime uploads them into the `map1/map2/map3` storage
//! buffers the module declares. Computed-index programs skip the upload
//! entirely — their gather kernels never read the map bindings, which
//! are kept declared so both module forms share one bind-group layout.
//! Dispatch geometry for each entry point is derivable from the baked
//! constants and is restated in the header comment the generator emits.

use crate::sweep::{BufferId, GatherMap, IndexSource, SweepIr, SweepKernel, SweepStep};
use std::fmt::Write;

/// Workgroup size of the one-thread-per-element gather kernels.
pub const GATHER_WG: usize = 64;

/// Hard WGSL limit on threads per workgroup, which caps the transpose
/// workgroup at `tile × (MAX_WG / tile)` threads.
pub const MAX_WG: usize = 256;

/// Element type a module is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgslElem {
    /// 4-byte elements: WGSL `u32`.
    U32,
    /// 8-byte elements: WGSL `vec2<u32>` (WGSL has no `u64`).
    U64,
}

impl WgslElem {
    /// The WGSL type name values of this element type use.
    pub fn type_name(&self) -> &'static str {
        match self {
            WgslElem::U32 => "u32",
            WgslElem::U64 => "vec2<u32>",
        }
    }

    /// The zero literal of the type (used to initialise shared tiles).
    fn zero(&self) -> &'static str {
        match self {
            WgslElem::U32 => "0u",
            WgslElem::U64 => "vec2<u32>(0u, 0u)",
        }
    }

    /// Short tag used in entry-point and file names.
    pub fn tag(&self) -> &'static str {
        match self {
            WgslElem::U32 => "u32",
            WgslElem::U64 => "u64",
        }
    }
}

/// The module-level names the templates address buffers by.
fn buffer_var(id: BufferId) -> &'static str {
    match id {
        BufferId::Input => "src",
        BufferId::ScratchA => "scratch_a",
        BufferId::ScratchB => "scratch_b",
        BufferId::Output => "dst",
    }
}

fn map_var(map: GatherMap) -> &'static str {
    match map {
        GatherMap::G1 => "map1",
        GatherMap::G2 => "map2",
        GatherMap::G3 => "map3",
    }
}

/// The entry-point name for step `idx` (1-based in the name, matching
/// the paper's pass numbering).
fn entry_name(step: &SweepStep, idx: usize) -> String {
    match step.kernel {
        SweepKernel::Gather { map } | SweepKernel::RowPermute { map } => {
            let tag = match map {
                GatherMap::G1 => "g1",
                GatherMap::G2 => "g2",
                GatherMap::G3 => "g3",
            };
            let kind = match step.kernel {
                SweepKernel::RowPermute { .. } => "row_permute",
                _ => "gather",
            };
            format!("{kind}_{tag}")
        }
        SweepKernel::TiledTranspose { .. } => format!("transpose_s{}", idx + 1),
    }
}

/// Rows of threads per transpose workgroup: as many full tile rows as
/// fit under the [`MAX_WG`] thread budget (at least one).
fn transpose_wg_rows(tile: usize) -> usize {
    (MAX_WG / tile).max(1)
}

/// Generate the WGSL for one step of the program.
///
/// `idx` is the step's 0-based position (names and dispatch comments use
/// `idx + 1`). The text addresses the module-level bindings emitted by
/// [`module_wgsl`]; generating a single kernel is primarily a test seam
/// — real consumers emit whole modules.
pub fn kernel_wgsl(ir: &SweepIr, step: &SweepStep, idx: usize, elem: WgslElem) -> String {
    let mut s = String::new();
    let name = entry_name(step, idx);
    let ty = elem.type_name();
    let (rows, cols) = (step.rows, step.cols);
    let n = step.len();
    let src = buffer_var(step.src);
    let dst = buffer_var(step.dst);
    match step.kernel {
        SweepKernel::Gather { map } | SweepKernel::RowPermute { map } => {
            let groups = n.div_ceil(GATHER_WG);
            match ir.index_source(map) {
                IndexSource::Materialized(_) => {
                    let map = map_var(map);
                    let _ = write!(
                        s,
                        "\
// Step {pass}: row-local gather over a {rows}x{cols} matrix,
// {src} -> {dst} via {map}; one thread per element.
// Dispatch: ({groups}, 1, 1) workgroups of {wg}.
@compute @workgroup_size({wg})
fn {name}(@builtin(global_invocation_id) gid: vec3<u32>) {{
    let i = gid.x;
    if (i < {n}u) {{
        let base = (i / {cols}u) * {cols}u;
        {dst}[i] = {src}[base + {map}[i]];
    }}
}}
",
                        pass = idx + 1,
                        wg = GATHER_WG,
                    );
                }
                IndexSource::Affine(step_a) => {
                    // Computed-index form: the gather index is the plan's
                    // affine GF(2) fold, unrolled into one XOR per non-zero
                    // mask with every mask baked as a literal — no map
                    // load, no uniform, no loop. `mask * bit` is a
                    // branch-free select (bit is 0 or 1).
                    let map = map_var(map);
                    let mut fold = String::new();
                    for (b, &m) in step_a.masks().iter().enumerate() {
                        if m != 0 {
                            let _ = writeln!(fold, "        v = v ^ ({m}u * ((i >> {b}u) & 1u));");
                        }
                    }
                    let _ = write!(
                        s,
                        "\
// Step {pass}: computed-index row gather over a {rows}x{cols} matrix,
// {src} -> {dst}; one thread per element. The gather index is the
// plan's affine fold evaluated in registers; the {map} binding is
// declared but never read by this kernel.
// Dispatch: ({groups}, 1, 1) workgroups of {wg}.
@compute @workgroup_size({wg})
fn {name}(@builtin(global_invocation_id) gid: vec3<u32>) {{
    let i = gid.x;
    if (i < {n}u) {{
        let base = (i / {cols}u) * {cols}u;
        var v = {offset}u;
{fold}        {dst}[i] = {src}[base + v];
    }}
}}
",
                        pass = idx + 1,
                        wg = GATHER_WG,
                        offset = step_a.offset(),
                    );
                }
            }
        }
        SweepKernel::TiledTranspose { tile, bank_pad } => {
            let wg_rows = transpose_wg_rows(tile);
            let stride = tile + bank_pad;
            let groups_x = cols.div_ceil(tile);
            let groups_y = rows.div_ceil(tile);
            let _ = write!(
                s,
                "\
// Step {pass}: tiled transpose of a {rows}x{cols} matrix, {src} -> {dst}.
// {tile}x{tile} tiles staged in workgroup memory with a +{bank_pad}
// column pad (stride {stride}) so the transposed read hits {stride}
// distinct banks instead of one. Each workgroup moves one tile with
// {tile}x{wg_rows} threads, striding {wg_rows} rows per iteration.
// Dispatch: ({groups_x}, {groups_y}, 1) workgroups of {tile}x{wg_rows}.
var<workgroup> tile_{pass}: array<{ty}, {stage}u>;

@compute @workgroup_size({tile}, {wg_rows})
fn {name}(@builtin(workgroup_id) wid: vec3<u32>,
          @builtin(local_invocation_id) lid: vec3<u32>) {{
    let j0 = wid.x * {tile}u;
    let i0 = wid.y * {tile}u;
    // Load phase: tile[ti][tj] = src[i0 + ti][j0 + tj].
    for (var ti = lid.y; ti < {tile}u; ti = ti + {wg_rows}u) {{
        let i = i0 + ti;
        let j = j0 + lid.x;
        if (i < {rows}u && j < {cols}u) {{
            tile_{pass}[ti * {stride}u + lid.x] = {src}[i * {cols}u + j];
        }}
    }}
    workgroupBarrier();
    // Store phase: dst[j0 + ti][i0 + tj] = tile[tj][ti] (transposed read).
    for (var ti = lid.y; ti < {tile}u; ti = ti + {wg_rows}u) {{
        let j = j0 + ti;
        let i = i0 + lid.x;
        if (j < {cols}u && i < {rows}u) {{
            {dst}[j * {rows}u + i] = tile_{pass}[lid.x * {stride}u + ti];
        }}
    }}
}}
",
                pass = idx + 1,
                stage = stride * tile,
            );
        }
    }
    debug_assert_eq!(n, ir.len());
    s
}

/// Generate the complete WGSL module for a lowered plan: header,
/// bindings, and all five entry points.
pub fn module_wgsl(ir: &SweepIr, elem: WgslElem) -> String {
    let ty = elem.type_name();
    let (rows, cols) = (ir.rows(), ir.cols());
    let n = ir.len();
    let tile = ir.tile();
    let maps_note = if ir.affine().is_some() {
        "// barrier between passes. This plan's gathers are computed-index
// (affine folds baked into the kernels): map1/map2/map3 are declared
// for binding-layout compatibility but never read, so the host may
// bind any placeholder buffers; scratch_a/scratch_b are {n}-element
// device temporaries."
    } else {
        "// barrier between passes. The host uploads the plan's three gather maps
// into map1/map2/map3; scratch_a/scratch_b are {n}-element device
// temporaries."
    };
    let maps_note = maps_note.replace("{n}", &n.to_string());
    let mut s = String::new();
    let _ = write!(
        s,
        "\
// Offline permutation sweep module (generated — do not edit).
//
// Plan geometry: {rows}x{cols} = {n} elements of {ty}; transpose tile
// {tile} (+{pad} pad). Five passes: gather_g1, transpose_s2, gather_g2,
// transpose_s4, row_permute_g3 — dispatch them in that order with the
// per-kernel geometry noted above each entry point, with a buffer
{maps_note}

@group(0) @binding(0) var<storage, read> src: array<{ty}>;
@group(0) @binding(1) var<storage, read_write> scratch_a: array<{ty}>;
@group(0) @binding(2) var<storage, read_write> scratch_b: array<{ty}>;
@group(0) @binding(3) var<storage, read_write> dst: array<{ty}>;
@group(0) @binding(4) var<storage, read> map1: array<u32>;
@group(0) @binding(5) var<storage, read> map2: array<u32>;
@group(0) @binding(6) var<storage, read> map3: array<u32>;

// {zero} is this module's element zero; shared tiles start undefined in
// WGSL, and the kernels never read a slot they did not write, so no
// explicit clear is emitted.
",
        pad = crate::sweep::BANK_PAD,
        zero = elem.zero(),
    );
    for (idx, step) in ir.steps().iter().enumerate() {
        s.push('\n');
        s.push_str(&kernel_wgsl(ir, step, idx, elem));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use hmm_perm::families;
    use hmm_plan::PlanIr;

    fn lowered(n: usize, tile: usize) -> SweepIr {
        let p = families::random(n, 11);
        let ir = PlanIr::build(&p, 32).unwrap();
        let cfg = KernelConfig {
            tile,
            ..KernelConfig::default()
        };
        SweepIr::lower(&ir, &cfg)
    }

    #[test]
    fn module_has_all_five_entry_points_in_order() {
        let ir = lowered(1 << 10, 16);
        let text = module_wgsl(&ir, WgslElem::U32);
        let order = [
            "fn gather_g1(",
            "fn transpose_s2(",
            "fn gather_g2(",
            "fn transpose_s4(",
            "fn row_permute_g3(",
        ];
        let mut at = 0;
        for name in order {
            let pos = text[at..]
                .find(name)
                .unwrap_or_else(|| panic!("missing or out of order: {name}"));
            at += pos;
        }
    }

    #[test]
    fn u64_elements_lower_to_vec2_u32() {
        let ir = lowered(1 << 10, 16);
        let text = module_wgsl(&ir, WgslElem::U64);
        assert!(text.contains("array<vec2<u32>>"));
        // The gather maps stay u32 regardless of element width.
        assert!(text.contains("var<storage, read> map1: array<u32>"));
        assert!(!module_wgsl(&ir, WgslElem::U32).contains("vec2<u32>"));
    }

    #[test]
    fn transpose_respects_the_workgroup_budget() {
        for tile in [8usize, 16, 32, 64, 128] {
            let ir = lowered(1 << 12, tile);
            let wg_rows = transpose_wg_rows(tile);
            assert!(tile * wg_rows <= MAX_WG || wg_rows == 1, "tile={tile}");
            let text = module_wgsl(&ir, WgslElem::U32);
            assert!(
                text.contains(&format!("@compute @workgroup_size({tile}, {wg_rows})")),
                "tile={tile}"
            );
            // The padded stride shows up in the shared-tile declaration.
            let stage = (tile + 1) * tile;
            assert!(
                text.contains(&format!("array<u32, {stage}u>")),
                "tile={tile}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_and_geometry_keyed() {
        let a = module_wgsl(&lowered(1 << 10, 16), WgslElem::U32);
        let b = module_wgsl(&lowered(1 << 10, 16), WgslElem::U32);
        assert_eq!(a, b, "same plan, same text");
        // A *different* permutation of the same size lowers to the same
        // module text: maps are data, not code.
        let p2 = families::random(1 << 10, 99);
        let ir2 = PlanIr::build(&p2, 32).unwrap();
        let cfg = KernelConfig {
            tile: 16,
            ..KernelConfig::default()
        };
        let c = module_wgsl(&SweepIr::lower(&ir2, &cfg), WgslElem::U32);
        assert_eq!(a, c);
    }

    fn lowered_structured(n: usize) -> SweepIr {
        let p = families::bit_reversal(n).unwrap();
        let ir = PlanIr::build(&p, 32).unwrap();
        SweepIr::lower(&ir, &KernelConfig::default())
    }

    #[test]
    fn computed_index_modules_fold_in_registers() {
        let ir = lowered_structured(1 << 10);
        assert!(ir.affine().is_some());
        let text = module_wgsl(&ir, WgslElem::U32);
        // The gather kernels compute `v` instead of loading a map entry...
        assert!(text.contains("var v = "));
        assert!(text.contains("v = v ^ ("));
        assert!(text.contains("computed-index row gather"));
        // ...and never index the map bindings, which stay declared so the
        // bind-group layout is shared with map-lowered modules.
        for m in ["map1[", "map2[", "map3["] {
            assert!(!text.contains(m), "no {m} load in computed module");
        }
        for m in ["map1", "map2", "map3"] {
            assert!(
                text.contains(&format!("var<storage, read> {m}: array<u32>")),
                "{m} binding kept"
            );
        }
        // Transposes are untouched by the index form.
        assert!(text.contains("fn transpose_s2("));
        assert!(text.contains("workgroupBarrier()"));
    }

    #[test]
    fn computed_index_folds_match_the_descriptor() {
        // Every baked `mask * ((i >> b) & 1)` line must reproduce the
        // descriptor: re-parse the g1 kernel's fold and evaluate it at
        // every position, comparing against the plan's materialized map.
        let p = families::shuffle(1 << 10).unwrap();
        let plan = PlanIr::build(&p, 32).unwrap();
        let ir = SweepIr::lower(&plan, &KernelConfig::default());
        let text = kernel_wgsl(&ir, &ir.steps()[0], 0, WgslElem::U32);
        let offset: u32 = text
            .lines()
            .find_map(|l| {
                l.trim()
                    .strip_prefix("var v = ")?
                    .strip_suffix("u;")?
                    .parse()
                    .ok()
            })
            .expect("baked offset");
        let terms: Vec<(u32, u32)> = text
            .lines()
            .filter_map(|l| {
                let l = l.trim().strip_prefix("v = v ^ (")?;
                let (m, rest) = l.split_once("u * ((i >> ")?;
                let b = rest.strip_suffix("u) & 1u));")?;
                Some((m.parse().ok()?, b.parse().ok()?))
            })
            .collect();
        assert!(!terms.is_empty());
        for (i, &want) in plan.gathers()[0].iter().enumerate() {
            let mut v = offset;
            for &(m, b) in &terms {
                v ^= m * ((i as u32 >> b) & 1);
            }
            assert_eq!(v, want, "i={i}");
        }
    }

    #[test]
    fn scalar_config_keeps_structured_modules_map_lowered() {
        let p = families::bit_reversal(1 << 10).unwrap();
        let plan = PlanIr::build(&p, 32).unwrap();
        let ir = SweepIr::lower(&plan, &KernelConfig::scalar());
        let text = module_wgsl(&ir, WgslElem::U32);
        assert!(text.contains("map1[i]"));
        assert!(!text.contains("computed-index"));
    }
}
