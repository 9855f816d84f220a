//! Integration suite for the structured (BMMC) fast paths, plan fusion,
//! and the plan-validation sweep — the engine-level counterpart of
//! `crates/plan/tests/structured.rs`.
//!
//! Pins four things end to end:
//!
//! * **Byte identity** — for every affine paper family × {1K, 64K, 256K}
//!   × both forced backends, engine output equals both the naive
//!   reference and an engine whose planner is forced through the general
//!   König colorer.
//! * **The stats seam** — structured families plan with `builds == 0`
//!   and `plans_structured ≥ 1` on a store-less engine; random still
//!   König-colors (`builds ≥ 1`, `plans_structured == 0`).
//! * **Fusion** — a fused 2-chain executes as ONE scheduled plan (one
//!   tiled pass, observed via `run_sweeps_timed`) where the unfused pair
//!   pays two, with identical bytes.
//! * **Corruption rejection** — a re-sealed plan file with a repeated or
//!   out-of-range entry in any step section or descriptor is refused with
//!   a typed error at every front door: `decode`, `PlanStore::load`, and
//!   a store-backed engine, which counts the reject and still matches the
//!   oracle; a compact (descriptor-form) store entry truncated or
//!   bit-flipped on disk is refused the same way, and so is one whose
//!   header claims more entries than any plan may have, before anything
//!   is allocated.

use hmm_native::{as_native_scheduled, Backend, Route, SharedEngine};
use hmm_perm::{families, Permutation};
use hmm_plan::{PlanError, PlanIr, PlanStore, StoreKey};

const W: usize = 32;
const SIZES: [usize; 3] = [1 << 10, 1 << 16, 1 << 18];

/// The affine paper families — everything the recognizer must catch.
fn affine_families(n: usize) -> Vec<(&'static str, Permutation)> {
    vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("transpose", families::transpose_square(n).unwrap()),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
    ]
}

fn naive_reference(p: &Permutation, a: &[u32]) -> Vec<u32> {
    let mut b = vec![0u32; a.len()];
    for (i, &pi) in p.as_slice().iter().enumerate() {
        b[pi] = a[i];
    }
    b
}

fn input(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|v| v.wrapping_mul(0x9e37_79b9) ^ 0x5eed)
        .collect()
}

/// Route-forcing through the shared registry seam ([`hmm_native::forced_engine`]).
fn forced_engine(route: Route) -> SharedEngine<u32> {
    hmm_native::forced_engine::<u32>(Backend::Native, W, route)
}

/// Structured families × sizes × both forced routes: the fast-path
/// engine output is byte-identical to the naive reference (and therefore
/// to the König-planned engines the conformance suite already pins).
#[test]
fn structured_output_is_byte_identical_on_both_routes() {
    for route in [Route::Scatter, Route::Scheduled] {
        for n in SIZES {
            let engine = forced_engine(route);
            for (name, p) in affine_families(n) {
                let src = input(n);
                let want = naive_reference(&p, &src);
                let plan = engine.plan(&p).unwrap();
                assert_eq!(plan.route(), route, "{name} n={n}");
                let mut dst = vec![0u32; n];
                engine.permute(&p, &src, &mut dst).unwrap();
                assert_eq!(dst, want, "{name} n={n} route={route:?}");
            }
        }
    }
}

/// The acceptance seam: on a store-less scheduled engine, every affine
/// family plans without a König coloring, and random without detection.
#[test]
fn structured_families_plan_without_koenig() {
    let n = 1 << 14;
    let engine = forced_engine(Route::Scheduled);
    let families = affine_families(n);
    for (_, p) in &families {
        engine.plan(p).unwrap();
    }
    let s = engine.stats();
    assert_eq!(s.builds, 0, "affine families must never König-color");
    assert_eq!(s.plans_structured, families.len() as u64);

    let engine = forced_engine(Route::Scheduled);
    engine.plan(&families::random(n, 99)).unwrap();
    let s = engine.stats();
    assert_eq!(s.builds, 1, "random permutations still König-color");
    assert_eq!(s.plans_structured, 0);
}

/// Fused 2-chain: one plan, one tiled pass, same bytes as running the
/// two links separately (which costs two passes and an extra round trip).
#[test]
fn fused_chain_costs_one_plan_of_one_pass() {
    let n = 1 << 14;
    let p1 = families::bit_reversal(n).unwrap();
    let p2 = families::transpose_square(n).unwrap();
    let engine = forced_engine(Route::Scheduled);

    let src = input(n);
    let mut fused_out = vec![0u32; n];
    engine
        .permute_fused(&[&p1, &p2], &src, &mut fused_out)
        .unwrap();

    // Reference: the two links applied separately (two scheduled plans,
    // one pass each).
    let mut mid = vec![0u32; n];
    let mut chained_out = vec![0u32; n];
    engine.permute(&p1, &src, &mut mid).unwrap();
    engine.permute(&p2, &mid, &mut chained_out).unwrap();
    assert_eq!(fused_out, chained_out);

    // The fused plan is ONE scheduled program: BMMC∘BMMC is one BMMC, so
    // a single `run_sweeps_timed` call reproduces the result in one
    // tiled pass, reported as sweep 1 with sweeps 2 and 3 zero. The
    // unfused pipeline needs two such calls.
    let fused_plan = engine.plan_fused(&[&p1, &p2]).unwrap();
    let sched = as_native_scheduled(&fused_plan)
        .expect("fused affine chain takes the native scheduled route");
    assert_eq!(sched.passes(), 1, "one fused round trip = one pass");
    let mut dst = vec![0u32; n];
    let mut scratch = vec![0u32; sched.scratch_len()];
    let [pass, s2, s3] = sched.run_sweeps_timed(&src, &mut dst, &mut scratch);
    assert!(pass > std::time::Duration::ZERO);
    assert!(s2.is_zero() && s3.is_zero());
    assert_eq!(dst, fused_out);

    // Both links are affine, so the fusion itself stayed structured.
    let s = engine.stats();
    assert_eq!(s.builds, 0);
    assert!(s.plans_structured >= 3);
}

/// A fused chain of non-affine links still fuses (general ∘ general
/// composes pointwise, then plans once) and stays correct.
#[test]
fn fused_chain_of_general_permutations_is_correct() {
    let n = 1 << 12;
    let p1 = families::random(n, 7);
    let p2 = families::random(n, 8);
    let engine = forced_engine(Route::Scheduled);
    let src = input(n);
    let mut fused_out = vec![0u32; n];
    engine
        .permute_fused(&[&p1, &p2], &src, &mut fused_out)
        .unwrap();
    let mut mid = vec![0u32; n];
    let mut chained_out = vec![0u32; n];
    engine.permute(&p1, &src, &mut mid).unwrap();
    engine.permute(&p2, &mid, &mut chained_out).unwrap();
    assert_eq!(fused_out, chained_out);
    assert!(engine.permute_fused(&[], &src, &mut fused_out).is_err());
}

/// Computed-index acceptance, engine level: structured plans surface
/// `plans_affine`, the config snapshot reports the kernel form, and the
/// computed output is byte-identical to a map-load engine's.
#[test]
fn computed_index_engine_matches_map_load_engine() {
    let n = 1 << 16;
    let computed = forced_engine(Route::Scheduled);
    assert!(
        computed.stats().kernel_computed_index,
        "computed-index kernels are the default"
    );
    let map_load = forced_engine(Route::Scheduled);
    map_load.set_kernel_config(hmm_native::KernelConfig {
        computed_index: false,
        ..hmm_native::KernelConfig::default()
    });
    for (name, p) in affine_families(n) {
        let src = input(n);
        let want = naive_reference(&p, &src);
        let mut a = vec![0u32; n];
        computed.permute(&p, &src, &mut a).unwrap();
        let mut b = vec![0u32; n];
        map_load.permute(&p, &src, &mut b).unwrap();
        assert_eq!(a, want, "{name}: computed vs naive");
        assert_eq!(a, b, "{name}: computed vs map-load");
    }
    let s = computed.stats();
    assert_eq!(s.plans_affine, affine_families(n).len() as u64);
    assert!(!map_load.stats().kernel_computed_index);

    // Random permutations carry no descriptors.
    let engine = forced_engine(Route::Scheduled);
    engine.plan(&families::random(1 << 12, 5)).unwrap();
    assert_eq!(engine.stats().plans_affine, 0);
}

/// Store-shrink acceptance: a structured plan persists descriptor-form
/// (O(log² n) bytes, not the 12n+ of three flat maps), and a cold
/// process loads it back with zero König colorings — the descriptors
/// rebuild the maps — with byte-identical output and `plans_affine`
/// still counted.
#[test]
fn structured_store_entries_are_descriptor_sized_and_cold_load_clean() {
    let n = 1 << 16;
    let dir = std::env::temp_dir().join(format!("hmm-structured-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = families::bit_reversal(n).unwrap();
    let src = input(n);
    let want = naive_reference(&p, &src);

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let mut dst = vec![0u32; n];
    warm.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, want);
    let entries = warm.store().unwrap().entries().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].bytes as usize,
        hmm_plan::compact_encoded_len(n),
        "structured plans persist compact"
    );
    assert!(
        entries[0].bytes < 1024,
        "a 64K-element structured plan is a few hundred bytes, got {}",
        entries[0].bytes
    );

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    cold.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, want, "store-served computed output must verify");
    let s = cold.stats();
    assert_eq!(s.builds, 0, "cold load never colors");
    assert_eq!(s.store_hits, 1);
    assert_eq!(s.plans_affine, 1, "loaded plan still carries descriptors");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-seal a plan file after an edit, so the checksum passes and the
/// section check itself must refuse the bytes.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = hmm_perm::hash::hash_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Corrupted plan files are refused at every front door. For a full
/// (random, König) file, each of the three step sections gets a repeated
/// entry and an out-of-range entry; for a compact (bit-reversal) file,
/// each of the three descriptors gets a repeated mask and an
/// out-of-range mask. Every file is re-sealed, so only the section check
/// stands between it and the clamped SIMD gathers. Each one must be a
/// `PlanError::Codec` through `decode` and through `PlanStore::load`, and
/// a store-backed engine must count one `store_rejects`, rebuild, and
/// match the naive reference.
#[test]
fn corrupted_plans_are_rejected_at_every_front_door() {
    let n: usize = 1 << 10;
    let k = n.trailing_zeros() as usize;
    let header = 8 + 4 + 5 * 8 + 4; // through the section kind
    let dir = std::env::temp_dir().join(format!("hmm-structured-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    let src = input(n);
    for p in [
        families::random(n, 2024),
        families::bit_reversal(n).unwrap(),
    ] {
        let ir = PlanIr::build(&p, W).unwrap();
        let want = naive_reference(&p, &src);
        let key = StoreKey::of(&ir);
        let path = store.save(&ir).unwrap();
        let good = std::fs::read(&path).unwrap();
        let (r, c) = (ir.shape().rows, ir.shape().cols);

        // (label, byte offset of the first u32 to edit, its row length).
        let sections: Vec<(String, usize, usize)> = if ir.affine().is_none() {
            (0..3)
                .map(|s| {
                    (
                        format!("step{}", s + 1),
                        header + 8 + s * (8 + 4 * n),
                        [c, r, c][s],
                    )
                })
                .collect()
        } else {
            (0..3)
                .map(|d| {
                    (
                        format!("affine{}", d + 1),
                        header + 16 + d * (16 + 4 * k),
                        [c, r, c][d],
                    )
                })
                .collect()
        };
        let mut cases = Vec::new();
        for (name, at, cols) in sections {
            let mut repeated = good.clone();
            let first = good[at..at + 4].to_vec();
            repeated[at + 4..at + 8].copy_from_slice(&first);
            cases.push((format!("{name}: repeated entry"), reseal(repeated)));
            let mut out_of_range = good.clone();
            out_of_range[at..at + 4].copy_from_slice(&(cols as u32).to_le_bytes());
            cases.push((format!("{name}: out-of-range entry"), reseal(out_of_range)));
        }
        assert_eq!(cases.len(), 6);

        for (label, bytes) in cases {
            let err = hmm_plan::decode(&bytes).unwrap_err();
            assert!(matches!(err, PlanError::Codec { .. }), "{label}: {err}");

            std::fs::write(&path, &bytes).unwrap();
            let err = store.load(&key).unwrap_err();
            assert!(matches!(err, PlanError::Codec { .. }), "{label}: {err}");

            let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
            let mut dst = vec![0u32; n];
            engine.permute(&p, &src, &mut dst).unwrap();
            assert_eq!(dst, want, "{label}: output must match the oracle");
            let s = engine.stats();
            assert_eq!(s.store_rejects, 1, "{label}: the damaged file is counted");
            assert_eq!(s.store_hits, 0, "{label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 592-byte re-sealed compact (kind 1) file whose header claims
/// 2^20 × 2^20 entries, with descriptor geometry that is valid for that
/// shape (each row the identity): materializing it would take 4 TiB per
/// gather map. It must be a `PlanError::Codec` from `decode` and from
/// `PlanStore::load`, and never reach an allocation: as is (the 2^32-entry
/// bound), and filed under the real 64K key whose fingerprint and width
/// it copies (the header identity check). A store-backed engine asking
/// for that key counts one `store_rejects` and still matches the oracle.
#[test]
fn an_oversized_compact_header_is_refused_before_it_allocates() {
    let n: usize = 1 << 16;
    let p = families::bit_reversal(n).unwrap();
    let ir = PlanIr::build(&p, W).unwrap();
    let key = StoreKey::of(&ir);
    let side: u64 = 1 << 20;
    let bits = 2 * side.trailing_zeros();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&hmm_plan::codec::MAGIC);
    bytes.extend_from_slice(&hmm_plan::FORMAT_VERSION.to_le_bytes());
    for field in [W as u64, side, side, ir.gamma().to_bits(), key.fingerprint] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(&1u32.to_le_bytes()); // kind: compact
    for _ in 0..3 {
        bytes.extend_from_slice(&(bits / 2).to_le_bytes()); // col_bits
        bytes.extend_from_slice(&0u32.to_le_bytes()); // offset
        bytes.extend_from_slice(&(bits as u64).to_le_bytes()); // mask count
        for j in 0..bits {
            let mask: u32 = if j < bits / 2 { 1 << j } else { 0 };
            bytes.extend_from_slice(&mask.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&[0; 8]);
    let bytes = reseal(bytes);
    assert_eq!(bytes.len(), 592);

    let err = hmm_plan::decode(&bytes).unwrap_err();
    assert!(matches!(err, PlanError::Codec { .. }), "{err}");

    let dir = std::env::temp_dir().join(format!("hmm-oversized-header-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    let own_key = StoreKey {
        n: 1 << bits,
        ..key
    };
    for (label, k) in [("its own key", own_key), ("the 64K key", key)] {
        std::fs::write(store.path_for(&k), &bytes).unwrap();
        let err = store.load(&k).unwrap_err();
        assert!(matches!(err, PlanError::Codec { .. }), "{label}: {err}");
    }

    let src = input(n);
    let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let mut dst = vec![0u32; n];
    engine.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, naive_reference(&p, &src));
    let s = engine.stats();
    assert_eq!(s.store_rejects, 1, "the oversized file is counted");
    assert_eq!(s.store_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compact (descriptor-form) store entry damaged on disk: truncated at
/// every section boundary, one byte flipped in each header field, the
/// kind, a mask and the checksum, or re-sealed around an out-of-range
/// mask. `PlanStore::load` must return a typed error for each — never
/// panic, never a plan — and an engine over the damaged store must count
/// one `store_rejects`, rebuild through the structured path, re-save a
/// good entry, and produce the oracle's output.
#[test]
fn corrupted_compact_store_entries_are_rejected_through_load_and_rebuilt() {
    let n: usize = 1 << 10;
    let k = n.trailing_zeros() as usize;
    // High γ_w, so the engine takes the scheduled route (and the store).
    let p = families::bit_reversal(n).unwrap();
    let ir = PlanIr::build(&p, W).unwrap();
    assert!(
        ir.affine().is_some(),
        "bit-reversal plans carry descriptors"
    );
    let src = input(n);
    let want = naive_reference(&p, &src);

    let dir = std::env::temp_dir().join(format!("hmm-compact-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    let key = StoreKey::of(&ir);
    let path = store.save(&ir).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert_eq!(good.len(), hmm_plan::compact_encoded_len(n));

    // Layout (codec module docs): magic 8, version 4, width/rows/cols/
    // gamma/fingerprint 8 each, kind 4, then per descriptor col_bits 4,
    // offset 4, mask count 8, k masks of 4; checksum 8.
    let kind_at = 8 + 4 + 5 * 8;
    let first_mask = kind_at + 4 + 4 + 4 + 8;
    let mut boundaries = vec![0, 8, 12, 20, 28, 36, 44, kind_at, kind_at + 4];
    let mut at = kind_at + 4;
    for _ in 0..3 {
        for len in [4, 4, 8, 4 * k] {
            at += len;
            boundaries.push(at);
        }
    }
    assert_eq!(
        at,
        good.len() - 8,
        "descriptors end where the checksum starts"
    );
    boundaries.push(good.len() - 1);

    let mut cases: Vec<(String, Vec<u8>)> = boundaries
        .iter()
        .map(|&cut| (format!("truncated at {cut}"), good[..cut].to_vec()))
        .collect();
    let flips = [
        ("magic", 0),
        ("version", 8),
        ("width", 12),
        ("rows", 20),
        ("cols", 28),
        ("gamma", 36),
        ("fingerprint", 44),
        ("kind", kind_at),
        ("mask", first_mask),
        ("checksum", good.len() - 8),
        ("checksum tail", good.len() - 1),
    ];
    for (field, pos) in flips {
        let mut bytes = good.clone();
        bytes[pos] ^= 0x10;
        cases.push((format!("flipped {field} byte at {pos}"), bytes));
    }
    let mut resealed = good.clone();
    resealed[first_mask..first_mask + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let body = resealed.len() - 8;
    let sum = hmm_perm::hash::hash_bytes(&resealed[..body]);
    resealed[body..].copy_from_slice(&sum.to_le_bytes());
    cases.push(("re-sealed out-of-range mask".to_string(), resealed));

    for (label, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(matches!(err, PlanError::Codec { .. }), "{label}: {err}");

        let engine: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
        let mut dst = vec![0u32; n];
        engine.permute(&p, &src, &mut dst).unwrap();
        assert_eq!(dst, want, "{label}: output must match the oracle");
        let s = engine.stats();
        assert_eq!(s.store_rejects, 1, "{label}: the damaged file is counted");
        assert_eq!(s.store_hits, 0, "{label}");
        assert_eq!(s.plans_structured, 1, "{label}: rebuilt in closed form");
        assert_eq!(
            store.load(&key).unwrap().as_ref(),
            Some(&ir),
            "{label}: the rebuild re-saved a good entry"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
