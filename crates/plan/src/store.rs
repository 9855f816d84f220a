//! Persistent, versioned plan store: the cross-process tier of the plan
//! cache.
//!
//! One directory, one file per plan, named by the cache identity
//! `(fingerprint, n, width)` — the same key the in-memory engine shards
//! by — so a cold process can skip the König build for any permutation a
//! previous process already planned. The store is deliberately paranoid
//! at the trust boundary:
//!
//! * **loads never trust the file name** — the header's
//!   fingerprint/shape/width must agree with the requested key before any
//!   section is decoded, or the load reports a mismatch;
//! * **saves are atomic** — encode to a temp file in the same directory,
//!   then rename over the target, so a crashed writer can never leave a
//!   half-written plan where a reader will find it;
//! * a corrupt, truncated, or colliding file is an *error to report and a
//!   file to discard*, never a panic: callers (the engine) count it and
//!   rebuild from scratch.
//!
//! Structured plans persist in **compact descriptor form** (the codec's
//! kind-1 section): a few hundred bytes per plan instead of 3 × O(n)
//! maps, with the maps rebuilt on load by the descriptors' table materializer.
//! A store mixing structured and König plans therefore mixes ~300-byte
//! and ~12n-byte files; [`PlanStore::prune`] sizes both from disk.
//!
//! Files are named by the fingerprint, so a change of fingerprint
//! function orphans every file filed under the old one. Codec version 3
//! moved `Permutation::fingerprint` from FNV-1a to `hmm_perm::hash`:
//! entries saved before that are never looked up again. The first cold
//! start after the upgrade rebuilds and re-saves each plan it needs, and
//! [`PlanStore::prune`] reclaims the orphans.

use crate::codec;
use crate::error::{PlanError, Result};
use crate::ir::PlanIr;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// The identity a plan is filed under: permutation fingerprint, element
/// count, and machine width (the same triple the in-memory cache keys by).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// `Permutation::fingerprint()` of the permutation.
    pub fingerprint: u64,
    /// Number of elements.
    pub n: usize,
    /// Machine width the plan was built for.
    pub width: usize,
}

impl StoreKey {
    /// The key a given plan files under.
    pub fn of(ir: &PlanIr) -> Self {
        StoreKey {
            fingerprint: ir.fingerprint(),
            n: ir.len(),
            width: ir.width(),
        }
    }
}

/// One entry of a store listing: its key and on-disk size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEntry {
    /// The plan's identity.
    pub key: StoreKey,
    /// File size in bytes.
    pub bytes: u64,
}

/// A directory of encoded plans, keyed by [`StoreKey`].
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

/// File extension for plan files.
const EXT: &str = "hmmplan";

fn store_err(path: &Path, e: std::io::Error) -> PlanError {
    PlanError::Store {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Temp files older than this at open time are considered orphaned by a
/// crashed writer and swept — generous enough that no live writer (a
/// save streams one encode, seconds at worst) can be raced.
const STALE_TMP_GRACE: Duration = Duration::from_secs(15 * 60);

impl PlanStore {
    /// Open (creating if needed) a plan store rooted at `dir`, sweeping
    /// any temp files orphaned by a writer that crashed between
    /// temp-write and rename (best-effort: sweep failures never fail the
    /// open).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| store_err(&dir, e))?;
        let store = PlanStore { dir };
        let _ = store.sweep_stale_tmps(STALE_TMP_GRACE);
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key maps to.
    pub fn path_for(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!(
            "plan-{:016x}-n{}-w{}.{EXT}",
            key.fingerprint, key.n, key.width
        ))
    }

    /// Persist a plan atomically (temp file + rename). Returns the final
    /// path. An existing plan under the same key is replaced.
    pub fn save(&self, ir: &PlanIr) -> Result<PathBuf> {
        let key = StoreKey::of(ir);
        let path = self.path_for(&key);
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-n{}-w{}-{}.{EXT}",
            key.fingerprint,
            key.n,
            key.width,
            std::process::id()
        ));
        // Stream the encoding straight to disk (`codec::encode_to`): the
        // old `fs::write(codec::encode(ir))` materialised a second ~48 MiB
        // copy of a 4M-element plan and was the bulk of the
        // `plan_store_build` > `plan_build` inversion in BENCH_native.
        let write = |tmp: &Path| -> std::io::Result<()> {
            let file = fs::File::create(tmp)?;
            let mut w = std::io::BufWriter::new(file);
            codec::encode_to(ir, &mut w)?;
            use std::io::Write;
            w.flush()
        };
        write(&tmp).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            store_err(&tmp, e)
        })?;
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            store_err(&path, e)
        })?;
        Ok(path)
    }

    /// Load the plan filed under `key`: one read and one check, the
    /// [`codec::decode`] that checks each full section as it inverts it
    /// and each compact descriptor's rows by a rank check before it
    /// materializes the map. Returns `Ok(None)` when no file exists;
    /// `Err(PlanError::Codec)` when a file exists but is corrupt,
    /// truncated, wrong-version, records a γ_w outside `[1, width]`, or
    /// the identity its header declares disagrees with `key` (a renamed or
    /// colliding file). The identity is compared before any section is
    /// materialized, so a file cannot make a load allocate more than the
    /// requested plan needs. A decoded plan holds the [`PlanIr`] contract
    /// but still **must** be verified against the requested permutation
    /// with [`PlanIr::matches`] before it is trusted. Its
    /// [`PlanIr::gamma`] is the γ_w recorded at build time, which an
    /// engine routes a verified hit on without measuring it again.
    pub fn load(&self, key: &StoreKey) -> Result<Option<PlanIr>> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(store_err(&path, e)),
        };
        let ir = codec::decode_as(&bytes, |found| {
            if found == *key {
                return Ok(());
            }
            Err(PlanError::Codec {
                reason: format!(
                    "plan identity mismatch: file holds (fp {:#018x}, n {}, w {}), \
                     requested (fp {:#018x}, n {}, w {})",
                    found.fingerprint, found.n, found.width, key.fingerprint, key.n, key.width
                ),
            })
        })?;
        Ok(Some(ir))
    }

    /// Remove the plan filed under `key`, if present. Returns whether a
    /// file was deleted.
    pub fn remove(&self, key: &StoreKey) -> Result<bool> {
        let path = self.path_for(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(store_err(&path, e)),
        }
    }

    /// List every plan file in the store (keys parsed from file names;
    /// non-plan files are ignored).
    pub fn entries(&self) -> Result<Vec<StoreEntry>> {
        let mut out = Vec::new();
        let iter = fs::read_dir(&self.dir).map_err(|e| store_err(&self.dir, e))?;
        for entry in iter {
            let entry = entry.map_err(|e| store_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(key) = parse_file_name(&name.to_string_lossy()) else {
                continue;
            };
            let meta = entry.metadata().map_err(|e| store_err(&entry.path(), e))?;
            out.push(StoreEntry {
                key,
                bytes: meta.len(),
            });
        }
        out.sort_by_key(|e| (e.key.n, e.key.width, e.key.fingerprint));
        Ok(out)
    }

    /// Delete temp files last modified more than `grace` ago. A process
    /// killed between temp-write and rename leaks its `.tmp-*` file
    /// forever; anything older than the grace period cannot belong to a
    /// live writer (saves stream one encode and rename immediately).
    /// Called by [`PlanStore::open`] with a conservative default; exposed
    /// for explicit housekeeping. Returns how many files were removed.
    pub fn sweep_stale_tmps(&self, grace: Duration) -> Result<usize> {
        let now = SystemTime::now();
        let mut removed = 0usize;
        let iter = fs::read_dir(&self.dir).map_err(|e| store_err(&self.dir, e))?;
        for entry in iter {
            let entry = entry.map_err(|e| store_err(&self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with(".tmp-") || !name.ends_with(&format!(".{EXT}")) {
                continue;
            }
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(mtime) = meta.modified() else { continue };
            let age = now.duration_since(mtime).unwrap_or(Duration::ZERO);
            if age >= grace && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Cap the store at `max_bytes` of plan files by deleting the
    /// oldest-modified plans first (file-name tiebreak, so the order is
    /// deterministic under equal timestamps) until the remainder fits.
    /// Unparseable files are ignored, and a file that vanishes mid-prune
    /// (a concurrent prune or remove) is not an error. Returns how many
    /// plans were deleted.
    pub fn prune(&self, max_bytes: u64) -> Result<usize> {
        // (mtime, name, size, path) for every plan file.
        let mut files: Vec<(SystemTime, String, u64, PathBuf)> = Vec::new();
        let mut total: u64 = 0;
        let iter = fs::read_dir(&self.dir).map_err(|e| store_err(&self.dir, e))?;
        for entry in iter {
            let entry = entry.map_err(|e| store_err(&self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if parse_file_name(&name).is_none() {
                continue;
            }
            let meta = entry.metadata().map_err(|e| store_err(&entry.path(), e))?;
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            files.push((mtime, name, meta.len(), entry.path()));
        }
        files.sort();
        let mut removed = 0usize;
        for (_, _, bytes, path) in files {
            if total <= max_bytes {
                break;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    total -= bytes;
                    removed += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => total -= bytes,
                Err(e) => return Err(store_err(&path, e)),
            }
        }
        Ok(removed)
    }
}

/// Parse `plan-{fp:016x}-n{n}-w{w}.hmmplan` back into a key.
fn parse_file_name(name: &str) -> Option<StoreKey> {
    let rest = name
        .strip_prefix("plan-")?
        .strip_suffix(&format!(".{EXT}"))?;
    let mut parts = rest.split('-');
    let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
    let n = parts.next()?.strip_prefix('n')?.parse().ok()?;
    let width = parts.next()?.strip_prefix('w')?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(StoreKey {
        fingerprint,
        n,
        width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;
    use hmm_perm::Permutation;

    const W: usize = 8;

    fn tmp_store(tag: &str) -> PlanStore {
        let dir =
            std::env::temp_dir().join(format!("hmm-plan-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PlanStore::open(dir).unwrap()
    }

    /// A file whose re-sealed header records a γ_w no builder writes is
    /// refused by `load` as a codec error, like any other hostile file.
    #[test]
    fn load_refuses_a_recorded_gamma_outside_one_to_width() {
        let store = tmp_store("gamma");
        for p in [
            families::random(1 << 10, 8),
            families::bit_reversal(1 << 10).unwrap(),
        ] {
            let ir = PlanIr::build(&p, W).unwrap();
            let key = StoreKey::of(&ir);
            let path = store.save(&ir).unwrap();
            let good = fs::read(&path).unwrap();
            for bad in [f64::NAN, 0.5, W as f64 + 1.0] {
                let mut bytes = good.clone();
                bytes[36..44].copy_from_slice(&bad.to_bits().to_le_bytes());
                let body = bytes.len() - 8;
                let sum = hmm_perm::hash::hash_bytes(&bytes[..body]);
                bytes[body..].copy_from_slice(&sum.to_le_bytes());
                fs::write(&path, &bytes).unwrap();
                assert!(
                    matches!(store.load(&key), Err(PlanError::Codec { .. })),
                    "γ {bad}"
                );
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_load_round_trip_and_listing() {
        let store = tmp_store("roundtrip");
        let p = families::random(1 << 10, 7);
        let ir = PlanIr::build(&p, W).unwrap();
        let path = store.save(&ir).unwrap();
        assert!(path.exists());
        let key = StoreKey::of(&ir);
        let loaded = store.load(&key).unwrap().expect("plan present");
        assert_eq!(loaded, ir);
        assert!(loaded.matches(&p));
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, key);
        assert_eq!(entries[0].bytes, codec::encoded_len(ir.len()) as u64);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn structured_plans_persist_descriptor_sized() {
        // The tentpole storage win: a structured plan's file carries the
        // three affine descriptors, not the three O(n) maps — and loads
        // back field-identical, descriptors included.
        let store = tmp_store("compact");
        let n = 1 << 12;
        let p = families::bit_reversal(n).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        assert!(ir.affine().is_some());
        store.save(&ir).unwrap();
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].bytes, codec::compact_encoded_len(n) as u64);
        assert!(entries[0].bytes < 1024, "{} bytes", entries[0].bytes);
        let loaded = store.load(&StoreKey::of(&ir)).unwrap().expect("present");
        assert_eq!(loaded, ir);
        assert!(loaded.affine().is_some());
        assert!(loaded.matches(&p));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_plan_is_none_and_remove_reports() {
        let store = tmp_store("missing");
        let key = StoreKey {
            fingerprint: 42,
            n: 1024,
            width: W,
        };
        assert_eq!(store.load(&key).unwrap(), None);
        assert!(!store.remove(&key).unwrap());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_file_is_a_codec_error_then_removable() {
        let store = tmp_store("corrupt");
        let ir = PlanIr::build(&families::random(256, 9), W).unwrap();
        let key = StoreKey::of(&ir);
        store.save(&ir).unwrap();
        // Truncate the file behind the store's back.
        let path = store.path_for(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(&key), Err(PlanError::Codec { .. })));
        assert!(store.remove(&key).unwrap());
        assert_eq!(store.load(&key).unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn renamed_file_fails_the_identity_check() {
        let store = tmp_store("renamed");
        let ir = PlanIr::build(&families::random(256, 11), W).unwrap();
        store.save(&ir).unwrap();
        // File a valid plan under a *different* key, as if an attacker (or
        // a fingerprint collision) renamed it.
        let victim = StoreKey {
            fingerprint: ir.fingerprint() ^ 1,
            ..StoreKey::of(&ir)
        };
        fs::rename(store.path_for(&StoreKey::of(&ir)), store.path_for(&victim)).unwrap();
        assert!(matches!(store.load(&victim), Err(PlanError::Codec { .. })));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_replaces_under_the_same_key() {
        // Two different permutations forced under one key cannot happen
        // through `save` (the key is derived from the plan), but saving
        // the same plan twice must be idempotent.
        let store = tmp_store("replace");
        let ir = PlanIr::build(&families::random(256, 13), W).unwrap();
        store.save(&ir).unwrap();
        store.save(&ir).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn file_name_parsing_round_trips() {
        let store = tmp_store("names");
        let key = StoreKey {
            fingerprint: 0xdead_beef_0123_4567,
            n: 65536,
            width: 32,
        };
        let path = store.path_for(&key);
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(parse_file_name(&name), Some(key));
        assert_eq!(parse_file_name("not-a-plan.txt"), None);
        assert_eq!(parse_file_name("plan-zz-n4-w2.hmmplan"), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    fn backdate(path: &Path, secs_ago: u64) {
        let when = SystemTime::now() - Duration::from_secs(secs_ago);
        let times = fs::FileTimes::new().set_accessed(when).set_modified(when);
        fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_times(times)
            .unwrap();
    }

    #[test]
    fn prune_evicts_oldest_first_until_under_budget() {
        let store = tmp_store("prune");
        let plans: Vec<PlanIr> = (0..4)
            .map(|s| PlanIr::build(&families::random(256, 100 + s), W).unwrap())
            .collect();
        let per_plan = codec::encoded_len(256) as u64;
        for (age, ir) in plans.iter().enumerate() {
            let path = store.save(ir).unwrap();
            // plans[0] oldest, plans[3] newest.
            backdate(&path, 1000 * (4 - age as u64));
        }
        // Budget for two plans: the two oldest go.
        let removed = store.prune(2 * per_plan).unwrap();
        assert_eq!(removed, 2);
        assert!(store.load(&StoreKey::of(&plans[0])).unwrap().is_none());
        assert!(store.load(&StoreKey::of(&plans[1])).unwrap().is_none());
        assert!(store.load(&StoreKey::of(&plans[2])).unwrap().is_some());
        assert!(store.load(&StoreKey::of(&plans[3])).unwrap().is_some());
        // Already under budget: nothing to do.
        assert_eq!(store.prune(2 * per_plan).unwrap(), 0);
        // Zero budget empties the store.
        assert_eq!(store.prune(0).unwrap(), 2);
        assert!(store.entries().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_ignores_foreign_files() {
        let store = tmp_store("prune-foreign");
        fs::write(store.dir().join("notes.txt"), b"keep me").unwrap();
        assert_eq!(store.prune(0).unwrap(), 0);
        assert!(store.dir().join("notes.txt").exists());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_tmps_swept_fresh_ones_kept() {
        let store = tmp_store("tmpsweep");
        let stale = store.dir().join(".tmp-deadbeef-n256-w8-999.hmmplan");
        let fresh = store.dir().join(".tmp-cafef00d-n256-w8-998.hmmplan");
        let foreign = store.dir().join("unrelated.tmp");
        for p in [&stale, &fresh, &foreign] {
            fs::write(p, b"half-written").unwrap();
        }
        backdate(&stale, 3600);
        assert_eq!(store.sweep_stale_tmps(Duration::from_secs(900)).unwrap(), 1);
        assert!(!stale.exists());
        assert!(fresh.exists(), "live writer's tmp must survive");
        assert!(foreign.exists(), "non-store files are not touched");
        // Re-opening the same directory sweeps with the default grace.
        backdate(&fresh, 3600);
        let reopened = PlanStore::open(store.dir()).unwrap();
        assert!(!fresh.exists(), "open-time sweep collects stale tmps");
        let _ = fs::remove_dir_all(reopened.dir());
    }

    #[test]
    fn identity_permutation_plans_store_fine() {
        let store = tmp_store("ident");
        let p = Permutation::identity(1 << 10);
        let ir = PlanIr::build(&p, W).unwrap();
        store.save(&ir).unwrap();
        let loaded = store.load(&StoreKey::of(&ir)).unwrap().unwrap();
        assert!(loaded.matches(&p));
        let _ = fs::remove_dir_all(store.dir());
    }
}
