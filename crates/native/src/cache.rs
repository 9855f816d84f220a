//! The plan cache over an engine core: a sharded `RwLock` LRU of
//! width-free plans keyed `(fingerprint, n, width)`, single-flight
//! construction, and verified hits (a pointer check when the caller
//! passes the plan's own storage, a full image compare otherwise).

use crate::plan::{EngineCore, Plan};
use hmm_perm::Permutation;
use hmm_plan::{PlanError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Cache key: permutation fingerprint + length + schedule width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    fingerprint: u64,
    len: usize,
    width: usize,
}

/// Single-flight build slot: the first thread to miss inserts one in the
/// `Building` state and constructs the plan outside every lock; later
/// threads wait on the condvar instead of re-running the König coloring.
struct BuildSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    Building,
    Ready(Arc<Plan>),
    Failed(PlanError),
}

impl BuildSlot {
    fn new() -> Self {
        BuildSlot {
            state: Mutex::new(SlotState::Building),
            cv: Condvar::new(),
        }
    }

    /// Block until the slot resolves. Returns the outcome and whether this
    /// caller had to wait for an in-flight build (a deduped build).
    fn wait(&self) -> (Result<Arc<Plan>>, bool) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        loop {
            match &*st {
                SlotState::Building => {
                    waited = true;
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Ready(plan) => return (Ok(Arc::clone(plan)), waited),
                SlotState::Failed(e) => return (Err(e.clone()), waited),
            }
        }
    }

    fn fill(&self, outcome: Result<Arc<Plan>>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *st = match outcome {
            Ok(plan) => SlotState::Ready(plan),
            Err(e) => SlotState::Failed(e),
        };
        self.cv.notify_all();
    }

    fn is_building(&self) -> bool {
        matches!(
            &*self.state.lock().unwrap_or_else(PoisonError::into_inner),
            SlotState::Building
        )
    }
}

/// Fills a slot with an error if the build panics, so waiters are not
/// stranded in `Building` forever.
struct FillOnPanic<'a> {
    slot: &'a BuildSlot,
    n: usize,
    armed: bool,
}

impl Drop for FillOnPanic<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.slot.fill(Err(PlanError::UnsupportedSize {
                n: self.n,
                reason: "plan construction panicked",
            }));
        }
    }
}

pub(crate) struct ShardEntry {
    slot: Arc<BuildSlot>,
    /// Engine-clock timestamp of the last touch; an atomic so hits can
    /// refresh it under the shard's *read* lock.
    last_used: AtomicU64,
}

pub(crate) type Shard = RwLock<HashMap<PlanKey, ShardEntry>>;

impl EngineCore {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard_for(&self, fp: u64) -> &Shard {
        // The low fingerprint bits feed the in-shard HashMap, so pick the
        // shard from a multiplicative mix of the high bits.
        let mixed = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Fetch (or build and cache) the width-free plan for `p`.
    /// Concurrent callers for the same uncached permutation trigger
    /// exactly one build.
    pub(crate) fn plan(&self, p: &Permutation) -> Result<Arc<Plan>> {
        let key = PlanKey {
            fingerprint: (self.fingerprint_fn)(p),
            len: p.len(),
            width: self.width,
        };
        let shard = self.shard_for(key.fingerprint);
        loop {
            // Fast path: a read lock, a touch, a slot clone.
            let existing = {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                map.get(&key).map(|e| {
                    e.last_used.store(self.tick(), Ordering::Relaxed);
                    Arc::clone(&e.slot)
                })
            };
            let slot = match existing {
                Some(slot) => slot,
                None => {
                    // Miss path: write lock, double-check (another thread
                    // may have inserted since the read), publish Building.
                    let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                    match map.get(&key) {
                        Some(e) => {
                            e.last_used.store(self.tick(), Ordering::Relaxed);
                            Arc::clone(&e.slot)
                        }
                        None => {
                            self.evict_to_fit(&mut map);
                            let slot = Arc::new(BuildSlot::new());
                            map.insert(
                                key,
                                ShardEntry {
                                    slot: Arc::clone(&slot),
                                    last_used: AtomicU64::new(self.tick()),
                                },
                            );
                            drop(map);
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                            return self.build_into(&slot, shard, key, p);
                        }
                    }
                }
            };
            let (outcome, waited) = slot.wait();
            match outcome {
                Ok(plan) => {
                    // Shared storage verifies by pointer; anything else
                    // compares the full image.
                    if plan.permutation == *p {
                        let counter = if waited {
                            &self.stats.builds_deduped
                        } else {
                            &self.stats.hits
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        return Ok(plan);
                    }
                    // Fingerprint collision: the cached plan is for a
                    // *different* permutation with the same key. Count it,
                    // then treat it as a miss that replaces the entry.
                    self.stats.collisions.fetch_add(1, Ordering::Relaxed);
                    let replacement = {
                        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                        match map.get_mut(&key) {
                            // Replace only the slot we verified against; a
                            // concurrent replacement means the entry may
                            // now match `p` — retry the lookup instead.
                            Some(e) if Arc::ptr_eq(&e.slot, &slot) => {
                                let fresh = Arc::new(BuildSlot::new());
                                e.slot = Arc::clone(&fresh);
                                e.last_used.store(self.tick(), Ordering::Relaxed);
                                Some(fresh)
                            }
                            _ => None,
                        }
                    };
                    match replacement {
                        Some(fresh) => {
                            self.stats.misses.fetch_add(1, Ordering::Relaxed);
                            return self.build_into(&fresh, shard, key, p);
                        }
                        None => continue,
                    }
                }
                Err(e) => {
                    // The owning build failed; it already unpublished the
                    // entry, so waiters report the same error and later
                    // calls start a fresh build.
                    return Err(e);
                }
            }
        }
    }

    /// Construct the plan for a slot this thread owns, publish the result,
    /// and unpublish the map entry on failure so the error is not sticky.
    fn build_into(
        &self,
        slot: &Arc<BuildSlot>,
        shard: &Shard,
        key: PlanKey,
        p: &Permutation,
    ) -> Result<Arc<Plan>> {
        let mut guard = FillOnPanic {
            slot,
            n: p.len(),
            armed: true,
        };
        let built = self.construct_plan(p, key.fingerprint);
        guard.armed = false;
        match built {
            Ok(plan) => {
                let plan = Arc::new(plan);
                slot.fill(Ok(Arc::clone(&plan)));
                Ok(plan)
            }
            Err(e) => {
                {
                    let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
                    if let Some(entry) = map.get(&key) {
                        if Arc::ptr_eq(&entry.slot, slot) {
                            map.remove(&key);
                        }
                    }
                }
                slot.fill(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Evict least-recently-used resolved entries until an insert fits.
    /// In-flight builds are skipped (their builder and waiters hold the
    /// slot), so a shard can transiently exceed capacity while every
    /// resident plan is still being constructed.
    fn evict_to_fit(&self, map: &mut HashMap<PlanKey, ShardEntry>) {
        while map.len() >= self.per_shard_capacity {
            let victim = map
                .iter()
                .filter(|(_, e)| !e.slot.is_building())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }
}
