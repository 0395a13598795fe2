//! A lock-free, open-addressed fingerprint table for failed-state
//! memoization.
//!
//! [`FpMemo`] is the memo the parallel search's workers share. It is a
//! fixed-capacity, power-of-two array of slots probed linearly from a
//! hash-derived index. Each slot carries:
//!
//! - a `tag` word packing a 48-bit **fingerprint** of the key's hash with
//!   a 16-bit **generation** counter, published with a single atomic
//!   store;
//! - a pointer to a heap-boxed **verification key**, so that a probe
//!   that matches the fingerprint can confirm the full key with `Eq`.
//!
//! ## Why collisions are sound
//!
//! The table only ever answers "have we already *refuted* this state?".
//! A false **miss** (the state was inserted but the probe doesn't find
//! it — because the slot was evicted, the probe window was exhausted, or
//! the generation rolled) merely re-searches a refuted subtree: slower,
//! never wrong. A false **hit** would be unsound, which is why the
//! fingerprint alone is never trusted: every fingerprint match is
//! confirmed against the boxed key with a full `Eq` comparison before the
//! probe reports a hit. Two distinct states that collide on all 48
//! fingerprint bits therefore still compare unequal and degrade to a
//! miss.
//!
//! ## Memory reclamation
//!
//! Keys are published with `Box::into_raw` via an atomic `swap`; a
//! displaced key pointer is pushed onto a retire bin rather than freed,
//! and all outstanding boxes (live slots + bin) are dropped only in
//! [`Drop`]. Concurrent readers may therefore always dereference a
//! non-null key pointer they loaded — the pointee outlives the table's
//! every probe. This wastes at most one allocation per insertion, which
//! is bounded by the search's node budget.
//!
//! ## Bounded size, generation-tagged eviction
//!
//! When the insert count crosses a high-water mark the table bumps its
//! generation; slots tagged with an older generation become *stale* and
//! are reclaimable by subsequent inserts. Readers treat stale slots as
//! empty, so an eviction is just a (sound) forced miss for the evicted
//! states.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tag value of a slot that has never been claimed.
const EMPTY: u64 = 0;
/// Tag value of a slot mid-publication: probes skip it, inserts move on.
const CLAIMED: u64 = u64::MAX;
/// Linear-probe window: an insert that finds no free or stale slot
/// within this many steps is dropped (a bounded table never blocks).
const PROBE_WINDOW: usize = 16;
/// Default capacity (slots). Must be a power of two.
const DEFAULT_CAPACITY: usize = 1 << 17;

/// Multiplier for fingerprint mixing (the 64-bit golden ratio, as in
/// Fibonacci hashing).
const FP_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Packs a 48-bit fingerprint and 16-bit generation into an occupied
/// tag. The low fingerprint bit is forced to 1 so an occupied tag can
/// never equal [`EMPTY`]; the generation is held below 0xFFFF so it can
/// never equal [`CLAIMED`]'s low half... and more simply, the whole word
/// can only be `u64::MAX` if the fingerprint half is all-ones *and* the
/// generation is 0xFFFF, which the modulus below rules out.
fn occupied_tag(fp: u64, generation: u64) -> u64 {
    ((fp | 1) << 16) | (generation % 0xFFFF)
}

struct Slot<K> {
    tag: AtomicU64,
    key: AtomicPtr<K>,
}

/// A bounded, lock-free set of refuted search states. See the module
/// docs for the design; the API is what the engine's memo path needs:
/// [`contains`](FpMemo::contains) and [`insert`](FpMemo::insert).
pub struct FpMemo<K> {
    slots: Box<[Slot<K>]>,
    mask: u64,
    /// Approximate number of live inserts this generation.
    count: AtomicUsize,
    /// Inserts allowed per generation before an eviction sweep.
    threshold: usize,
    generation: AtomicU64,
    evictions: AtomicU64,
    /// Keys displaced by a racing re-publication; freed on drop.
    retired: Mutex<Vec<*mut K>>,
}

// SAFETY: all shared mutation goes through atomics; the retire bin is
// mutex-guarded; boxed keys are only dropped in `Drop` (&mut self).
unsafe impl<K: Send + Sync> Send for FpMemo<K> {}
unsafe impl<K: Send + Sync> Sync for FpMemo<K> {}

impl<K> std::fmt::Debug for FpMemo<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpMemo")
            .field("capacity", &self.slots.len())
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone> FpMemo<K> {
    /// A table with the default capacity (2^17 slots).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A table with at least `capacity` slots (rounded up to a power of
    /// two, minimum 64).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(64);
        let slots = (0..cap)
            .map(|_| Slot { tag: AtomicU64::new(EMPTY), key: AtomicPtr::new(std::ptr::null_mut()) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FpMemo {
            slots,
            mask: (cap - 1) as u64,
            count: AtomicUsize::new(0),
            // Evict at 7/8 occupancy: linear probing degrades sharply
            // past that, and the window bound would start dropping most
            // inserts anyway.
            threshold: cap / 8 * 7,
            generation: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    fn fingerprint(hash: u64) -> u64 {
        hash.wrapping_mul(FP_MIX) >> 16
    }

    /// True iff `key` was previously inserted and is still resident.
    ///
    /// A `false` may be a genuine miss *or* an evicted/raced entry; both
    /// are sound (the caller re-searches). A `true` is always exact: the
    /// fingerprint match is confirmed with a full `Eq` on the stored key.
    pub fn contains(&self, key: &K) -> bool {
        let hash = hash_of(key);
        let fp = Self::fingerprint(hash);
        let gen = self.generation.load(Ordering::Relaxed);
        let want = occupied_tag(fp, gen);
        let mut idx = hash & self.mask;
        for _ in 0..PROBE_WINDOW {
            let slot = &self.slots[idx as usize];
            // Acquire pairs with the Release tag store in `insert`,
            // making the key publication visible.
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == EMPTY {
                // Linear probing never leaves gaps within a probe
                // sequence of the current generation, so an EMPTY slot
                // ends the search. (Stale slots do NOT end it: the key
                // may have been inserted past them before the sweep.)
                return false;
            }
            if tag == want {
                let ptr = slot.key.load(Ordering::Acquire);
                if !ptr.is_null() {
                    // SAFETY: non-null key pointers are only ever
                    // published from `Box::into_raw` and only freed in
                    // `Drop`, so the pointee is live for `&self`'s
                    // lifetime.
                    if unsafe { &*ptr } == key {
                        return true;
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
        false
    }

    /// Records `key` as refuted. Returns `true` if a slot was claimed
    /// (`false` when the probe window was full and the insert dropped —
    /// sound: dropping an insert only costs a future re-search).
    pub fn insert(&self, key: &K) -> bool {
        if self.count.load(Ordering::Relaxed) >= self.threshold {
            self.evict();
        }
        let hash = hash_of(key);
        let fp = Self::fingerprint(hash);
        let gen = self.generation.load(Ordering::Relaxed);
        let want = occupied_tag(fp, gen);
        let mut idx = hash & self.mask;
        for _ in 0..PROBE_WINDOW {
            let slot = &self.slots[idx as usize];
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == want {
                // Possibly already present (another worker refuted the
                // same state); confirm to avoid wasting a slot.
                let ptr = slot.key.load(Ordering::Acquire);
                // SAFETY: as in `contains`.
                if !ptr.is_null() && unsafe { &*ptr } == key {
                    return true;
                }
            }
            let claimable = tag == EMPTY || (tag != CLAIMED && tag != want && Self::is_stale(tag, gen));
            if claimable
                && slot
                    .tag
                    .compare_exchange(tag, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                let boxed = Box::into_raw(Box::new(key.clone()));
                let old = slot.key.swap(boxed, Ordering::AcqRel);
                if !old.is_null() {
                    // A previous occupant's key: retire it rather than
                    // freeing, a reader may still hold the pointer.
                    match self.retired.lock() {
                        Ok(mut bin) => bin.push(old),
                        Err(poisoned) => poisoned.into_inner().push(old),
                    }
                }
                // Release publishes the key store above to Acquire
                // readers of the tag.
                slot.tag.store(want, Ordering::Release);
                self.count.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            idx = (idx + 1) & self.mask;
        }
        false
    }

    /// A slot whose generation half differs from the current generation
    /// belongs to an evicted epoch.
    fn is_stale(tag: u64, gen: u64) -> bool {
        tag != EMPTY && tag != CLAIMED && (tag & 0xFFFF) != (gen % 0xFFFF)
    }

    /// Bumps the generation, logically evicting every resident entry.
    /// Exactly one racing caller wins the CAS and resets the count.
    fn evict(&self) {
        let gen = self.generation.load(Ordering::Relaxed);
        if self
            .generation
            .compare_exchange(gen, gen + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.count.store(0, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Approximate number of entries inserted in the current generation.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing has been inserted this generation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of generation sweeps so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<K: Hash + Eq + Clone> Default for FpMemo<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> Drop for FpMemo<K> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let ptr = *slot.key.get_mut();
            if !ptr.is_null() {
                // SAFETY: published from Box::into_raw, freed exactly
                // once (here or from the retire bin, never both — the
                // bin only holds pointers swapped *out* of slots).
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
        let bin = std::mem::take(self.retired.get_mut().unwrap_or_else(|p| p.into_inner()));
        for ptr in bin {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_then_contains() {
        let memo: FpMemo<(u64, u64)> = FpMemo::with_capacity(256);
        assert!(!memo.contains(&(1, 2)));
        assert!(memo.insert(&(1, 2)));
        assert!(memo.contains(&(1, 2)));
        assert!(!memo.contains(&(2, 1)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let memo: FpMemo<u64> = FpMemo::with_capacity(256);
        assert!(memo.insert(&7));
        let before = memo.len();
        assert!(memo.insert(&7));
        assert_eq!(memo.len(), before, "re-insert claims no new slot");
    }

    /// A key type whose `Hash` deliberately collides everywhere but
    /// whose `Eq` still distinguishes: a full-table fingerprint
    /// collision must degrade to a miss, never a false hit.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(u64);
    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            0u64.hash(state);
        }
    }

    #[test]
    fn total_hash_collision_never_false_hits() {
        let memo: FpMemo<Colliding> = FpMemo::with_capacity(256);
        for i in 0..PROBE_WINDOW as u64 + 4 {
            memo.insert(&Colliding(i));
        }
        // Everything shares one probe sequence; only genuinely inserted
        // keys within the window may report hits, and no *other* key may.
        for i in 0..64u64 {
            if memo.contains(&Colliding(i)) {
                assert!(i < PROBE_WINDOW as u64 + 4, "false hit for {i}");
            }
        }
        assert!(!memo.contains(&Colliding(999)));
    }

    #[test]
    fn eviction_resets_and_counts() {
        let memo: FpMemo<u64> = FpMemo::with_capacity(64);
        // threshold = 64/8*7 = 56; push past it.
        for i in 0..200u64 {
            memo.insert(&i);
        }
        assert!(memo.evictions() > 0, "high-water mark must trigger a sweep");
        // Table still functions after eviction.
        memo.insert(&1_000_000);
        assert!(memo.contains(&1_000_000));
    }

    #[test]
    fn concurrent_insert_contains_is_consistent() {
        let memo: Arc<FpMemo<u64>> = Arc::new(FpMemo::with_capacity(1 << 12));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 10_000 + i;
                        memo.insert(&k);
                        assert!(
                            memo.contains(&k) || memo.evictions() > 0,
                            "inserted key missing without an eviction"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // No cross-contamination: keys never inserted are never present.
        for k in [99_999u64, 123_456, 777_777] {
            assert!(!memo.contains(&k));
        }
    }
}
