//! The lossy, generation-tagged memoization cache for recursive
//! operations.
//!
//! One cache serves every operation of an engine: entries are keyed on an
//! operation tag plus up to three operand node ids (binary operations
//! leave the third operand `0`; ITE uses all three). The table is
//! **direct-mapped**: every key hashes to exactly one slot, and inserting
//! over a live slot with a different key simply evicts it. Losing an
//! entry never changes results — a later lookup misses and the operation
//! is recomputed, producing the identical canonical node — so the cache
//! trades a bounded, allocation-free footprint and O(1) worst-case probes
//! for occasional recomputation, exactly like the computed tables of
//! mature BDD packages.
//!
//! Each slot packs the full key and result into 16 bytes
//! (`a, b, c, result`), with a parallel array of 16-bit **generation
//! tags** carrying the operation tag (3 bits) and the cache generation
//! (13 bits). Invalidating the whole cache — which the kernel's
//! compacting GC must do, because node ids are renumbered — is a single
//! generation bump instead of a full-table walk; stale slots die lazily
//! because their tag no longer matches. When the 13-bit generation
//! wraps, the tag array is cleared once so stale tags can never alias a
//! live generation.
//!
//! The slots and tags are allocated on the first insertion: a manager
//! that never memoizes anything (the ROMDD manager of a conversion) pays
//! neither the allocation nor the fill of a table it never reads. A
//! lookup before then misses like any other.
//!
//! The cache counts hits, misses, insertions and evictions — in total
//! and per operation tag — so the analysis layer can report memoization
//! effectiveness alongside the paper's size metrics, and it grows itself
//! (power-of-two, up to a bounded maximum) when sustained conflict
//! pressure shows the working set has outgrown the table.

/// Cache key: operation tag plus up to three operand node ids.
pub type OpKey = (u8, u32, u32, u32);

/// Number of distinct operation tags the cache distinguishes (tags must
/// be `< NUM_OP_TAGS`; the tag occupies 3 bits of a slot's metadata).
pub const NUM_OP_TAGS: usize = 8;

/// Default initial slot count (power of two).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Default upper bound for the automatic growth (power of two).
pub const DEFAULT_MAX_CAPACITY: usize = 1 << 21;

/// Largest representable generation (13 bits); bumping past it clears
/// the tag array and restarts at 1.
const GENERATION_MAX: u16 = (1 << 13) - 1;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hit/miss/eviction counters for one operation tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpTagStats {
    /// Lookups with this tag that found a live entry.
    pub hits: u64,
    /// Lookups with this tag that missed.
    pub misses: u64,
    /// Insertions with this tag that displaced a live entry of a
    /// different key.
    pub evictions: u64,
}

/// One packed 16-byte key/result slot (the operation tag and liveness
/// live in the parallel generation-tag array).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

/// A lossy, direct-mapped memoization cache with generation-tag
/// invalidation and hit/miss/eviction accounting.
#[derive(Debug, Clone)]
pub struct OpCache {
    /// Slot count (a power of two); `slots` and `tags` have this length
    /// once allocated, and are empty before the first insertion.
    capacity: usize,
    slots: Vec<Slot>,
    /// `(generation << 3) | op` of each slot; `0` marks a never-written
    /// slot (live generations start at 1).
    tags: Vec<u16>,
    generation: u16,
    /// Entries written under the current generation and not yet evicted.
    live: usize,
    max_capacity: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// Eviction count at the last resize (or creation), for the
    /// sustained-conflict growth trigger.
    evictions_at_resize: u64,
    per_op: [OpTagStats; NUM_OP_TAGS],
}

impl Default for OpCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY, DEFAULT_MAX_CAPACITY)
    }
}

#[inline]
fn hash_key(op: u8, a: u32, b: u32, c: u32) -> u64 {
    let mut state = (u64::from(a) | (u64::from(b) << 32)).wrapping_mul(SEED);
    state = (state.rotate_left(5) ^ (u64::from(c) | (u64::from(op) << 32))).wrapping_mul(SEED);
    state ^ (state >> 32)
}

impl OpCache {
    /// Creates a cache with `capacity` slots, allowed to grow up to
    /// `max_capacity` under sustained conflict pressure. Both bounds are
    /// rounded up to powers of two; `max_capacity` is clamped to at
    /// least `capacity` (equal bounds pin the size — useful for tests
    /// exercising the lossy behaviour, e.g. a capacity-1 cache). The
    /// slots are allocated on the first [`OpCache::insert`].
    pub fn with_capacity(capacity: usize, max_capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let max_capacity = max_capacity.max(capacity).next_power_of_two();
        Self {
            capacity,
            slots: Vec::new(),
            tags: Vec::new(),
            generation: 1,
            live: 0,
            max_capacity,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            evictions_at_resize: 0,
            per_op: [OpTagStats::default(); NUM_OP_TAGS],
        }
    }

    /// Current number of slots (allocated or not yet).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn index(&self, op: u8, a: u32, b: u32, c: u32) -> usize {
        hash_key(op, a, b, c) as usize & (self.capacity - 1)
    }

    #[inline]
    fn live_tag(&self, op: u8) -> u16 {
        (self.generation << 3) | u16::from(op)
    }

    /// Looks up a previously memoized result, counting the hit or miss.
    #[inline]
    pub fn get(&mut self, key: OpKey) -> Option<u32> {
        let (op, a, b, c) = key;
        debug_assert!((op as usize) < NUM_OP_TAGS, "operation tag {op} out of range");
        let idx = self.index(op, a, b, c);
        // Probe the (small, cache-resident) tag array first: a stale or
        // mismatched tag skips the 16-byte slot load entirely, and a
        // table not yet allocated has no tag at all.
        if self.tags.get(idx) == Some(&self.live_tag(op)) {
            let slot = self.slots[idx];
            if slot.a == a && slot.b == b && slot.c == c {
                self.hits += 1;
                self.per_op[op as usize].hits += 1;
                return Some(slot.result);
            }
        }
        self.misses += 1;
        self.per_op[op as usize].misses += 1;
        None
    }

    /// Memoizes the result of an operation, evicting whatever live entry
    /// occupied the key's slot.
    #[inline]
    pub fn insert(&mut self, key: OpKey, result: u32) {
        let (op, a, b, c) = key;
        debug_assert!((op as usize) < NUM_OP_TAGS, "operation tag {op} out of range");
        let idx = self.index(op, a, b, c);
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); self.capacity];
            self.tags = vec![0; self.capacity];
        }
        self.insertions += 1;
        let tag = self.tags[idx];
        if tag >> 3 == self.generation {
            let slot = self.slots[idx];
            if tag != self.live_tag(op) || slot.a != a || slot.b != b || slot.c != c {
                self.evictions += 1;
                self.per_op[op as usize].evictions += 1;
            }
        } else {
            self.live += 1;
        }
        self.slots[idx] = Slot { a, b, c, result };
        self.tags[idx] = self.live_tag(op);
        self.maybe_grow();
    }

    /// Doubles the table when the conflict evictions since the last
    /// resize exceed the slot count — sustained pressure that a larger
    /// table would absorb — re-placing the live entries under the new
    /// mask. Deterministic: the trigger depends only on the operation
    /// sequence.
    fn maybe_grow(&mut self) {
        if self.capacity >= self.max_capacity
            || (self.evictions - self.evictions_at_resize) as usize <= self.capacity
        {
            return;
        }
        self.evictions_at_resize = self.evictions;
        let new_capacity = (self.capacity * 2).min(self.max_capacity);
        self.capacity = new_capacity;
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::default(); new_capacity]);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; new_capacity]);
        self.live = 0;
        let mask = new_capacity - 1;
        for (slot, tag) in old_slots.into_iter().zip(old_tags) {
            if tag >> 3 != self.generation {
                continue;
            }
            let op = (tag & 0x7) as u8;
            let idx = hash_key(op, slot.a, slot.b, slot.c) as usize & mask;
            if self.tags[idx] >> 3 != self.generation {
                self.live += 1;
            }
            self.slots[idx] = slot;
            self.tags[idx] = tag;
        }
    }

    /// Number of live memoized entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is currently memoized.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lookups that found a memoized result.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (each typically followed by a recursive
    /// computation and an [`OpCache::insert`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Insertions performed (a superset of the misses that completed).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Insertions that displaced a live entry of a different key.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit/miss/eviction counters broken down by operation tag.
    pub fn per_op_stats(&self) -> &[OpTagStats; NUM_OP_TAGS] {
        &self.per_op
    }

    /// Fraction of lookups that hit, as a percentage in `[0, 100]`
    /// (`0` when no lookups happened).
    pub fn hit_rate_percent(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }

    /// Fraction of insertions that evicted a live entry, as a percentage
    /// in `[0, 100]` (`0` when nothing was inserted).
    pub fn evict_rate_percent(&self) -> f64 {
        if self.insertions == 0 {
            0.0
        } else {
            100.0 * self.evictions as f64 / self.insertions as f64
        }
    }

    /// Drops all memoized entries by bumping the generation (the
    /// hit/miss counters are kept, since they describe the workload, not
    /// the current contents). Returns the number of entries invalidated.
    ///
    /// This is how the kernel's compacting GC invalidates the cache: ids
    /// are renumbered by the sweep, so every entry keyed on old ids must
    /// die — one tag bump instead of a full-table remap. When the 13-bit
    /// generation wraps, the tag array is cleared so stale tags can
    /// never alias a future generation.
    pub fn invalidate_all(&mut self) -> usize {
        let dropped = self.live;
        self.live = 0;
        if self.generation == GENERATION_MAX {
            self.tags.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        dropped
    }

    /// Drops all memoized entries (alias of [`OpCache::invalidate_all`]
    /// kept for the manager-facing "clear the caches" API).
    pub fn clear(&mut self) {
        self.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let mut cache = OpCache::default();
        assert!(cache.is_empty());
        assert_eq!(cache.get((0, 2, 3, 0)), None);
        assert!(cache.slots.is_empty(), "a lookup allocates nothing");
        assert_eq!(cache.capacity(), DEFAULT_CAPACITY);
        cache.insert((0, 2, 3, 0), 7);
        assert_eq!(cache.get((0, 2, 3, 0)), Some(7));
        assert_eq!(cache.get((1, 2, 3, 0)), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insertions(), 1);
        assert_eq!(cache.evictions(), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1, "stats survive a clear");
        assert_eq!(cache.get((0, 2, 3, 0)), None, "cleared entries are gone");
    }

    #[test]
    fn per_op_stats_are_separated() {
        let mut cache = OpCache::default();
        cache.insert((0, 2, 3, 0), 7);
        assert_eq!(cache.get((0, 2, 3, 0)), Some(7));
        assert_eq!(cache.get((4, 2, 3, 5)), None);
        let per_op = cache.per_op_stats();
        assert_eq!(per_op[0], OpTagStats { hits: 1, misses: 0, evictions: 0 });
        assert_eq!(per_op[4], OpTagStats { hits: 0, misses: 1, evictions: 0 });
        assert!((cache.hit_rate_percent() - 50.0).abs() < 1e-12);
        assert_eq!(cache.evict_rate_percent(), 0.0);
    }

    #[test]
    fn capacity_one_cache_is_correct_but_forgetful() {
        let mut cache = OpCache::with_capacity(1, 1);
        assert_eq!(cache.capacity(), 1);
        cache.insert((0, 2, 3, 0), 7);
        assert_eq!(cache.get((0, 2, 3, 0)), Some(7));
        // A different key lands in the same (only) slot and evicts.
        cache.insert((1, 4, 5, 0), 9);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get((0, 2, 3, 0)), None, "evicted entry must miss");
        assert_eq!(cache.get((1, 4, 5, 0)), Some(9));
        // The pinned capacity never grows, however hard it thrashes.
        for i in 0..10_000u32 {
            cache.insert((2, i, i, 0), i);
        }
        assert_eq!(cache.capacity(), 1);
        assert!(cache.evict_rate_percent() > 99.0);
    }

    #[test]
    fn generation_bump_invalidates_everything_at_once() {
        let mut cache = OpCache::default();
        for i in 0..100u32 {
            cache.insert((0, i, i + 1, 0), i);
        }
        let live = cache.len();
        assert!(live > 0);
        assert_eq!(cache.invalidate_all(), live);
        assert!(cache.is_empty());
        for i in 0..100u32 {
            assert_eq!(cache.get((0, i, i + 1, 0)), None, "stale generation must miss");
        }
        // Re-inserting under the new generation works normally.
        cache.insert((0, 1, 2, 0), 3);
        assert_eq!(cache.get((0, 1, 2, 0)), Some(3));
    }

    #[test]
    fn generation_wrap_clears_stale_tags() {
        let mut cache = OpCache::with_capacity(8, 8);
        cache.insert((0, 1, 2, 0), 3);
        // Wrap the 13-bit generation completely, twice over.
        for _ in 0..(2 * GENERATION_MAX as usize + 5) {
            cache.invalidate_all();
        }
        assert_eq!(cache.get((0, 1, 2, 0)), None, "wrapped generations must not alias");
        cache.insert((0, 1, 2, 0), 9);
        assert_eq!(cache.get((0, 1, 2, 0)), Some(9));
    }

    #[test]
    fn sustained_conflicts_grow_the_table_up_to_the_bound() {
        let mut cache = OpCache::with_capacity(8, 64);
        // Hammer far more distinct keys than slots; the conflict pressure
        // must push the capacity to (and not past) the maximum.
        for round in 0..50u32 {
            for i in 0..512u32 {
                cache.insert((0, i, round, 0), i);
            }
        }
        assert_eq!(cache.capacity(), 64, "growth stops at max_capacity");
        assert!(cache.evictions() > 0);
        // Entries surviving the final writes still resolve.
        let mut found = 0;
        for i in 0..512u32 {
            if cache.get((0, i, 49, 0)) == Some(i) {
                found += 1;
            }
        }
        assert!(found > 0, "some recent entries survive in the grown table");
    }

    #[test]
    fn growth_preserves_live_entries_when_roomy() {
        let mut cache = OpCache::with_capacity(4, 1024);
        // Insert a small working set, then force growth via conflicts.
        cache.insert((3, 10, 20, 30), 42);
        for round in 0..200u32 {
            for i in 0..64u32 {
                cache.insert((0, i, round, 0), i);
            }
        }
        assert!(cache.capacity() > 4);
        // The grown table still answers with the packed key compare
        // (either the entry survived the conflicts or it misses — it must
        // never answer with a wrong result).
        if let Some(result) = cache.get((3, 10, 20, 30)) {
            assert_eq!(result, 42);
        }
    }
}
