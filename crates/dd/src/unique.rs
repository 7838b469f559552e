//! The unique table making node construction canonical.
//!
//! The table is split into **per-level subtables** (the layout of mature
//! BDD packages): each variable level owns an open-addressed hash set of
//! node ids keyed on the node's *children only* — the level is implied by
//! the subtable. Keys are never materialised; a probe hashes the
//! children and compares candidates against the arena's own storage.
//! Compared with a `HashMap<(level, Box<[id]>), id>` this halves the
//! memory per entry and removes one allocation per node, which matters
//! when coded-ROBDD builds allocate hundreds of thousands of nodes.
//!
//! Each subtable uses **Robin Hood probing** and caches 32 bits of every
//! bucket's hash. That buys four things on the hot `get_or_insert` path:
//!
//! * candidate keys are rejected by one integer compare before the arena
//!   is ever touched, so probe chains cost almost nothing;
//! * growth re-places entries from the cached bits alone — a resize
//!   never walks the arena;
//! * the probe distance of any occupant is computable in place, which is
//!   what Robin Hood insertion (displace richer entries) and
//!   backward-shift deletion need to keep chains short at high load —
//!   the subtables run at a 7/8 load factor (the previous single-table
//!   design grew at 3/4);
//! * a level's nodes can be *enumerated* straight from its subtable,
//!   and two adjacent levels exchanged by swapping their subtables —
//!   which turns the sifting swap from an all-nodes rehash into work
//!   proportional to the nodes that actually interact.

use std::hash::Hasher;

use crate::arena::NodeArena;
use crate::hash::FxHasher;

const EMPTY: u32 = u32::MAX;
const INITIAL_BUCKETS: usize = 16;

/// One bucket: the node id plus the cached (folded) hash of its key,
/// packed into 8 bytes so a probe touches a single cache line. The hash
/// is garbage while `id == EMPTY`; the home bucket of an entry is
/// `hash & mask`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    id: u32,
    hash: u32,
}

const FREE: Bucket = Bucket { id: EMPTY, hash: 0 };

/// One level's open-addressed Robin-Hood hash set.
#[derive(Debug, Clone)]
struct SubTable {
    buckets: Vec<Bucket>,
    len: usize,
}

impl Default for SubTable {
    fn default() -> Self {
        Self { buckets: vec![FREE; INITIAL_BUCKETS], len: 0 }
    }
}

/// Folds the 64-bit children hash to the 32 cached bits (the same bits
/// that address the home bucket, so probe distances are recoverable).
pub(crate) fn hash_children(children: &[u32]) -> u32 {
    let mut hasher = FxHasher::default();
    for &c in children {
        hasher.write_u32(c);
    }
    let h = hasher.finish();
    (h ^ (h >> 32)) as u32
}

impl SubTable {
    /// True when the 7/8 load factor is reached.
    #[inline]
    fn needs_growth(&self) -> bool {
        self.len * 8 >= self.buckets.len() * 7
    }

    /// Probe distance of the occupant of `idx` from its home bucket.
    #[inline]
    fn displacement(&self, idx: usize, mask: usize) -> usize {
        idx.wrapping_sub(self.buckets[idx].hash as usize) & mask
    }

    /// Robin Hood insertion starting at `idx` with the carried entry
    /// already `dib` buckets from home: swap with any richer occupant
    /// and keep walking until a free bucket absorbs the carry.
    fn insert_displacing(&mut self, mut idx: usize, mut dib: usize, mut carry: Bucket) {
        let mask = self.buckets.len() - 1;
        loop {
            if self.buckets[idx].id == EMPTY {
                self.buckets[idx] = carry;
                return;
            }
            let occupant_dib = self.displacement(idx, mask);
            if occupant_dib < dib {
                std::mem::swap(&mut self.buckets[idx], &mut carry);
                dib = occupant_dib;
            }
            idx = (idx + 1) & mask;
            dib += 1;
        }
    }

    /// Returns the canonical node with these children, whose
    /// [`hash_children`] is `hash`, creating it in `arena` at `level` if
    /// no equal node exists in this subtable.
    fn get_or_insert(
        &mut self,
        arena: &mut NodeArena,
        level: u32,
        children: &[u32],
        hash: u32,
    ) -> u32 {
        if self.needs_growth() {
            self.resize(self.buckets.len() * 2);
        }
        let mask = self.buckets.len() - 1;
        let mut idx = hash as usize & mask;
        let mut dib = 0usize;
        loop {
            let bucket = self.buckets[idx];
            if bucket.id == EMPTY {
                let id = arena.push(level, children);
                self.buckets[idx] = Bucket { id, hash };
                self.len += 1;
                return id;
            }
            if bucket.hash == hash && arena.children(bucket.id) == children {
                return bucket.id;
            }
            if idx.wrapping_sub(bucket.hash as usize) & mask < dib {
                // The occupant is closer to home than we are, so an equal
                // key cannot lie further along the chain (Robin Hood
                // invariant): create the node and claim this bucket,
                // displacing the richer occupants.
                let id = arena.push(level, children);
                self.insert_displacing(idx, dib, Bucket { id, hash });
                self.len += 1;
                return id;
            }
            idx = (idx + 1) & mask;
            dib += 1;
        }
    }

    /// Inserts `id` under the key `children`; the key must not be
    /// present.
    fn insert_new(&mut self, id: u32, children: &[u32]) {
        if self.needs_growth() {
            self.resize(self.buckets.len() * 2);
        }
        let hash = hash_children(children);
        let idx = hash as usize & (self.buckets.len() - 1);
        self.insert_displacing(idx, 0, Bucket { id, hash });
        self.len += 1;
    }

    /// Removes `id`, keyed under `children`; panics if absent.
    fn remove(&mut self, id: u32, children: &[u32]) {
        let mask = self.buckets.len() - 1;
        let mut idx = hash_children(children) as usize & mask;
        loop {
            let slot = self.buckets[idx].id;
            assert_ne!(slot, EMPTY, "node {id} is not registered in the unique table");
            if slot == id {
                break;
            }
            idx = (idx + 1) & mask;
        }
        self.len -= 1;
        // Backward-shift: pull every successor with a non-zero probe
        // distance one bucket towards home; stop at a free bucket or an
        // entry already sitting at home.
        loop {
            let next = (idx + 1) & mask;
            if self.buckets[next].id == EMPTY || self.displacement(next, mask) == 0 {
                self.buckets[idx] = FREE;
                return;
            }
            self.buckets[idx] = self.buckets[next];
            idx = next;
        }
    }

    /// Grows the subtable, if needed, to the size that `additional` more
    /// insertions would reach by doubling one at a time.
    fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        // The last of them finds `len + additional - 1` entries.
        let before_last = self.len + additional - 1;
        let mut size = self.buckets.len();
        while before_last * 8 >= size * 7 {
            size *= 2;
        }
        if size > self.buckets.len() {
            self.resize(size);
        }
    }

    /// Re-places the subtable in `new_size` buckets (a larger power of
    /// two). The cached hash bits make this arena-free: every occupied
    /// bucket is re-placed under the new mask by Robin Hood insertion
    /// from its cached hash alone.
    fn resize(&mut self, new_size: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![FREE; new_size]);
        let mask = new_size - 1;
        for bucket in old {
            if bucket.id != EMPTY {
                self.insert_displacing(bucket.hash as usize & mask, 0, bucket);
            }
        }
    }
}

/// The per-level unique table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    tables: Vec<SubTable>,
    len: usize,
}

impl UniqueTable {
    /// Number of nodes registered in the table (= non-terminal nodes of
    /// the arena it serves).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no node has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The subtable of `level`, growing the level directory on demand
    /// (levels can be added to the arena after construction).
    #[inline]
    fn table(&mut self, level: u32) -> &mut SubTable {
        let level = level as usize;
        if level >= self.tables.len() {
            self.tables.resize_with(level + 1, SubTable::default);
        }
        &mut self.tables[level]
    }

    /// Returns the canonical node `(level, children)`, creating it in
    /// `arena` if no equal node exists yet.
    pub fn get_or_insert(&mut self, arena: &mut NodeArena, level: u32, children: &[u32]) -> u32 {
        self.get_or_insert_hashed(arena, level, children, hash_children(children))
    }

    /// [`UniqueTable::get_or_insert`] with the key's [`hash_children`]
    /// computed by the caller. The table's length counts the node as soon
    /// as it is inserted, so it stays exact even if the caller unwinds
    /// before its next insertion.
    pub(crate) fn get_or_insert_hashed(
        &mut self,
        arena: &mut NodeArena,
        level: u32,
        children: &[u32],
        hash: u32,
    ) -> u32 {
        let table = self.table(level);
        let before = table.len;
        let id = table.get_or_insert(arena, level, children, hash);
        self.len += table.len - before;
        id
    }

    /// Sizes `level`'s subtable once for `additional` more nodes, so that
    /// inserting them does not double it again and again: each doubling
    /// re-places every entry already there. The size is the one that
    /// inserting them one at a time would reach. Reserving inserts
    /// nothing: the caller still inserts, and reports to the governor,
    /// node by node in its own order, so ids and the table's length
    /// come out exactly as without the reservation.
    pub(crate) fn reserve(&mut self, level: u32, additional: usize) {
        self.table(level).reserve(additional);
    }

    /// Inserts a node under its *current* arena key. The key must not be
    /// present yet (used by the level-swap primitive after relabeling or
    /// rewriting nodes, where distinctness is guaranteed by canonicity).
    pub(crate) fn insert_new(&mut self, arena: &NodeArena, id: u32) {
        self.table(arena.raw_level(id)).insert_new(id, arena.children(id));
        self.len += 1;
    }

    /// Removes a node from the table. The arena must still hold the
    /// level/children the node was inserted under (call this *before*
    /// relabeling or rewriting it). Uses backward-shift deletion so later
    /// probes stay correct without tombstones.
    ///
    /// # Panics
    ///
    /// Panics if the node is not in the table.
    pub(crate) fn remove(&mut self, arena: &NodeArena, id: u32) {
        self.table(arena.raw_level(id)).remove(id, arena.children(id));
        self.len -= 1;
    }

    /// All node ids currently registered at `level` (in unspecified
    /// order; includes nodes that are garbage until the next collection,
    /// exactly like the arena itself).
    pub(crate) fn level_ids(&self, level: usize) -> impl Iterator<Item = u32> + '_ {
        self.tables
            .get(level)
            .map(|t| t.buckets.iter().map(|b| b.id).filter(|&id| id != EMPTY))
            .into_iter()
            .flatten()
    }

    /// Exchanges the subtables of levels `l` and `l + 1` in O(1) — the
    /// structural half of an adjacent-level swap: nodes whose children
    /// are untouched by the swap keep their children-only keys and simply
    /// follow their subtable to the other level.
    pub(crate) fn swap_levels(&mut self, l: usize) {
        if l + 1 >= self.tables.len() {
            self.tables.resize_with(l + 2, SubTable::default);
        }
        self.tables.swap(l, l + 1);
    }

    /// Discards the table and re-registers every non-terminal node of
    /// `arena` (used after a compacting collection renumbers all ids).
    pub(crate) fn rebuild(&mut self, arena: &NodeArena) {
        // Presize each level's subtable for its node count at the 7/8
        // load factor, so the rebuild never grows mid-way.
        let mut per_level = vec![0usize; arena.num_levels()];
        for id in 2..arena.len() as u32 {
            per_level[arena.raw_level(id) as usize] += 1;
        }
        self.tables.clear();
        self.tables.extend(per_level.iter().map(|&entries| {
            let mut size = INITIAL_BUCKETS;
            while entries * 8 >= size * 7 {
                size *= 2;
            }
            SubTable { buckets: vec![FREE; size], len: 0 }
        }));
        self.len = 0;
        for id in 2..arena.len() as u32 {
            self.insert_new(arena, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_nodes() {
        let mut arena = NodeArena::new(vec![2, 2]);
        let mut table = UniqueTable::default();
        assert!(table.is_empty());
        let a = table.get_or_insert(&mut arena, 1, &[0, 1]);
        let b = table.get_or_insert(&mut arena, 1, &[0, 1]);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 3);
        assert_eq!(table.len(), 1);
        let c = table.get_or_insert(&mut arena, 1, &[1, 0]);
        assert_ne!(a, c);
        assert_eq!(table.len(), 2);
        // The same children at a *different* level are a different node.
        let d = table.get_or_insert(&mut arena, 0, &[0, 1]);
        assert_ne!(a, d);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut arena = NodeArena::new(vec![2; 64]);
        let mut table = UniqueTable::default();
        let ids: Vec<u32> =
            (0..64u32).map(|i| table.get_or_insert(&mut arena, i, &[i % 2, 1 - i % 2])).collect();
        // Remove half the nodes; the rest must still resolve.
        for &id in ids.iter().step_by(2) {
            table.remove(&arena, id);
        }
        assert_eq!(table.len(), 32);
        for (i, &id) in ids.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            let i = i as u32;
            assert_eq!(table.get_or_insert(&mut arena, i, &[i % 2, 1 - i % 2]), id);
        }
        // Reinserting the removed ones restores them without new arena nodes.
        let before = arena.len();
        for &id in ids.iter().step_by(2) {
            table.insert_new(&arena, id);
        }
        assert_eq!(arena.len(), before);
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(table.get_or_insert(&mut arena, i, &[i % 2, 1 - i % 2]), id);
        }
    }

    #[test]
    fn rebuild_reindexes_everything() {
        let mut arena = NodeArena::new(vec![2; 512]);
        let mut table = UniqueTable::default();
        let ids: Vec<u32> =
            (0..512u32).map(|i| table.get_or_insert(&mut arena, i, &[0, 1])).collect();
        table.rebuild(&arena);
        assert_eq!(table.len(), 512);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.get_or_insert(&mut arena, i as u32, &[0, 1]), id);
        }
    }

    #[test]
    #[should_panic]
    fn removing_unknown_node_panics() {
        let mut arena = NodeArena::new(vec![2]);
        let mut table = UniqueTable::default();
        let id = arena.push(0, &[0, 1]);
        table.remove(&arena, id);
    }

    #[test]
    fn survives_growth() {
        let mut arena = NodeArena::new(vec![2; 4096]);
        let mut table = UniqueTable::default();
        let ids: Vec<u32> = (0..2000u32)
            .map(|i| table.get_or_insert(&mut arena, i % 4096, &[i % 2, 1 - i % 2]))
            .collect();
        // Every key must still resolve to the same node after many grows.
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(table.get_or_insert(&mut arena, i % 4096, &[i % 2, 1 - i % 2]), id);
        }
        assert_eq!(table.len(), arena.len() - 2);
    }

    #[test]
    fn reserve_sizes_a_level_once_for_its_insertions() {
        for n in [1u32, 13, 14, 15, 100, 1000] {
            let keys: Vec<[u32; 2]> = (0..n).map(|i| [i, i + 1]).collect();
            let mut arena = NodeArena::new(vec![2]);
            let mut grown = UniqueTable::default();
            for key in &keys {
                grown.get_or_insert(&mut arena, 0, key);
            }
            let mut arena = NodeArena::new(vec![2]);
            let mut reserved = UniqueTable::default();
            reserved.reserve(0, n as usize);
            let size = reserved.tables[0].buckets.len();
            for key in &keys {
                reserved.get_or_insert(&mut arena, 0, key);
                assert_eq!(reserved.tables[0].buckets.len(), size, "no resize after reserving");
            }
            assert_eq!(size, grown.tables[0].buckets.len(), "{n} insertions grow to the same size");
            assert_eq!(reserved.len(), n as usize);
        }
    }

    #[test]
    fn level_ids_enumerates_one_level() {
        let mut arena = NodeArena::new(vec![2, 2]);
        let mut table = UniqueTable::default();
        let a = table.get_or_insert(&mut arena, 1, &[0, 1]);
        let b = table.get_or_insert(&mut arena, 1, &[1, 0]);
        let c = table.get_or_insert(&mut arena, 0, &[a, b]);
        let mut at1: Vec<u32> = table.level_ids(1).collect();
        at1.sort_unstable();
        assert_eq!(at1, vec![a, b]);
        assert_eq!(table.level_ids(0).collect::<Vec<_>>(), vec![c]);
        assert!(table.level_ids(7).next().is_none(), "unknown levels are empty");
    }

    #[test]
    fn swap_levels_carries_children_keys() {
        let mut arena = NodeArena::new(vec![2, 2]);
        let mut table = UniqueTable::default();
        let a = table.get_or_insert(&mut arena, 1, &[0, 1]);
        table.swap_levels(0);
        // The entry now answers at level 0 (the arena must be relabeled
        // by the caller; the key is children-only).
        arena.set_level(a, 0);
        assert_eq!(table.get_or_insert(&mut arena, 0, &[0, 1]), a);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn heavy_churn_keeps_the_table_consistent() {
        // Interleaved inserts and removals exercise the Robin Hood
        // displacement and backward-shift paths across several growths.
        let mut arena = NodeArena::new(vec![3; 1024]);
        let mut table = UniqueTable::default();
        let mut live: Vec<(u32, [u32; 3])> = Vec::new();
        for i in 0..1500u32 {
            let key = [i % 2, (i / 2) % 2, 1 - i % 2];
            let id = table.get_or_insert(&mut arena, i % 1024, &key);
            live.push((id, key));
            if i % 3 == 2 {
                // Remove an earlier entry and re-add it.
                let (victim, vkey) = live[(i as usize * 7) % live.len()];
                let level = arena.raw_level(victim);
                table.remove(&arena, victim);
                table.insert_new(&arena, victim);
                assert_eq!(table.get_or_insert(&mut arena, level, &vkey), victim);
            }
        }
        // Every live entry still resolves canonically.
        for &(id, key) in &live {
            let level = arena.raw_level(id);
            assert_eq!(table.get_or_insert(&mut arena, level, &key), id);
        }
        assert_eq!(table.len(), arena.len() - 2);
    }
}
