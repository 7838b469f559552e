//! The struct-of-arrays node arena.
//!
//! Nodes are addressed by dense `u32` ids; ids `0` and `1` are reserved
//! for the FALSE and TRUE terminals. Every node stores a packed 16-byte
//! header carrying its variable level and its children: nodes with at
//! most two children — every node of a coded ROBDD — keep them **inline
//! in the header**, so the hot paths (unique-table compares, cofactor
//! reads, traversals) touch exactly one memory location per node; wider
//! multi-valued nodes spill into one shared flat edge array. The number
//! of children of a node is a function of its level alone (2 everywhere
//! for ROBDDs, the domain size for ROMDDs), which is what lets one arena
//! serve both engines.

/// Level used internally for the two terminal nodes (greater than every
/// variable level, so terminals sort below all variables).
pub const TERMINAL_LEVEL: u32 = u32::MAX;

/// Number of children stored inline in a node's header.
const INLINE_CHILDREN: usize = 2;

/// Per-node header, packed into 16 bytes. Nodes whose arity is at most
/// [`INLINE_CHILDREN`] store their children in `inline` and never touch
/// the edge array; wider nodes store the start of their children in
/// `edge_offset`.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Level of the node (`TERMINAL_LEVEL` for the two terminals).
    level: u32,
    /// Start of the node's children in `edges` (wide nodes only).
    edge_offset: u32,
    /// The children themselves, for nodes of arity ≤ 2.
    inline: [u32; INLINE_CHILDREN],
}

impl Meta {
    #[inline]
    fn new(level: u32) -> Self {
        Self { level, edge_offset: 0, inline: [0; INLINE_CHILDREN] }
    }
}

/// A struct-of-arrays arena of decision-diagram nodes.
#[derive(Debug, Clone)]
pub struct NodeArena {
    /// Number of children of a node at each level.
    arity: Vec<u32>,
    /// Packed per-node headers (level + edge offset).
    meta: Vec<Meta>,
    /// Flattened children of all non-terminal nodes.
    edges: Vec<u32>,
}

impl NodeArena {
    /// Creates an arena over levels with the given arities, containing
    /// only the FALSE (id 0) and TRUE (id 1) terminals.
    ///
    /// # Panics
    ///
    /// Panics if any arity is zero.
    pub fn new(arities: Vec<u32>) -> Self {
        assert!(arities.iter().all(|&a| a >= 1), "every level needs at least one child slot");
        Self { arity: arities, meta: vec![Meta::new(TERMINAL_LEVEL); 2], edges: Vec::new() }
    }

    /// Number of variable levels.
    pub fn num_levels(&self) -> usize {
        self.arity.len()
    }

    /// Number of children of a node at `level`.
    pub fn arity(&self, level: usize) -> usize {
        self.arity[level] as usize
    }

    /// Appends additional levels (after the existing ones) with the given
    /// arities. Existing nodes are unaffected.
    pub fn add_levels(&mut self, arities: impl IntoIterator<Item = u32>) {
        for a in arities {
            assert!(a >= 1, "every level needs at least one child slot");
            self.arity.push(a);
        }
    }

    /// Total number of nodes, including the two terminals.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Always false: the arena contains at least the terminals.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw level of a node (`TERMINAL_LEVEL` for terminals).
    pub fn raw_level(&self, id: u32) -> u32 {
        self.meta[id as usize].level
    }

    /// The level tested by a node, or `None` for terminals.
    pub fn level(&self, id: u32) -> Option<usize> {
        let l = self.meta[id as usize].level;
        if l == TERMINAL_LEVEL {
            None
        } else {
            Some(l as usize)
        }
    }

    /// The children of a node (empty for terminals).
    pub fn children(&self, id: u32) -> &[u32] {
        let meta = &self.meta[id as usize];
        if meta.level == TERMINAL_LEVEL {
            return &[];
        }
        let width = self.arity[meta.level as usize] as usize;
        if width <= INLINE_CHILDREN {
            &meta.inline[..width]
        } else {
            let start = meta.edge_offset as usize;
            &self.edges[start..start + width]
        }
    }

    /// The child followed when the node's variable takes `value`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal or `value` is outside the level's
    /// arity.
    pub fn child(&self, id: u32, value: usize) -> u32 {
        self.children(id)[value]
    }

    /// Appends a node without any canonicity check (the unique table is
    /// responsible for calling this at most once per key).
    pub(crate) fn push(&mut self, level: u32, children: &[u32]) -> u32 {
        debug_assert_eq!(children.len(), self.arity(level as usize), "arity mismatch at push");
        let id = self.meta.len() as u32;
        let mut meta = Meta::new(level);
        if children.len() <= INLINE_CHILDREN {
            meta.inline[..children.len()].copy_from_slice(children);
        } else {
            meta.edge_offset = self.edges.len() as u32;
            self.edges.extend_from_slice(children);
        }
        self.meta.push(meta);
        id
    }

    /// Relabels a node to `level` without touching its children (used by
    /// the adjacent-level swap when a node merely changes position). The
    /// caller must ensure the child count matches the new level's arity.
    pub(crate) fn set_level(&mut self, id: u32, level: u32) {
        self.meta[id as usize].level = level;
    }

    /// Swaps the arities of levels `l` and `l + 1` (the bookkeeping half of
    /// an adjacent-level swap).
    pub(crate) fn swap_arities(&mut self, l: usize) {
        self.arity.swap(l, l + 1);
    }

    /// Rewrites a node in place with a new level and children. The new
    /// children are appended to the edge array (the old slot is leaked
    /// until the next [`NodeArena::compact`]), so the node's id — and with
    /// it every parent reference — stays valid.
    pub(crate) fn set_node(&mut self, id: u32, level: u32, children: &[u32]) {
        debug_assert_eq!(children.len(), self.arity(level as usize), "arity mismatch at rewrite");
        let mut meta = Meta::new(level);
        if children.len() <= INLINE_CHILDREN {
            meta.inline[..children.len()].copy_from_slice(children);
        } else {
            meta.edge_offset = self.edges.len() as u32;
            self.edges.extend_from_slice(children);
        }
        self.meta[id as usize] = meta;
    }

    /// Compacts the arena to the nodes marked in `live`, renumbering the
    /// survivors downward while preserving their relative order (so a
    /// collection never changes iteration determinism). Returns the id
    /// remap table: `remap[old] = new` for survivors, `u32::MAX` for
    /// reclaimed nodes.
    ///
    /// `live` must be closed under the child relation and mark both
    /// terminals. Ids are renumbered first and edges rewritten second:
    /// after level swaps a parent can carry a *larger* id than a freshly
    /// hash-consed child, so a single increasing pass would be wrong.
    pub(crate) fn compact(&mut self, live: &[bool]) -> Vec<u32> {
        debug_assert_eq!(live.len(), self.meta.len());
        debug_assert!(live[0] && live[1], "terminals are always live");
        let mut remap = vec![u32::MAX; self.meta.len()];
        let mut next = 0u32;
        for (old, &alive) in live.iter().enumerate() {
            if alive {
                remap[old] = next;
                next += 1;
            }
        }
        let mut meta = Vec::with_capacity(next as usize);
        let mut edges = Vec::with_capacity(self.edges.len());
        for (old, &alive) in live.iter().enumerate() {
            if !alive {
                continue;
            }
            let level = self.meta[old].level;
            let mut new_meta = Meta::new(level);
            if level != TERMINAL_LEVEL {
                let width = self.arity[level as usize] as usize;
                if width <= INLINE_CHILDREN {
                    for (slot, &child) in
                        new_meta.inline[..width].iter_mut().zip(&self.meta[old].inline[..width])
                    {
                        let new_child = remap[child as usize];
                        debug_assert_ne!(
                            new_child,
                            u32::MAX,
                            "live set must be closed under children"
                        );
                        *slot = new_child;
                    }
                } else {
                    new_meta.edge_offset = edges.len() as u32;
                    let start = self.meta[old].edge_offset as usize;
                    for &child in &self.edges[start..start + width] {
                        let new_child = remap[child as usize];
                        debug_assert_ne!(
                            new_child,
                            u32::MAX,
                            "live set must be closed under children"
                        );
                        edges.push(new_child);
                    }
                }
            }
            meta.push(new_meta);
        }
        self.meta = meta;
        self.edges = edges;
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_only_at_birth() {
        let arena = NodeArena::new(vec![2, 3]);
        assert_eq!(arena.len(), 2);
        assert!(!arena.is_empty());
        assert_eq!(arena.num_levels(), 2);
        assert_eq!(arena.arity(1), 3);
        assert_eq!(arena.raw_level(0), TERMINAL_LEVEL);
        assert_eq!(arena.level(1), None);
        assert!(arena.children(0).is_empty());
    }

    #[test]
    fn push_and_read_back() {
        let mut arena = NodeArena::new(vec![2, 3]);
        let n = arena.push(1, &[0, 1, 1]);
        let m = arena.push(0, &[n, 0]);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.level(n), Some(1));
        assert_eq!(arena.children(n), &[0, 1, 1]);
        assert_eq!(arena.children(m), &[n, 0]);
        assert_eq!(arena.child(m, 0), n);
    }

    #[test]
    fn add_levels_extends() {
        let mut arena = NodeArena::new(vec![2]);
        arena.add_levels([4, 2]);
        assert_eq!(arena.num_levels(), 3);
        assert_eq!(arena.arity(1), 4);
    }

    #[test]
    #[should_panic]
    fn zero_arity_rejected() {
        let _ = NodeArena::new(vec![2, 0]);
    }

    #[test]
    fn rewrite_and_relabel() {
        let mut arena = NodeArena::new(vec![2, 2]);
        let n = arena.push(1, &[0, 1]);
        arena.set_level(n, 0);
        assert_eq!(arena.level(n), Some(0));
        assert_eq!(arena.children(n), &[0, 1]);
        arena.set_node(n, 1, &[1, 0]);
        assert_eq!(arena.level(n), Some(1));
        assert_eq!(arena.children(n), &[1, 0]);
        arena.swap_arities(0);
        assert_eq!(arena.arity(0), 2);
    }

    #[test]
    fn compact_renumbers_survivors_in_order() {
        let mut arena = NodeArena::new(vec![2, 2, 2]);
        let a = arena.push(2, &[0, 1]);
        let dead = arena.push(2, &[1, 0]);
        let b = arena.push(1, &[a, 1]);
        let c = arena.push(0, &[b, a]);
        let mut live = vec![true; arena.len()];
        live[dead as usize] = false;
        let remap = arena.compact(&live);
        assert_eq!(remap[dead as usize], u32::MAX);
        assert_eq!(remap[0], 0);
        assert_eq!(remap[1], 1);
        assert_eq!(remap[a as usize], 2);
        assert_eq!(remap[b as usize], 3);
        assert_eq!(remap[c as usize], 4);
        assert_eq!(arena.len(), 5);
        // Children were remapped consistently.
        assert_eq!(arena.children(remap[c as usize]), &[remap[b as usize], remap[a as usize]]);
        assert_eq!(arena.children(remap[b as usize]), &[remap[a as usize], 1]);
        assert_eq!(arena.children(remap[a as usize]), &[0, 1]);
    }
}
