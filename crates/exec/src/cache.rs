//! Compiled-pipeline LRU cache with a live-node eviction budget.
//!
//! The paper's economics hinge on compile-once / evaluate-many: once a
//! `(system, ordering spec, conversion)` configuration is compiled into a
//! [`Pipeline`], every further design point is a linear-time probability
//! walk. [`PipelineLru`] makes that reuse explicit for long-running
//! callers (the `socy-serve` daemon): pipelines are retained across
//! requests and evicted least-recently-used when the sum of their
//! **live** (post-GC) ROMDD nodes exceeds a configurable budget.
//!
//! Charging the budget against [`Pipeline::live_nodes`] — not the
//! `peak_nodes` high-water mark — is deliberate: peaks measure transient
//! compilation pressure that has already been garbage-collected, so
//! evicting on peaks would punish resident pipelines for their compile
//! history rather than for the diagrams they actually keep.

use soc_yield_core::Pipeline;

/// Hit/miss/eviction counters of a [`PipelineLru`] since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident pipeline.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Pipelines inserted (including replacements of an existing key).
    pub insertions: u64,
    /// Pipelines evicted to satisfy the live-node budget.
    pub evictions: u64,
}

struct Entry<K> {
    key: K,
    pipeline: Pipeline,
    last_used: u64,
}

/// An LRU cache of compiled [`Pipeline`]s keyed by `K`, bounded by the
/// total live-node count of its residents rather than by entry count —
/// one huge diagram can cost more than many small ones.
///
/// Lookups are linear scans: the cache holds at most a handful of
/// multi-thousand-node diagrams, so a comparison per entry is noise next
/// to a single probability evaluation.
pub struct PipelineLru<K> {
    /// Maximum summed [`Pipeline::live_nodes`]; `None` = unbounded.
    budget: Option<usize>,
    /// Monotonic access clock backing the LRU order.
    clock: u64,
    entries: Vec<Entry<K>>,
    stats: CacheStats,
}

impl<K: Eq> PipelineLru<K> {
    /// Creates a cache evicting down to `budget` summed live nodes
    /// (`None` disables eviction).
    pub fn new(budget: Option<usize>) -> Self {
        Self { budget, clock: 0, entries: Vec::new(), stats: CacheStats::default() }
    }

    /// The configured live-node budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Number of resident pipelines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total live (post-GC) ROMDD nodes across all resident pipelines —
    /// the quantity the budget is charged against.
    pub fn live_nodes(&self) -> usize {
        self.entries.iter().map(|e| e.pipeline.live_nodes()).sum()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` is resident (does not touch the LRU order or the
    /// hit/miss counters).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.iter().any(|e| e.key == *key)
    }

    /// Looks up `key` without touching the LRU order or the hit/miss
    /// counters (for inspection after a counted [`PipelineLru::get`]).
    pub fn peek(&self, key: &K) -> Option<&Pipeline> {
        self.entries.iter().find(|e| e.key == *key).map(|e| &e.pipeline)
    }

    /// Like [`PipelineLru::peek`], but mutable — so a caller that already
    /// counted its lookup can evaluate on the resident pipeline without
    /// counting a second hit.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut Pipeline> {
        self.entries.iter_mut().find(|e| e.key == *key).map(|e| &mut e.pipeline)
    }

    /// Removes and returns the pipeline under `key`, if resident. Not
    /// counted as an eviction: callers use this to discard a pipeline
    /// whose evaluation panicked (its diagrams may be half-updated), not
    /// to enforce the budget.
    pub fn remove(&mut self, key: &K) -> Option<Pipeline> {
        let at = self.entries.iter().position(|e| e.key == *key)?;
        Some(self.entries.remove(at).pipeline)
    }

    /// Looks up `key`, marking it most-recently-used on a hit. Counts a
    /// hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&mut Pipeline> {
        match self.entries.iter_mut().find(|e| e.key == *key) {
            Some(entry) => {
                self.stats.hits += 1;
                self.clock += 1;
                entry.last_used = self.clock;
                Some(&mut entry.pipeline)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `pipeline` under `key` (replacing any previous resident),
    /// marks it most-recently-used, then evicts least-recently-used
    /// entries until the live-node budget holds. The entry just inserted
    /// is never evicted, even when it alone exceeds the budget — the
    /// caller is about to use it.
    pub fn insert(&mut self, key: K, pipeline: Pipeline) {
        self.stats.insertions += 1;
        self.clock += 1;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(entry) => {
                entry.pipeline = pipeline;
                entry.last_used = self.clock;
            }
            None => self.entries.push(Entry { key, pipeline, last_used: self.clock }),
        }
        self.enforce_budget();
    }

    /// Drops every resident pipeline (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.entries.len() > 1 && self.live_nodes() > budget {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty by the loop guard");
            self.entries.remove(oldest);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socy_defect::{ComponentProbabilities, NegativeBinomial};
    use socy_faulttree::Netlist;
    use socy_ordering::OrderingSpec;

    use crate::matrix::TruncationRule;
    use soc_yield_core::ConversionAlgorithm;

    /// A pipeline with one compiled model (so `live_nodes() > 0`).
    fn compiled_pipeline() -> Pipeline {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let f = nl.or([x1, x2]);
        nl.set_output(f);
        let comps = ComponentProbabilities::new(vec![0.4, 0.6]).unwrap();
        let mut pipeline = Pipeline::new(&nl, &comps).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = TruncationRule::Epsilon(1e-2)
            .options(OrderingSpec::paper_default(), ConversionAlgorithm::TopDown);
        pipeline.evaluate(&lethal, &options).unwrap();
        pipeline
    }

    #[test]
    fn hit_returns_the_resident_pipeline_without_recompiling() {
        let mut lru = PipelineLru::new(None);
        assert!(lru.get(&"a").is_none());
        lru.insert("a", compiled_pipeline());
        let compiles = lru.get(&"a").unwrap().compiles();
        let pipeline = lru.get(&"a").unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = TruncationRule::Epsilon(1e-2)
            .options(OrderingSpec::paper_default(), ConversionAlgorithm::TopDown);
        pipeline.evaluate(&lethal, &options).unwrap();
        assert_eq!(pipeline.compiles(), compiles, "hit path pays no compilation");
        assert_eq!(lru.stats(), CacheStats { hits: 2, misses: 1, insertions: 1, evictions: 0 });
    }

    #[test]
    fn eviction_is_least_recently_used_and_budget_driven() {
        let per_pipeline = compiled_pipeline().live_nodes();
        assert!(per_pipeline > 0);
        // Room for exactly two residents.
        let mut lru = PipelineLru::new(Some(2 * per_pipeline));
        lru.insert("a", compiled_pipeline());
        lru.insert("b", compiled_pipeline());
        assert_eq!(lru.len(), 2);
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(lru.get(&"a").is_some());
        lru.insert("c", compiled_pipeline());
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(&"a"));
        assert!(!lru.contains(&"b"));
        assert!(lru.contains(&"c"));
        assert_eq!(lru.stats().evictions, 1);
        assert!(lru.live_nodes() <= 2 * per_pipeline);
    }

    #[test]
    fn the_newest_entry_survives_even_over_budget() {
        let mut lru = PipelineLru::new(Some(0));
        lru.insert("only", compiled_pipeline());
        assert_eq!(lru.len(), 1, "the entry about to be used is never evicted");
        lru.insert("next", compiled_pipeline());
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(&"next"));
        assert_eq!(lru.stats().evictions, 1);
    }

    #[test]
    fn peek_and_remove_bypass_the_counters() {
        let mut lru = PipelineLru::new(None);
        assert!(lru.peek(&"a").is_none());
        lru.insert("a", compiled_pipeline());
        assert!(lru.peek(&"a").is_some());
        assert!(lru.peek_mut(&"a").is_some());
        assert!(lru.remove(&"a").is_some());
        assert!(lru.remove(&"a").is_none());
        assert!(!lru.contains(&"a"));
        let stats = lru.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 0, 0));
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn replacing_a_key_keeps_one_entry() {
        let mut lru = PipelineLru::new(None);
        lru.insert("a", compiled_pipeline());
        lru.insert("a", compiled_pipeline());
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.stats().insertions, 2);
        lru.clear();
        assert!(lru.is_empty());
    }
}
