//! The shared hash-consed decision-diagram kernel used by the `socy-bdd`
//! (ROBDD) and `socy-mdd` (ROMDD) engines.
//!
//! Coded ROBDDs and ROMDDs are two views of one discipline: a forest of
//! nodes `(level, children…)` kept canonical by hash-consing plus the
//! redundant-node reduction rule, operated on by memoized recursive
//! procedures. This crate factors that discipline out of the two engines:
//!
//! * a cache-friendly struct-of-arrays node [`arena`](arena::NodeArena)
//!   addressed by `u32` ids, packing every node's level and (for arity
//!   ≤ 2) its children into one 16-byte header, with wider multi-valued
//!   nodes spilling into one flat edge array;
//! * a per-level, Robin-Hood [`unique table`](unique::UniqueTable) with
//!   cached hash bits that stores only node ids and resolves keys
//!   against the arena, so children are never duplicated into hash-map
//!   keys, growth never walks the arena, and adjacent levels swap in
//!   O(interacting nodes);
//! * a lossy, direct-mapped, generation-tagged
//!   [`operation cache`](cache::OpCache) keyed on `(op, operands)` with
//!   per-operation hit/miss/eviction statistics, bounded memory and O(1)
//!   whole-cache invalidation;
//! * the [`DdKernel`] combining the three behind the
//!   canonicalising [`mk`](DdKernel::mk) constructor and its
//!   whole-level form [`mk_level`](DdKernel::mk_level);
//! * shared memoized traversals (node counts, reachable-set iteration,
//!   support, path evaluation, depth-first probability evaluation);
//! * external root protection ([`kernel::Ref`] handles / [`kernel::Protect`]
//!   guards) and a compacting mark-and-sweep collector
//!   ([`DdKernel::gc`](kernel::DdKernel::gc));
//! * dynamic variable reordering by sifting
//!   ([`reorder`]: adjacent-level swaps, single-variable and grouped
//!   block drivers with a bounded growth factor);
//! * the [`FxHash`](hash) implementation both engines key their tables
//!   with;
//! * a shared Graphviz [`DOT writer`](dot::DotWriter).
//!
//! The engines stay responsible for everything domain-specific: boolean
//! connectives, ITE and thresholds live in `socy-bdd`; multi-valued
//! indicator constructors and the coded-ROBDD → ROMDD conversions live in
//! `socy-mdd`.
//!
//! # Example
//!
//! ```
//! use socy_dd::kernel::{DdKernel, ONE, ZERO};
//!
//! // Two levels: a binary variable above a ternary one.
//! let mut dd = DdKernel::new(vec![2, 3]);
//! let is2 = dd.mk(1, &[ZERO, ZERO, ONE]); // x1 == 2
//! let f = dd.mk(0, &[ZERO, is2]); // x0 == 1 && x1 == 2
//! assert_eq!(dd.node_count(f), 4);
//! assert_eq!(dd.mk(0, &[ZERO, is2]), f, "hash-consing is canonical");
//! assert_eq!(dd.mk(0, &[is2, is2]), is2, "redundant nodes are reduced");
//! let p = dd.probability(f, |level, value| [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]][level][value]);
//! assert!((p - 0.5 * 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod dot;
pub mod govern;
pub mod hash;
pub mod kernel;
pub mod options;
pub mod reorder;
pub mod unique;

pub use arena::{NodeArena, TERMINAL_LEVEL};
pub use cache::{OpCache, OpTagStats, NUM_OP_TAGS};
pub use govern::{catch_governed, CancelToken, DdError, Governor, GovernorLimits};
pub use kernel::{DdKernel, DdStats, GcStats, Protect, Ref, ONE, ZERO};
pub use options::CompileOptions;
pub use reorder::{SiftConfig, SiftOutcome};
pub use unique::UniqueTable;

// Parallel sweep workers (socy-exec) move kernels across threads. The
// kernel is plain owned data — arena vectors, tables, counters; no
// Rc/RefCell/raw pointers — so `Send + Sync` hold structurally. Assert
// them here so any future interior-mutability regression fails to
// compile at its source rather than in the executor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DdKernel>();
    assert_send_sync::<NodeArena>();
    assert_send_sync::<UniqueTable>();
    assert_send_sync::<OpCache>();
};
