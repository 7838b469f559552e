//! A from-scratch ROBDD (reduced ordered binary decision diagram) engine.
//!
//! The DSN'03 combinatorial yield method builds a *coded ROBDD* of the
//! generalized fault-tree function `G(w, v_1, …, v_M)` expressed in binary
//! logic, and later converts it into the ROMDD it actually analyses. The
//! original paper used the CMU BDD library; this crate provides an
//! equivalent, self-contained engine as a thin boolean layer over the
//! shared [`socy_dd`] hash-consing kernel:
//!
//! * hash-consed nodes with a unique table ([`BddManager`]);
//! * the usual boolean operations (`not`, `and`, `or`, `xor`, `ite`) with
//!   memoization ([`apply`](BddManager::and));
//! * threshold ("at least k of n") construction used for k-of-n voter gates;
//! * netlist compilation ([`BddManager::build_netlist`]) with peak-node
//!   tracking, reproducing the paper's "ROBDD peak" metric;
//! * structural analysis: node counts, supports, evaluation, satisfying
//!   fraction and probability evaluation under independent variables;
//! * DOT export for visual inspection.
//!
//! Terminals are the constants [`BddManager::zero`] and [`BddManager::one`].
//! Variables are identified by their *level* (position in the global
//! variable order): level 0 is tested first.
//!
//! # Example
//!
//! ```
//! use socy_bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let x0 = mgr.var(0);
//! let x1 = mgr.var(1);
//! let x2 = mgr.var(2);
//! let a = mgr.and(x0, x1);
//! let f = mgr.or(a, x2);           // f = x0·x1 + x2
//! assert_eq!(mgr.inner_node_count(f), 3);
//! assert!(mgr.eval(f, &[true, true, false]));
//! let p = mgr.probability(f, &[0.5, 0.5, 0.5]);
//! assert!((p - 0.625).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod apply;
pub mod build;
pub mod dot;
pub mod manager;

pub use socy_dd::hash;
pub use socy_dd::DdStats;

pub use manager::{BddId, BddManager};

// Each parallel sweep worker (socy-exec) owns private managers; assert
// the thread bounds the executor relies on (see socy-dd for rationale).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BddManager>();
};
