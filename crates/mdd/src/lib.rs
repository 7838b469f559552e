//! A from-scratch ROMDD (reduced ordered multiple-valued decision diagram)
//! engine, plus the coded-ROBDD → ROMDD conversion used by the DSN'03
//! combinatorial yield method.
//!
//! An ROMDD represents a boolean-valued function of *multiple-valued*
//! variables: variable `x_i` at level `i` ranges over the finite domain
//! `{0, …, d_i − 1}` and every non-terminal node at level `i` has `d_i`
//! outgoing edges, one per domain value. As with ROBDDs, hash-consing plus
//! the redundant-node rule make the representation canonical for a fixed
//! variable order; both disciplines are provided by the shared
//! [`socy_dd`] kernel, over which this crate is a thin multi-valued
//! layer.
//!
//! The yield method evaluates `P(G(W, V_1, …, V_M) = 1)` on the ROMDD of
//! the generalized fault tree `G`; this crate provides:
//!
//! * the node manager ([`MddManager`]) with indicator constructors,
//!   boolean operations ([`MddManager::and`], [`MddManager::or`],
//!   [`MddManager::not`]) and evaluation;
//! * probability evaluation under independent multiple-valued variables
//!   ([`MddManager::probability`]), the paper's depth-first computation,
//!   and a frozen level-major plan for repeated evaluation
//!   ([`MddManager::freeze`] → [`FrozenMdd`]);
//! * conversion of a *coded ROBDD* (binary-encoded, with bit groups kept
//!   contiguous and ordered like the multiple-valued variables) into the
//!   ROMDD, in two independent implementations: a top-down memoized
//!   converter ([`MddManager::from_coded_bdd`]) and the paper's bottom-up
//!   layer-by-layer procedure ([`MddManager::from_coded_bdd_layered`]);
//! * DOT export.
//!
//! # Example
//!
//! ```
//! use socy_mdd::MddManager;
//!
//! // One ternary variable; f(x) = 1 iff x >= 1.
//! let mut mgr = MddManager::new(vec![3]);
//! let f = mgr.value_at_least(0, 1);
//! assert!(!mgr.eval(f, &[0]));
//! assert!(mgr.eval(f, &[2]));
//! let p = mgr.probability(f, &[vec![0.2, 0.3, 0.5]]);
//! assert!((p - 0.8).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod coded;
pub mod dot;
pub mod from_bdd;
pub mod layered;
pub mod manager;
pub mod prob;

pub use coded::{CodedLayout, MvVarLayout};
pub use manager::{MddId, MddManager};
pub use prob::FrozenMdd;

// Each parallel sweep worker (socy-exec) owns private managers; assert
// the thread bounds the executor relies on (see socy-dd for rationale).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MddManager>();
    assert_send_sync::<FrozenMdd>();
};
