//! The combinatorial method for the evaluation of yield of fault-tolerant
//! systems-on-chip (DSN 2003).
//!
//! Given
//!
//! * a gate-level **fault tree** `F(x_1, …, x_C)` over the component failed
//!   states (`F = 1` ⇔ the system is not functioning),
//! * per-component lethal-defect probabilities `P_i`
//!   ([`socy_defect::ComponentProbabilities`]), and
//! * a distribution of the number of **lethal** manufacturing defects `Q'_k`
//!   (any [`socy_defect::DefectDistribution`]),
//!
//! the method computes a lower bound `Y_M` on the yield with a guaranteed
//! absolute error `≤ ε`:
//!
//! 1. select the truncation `M = min{m : Σ_{k≤m} Q'_k ≥ 1-ε}`;
//! 2. build the **generalized fault tree** `G(w, v_1, …, v_M)` in binary
//!    logic (module [`encode`]);
//! 3. order its variables with one of the paper's heuristics
//!    ([`socy_ordering`]);
//! 4. compile the **coded ROBDD** of `G` ([`socy_bdd`]);
//! 5. convert it into the **ROMDD** ([`socy_mdd`]);
//! 6. evaluate `P(G = 1)` on the ROMDD and return `Y_M = 1 − P(G = 1)`.
//!
//! For design-space studies the [`Pipeline`] type runs the same method
//! with artifact reuse: steps 1–5 are performed once per ordering
//! configuration (at the largest truncation the study needs) and
//! [`Pipeline::sweep`] then answers every `(distribution, ε)` point with
//! a single linear-time probability evaluation on the compiled ROMDD.
//!
//! The crate also contains an exact (exponential) baseline for small
//! systems (module [`exact`]), closed-form yields for elementary redundancy
//! structures (module [`structures`]), and a direct-ROMDD construction used
//! for cross-checking and ablations.
//!
//! # Example
//!
//! ```
//! use socy_faulttree::Netlist;
//! use socy_defect::{ComponentProbabilities, NegativeBinomial};
//! use soc_yield_core::{analyze, AnalysisOptions};
//!
//! // A 1-out-of-2 system: it fails only when both components fail.
//! let mut f = Netlist::new();
//! let x1 = f.input("x1");
//! let x2 = f.input("x2");
//! let both = f.and([x1, x2]);
//! f.set_output(both);
//!
//! let comps = ComponentProbabilities::new(vec![0.5, 0.5])?;
//! let lethal = NegativeBinomial::new(1.0, 0.25)?;
//! let analysis = analyze(&f, &comps, &lethal, &AnalysisOptions::default())?;
//! assert!(analysis.report.yield_lower_bound > 0.5);
//! assert!(analysis.report.error_bound <= 1e-4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod degrade;
pub mod delta;
pub mod encode;
pub mod error;
pub mod exact;
pub mod structures;

pub use analysis::{
    analyze, analyze_direct, AnalysisOptions, ConversionAlgorithm, Pipeline, SweepPoint,
    YieldAnalysis, YieldReport,
};
pub use degrade::{DegradeLadder, DegradeStep, Fidelity};
pub use delta::{swap_subtree, SystemDelta};
pub use encode::GeneralizedFaultTree;
pub use error::CoreError;
pub use socy_dd::{CancelToken, CompileOptions, DdError, DdStats};
