//! Graceful degradation of resource-governed analyses: the
//! [`DegradeLadder`] walked by [`Pipeline::evaluate_governed`] and the
//! [`Fidelity`] tag every [`YieldReport`] carries.
//!
//! A governed compilation that exceeds its node budget or deadline fails
//! with [`CoreError::Resource`](crate::CoreError::Resource) — but a
//! service answering requests wants *an answer*, not an error. The
//! ladder formalises the retreat: retry the analysis under progressively
//! cheaper settings ([`DegradeStep`]s), and when even the cheapest exact
//! variant does not fit, fall back to `socy-sim` Monte-Carlo confidence
//! bounds. Every report says which rung produced it, so downstream
//! consumers can distinguish a guaranteed lower bound from a statistical
//! interval.
//!
//! [`Pipeline::evaluate_governed`]: crate::Pipeline::evaluate_governed
//! [`YieldReport`]: crate::YieldReport

use crate::analysis::AnalysisOptions;

/// One rung of the degradation ladder: a cheaper variant of the original
/// analysis options, still answered by the exact combinatorial method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeStep {
    /// Multiply the error requirement `ε` by `factor` (> 1), shrinking
    /// the truncation `M` and with it the compiled diagrams. Clears any
    /// fixed truncation so the coarser `ε` actually takes effect.
    CoarsenEpsilon {
        /// Multiplier applied to `ε` (use powers of ten).
        factor: f64,
    },
    /// Force dynamic sifting with the given growth bound (percent,
    /// ≥ 100) onto the ordering specification: a sifted diagram converts
    /// into a smaller ROMDD when the static order was the problem.
    Sift {
        /// Sifting growth bound in percent of the pre-sift size.
        max_growth: u32,
    },
    /// Clamp the truncation to at most `max` defects, abandoning the
    /// requested `ε` but keeping the exact evaluation (the report's
    /// `error_bound` still states the — now larger — guaranteed error).
    ReduceTruncation {
        /// Largest truncation point to compile at.
        max: usize,
    },
}

impl DegradeStep {
    /// The options this rung retries with, derived from the original
    /// request's options.
    pub fn apply(&self, options: &AnalysisOptions) -> AnalysisOptions {
        let mut out = *options;
        match *self {
            DegradeStep::CoarsenEpsilon { factor } => {
                out.epsilon = options.epsilon * factor;
                out.fixed_truncation = None;
            }
            DegradeStep::Sift { max_growth } => {
                out.spec = options.spec.with_sifting(max_growth);
            }
            DegradeStep::ReduceTruncation { max } => {
                out.fixed_truncation = Some(options.fixed_truncation.map_or(max, |m| m.min(max)));
            }
        }
        out
    }

    /// Short label of the rung, used in [`Fidelity::tag`].
    pub fn label(&self) -> &'static str {
        match self {
            DegradeStep::CoarsenEpsilon { .. } => "epsilon",
            DegradeStep::Sift { .. } => "sift",
            DegradeStep::ReduceTruncation { .. } => "truncation",
        }
    }
}

/// How a [`YieldReport`](crate::YieldReport) was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fidelity {
    /// The exact combinatorial method under the requested options: the
    /// report's `yield_lower_bound` is a guaranteed lower bound with
    /// guaranteed absolute error ≤ `error_bound`.
    #[default]
    Exact,
    /// The exact method under a degraded rung of the ladder: still a
    /// guaranteed lower bound, but under cheaper options than requested
    /// (coarser `ε`, forced sifting or a clamped truncation — see the
    /// report's own `error_bound`/`truncation` for what was delivered).
    Degraded {
        /// The ladder rung that produced the answer.
        step: DegradeStep,
    },
    /// `socy-sim` Monte-Carlo confidence bounds: `yield_lower_bound` is
    /// the *lower confidence limit* and `error_bound` the interval
    /// width — statistical, not guaranteed.
    Bounds {
        /// Lower confidence limit of the yield.
        lower: f64,
        /// Upper confidence limit of the yield.
        upper: f64,
    },
}

impl Fidelity {
    /// Wire/CLI tag of the fidelity: `exact`, `degraded:<rung>` or
    /// `bounds`.
    pub fn tag(&self) -> String {
        match self {
            Fidelity::Exact => "exact".to_string(),
            Fidelity::Degraded { step } => format!("degraded:{}", step.label()),
            Fidelity::Bounds { .. } => "bounds".to_string(),
        }
    }

    /// Whether the answer came from the exact method under the requested
    /// options.
    pub fn is_exact(&self) -> bool {
        matches!(self, Fidelity::Exact)
    }
}

/// The full retreat plan of a governed evaluation: the exact-method
/// rungs to retry, then the Monte-Carlo fallback's sampling parameters.
///
/// Every rung recompiles under the same [`CompileOptions`] limits as the
/// original attempt (fresh governor, so the budget and deadline apply
/// per attempt). The Monte-Carlo fallback is deterministic for a fixed
/// `(samples, seed)` and independent of the sweep's thread count, so
/// degraded answers are as reproducible as exact ones.
///
/// [`CompileOptions`]: socy_dd::CompileOptions
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeLadder {
    /// Exact-method rungs, tried in order.
    pub steps: Vec<DegradeStep>,
    /// Monte-Carlo samples of the final fallback.
    pub samples: usize,
    /// RNG seed of the fallback (fixed ⇒ deterministic bounds).
    pub seed: u64,
    /// Confidence multiplier of the reported interval (`3.0` ≈ 99.7%).
    pub z: f64,
}

impl Default for DegradeLadder {
    fn default() -> Self {
        DegradeLadder {
            steps: vec![
                DegradeStep::CoarsenEpsilon { factor: 100.0 },
                DegradeStep::Sift { max_growth: 120 },
                DegradeStep::ReduceTruncation { max: 1 },
            ],
            samples: 20_000,
            seed: 0x50C7_1E1D,
            z: 3.0,
        }
    }
}

impl DegradeLadder {
    /// A ladder with no exact-method rungs: over-budget analyses go
    /// straight to Monte-Carlo bounds. Services pinning fixtures use
    /// this — the bounds are deterministic at every thread count,
    /// whereas whether an intermediate rung fits a budget is not a
    /// contract.
    pub fn bounds_only() -> Self {
        DegradeLadder { steps: Vec::new(), ..DegradeLadder::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_apply_to_options() {
        let base =
            AnalysisOptions { epsilon: 1e-4, fixed_truncation: Some(9), ..Default::default() };
        let coarse = DegradeStep::CoarsenEpsilon { factor: 100.0 }.apply(&base);
        assert!((coarse.epsilon - 1e-2).abs() < 1e-15);
        assert_eq!(coarse.fixed_truncation, None);

        let sifted = DegradeStep::Sift { max_growth: 120 }.apply(&base);
        assert_eq!(sifted.spec.sift_max_growth(), Some(120));

        let clamped = DegradeStep::ReduceTruncation { max: 2 }.apply(&base);
        assert_eq!(clamped.fixed_truncation, Some(2));
        let unclamped = DegradeStep::ReduceTruncation { max: 2 }
            .apply(&AnalysisOptions { fixed_truncation: None, ..base });
        assert_eq!(unclamped.fixed_truncation, Some(2));
    }

    #[test]
    fn fidelity_tags() {
        assert_eq!(Fidelity::Exact.tag(), "exact");
        assert!(Fidelity::Exact.is_exact());
        assert_eq!(
            Fidelity::Degraded { step: DegradeStep::Sift { max_growth: 120 } }.tag(),
            "degraded:sift"
        );
        let bounds = Fidelity::Bounds { lower: 0.4, upper: 0.6 };
        assert_eq!(bounds.tag(), "bounds");
        assert!(!bounds.is_exact());
        assert_eq!(Fidelity::default(), Fidelity::Exact);
    }

    #[test]
    fn default_ladder_ends_cheap() {
        let ladder = DegradeLadder::default();
        assert!(!ladder.steps.is_empty());
        assert!(matches!(ladder.steps.last(), Some(DegradeStep::ReduceTruncation { .. })));
        assert!(DegradeLadder::bounds_only().steps.is_empty());
        assert_eq!(DegradeLadder::bounds_only().seed, ladder.seed);
    }
}
