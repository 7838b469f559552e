//! Error type for the defect-model crate.

use std::fmt;

/// Errors produced when constructing or manipulating defect models.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was supplied.
        value: f64,
    },
    /// A probability was outside `[0, 1]`.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was supplied.
        value: f64,
    },
    /// The error requirement `ε` was outside the open interval `(0, 1)`:
    /// `ε = 0` is unreachable by any finite truncation and `ε ≥ 1`
    /// requires nothing.
    InvalidEpsilon {
        /// Value that was supplied.
        value: f64,
    },
    /// A probability vector was empty.
    EmptyDistribution,
    /// The probabilities of an empirical distribution do not (approximately)
    /// sum to a value in `(0, 1]`.
    InvalidMass {
        /// Total probability mass found.
        total: f64,
    },
    /// The requested error bound cannot be met within the configured
    /// maximum truncation point.
    TruncationNotReached {
        /// Error requirement that was asked for.
        epsilon: f64,
        /// Maximum number of lethal defects that was examined.
        max_defects: usize,
        /// Probability mass accumulated up to `max_defects`.
        accumulated: f64,
    },
}

impl fmt::Display for DefectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive, got {value}")
            }
            DefectError::InvalidProbability { name, value } => {
                write!(f, "parameter `{name}` must lie in [0, 1], got {value}")
            }
            DefectError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "error requirement `epsilon` must lie in the open interval (0, 1), got {value}"
                )
            }
            DefectError::EmptyDistribution => write!(f, "empirical distribution has no entries"),
            DefectError::InvalidMass { total } => {
                write!(f, "empirical distribution mass {total} is not in (0, 1 + tolerance]")
            }
            DefectError::TruncationNotReached { epsilon, max_defects, accumulated } => write!(
                f,
                "could not reach error bound {epsilon} within {max_defects} lethal defects \
                 (accumulated mass {accumulated})"
            ),
        }
    }
}

impl std::error::Error for DefectError {}
