//! Declarative description of a design-space sweep: the systems,
//! distributions, ordering specifications and truncation rules whose
//! cross product forms the evaluated matrix.

use std::fmt;

use soc_yield_core::{
    AnalysisOptions, CancelToken, CompileOptions, ConversionAlgorithm, SystemDelta,
};
use socy_defect::{ComponentProbabilities, DefectDistribution};
use socy_faulttree::Netlist;
use socy_ordering::OrderingSpec;

/// A shareable lethal-defect distribution: the paper's concrete
/// distributions are plain data, so they all satisfy these bounds.
pub trait SharedDistribution: DefectDistribution + Send + Sync {}

impl<T: DefectDistribution + Send + Sync> SharedDistribution for T {}

/// One system under analysis: a named fault tree plus its component
/// probability model.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Display name used in point labels and reports (e.g. `ESEN4x2`).
    pub name: String,
    /// Gate-level fault tree `F` (input variable `i` ⇔ component `i`).
    pub fault_tree: Netlist,
    /// Per-component lethal-hit probabilities `P_i`.
    pub components: ComponentProbabilities,
}

impl SystemSpec {
    /// Creates a system specification.
    pub fn new(
        name: impl Into<String>,
        fault_tree: Netlist,
        components: ComponentProbabilities,
    ) -> Self {
        Self { name: name.into(), fault_tree, components }
    }
}

/// A named lethal-defect distribution (one value of the distribution axis
/// of a [`SweepBlock`]).
pub struct NamedDistribution {
    /// Display name used in point labels (e.g. `λ'=1`).
    pub name: String,
    /// The distribution itself.
    pub distribution: Box<dyn SharedDistribution>,
}

impl NamedDistribution {
    /// Creates a named distribution.
    pub fn new(name: impl Into<String>, distribution: impl SharedDistribution + 'static) -> Self {
        Self { name: name.into(), distribution: Box::new(distribution) }
    }
}

impl fmt::Debug for NamedDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamedDistribution").field("name", &self.name).finish_non_exhaustive()
    }
}

/// How the truncation point `M` of one design point is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruncationRule {
    /// Derive `M` from an absolute error requirement `ε`.
    Epsilon(f64),
    /// Analyse exactly `M` lethal defects.
    Fixed(usize),
}

impl TruncationRule {
    /// The [`AnalysisOptions`] evaluating this rule under `(spec,
    /// conversion)`.
    pub fn options(&self, spec: OrderingSpec, conversion: ConversionAlgorithm) -> AnalysisOptions {
        match *self {
            TruncationRule::Epsilon(epsilon) => {
                AnalysisOptions { epsilon, spec, conversion, fixed_truncation: None }
            }
            TruncationRule::Fixed(m) => AnalysisOptions {
                epsilon: AnalysisOptions::default().epsilon,
                spec,
                conversion,
                fixed_truncation: Some(m),
            },
        }
    }

    /// Short display form: `ε=1e-3` or `M=6`.
    pub fn label(&self) -> String {
        match self {
            TruncationRule::Epsilon(epsilon) => format!("ε={epsilon:e}"),
            TruncationRule::Fixed(m) => format!("M={m}"),
        }
    }
}

impl fmt::Display for TruncationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One rectangular slab of design points: the full cross product
/// `systems × distributions × specs × conversions × rules`.
///
/// Points enumerate in row-major order with the *system* axis outermost
/// and the *rule* axis innermost — i.e. for each system, for each
/// distribution, for each ordering spec, for each conversion, for each
/// truncation rule. Studies whose axes are ragged (say, an extra
/// distribution only for the small instances, as in the paper's tables)
/// compose several blocks in one [`SweepMatrix`].
#[derive(Debug, Default)]
pub struct SweepBlock {
    /// The systems to analyse.
    pub systems: Vec<SystemSpec>,
    /// The lethal-defect distributions to evaluate.
    pub distributions: Vec<NamedDistribution>,
    /// The ordering specifications to compile under.
    pub specs: Vec<OrderingSpec>,
    /// The coded-ROBDD → ROMDD conversion algorithms (defaults to
    /// [`ConversionAlgorithm::TopDown`] when left empty).
    pub conversions: Vec<ConversionAlgorithm>,
    /// The truncation rules (ε values and/or fixed `M`s).
    pub rules: Vec<TruncationRule>,
    /// What-if variants of the block's systems. When non-empty, every
    /// `(system, distribution, spec, conversion, rule)` combination
    /// expands to one point *per delta* (delta axis innermost), and each
    /// family is evaluated with
    /// [`Pipeline::sweep_deltas`](soc_yield_core::Pipeline::sweep_deltas):
    /// the base system compiles once per chunk and the variants ride on
    /// it incrementally. Add `SystemDelta::named("base")` to keep the
    /// unmodified system among the points.
    pub deltas: Vec<SystemDelta>,
}

impl SweepBlock {
    /// Creates an empty block; fill the public axis vectors.
    pub fn new() -> Self {
        Self::default()
    }

    /// The conversion axis with the default applied.
    pub(crate) fn conversions_or_default(&self) -> Vec<ConversionAlgorithm> {
        if self.conversions.is_empty() {
            vec![ConversionAlgorithm::default()]
        } else {
            self.conversions.clone()
        }
    }

    /// Number of design points this block expands to.
    pub fn len(&self) -> usize {
        self.systems.len()
            * self.distributions.len()
            * self.specs.len()
            * self.conversions_or_default().len()
            * self.rules.len()
            * self.deltas.len().max(1)
    }

    /// Whether the block expands to no points at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Identifies one design point of a [`SweepMatrix`] for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct PointLabels {
    /// Name of the system.
    pub system: String,
    /// Name of the lethal-defect distribution.
    pub distribution: String,
    /// Ordering specification.
    pub spec: OrderingSpec,
    /// Conversion algorithm.
    pub conversion: ConversionAlgorithm,
    /// Truncation rule.
    pub rule: TruncationRule,
    /// Name of the what-if [`SystemDelta`] this point evaluates, when the
    /// block has a delta axis.
    pub delta: Option<String>,
}

impl PointLabels {
    /// A compact one-line label, e.g. `ESEN4x2 · λ'=1 · w/ml · ε=1e-3`
    /// (delta points append their variant name: `… · Δip2-hot`).
    pub fn label(&self) -> String {
        let mut label =
            format!("{} · {} · {} · {}", self.system, self.distribution, self.spec, self.rule);
        if let Some(delta) = &self.delta {
            label.push_str(" · Δ");
            label.push_str(delta);
        }
        label
    }
}

impl fmt::Display for PointLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A declarative design-space matrix: an ordered list of [`SweepBlock`]s
/// whose expanded points form the rows of the study, in a deterministic
/// *matrix order* (blocks in insertion order, each block row-major as
/// documented on [`SweepBlock`]).
///
/// Build one, then evaluate every point with
/// [`run`](crate::SweepMatrix::run) — serially with one worker or
/// bit-identically in parallel with many.
///
/// # Example
///
/// ```
/// use socy_exec::{NamedDistribution, SweepBlock, SweepMatrix, SystemSpec, TruncationRule};
/// use socy_defect::{ComponentProbabilities, NegativeBinomial};
/// use socy_faulttree::Netlist;
/// use socy_ordering::OrderingSpec;
///
/// let mut f = Netlist::new();
/// let a = f.input("a");
/// let b = f.input("b");
/// let both = f.and([a, b]);
/// f.set_output(both);
///
/// let mut block = SweepBlock::new();
/// block.systems.push(SystemSpec::new("1oo2", f, ComponentProbabilities::new(vec![0.5; 2])?));
/// block.distributions.push(NamedDistribution::new("λ'=1", NegativeBinomial::new(1.0, 4.0)?));
/// block.specs.push(OrderingSpec::paper_default());
/// block.rules.extend([TruncationRule::Epsilon(1e-2), TruncationRule::Epsilon(1e-4)]);
///
/// let mut matrix = SweepMatrix::new();
/// matrix.add(block);
/// assert_eq!(matrix.len(), 2);
///
/// let outcome = matrix.run(2);
/// let reports = outcome.reports()?;
/// assert!(reports[1].truncation >= reports[0].truncation);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct SweepMatrix {
    /// The blocks, expanded in insertion order.
    pub blocks: Vec<SweepBlock>,
    /// The resource limits every chunk's compilation runs under, as one
    /// [`CompileOptions`] value. Resource knobs, never an analysis axis:
    /// yields, error bounds, truncations and ROMDD node counts are
    /// bit-identical at every setting. Orthogonal to the sweep's worker
    /// count.
    ///
    /// The resource limits ([`CompileOptions::node_budget`] /
    /// [`CompileOptions::deadline_ms`]) apply **per chunk compilation**
    /// (each chunk owns a private pipeline and every compile runs under a
    /// fresh governor), so one over-budget configuration fails its own
    /// chunk without starving the rest of the sweep.
    pub options: CompileOptions,
    /// Cooperative cancellation token observed by every chunk's governed
    /// compilations: cancelling it makes remaining chunks fail fast with
    /// resource-flagged [`ChunkError`](crate::ChunkError)s instead of
    /// compiling to completion.
    pub cancel: Option<CancelToken>,
}

impl SweepMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a block to the matrix.
    pub fn add(&mut self, block: SweepBlock) -> &mut Self {
        self.blocks.push(block);
        self
    }

    /// Total number of design points.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(SweepBlock::len).sum()
    }

    /// Whether the matrix has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The labels of every design point, in matrix order.
    pub fn labels(&self) -> Vec<PointLabels> {
        let mut labels = Vec::with_capacity(self.len());
        for block in &self.blocks {
            let conversions = block.conversions_or_default();
            let deltas: Vec<Option<String>> = if block.deltas.is_empty() {
                vec![None]
            } else {
                block.deltas.iter().map(|d| Some(d.name().to_string())).collect()
            };
            for system in &block.systems {
                for dist in &block.distributions {
                    for &spec in &block.specs {
                        for &conversion in &conversions {
                            for &rule in &block.rules {
                                for delta in &deltas {
                                    labels.push(PointLabels {
                                        system: system.name.clone(),
                                        distribution: dist.name.clone(),
                                        spec,
                                        conversion,
                                        rule,
                                        delta: delta.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socy_defect::NegativeBinomial;
    use socy_ordering::{GroupOrdering, MvOrdering};

    fn tiny_system(name: &str) -> SystemSpec {
        let mut f = Netlist::new();
        let a = f.input("a");
        let b = f.input("b");
        let both = f.and([a, b]);
        f.set_output(both);
        SystemSpec::new(name, f, ComponentProbabilities::new(vec![0.5, 0.5]).unwrap())
    }

    #[test]
    fn block_len_counts_the_cross_product() {
        let mut block = SweepBlock::new();
        assert!(block.is_empty());
        block.systems.push(tiny_system("A"));
        block.systems.push(tiny_system("B"));
        block
            .distributions
            .push(NamedDistribution::new("λ'=1", NegativeBinomial::new(1.0, 4.0).unwrap()));
        block.specs.push(OrderingSpec::paper_default());
        block.specs.push(OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).unwrap());
        block.rules.push(TruncationRule::Epsilon(1e-3));
        block.rules.push(TruncationRule::Fixed(4));
        block.rules.push(TruncationRule::Fixed(2));
        // 2 systems × 1 distribution × 2 specs × 3 rules; conversions
        // default to one algorithm when unspecified.
        assert_eq!(block.len(), 12);
        block.conversions.push(soc_yield_core::ConversionAlgorithm::TopDown);
        block.conversions.push(soc_yield_core::ConversionAlgorithm::Layered);
        assert_eq!(block.len(), 24);
    }

    #[test]
    fn labels_enumerate_in_matrix_order() {
        let mut block = SweepBlock::new();
        block.systems.push(tiny_system("A"));
        block.systems.push(tiny_system("B"));
        block
            .distributions
            .push(NamedDistribution::new("d1", NegativeBinomial::new(1.0, 4.0).unwrap()));
        block
            .distributions
            .push(NamedDistribution::new("d2", NegativeBinomial::new(2.0, 4.0).unwrap()));
        block.specs.push(OrderingSpec::paper_default());
        block.rules.push(TruncationRule::Epsilon(1e-2));
        block.rules.push(TruncationRule::Epsilon(1e-4));
        let mut matrix = SweepMatrix::new();
        matrix.add(block);
        let mut second = SweepBlock::new();
        second.systems.push(tiny_system("C"));
        second
            .distributions
            .push(NamedDistribution::new("d3", NegativeBinomial::new(0.5, 4.0).unwrap()));
        second.specs.push(OrderingSpec::paper_default());
        second.rules.push(TruncationRule::Fixed(3));
        matrix.add(second);

        assert_eq!(matrix.len(), 9);
        let labels = matrix.labels();
        assert_eq!(labels.len(), 9);
        // System outermost, then distribution, then rule; blocks in order.
        let systems: Vec<&str> = labels.iter().map(|l| l.system.as_str()).collect();
        assert_eq!(systems, ["A", "A", "A", "A", "B", "B", "B", "B", "C"]);
        assert_eq!(labels[0].distribution, "d1");
        assert_eq!(labels[2].distribution, "d2");
        assert_eq!(labels[0].rule, TruncationRule::Epsilon(1e-2));
        assert_eq!(labels[1].rule, TruncationRule::Epsilon(1e-4));
        assert_eq!(labels[8].rule, TruncationRule::Fixed(3));
        assert!(labels[0].label().contains("w/ml"));
        assert_eq!(format!("{}", labels[8].rule), "M=3");
    }

    #[test]
    fn truncation_rules_map_to_analysis_options() {
        let spec = OrderingSpec::paper_default();
        let conversion = soc_yield_core::ConversionAlgorithm::TopDown;
        let eps = TruncationRule::Epsilon(1e-5).options(spec, conversion);
        assert_eq!(eps.epsilon, 1e-5);
        assert_eq!(eps.fixed_truncation, None);
        let fixed = TruncationRule::Fixed(7).options(spec, conversion);
        assert_eq!(fixed.fixed_truncation, Some(7));
        assert_eq!(TruncationRule::Epsilon(1e-3).label(), "ε=1e-3");
        assert_eq!(TruncationRule::Fixed(7).label(), "M=7");
    }
}
