//! The unified kernel-knob surface: [`CompileOptions`].
//!
//! Every layer that compiles decision diagrams — `CompiledModel` and
//! `Pipeline` in `soc-yield-core`, `SweepMatrix` in `socy-exec`,
//! `ServiceConfig` in `socy-serve`, the bench/serve CLIs — reads its
//! kernel knobs from one [`CompileOptions`] value, built at the edge
//! (CLI flags, wire requests, test setup) and carried down the stack
//! unchanged.
//!
//! Every knob here is a *resource* choice, never an analysis option:
//! yields, error bounds, truncations and ROMDD node counts are
//! bit-identical at every setting (a node budget or deadline decides
//! only whether a compilation completes), which is why none of these
//! participate in model-reuse or cache keys.

/// Knobs of a decision-diagram compilation, carried as one value through
/// the pipeline/executor/service layers: the node budget, the deadline
/// and the fault-injection fail point. The first two are also CLI flags
/// ([`CompileOptions::CLI_HELP`]).
///
/// Built with builder-style `with_*` constructors:
///
/// ```
/// use socy_dd::CompileOptions;
///
/// let options = CompileOptions::new().with_node_budget(1 << 20).with_deadline_ms(250);
/// assert_eq!(options.node_budget(), 1 << 20);
/// assert_eq!(options.deadline_ms(), 250);
/// assert_eq!(CompileOptions::default(), CompileOptions::new());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompileOptions {
    node_budget: usize,
    deadline_ms: u64,
    fail_after: u64,
}

impl CompileOptions {
    /// The default options: no resource limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the nodes a single governed compilation may materialise
    /// across its ROBDD and ROMDD managers combined. `0` (the default)
    /// leaves growth unbounded. Exceeding the budget aborts the
    /// compilation with a typed `BudgetExceeded` error — never a panic or
    /// an allocation failure — and callers degrade or answer with
    /// Monte-Carlo bounds (see the `soc-yield-core` degradation ladder).
    #[must_use]
    pub fn with_node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Sets the wall-clock deadline of a single compilation in
    /// milliseconds (`0`, the default, means none). A compilation past
    /// its deadline aborts with a typed `Deadline` error at its next
    /// governor poll.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Arms the deterministic fail point: the compilation's governor
    /// forces a `BudgetExceeded` trip at exactly the `n`th node
    /// materialisation (`0`, the default, disarms it). Fault injection
    /// for abort-path tests; never set in production configurations.
    #[must_use]
    pub fn with_fail_after(mut self, n: u64) -> Self {
        self.fail_after = n;
        self
    }

    /// Worker threads used inside a single compilation: always `1`.
    /// Compilation is sequential; parallelism lives one level up, in the
    /// sweep executor's worker pool. Kept so run records can name the
    /// compile-thread count next to the host's processor count.
    pub const fn compile_threads(&self) -> usize {
        1
    }

    /// Node budget of a single compilation (`0` = unbounded).
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Wall-clock deadline of a single compilation in milliseconds
    /// (`0` = none).
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// Fail point: forced trip at the `n`th materialisation (`0` = off).
    pub fn fail_after(&self) -> u64 {
        self.fail_after
    }

    /// The shared CLI flag surface. Both `socy-bench`'s `parse_cli` and
    /// the `serve` binary feed their argument loops through this single
    /// helper, so a future knob is added (and documented) in exactly one
    /// place.
    pub const CLI_HELP: &'static str =
        "  --node-budget N      cap the nodes one compilation may materialise
                       (0 = unbounded); over-budget compilations degrade
                       to Monte-Carlo bounds instead of erroring
  --deadline-ms N      wall-clock deadline per compilation in milliseconds
                       (0 = none)";

    /// Consumes one CLI argument if it belongs to the shared
    /// compile-option surface. `next` supplies the following argument for
    /// flags that take a value. Returns `Ok(true)` when `arg` was
    /// recognized and applied, `Ok(false)` when it is not a compile
    /// option (the caller handles it), and `Err` with a usage message
    /// when a value is missing or malformed.
    ///
    /// ```
    /// use socy_dd::CompileOptions;
    ///
    /// let mut options = CompileOptions::new();
    /// let mut rest = vec!["4096".to_string()].into_iter();
    /// assert_eq!(options.parse_cli_flag("--node-budget", &mut rest), Ok(true));
    /// assert_eq!(options.parse_cli_flag("--json", &mut rest), Ok(false));
    /// assert_eq!(options.node_budget(), 4096);
    /// ```
    pub fn parse_cli_flag(
        &mut self,
        arg: &str,
        next: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut integer = |flag: &str| {
            next.next()
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("{flag} requires an integer"))
        };
        match arg {
            "--node-budget" => *self = self.with_node_budget(integer("--node-budget")?),
            "--deadline-ms" => {
                *self = self.with_deadline_ms(integer("--deadline-ms")? as u64);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_getters_round_trip() {
        let options = CompileOptions::new()
            .with_node_budget(1 << 20)
            .with_deadline_ms(250)
            .with_fail_after(17);
        assert_eq!(options.node_budget(), 1 << 20);
        assert_eq!(options.deadline_ms(), 250);
        assert_eq!(options.fail_after(), 17);
        assert_eq!(options.compile_threads(), 1, "compilation is always sequential");
    }

    #[test]
    fn cli_flags_cover_every_knob() {
        let mut options = CompileOptions::new();
        let argv = ["--node-budget", "4096", "--deadline-ms", "1500"];
        let mut args = argv.iter().map(ToString::to_string);
        while let Some(arg) = args.next() {
            assert_eq!(options.parse_cli_flag(&arg, &mut args), Ok(true), "{arg}");
        }
        assert_eq!(options, CompileOptions::new().with_node_budget(4096).with_deadline_ms(1500));
    }

    #[test]
    fn cli_errors_and_unknown_flags() {
        let mut options = CompileOptions::new();
        let mut empty = Vec::<String>::new().into_iter();
        assert!(options.parse_cli_flag("--node-budget", &mut empty).is_err());
        let mut junk = vec!["abc".to_string()].into_iter();
        assert!(options.parse_cli_flag("--deadline-ms", &mut junk).is_err());
        let mut none = Vec::<String>::new().into_iter();
        assert_eq!(options.parse_cli_flag("--threads", &mut none), Ok(false));
        let mut stale = vec!["4".to_string()].into_iter();
        assert_eq!(options.parse_cli_flag("--compile-threads", &mut stale), Ok(false));
        assert_eq!(options.parse_cli_flag("--no-complement-edges", &mut stale), Ok(false));
        assert_eq!(options.parse_cli_flag("--op-cache-capacity", &mut stale), Ok(false));
        assert_eq!(options, CompileOptions::new(), "failed parses leave the options unchanged");
    }

    #[test]
    fn every_cli_help_flag_line_is_indented() {
        let flags: Vec<&str> =
            CompileOptions::CLI_HELP.lines().filter(|l| l.trim_start().starts_with("--")).collect();
        assert_eq!(flags.len(), 2, "{}", CompileOptions::CLI_HELP);
        for line in flags {
            assert!(line.starts_with("  --"), "flag line lost its indent: {line:?}");
        }
        assert!(CompileOptions::CLI_HELP.starts_with("  --node-budget N"));
    }
}
