//! Resource governance for decision-diagram compilation: node budgets,
//! wall-clock deadlines, cooperative cancellation and deterministic
//! fail-point fault injection.
//!
//! A [`Governor`] is a small shared counter attached to a kernel. Every
//! node *materialisation* — a unique-table insertion that actually grew
//! the arena — reports through [`Governor::on_alloc`]; the governor
//! trips when a limit is crossed and aborts the compilation by unwinding
//! with a private `GovernorAbort` payload. The abort is caught at the
//! compilation boundary by [`catch_governed`], which converts it into a
//! typed [`DdError`] — never a user-visible panic.
//!
//! # Semantics
//!
//! * **Node budget** counts materialised nodes *per governed run*, across
//!   every manager the governor is armed on (a compilation arms one
//!   governor on both its ROBDD and ROMDD managers, so the budget bounds
//!   the whole compile). Compilation is sequential and deterministic, so
//!   the count is exact: the same compilation materialises the same
//!   number of nodes on every run, and a budget trips at the same node
//!   every time.
//! * **Deadline** is polled lazily: at the first allocation and then once
//!   every `POLL_STRIDE` (256) allocations, so an un-allocating hot loop
//!   between allocations never pays a clock read.
//! * **Cancellation** is cooperative through a shared [`CancelToken`],
//!   polled on the same stride.
//! * **Fail points** ([`GovernorLimits::fail_after`]) deterministically force a
//!   `BudgetExceeded` trip at exactly the Nth materialisation — the
//!   fault-injection hook the abort-path tests are built on.
//!
//! # Cleanup contract
//!
//! A trip unwinds out of the kernel *after* the offending node is fully
//! inserted — the unique table and arena are never left half-updated.
//! Callers observe the contract end to end: an aborted build is
//! garbage-collected, and a subsequent compile of the same system is
//! bit-identical to an undisturbed one (see `tests/governed_compile.rs`
//! at the workspace root).

use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::options::CompileOptions;

/// Allocations between deadline/cancellation polls. A stride keeps the
/// governed hot path at one relaxed atomic add; 256 allocations take
/// microseconds, so deadlines are still honoured promptly.
const POLL_STRIDE: u64 = 256;

/// Why a governed compilation was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdError {
    /// The run materialised more nodes than its budget allows (also the
    /// error a [`GovernorLimits::fail_after`] fail point forces).
    BudgetExceeded {
        /// The configured node budget (or fail point) that was crossed.
        budget: u64,
        /// Nodes materialised when the governor tripped.
        allocated: u64,
    },
    /// The run's wall-clock deadline passed.
    Deadline {
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for DdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdError::BudgetExceeded { budget, allocated } => {
                write!(f, "node budget exceeded: {allocated} nodes against a budget of {budget}")
            }
            DdError::Deadline { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded")
            }
            DdError::Cancelled => write!(f, "compilation cancelled"),
        }
    }
}

impl std::error::Error for DdError {}

/// A shared cooperative-cancellation flag.
///
/// Clones share one flag; [`CancelToken::cancel`] makes every governed
/// compilation holding a clone abort (with [`DdError::Cancelled`]) at its
/// next poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every governed run holding a clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The limits a [`Governor`] enforces. A zero value disables the
/// corresponding limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorLimits {
    /// Maximum nodes a governed run may materialise (`0` = unlimited).
    pub node_budget: u64,
    /// Wall-clock deadline in milliseconds from governor creation
    /// (`0` = none).
    pub deadline_ms: u64,
    /// Deterministic fail point: force a `BudgetExceeded` trip at exactly
    /// this materialisation count (`0` = off). Test-only fault injection.
    pub fail_after: u64,
}

#[derive(Debug)]
struct Inner {
    node_budget: u64,
    fail_after: u64,
    deadline_ms: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    allocated: AtomicU64,
    /// Fast tripped check; the authoritative error sits in `tripped`.
    tripped_flag: AtomicBool,
    /// First error that tripped the governor (later trips keep it).
    tripped: Mutex<Option<DdError>>,
}

/// The panic payload a tripped governor unwinds with. Private to the
/// crate: [`catch_governed`] is the only place that looks for it.
pub(crate) struct GovernorAbort(pub(crate) DdError);

/// Installs (once, process-wide) a panic hook that silences
/// [`GovernorAbort`] unwinds — they are control flow, not failures — and
/// chains to the previously installed hook for everything else.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<GovernorAbort>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A shared resource governor: clones share one allocation counter, one
/// trip state and one set of limits. Arm clones of a single governor on
/// every manager participating in one logical compilation so the budget
/// bounds their combined footprint.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Governor {
    /// Creates a governor enforcing `limits`, optionally watching a
    /// [`CancelToken`]. The deadline clock starts now.
    pub fn new(limits: GovernorLimits, cancel: Option<CancelToken>) -> Self {
        install_quiet_hook();
        let deadline = (limits.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(limits.deadline_ms));
        Governor {
            inner: Arc::new(Inner {
                node_budget: limits.node_budget,
                fail_after: limits.fail_after,
                deadline_ms: limits.deadline_ms,
                deadline,
                cancel,
                allocated: AtomicU64::new(0),
                tripped_flag: AtomicBool::new(false),
                tripped: Mutex::new(None),
            }),
        }
    }

    /// Builds the governor a compilation under `options` runs with:
    /// `None` when every limit is disabled and no cancellation token is
    /// supplied, so ungoverned compilation pays nothing.
    pub fn from_options(options: &CompileOptions, cancel: Option<CancelToken>) -> Option<Self> {
        let limits = GovernorLimits {
            node_budget: options.node_budget() as u64,
            deadline_ms: options.deadline_ms(),
            fail_after: options.fail_after(),
        };
        (limits != GovernorLimits::default() || cancel.is_some())
            .then(|| Governor::new(limits, cancel))
    }

    /// Nodes materialised so far under this governor.
    pub fn allocated(&self) -> u64 {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// Whether the governor has tripped.
    pub fn is_tripped(&self) -> bool {
        self.inner.tripped_flag.load(Ordering::Acquire)
    }

    /// The error that tripped the governor, if any.
    pub fn error(&self) -> Option<DdError> {
        *self.inner.tripped.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Records `n` materialised nodes, tripping (by unwinding with a
    /// governor abort — catch with [`catch_governed`]) when a limit is
    /// crossed. Call *after* the nodes are fully inserted, so an abort
    /// never leaves a table half-updated.
    ///
    /// # Panics
    ///
    /// Unwinds with the crate-private abort payload when the governor is
    /// (or becomes) tripped.
    pub fn on_alloc(&self, n: u64) {
        let inner = &self.inner;
        if inner.tripped_flag.load(Ordering::Acquire) {
            self.abort();
        }
        let prev = inner.allocated.fetch_add(n, Ordering::Relaxed);
        let now = prev + n;
        if inner.fail_after > 0 && prev < inner.fail_after && now >= inner.fail_after {
            self.trip(DdError::BudgetExceeded { budget: inner.fail_after, allocated: now });
        }
        if inner.node_budget > 0 && now > inner.node_budget {
            self.trip(DdError::BudgetExceeded { budget: inner.node_budget, allocated: now });
        }
        if prev == 0 || prev / POLL_STRIDE != now / POLL_STRIDE {
            self.poll();
        }
    }

    /// Polls the non-counting limits (deadline, cancellation) and the
    /// shared trip state, unwinding with a governor abort when any has
    /// fired.
    ///
    /// # Panics
    ///
    /// Unwinds with the crate-private abort payload when the governor is
    /// (or becomes) tripped.
    pub fn poll(&self) {
        let inner = &self.inner;
        if inner.tripped_flag.load(Ordering::Acquire) {
            self.abort();
        }
        if let Some(cancel) = &inner.cancel {
            if cancel.is_cancelled() {
                self.trip(DdError::Cancelled);
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                self.trip(DdError::Deadline { deadline_ms: inner.deadline_ms });
            }
        }
    }

    /// Records the first trip error and unwinds.
    fn trip(&self, error: DdError) -> ! {
        {
            let mut slot = self.inner.tripped.lock().unwrap_or_else(|poison| poison.into_inner());
            slot.get_or_insert(error);
        }
        self.inner.tripped_flag.store(true, Ordering::Release);
        self.abort();
    }

    /// Unwinds with the recorded trip error.
    fn abort(&self) -> ! {
        let error = self.error().expect("abort requires a recorded trip error");
        panic_any(GovernorAbort(error));
    }
}

/// Runs `f` under an optional governor, converting a governor abort into
/// the typed [`DdError`] that tripped it. Non-governor panics resume
/// unwinding unchanged, so ordinary fault containment (and test
/// failures) behave exactly as without a governor.
pub fn catch_governed<R>(governor: Option<&Governor>, f: impl FnOnce() -> R) -> Result<R, DdError> {
    if governor.is_none() {
        return Ok(f());
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => Ok(result),
        Err(payload) => match payload.downcast::<GovernorAbort>() {
            Ok(abort) => Err(abort.0),
            Err(payload) => resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_runs_pass_through() {
        assert_eq!(catch_governed(None, || 7), Ok(7));
        assert!(Governor::from_options(&CompileOptions::new(), None).is_none());
    }

    #[test]
    fn node_budget_trips_after_the_budget() {
        let governor =
            Governor::new(GovernorLimits { node_budget: 10, ..GovernorLimits::default() }, None);
        let counted = catch_governed(Some(&governor), || {
            for _ in 0..100 {
                governor.on_alloc(1);
            }
        });
        assert_eq!(counted, Err(DdError::BudgetExceeded { budget: 10, allocated: 11 }));
        assert!(governor.is_tripped());
        assert_eq!(governor.error(), Some(DdError::BudgetExceeded { budget: 10, allocated: 11 }));
    }

    #[test]
    fn fail_point_trips_at_exactly_the_nth_allocation() {
        let governor =
            Governor::new(GovernorLimits { fail_after: 3, ..GovernorLimits::default() }, None);
        let outcome = catch_governed(Some(&governor), || {
            governor.on_alloc(1);
            governor.on_alloc(1);
            governor.on_alloc(1);
            unreachable!("the third allocation trips the fail point");
        });
        assert_eq!(outcome, Err(DdError::BudgetExceeded { budget: 3, allocated: 3 }));
    }

    #[test]
    fn cancellation_is_polled_on_the_first_allocation() {
        let token = CancelToken::new();
        let governor = Governor::new(GovernorLimits::default(), Some(token.clone()));
        token.cancel();
        assert_eq!(
            catch_governed(Some(&governor), || governor.on_alloc(1)),
            Err(DdError::Cancelled)
        );
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let governor =
            Governor::new(GovernorLimits { deadline_ms: 1, ..GovernorLimits::default() }, None);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            catch_governed(Some(&governor), || governor.poll()),
            Err(DdError::Deadline { deadline_ms: 1 })
        );
    }

    #[test]
    fn non_governor_panics_resume_unchanged() {
        let governor =
            Governor::new(GovernorLimits { node_budget: 10, ..GovernorLimits::default() }, None);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = catch_governed(Some(&governor), || panic!("ordinary failure"));
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"ordinary failure"));
    }
}
