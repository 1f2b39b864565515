//! The solver abstraction used by the verification core, plus the resource
//! governance vocabulary ([`ResourceBudget`], [`SolverError`]) shared by all
//! backends.
//!
//! Three implementations exist: [`crate::bitblast::BitBlastSolver`] (the
//! internal CDCL solver over bit-blasted formulas, one context per check),
//! [`crate::incremental::IncrementalSolver`] (the same engine over one
//! persistent context), and [`crate::governed::GovernedSolver`], which
//! wraps either, enforces budgets and retries transient `Unknown`s. The
//! trait is also the seam where another backend could be plugged in.

use crate::term::{Sort, Term};
use crate::Assignment;
use std::sync::Arc;
use std::time::Duration;

/// Result of a satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment exists.
    Sat,
    /// No satisfying assignment exists.
    Unsat,
    /// The solver could not decide (resource limits).
    Unknown,
}

/// Which resource limit a query ran into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetKind {
    /// Per-query wall-clock deadline expired.
    Timeout,
    /// The query counter hit [`ResourceBudget::max_queries`].
    Queries,
    /// The formula exceeded [`ResourceBudget::max_formula_size`] nodes.
    FormulaSize,
    /// The CDCL engine hit [`ResourceBudget::max_conflicts`].
    Conflicts,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Timeout => "timeout",
            BudgetKind::Queries => "query count",
            BudgetKind::FormulaSize => "formula size",
            BudgetKind::Conflicts => "conflict limit",
        })
    }
}

/// Why a solver operation could not produce a definite answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolverError {
    /// A term had the wrong sort for its position (e.g. a bit-vector where
    /// a boolean was required). Indicates a lowering bug upstream; reported
    /// instead of panicking so one bad formula cannot kill a corpus run.
    SortMismatch(String),
    /// A resource budget was exhausted before the query was decided.
    Budget(BudgetKind),
    /// `model` was called without a preceding `Sat`, or the backend could
    /// not produce a model.
    NoModel,
    /// Backend-specific failure.
    Backend(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::SortMismatch(what) => write!(f, "sort mismatch: {what}"),
            SolverError::Budget(kind) => write!(f, "budget exhausted: {kind}"),
            SolverError::NoModel => write!(f, "no model available"),
            SolverError::Backend(what) => write!(f, "backend error: {what}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Resource limits for solver queries.
///
/// The default budget is unlimited, matching the historical behavior of the
/// raw backends; [`crate::governed::GovernedSolver`] installs a bounded
/// default so nothing it runs can hang the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Per-query wall-clock deadline.
    pub timeout: Option<Duration>,
    /// Total queries a governed solver may issue over its lifetime.
    pub max_queries: Option<u64>,
    /// Maximum formula size (term DAG nodes summed over the assertion
    /// stack) a query may involve — the memory proxy: bit-blasting cost is
    /// linear-ish in this number.
    pub max_formula_size: Option<usize>,
    /// Conflict cap for the internal CDCL engine.
    pub max_conflicts: Option<u64>,
    /// How many times a governed solver retries a transient `Unknown` on a
    /// fresh context with a simplified formula.
    pub max_retries: u32,
}

impl Default for ResourceBudget {
    fn default() -> ResourceBudget {
        ResourceBudget {
            timeout: None,
            max_queries: None,
            max_formula_size: None,
            max_conflicts: None,
            max_retries: 1,
        }
    }
}

impl ResourceBudget {
    /// The bounded budget [`crate::governed::GovernedSolver`] uses unless
    /// told otherwise: generous enough for every corpus program, small
    /// enough that a degenerate query cannot hang a run.
    pub fn bounded_default() -> ResourceBudget {
        ResourceBudget {
            timeout: Some(Duration::from_secs(30)),
            max_formula_size: Some(2_000_000),
            ..ResourceBudget::default()
        }
    }

    /// Budget with only a per-query timeout set.
    pub fn with_timeout(timeout: Duration) -> ResourceBudget {
        ResourceBudget {
            timeout: Some(timeout),
            ..ResourceBudget::default()
        }
    }
}

/// A satisfiability result bundled with a model when available.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Sat/Unsat/Unknown.
    pub result: SatResult,
    /// Model for the requested variables, on `Sat`.
    pub model: Option<Assignment>,
}

/// Incremental solver interface over [`Term`] formulas.
///
/// The interface mirrors exactly the solver features Algorithm 1 (Infer)
/// depends on: incremental assertion, models, assumption-based checking and
/// unsat cores over the assumptions of the *most recent*
/// [`Solver::check_assumptions`] call.
///
/// Robustness contract: implementations must not panic on malformed input.
/// Sort mismatches and resource exhaustion surface as
/// [`SatResult::Unknown`] from checks (with [`Solver::last_error`]
/// explaining why) or as [`SolverError`] from [`Solver::model`].
pub trait Solver {
    /// Permanently assert a boolean term.
    fn assert(&mut self, t: &Term);

    /// Push a backtracking point.
    fn push(&mut self);

    /// Pop the most recent backtracking point.
    ///
    /// Pop-underflow contract (uniform across all backends, so incremental
    /// callers can never desync assertion state between them): the base
    /// assertion frame is never popped. Popping with no open backtracking
    /// point is a caller bug — it trips a `debug_assert` in debug builds
    /// and is a no-op in release builds.
    fn pop(&mut self);

    /// Check satisfiability of the asserted formulas.
    fn check(&mut self) -> SatResult;

    /// Check satisfiability under additional boolean assumptions.
    fn check_assumptions(&mut self, assumptions: &[Term]) -> SatResult;

    /// After an `Unsat` from [`Solver::check_assumptions`]: indices (into the
    /// assumption slice) of a small inconsistent subset.
    fn unsat_core(&mut self) -> Vec<usize>;

    /// After a `Sat`: concrete values for the requested variables. Variables
    /// the solver never saw get default values (false / zero), matching Z3's
    /// model-completion semantics.
    fn model(&mut self, vars: &[(Arc<str>, Sort)]) -> Result<Assignment, SolverError>;

    /// Install a resource budget. Backends that cannot enforce a given
    /// limit ignore it; the default implementation ignores everything.
    fn set_budget(&mut self, _budget: ResourceBudget) {}

    /// Why the most recent check returned [`SatResult::Unknown`] (or the
    /// most recent operation failed), if the backend recorded a reason.
    fn last_error(&self) -> Option<&SolverError> {
        None
    }

    /// Queries issued through this solver so far, when the implementation
    /// counts them (governed and cached solvers do; raw backends report 0).
    fn queries_used(&self) -> u64 {
        0
    }

    /// Convenience: one-shot satisfiability of a single formula,
    /// returning a model over its free variables.
    fn solve(&mut self, t: &Term) -> SolveOutcome {
        self.push();
        self.assert(t);
        let result = self.check();
        let model = if result == SatResult::Sat {
            let fv: Vec<(Arc<str>, Sort)> = crate::free_vars(t).into_iter().collect();
            self.model(&fv).ok()
        } else {
            None
        };
        self.pop();
        SolveOutcome { result, model }
    }
}
