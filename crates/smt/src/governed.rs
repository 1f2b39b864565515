//! Solver governance: budgets and retries around the internal solver.
//!
//! [`GovernedSolver`] wraps the internal bit-blasting CDCL solver in one of
//! its two [`SolverMode`]s and enforces a [`ResourceBudget`] on every
//! query:
//!
//! * a per-query wall-clock deadline and a lifetime query cap;
//! * on a transient `Unknown`, bounded retries on a **fresh context** with
//!   the assertion stack re-asserted in simplified form (stale learnt
//!   state and lowering memos are the classic cause of flaky `Unknown`s);
//! * `Unknown` that survives all of that is returned as `Unknown`, with
//!   [`Solver::last_error`] explaining which limit fired — callers must
//!   treat it as "possible bug, undecided", never as "no bug".
//!
//! The wrapper mirrors the assertion stack itself, so it can rebuild the
//! backend from scratch at any time; this is what makes the fresh-context
//! retries possible at all.

use crate::bitblast::BitBlastSolver;
use crate::incremental::IncrementalSolver;
use crate::simplify::simplify;
use crate::solver::{BudgetKind, ResourceBudget, SatResult, Solver, SolverError};
use crate::term::{Sort, Term};
use crate::Assignment;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`GovernedSolver`] discharges queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Every check blasts the full assertion stack on a fresh context —
    /// the historical behavior and the byte-identical default.
    #[default]
    Oneshot,
    /// One persistent context per solver: the assertion stack is encoded
    /// once and each query is discharged via assumption literals, keeping
    /// learned clauses and bit-blast structure across checks
    /// ([`IncrementalSolver`]).
    Incremental,
}

impl SolverMode {
    /// Parse a `--solver-mode` value.
    pub fn parse(s: &str) -> Option<SolverMode> {
        match s {
            "oneshot" => Some(SolverMode::Oneshot),
            "incremental" => Some(SolverMode::Incremental),
            _ => None,
        }
    }

    /// A fresh internal backend of this mode: context-per-check in
    /// oneshot mode, a persistent assumption-literal context otherwise.
    fn build(self) -> Box<dyn Solver> {
        match self {
            SolverMode::Oneshot => Box::new(BitBlastSolver::new()),
            SolverMode::Incremental => Box::new(IncrementalSolver::new()),
        }
    }

    fn label(self) -> &'static str {
        match self {
            SolverMode::Oneshot => "oneshot",
            SolverMode::Incremental => "incremental",
        }
    }
}

/// Configuration for [`new_solver`].
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    /// Query discharge strategy (see [`SolverMode`]).
    pub mode: SolverMode,
    /// Budget enforced by the governing wrapper.
    pub budget: ResourceBudget,
}

impl SolverConfig {
    /// Config with the default mode and the given per-query timeout.
    pub fn with_timeout(timeout: Duration) -> SolverConfig {
        SolverConfig {
            budget: ResourceBudget {
                timeout: Some(timeout),
                ..ResourceBudget::bounded_default()
            },
            ..SolverConfig::default()
        }
    }
}

/// Build the standard governed solver for the pipeline: the internal
/// solver in the configured mode, enforcing the configured budget.
pub fn new_solver(config: &SolverConfig) -> GovernedSolver {
    let mut s = GovernedSolver::new(config.mode);
    s.set_budget(config.budget.clone());
    s
}

/// Build a governed solver in the default mode with the default budget —
/// the drop-in replacement for bare backend construction.
pub fn default_solver() -> GovernedSolver {
    new_solver(&SolverConfig::default())
}

/// Counters describing what governance had to do; useful in reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernanceStats {
    /// Queries issued through this solver.
    pub queries: u64,
    /// Fresh-context retries performed after transient `Unknown`s.
    pub retries: u64,
    /// Retries abandoned because the remaining deadline was smaller than
    /// the minimum retry backoff — the query returned `Unknown` at once
    /// instead of burning a doomed attempt.
    pub retries_skipped: u64,
    /// Queries refused or aborted because a budget limit fired.
    pub budget_exhausted: u64,
}

/// Smallest backoff a retry would sleep (the first retry's backoff). A
/// deadline with less than this remaining cannot fit a useful retry.
const MIN_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// A [`Solver`] wrapper enforcing [`ResourceBudget`] with retries. See
/// the module docs for the exact policy.
pub struct GovernedSolver {
    mode: SolverMode,
    primary: Box<dyn Solver>,
    /// Mirrored assertion stack (source of truth for rebuilds).
    frames: Vec<Vec<Term>>,
    budget: ResourceBudget,
    stats: GovernanceStats,
    last_error: Option<SolverError>,
}

impl Default for GovernedSolver {
    fn default() -> Self {
        Self::new(SolverMode::default())
    }
}

impl GovernedSolver {
    /// Governed internal solver in the given mode with the bounded default
    /// budget.
    pub fn new(mode: SolverMode) -> GovernedSolver {
        GovernedSolver {
            mode,
            primary: mode.build(),
            frames: vec![Vec::new()],
            budget: ResourceBudget::bounded_default(),
            stats: GovernanceStats::default(),
            last_error: None,
        }
    }

    /// Counters for reporting.
    pub fn stats(&self) -> GovernanceStats {
        self.stats
    }

    fn formula_size(&self, assumptions: &[Term]) -> usize {
        self.frames
            .iter()
            .flatten()
            .chain(assumptions)
            .map(crate::term_size)
            .sum()
    }

    /// Budget handed to a backend for one query, with the per-query
    /// deadline converted to whatever time remains.
    fn query_budget(&self, deadline: Option<Instant>) -> ResourceBudget {
        ResourceBudget {
            timeout: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            ..self.budget.clone()
        }
    }

    /// Rebuild the backend from the mirrored stack with simplified
    /// assertions.
    fn rebuilt_primary(&self) -> Box<dyn Solver> {
        let mut s = self.mode.build();
        for frame in &self.frames {
            s.push();
            for t in frame {
                s.assert(&simplify(t));
            }
        }
        s
    }

    fn governed_check(&mut self, assumptions: &[Term]) -> SatResult {
        self.last_error = None;
        self.stats.queries += 1;
        bf4_obs::counter_add("smt.queries", 1);
        let mut sp = bf4_obs::span("smt", "check");
        if sp.is_active() {
            sp.add_tag("backend", "internal");
            if self.mode != SolverMode::Oneshot {
                sp.add_tag("mode", self.mode.label());
            }
        }
        if self
            .budget
            .max_queries
            .is_some_and(|cap| self.stats.queries > cap)
        {
            self.stats.budget_exhausted += 1;
            bf4_obs::counter_add("smt.budget_exhausted", 1);
            sp.add_tag("verdict", "unknown");
            sp.add_tag("budget", "queries");
            self.last_error = Some(SolverError::Budget(BudgetKind::Queries));
            return SatResult::Unknown;
        }
        let size = self.formula_size(assumptions);
        if self.budget.max_formula_size.is_some_and(|cap| size > cap) {
            self.stats.budget_exhausted += 1;
            bf4_obs::counter_add("smt.budget_exhausted", 1);
            sp.add_tag("verdict", "unknown");
            sp.add_tag("budget", "formula_size");
            self.last_error = Some(SolverError::Budget(BudgetKind::FormulaSize));
            return SatResult::Unknown;
        }
        let deadline = self.budget.timeout.map(|t| Instant::now() + t);

        // Chaos hooks: an injected backend failure or timeout degrades this
        // query to `Unknown` — the same conservative answer a real one
        // produces — and is reported through `last_error` like a real one.
        let injected = if bf4_obs::fault::fire("smt.backend_error") {
            Some(SolverError::Backend("injected fault: backend failure".into()))
        } else if bf4_obs::fault::fire("smt.timeout") {
            Some(SolverError::Budget(BudgetKind::Timeout))
        } else {
            None
        };
        if let Some(err) = injected {
            self.stats.budget_exhausted += 1;
            bf4_obs::counter_add("smt.budget_exhausted", 1);
            sp.add_tag("verdict", "unknown");
            sp.add_tag("injected", "fault");
            self.last_error = Some(err);
            return SatResult::Unknown;
        }

        self.primary.set_budget(self.query_budget(deadline));
        let mut result = if assumptions.is_empty() {
            self.primary.check()
        } else {
            self.primary.check_assumptions(assumptions)
        };

        // Bounded fresh-context retries with simplified formulas. Backoff
        // between attempts is deliberately tiny: the point is to yield and
        // decorrelate, not to wait for an external service.
        let mut retries = 0;
        while result == SatResult::Unknown && retries < self.budget.max_retries {
            // A retry needs at least its minimum backoff worth of deadline
            // to have any chance; with less remaining, return `Unknown`
            // now instead of burning a doomed attempt.
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining < MIN_RETRY_BACKOFF {
                    self.stats.retries_skipped += 1;
                    bf4_obs::counter_add("smt.retries_skipped", 1);
                    bf4_obs::warn(
                        "smt",
                        &format!(
                            "skipping retry: {remaining:?} of deadline left, \
                             below minimum backoff {MIN_RETRY_BACKOFF:?}"
                        ),
                    );
                    sp.add_tag("retries_skipped", "1");
                    break;
                }
            }
            retries += 1;
            self.stats.retries += 1;
            // Backoff capped to the remaining deadline: a pooled worker
            // must never sleep past its query budget just to retry.
            let mut backoff = Duration::from_millis(2 * retries as u64);
            if let Some(d) = deadline {
                backoff = backoff.min(d.saturating_duration_since(Instant::now()));
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let mut fresh = self.rebuilt_primary();
            fresh.set_budget(self.query_budget(deadline));
            result = if assumptions.is_empty() {
                fresh.check()
            } else {
                fresh.check_assumptions(assumptions)
            };
            if result != SatResult::Unknown {
                // The fresh context decided it; keep it as the answering
                // solver so model/unsat_core are consistent with `result`.
                self.primary = fresh;
            }
        }

        if result == SatResult::Unknown {
            self.stats.budget_exhausted += 1;
            bf4_obs::counter_add("smt.budget_exhausted", 1);
            // Prefer the backend's own reason; otherwise report the
            // deadline, the usual cause.
            self.last_error = self
                .primary
                .last_error()
                .cloned()
                .or(Some(SolverError::Budget(BudgetKind::Timeout)));
        }
        if sp.is_active() {
            sp.add_tag("verdict", verdict_label(result));
            if retries > 0 {
                sp.add_tag("retries", retries.to_string());
            }
        }
        if retries > 0 {
            bf4_obs::counter_add("smt.retries", retries as u64);
        }
        result
    }
}

fn verdict_label(r: SatResult) -> &'static str {
    match r {
        SatResult::Sat => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
    }
}

impl Solver for GovernedSolver {
    fn assert(&mut self, t: &Term) {
        self.frames
            .last_mut()
            .expect("frame stack non-empty (base frame is never popped)")
            .push(t.clone());
        self.primary.assert(t);
    }

    fn push(&mut self) {
        self.frames.push(Vec::new());
        self.primary.push();
    }

    fn pop(&mut self) {
        // Unified pop-underflow contract (see `Solver::pop`): on underflow
        // neither the mirror nor the primary pops, so they cannot desync.
        debug_assert!(self.frames.len() > 1, "pop on base assertion frame");
        if self.frames.len() > 1 {
            self.frames.pop();
            self.primary.pop();
        }
    }

    fn check(&mut self) -> SatResult {
        self.governed_check(&[])
    }

    fn check_assumptions(&mut self, assumptions: &[Term]) -> SatResult {
        self.governed_check(assumptions)
    }

    fn unsat_core(&mut self) -> Vec<usize> {
        self.primary.unsat_core()
    }

    fn model(&mut self, vars: &[(Arc<str>, Sort)]) -> Result<Assignment, SolverError> {
        self.primary.model(vars)
    }

    fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    fn last_error(&self) -> Option<&SolverError> {
        self.last_error.as_ref()
    }

    fn queries_used(&self) -> u64 {
        self.stats.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::term::Value;

    fn governed() -> GovernedSolver {
        default_solver()
    }

    #[test]
    fn decides_like_the_backend() {
        let x = Term::var("x", Sort::Bv(8));
        let f = x.bvmul(&Term::bv(8, 3)).eq_term(&Term::bv(8, 30));
        let mut s = governed();
        let out = s.solve(&f);
        assert_eq!(out.result, SatResult::Sat);
        let m = out.model.unwrap();
        assert_eq!(eval(&f, &m).unwrap(), Value::Bool(true));

        let g = x.bvmul(&Term::bv(8, 2)).eq_term(&Term::bv(8, 1));
        assert_eq!(s.solve(&g).result, SatResult::Unsat);
    }

    #[test]
    fn query_cap_fires_and_is_reported() {
        let x = Term::var("x", Sort::Bool);
        let mut s = governed();
        s.set_budget(ResourceBudget {
            max_queries: Some(2),
            ..ResourceBudget::default()
        });
        s.assert(&x);
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.check(), SatResult::Unknown);
        assert_eq!(
            s.last_error(),
            Some(&SolverError::Budget(BudgetKind::Queries))
        );
        assert_eq!(s.stats().budget_exhausted, 1);
    }

    #[test]
    fn oversized_formula_is_refused_not_run() {
        // A formula over the size cap must come back Unknown quickly, not
        // get blasted for minutes.
        let x = Term::var("x", Sort::Bv(64));
        let mut f = x.clone();
        for i in 0..64 {
            f = f.bvmul(&x.bvadd(&Term::bv(64, i)));
        }
        let big = f.eq_term(&Term::bv(64, 1));
        let mut s = governed();
        s.set_budget(ResourceBudget {
            max_formula_size: Some(16),
            ..ResourceBudget::default()
        });
        let start = Instant::now();
        assert_eq!(s.solve(&big).result, SatResult::Unknown);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(
            s.last_error(),
            Some(&SolverError::Budget(BudgetKind::FormulaSize))
        );
    }

    #[test]
    fn deadline_terminates_hard_query() {
        // 64-bit factoring-flavored constraint: far beyond what the CDCL
        // solver decides in 50ms, so the deadline must fire.
        let x = Term::var("x", Sort::Bv(64));
        let y = Term::var("y", Sort::Bv(64));
        let f = x
            .bvmul(&y)
            .eq_term(&Term::bv(64, 0xdead_beef_cafe_f00d))
            .and(&x.bvugt(&Term::bv(64, 1)))
            .and(&y.bvugt(&Term::bv(64, 1)));
        let mut s = governed();
        s.set_budget(ResourceBudget {
            timeout: Some(Duration::from_millis(50)),
            max_retries: 0,
            ..ResourceBudget::default()
        });
        let start = Instant::now();
        let r = s.solve(&f).result;
        // Must terminate promptly; CDCL may occasionally get lucky, so only
        // the time bound is strict.
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "deadline did not bound the query"
        );
        if r == SatResult::Unknown {
            assert!(matches!(
                s.last_error(),
                Some(SolverError::Budget(_))
            ));
        }
    }

    /// Pigeonhole 5-into-4: unsatisfiable, but the refutation needs
    /// search, so a conflict cap of 0 forces every attempt to `Unknown`
    /// fast — the standard rig for exercising the retry machinery.
    fn pigeonhole_5_into_4() -> Term {
        let p = |i: usize, j: usize| Term::var(format!("p{i}_{j}"), Sort::Bool);
        let mut clauses = Vec::new();
        for i in 0..5 {
            clauses.push(Term::or_all((0..4).map(|j| p(i, j))));
        }
        for j in 0..4 {
            for i in 0..5 {
                for k in (i + 1)..5 {
                    clauses.push(p(i, j).and(&p(k, j)).not());
                }
            }
        }
        Term::and_all(clauses)
    }

    #[test]
    fn retry_backoff_never_sleeps_past_the_deadline() {
        // Allow a huge retry count: the retry backoff must stay inside the
        // per-query deadline instead of sleeping unconditionally between
        // attempts.
        let f = pigeonhole_5_into_4();
        let timeout = Duration::from_millis(150);
        let mut s = governed();
        s.set_budget(ResourceBudget {
            timeout: Some(timeout),
            max_conflicts: Some(0),
            max_retries: 1_000_000,
            ..ResourceBudget::default()
        });
        let start = Instant::now();
        let r = s.solve(&f).result;
        let elapsed = start.elapsed();
        assert_eq!(r, SatResult::Unknown);
        assert!(
            elapsed < timeout + Duration::from_millis(150),
            "retry backoff overshot the deadline: {elapsed:?}"
        );
        assert!(s.stats().retries > 0, "retries must actually have run");
    }

    #[test]
    fn retry_skipped_when_deadline_cannot_fit_the_backoff() {
        // With a 1ms deadline the remaining time after the first attempt is
        // always below the 2ms minimum backoff: the solver must return
        // Unknown immediately and count a skipped retry, not sleep.
        let f = pigeonhole_5_into_4();
        let mut s = governed();
        s.set_budget(ResourceBudget {
            timeout: Some(Duration::from_millis(1)),
            max_conflicts: Some(0),
            max_retries: 10,
            ..ResourceBudget::default()
        });
        assert_eq!(s.solve(&f).result, SatResult::Unknown);
        assert_eq!(s.stats().retries, 0, "no retry fits a 1ms deadline");
        assert_eq!(s.stats().retries_skipped, 1);
    }

    // Injected-fault behavior is tested in `tests/fault_inject.rs`, which
    // runs in its own process: arming the global fault plan here would
    // race the other unit tests' solver queries.

    #[test]
    fn push_pop_mirrored_across_rebuilds() {
        let x = Term::var("x", Sort::Bool);
        let mut s = governed();
        s.assert(&x);
        s.push();
        s.assert(&x.not());
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn unsat_core_still_works_under_governance() {
        let x = Term::var("x", Sort::Bool);
        let y = Term::var("y", Sort::Bool);
        let mut s = governed();
        let assumptions = vec![x.clone(), y.clone(), x.not()];
        assert_eq!(s.check_assumptions(&assumptions), SatResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&0));
        assert!(core.contains(&2));
    }

    #[test]
    fn incremental_mode_matches_oneshot_verdicts() {
        let x = Term::var("x", Sort::Bv(8));
        let prefix = x.bvugt(&Term::bv(8, 10));
        let conds = [
            x.bvult(&Term::bv(8, 5)),
            x.bvult(&Term::bv(8, 12)),
            x.eq_term(&Term::bv(8, 11)),
        ];
        let mut inc = GovernedSolver::new(SolverMode::Incremental);
        let mut one = GovernedSolver::new(SolverMode::Oneshot);
        for s in [&mut inc, &mut one] {
            s.assert(&prefix);
        }
        for c in &conds {
            for s in [&mut inc, &mut one] {
                s.push();
                s.assert(c);
            }
            assert_eq!(inc.check(), one.check(), "diverged on {c:?}");
            for s in [&mut inc, &mut one] {
                s.pop();
            }
        }
    }

    #[test]
    fn pop_underflow_is_a_noop_in_release_and_never_desyncs() {
        // The governed mirror and its primary must agree after an
        // unbalanced pop (debug builds assert instead — this test runs
        // the release-contract path explicitly via catch_unwind in debug).
        let x = Term::var("x", Sort::Bool);
        let underflow = |s: &mut GovernedSolver| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.pop()));
            if cfg!(debug_assertions) {
                assert!(r.is_err(), "debug builds must assert on underflow");
            } else {
                assert!(r.is_ok());
            }
        };
        for mode in [SolverMode::Oneshot, SolverMode::Incremental] {
            let mut s = GovernedSolver::new(mode);
            s.assert(&x);
            underflow(&mut s);
            // Base-frame assertions must survive the underflow attempt.
            assert_eq!(s.check(), SatResult::Sat);
            s.push();
            s.assert(&x.not());
            assert_eq!(s.check(), SatResult::Unsat);
            s.pop();
            assert_eq!(s.check(), SatResult::Sat);
        }
    }
}
