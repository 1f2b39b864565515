//! [`IncrementalSolver`]: a [`Solver`] over the internal CDCL engine that
//! retains its bit-blast structure and learned clauses across queries.
//!
//! Where [`crate::bitblast::BitBlastSolver`] re-blasts the whole assertion
//! stack on every `check`, this solver keeps one persistent [`Blaster`] and
//! one growing [`CdclSolver`] per context. Every asserted term lowers once
//! to its root literal (the blast memo is keyed on globally unique term
//! ids, so re-asserting a term after a pop is a cache hit); each `check`
//! then discharges the current stack by passing the root literals of all
//! live frames as *assumption literals*, followed by the blasted user
//! assumptions. `pop` simply drops a frame's literals from the assumption
//! set — the Tseitin clauses stay behind, which is sound because every gate
//! definition is satisfiability-preserving over its fresh variables.
//!
//! The payoff is that the shared round prefix of the per-bug reach queries
//! is encoded and bit-blasted once, and the CDCL solver's learned clauses,
//! variable activities, and saved phases carry over between bugs.
//!
//! Contexts cannot grow without bound: a worker-held solver that crosses
//! [`CTX_RESET_CLAUSES`] drops its context and re-blasts the live stack on
//! the next check (counted as `smt.ctx.reset`).

use crate::bitblast::{Bits, Blaster};
use crate::cnf::Lit;
use crate::sat::{CdclSolver, SolveLimits, SolveResult};
use crate::solver::{BudgetKind, ResourceBudget, SatResult, Solver, SolverError};
use crate::term::{Sort, Term, Value};
use crate::Assignment;
use std::sync::Arc;
use std::time::Instant;

/// Clause count past which a context is dropped and rebuilt from the live
/// stack. Bounds worker-held contexts that survive across programs: every
/// solve decides and propagates over the dead Tseitin structure of
/// everything the context ever asserted, so past this point rebuilding is
/// cheaper than reusing. Tuned on the 22-program corpus: the threshold
/// must fit the largest single round (~40k clauses) with room to amortize
/// across its bugs — 40k thrashes with mid-round resets, 100k+ drags
/// dead weight through most of the corpus; 60k is the measured optimum.
const CTX_RESET_CLAUSES: usize = 60_000;

/// Learned-clause count past which a context flushes its lemmas between
/// checks ([`CdclSolver::drop_learned`]). Far cheaper than a full reset:
/// the bit-blast structure and memo survive, only stale lemmas (and their
/// watch-list weight) go.
const CTX_FLUSH_LEARNED: usize = 10_000;

/// Persistent bit-blast + CDCL context shared by all checks until reset.
struct Ctx {
    blaster: Blaster,
    sat: CdclSolver,
    /// Root literal of each asserted term, parallel to `frames` — lazily
    /// extended at check time (`frame_lits[i].len() <= frames[i].len()`
    /// between checks, equal after a sync).
    frame_lits: Vec<Vec<Lit>>,
}

/// Verdict bookkeeping for `model`/`unsat_core` after the last check.
struct LastCheck {
    result: SatResult,
    /// Frame activation literals passed on the last check, held fixed
    /// during core minimization.
    frame_lits: Vec<Lit>,
    /// User assumption literals, the candidates for the unsat core.
    user_lits: Vec<Lit>,
}

/// A [`Solver`] with persistent solver contexts and assumption-literal
/// frame discharge. Drop-in for [`crate::bitblast::BitBlastSolver`]; wired
/// in as the Internal backend under `SolverMode::Incremental`.
pub struct IncrementalSolver {
    frames: Vec<Vec<Term>>,
    ctx: Option<Ctx>,
    budget: ResourceBudget,
    last_error: Option<SolverError>,
    last: Option<LastCheck>,
}

impl Default for IncrementalSolver {
    fn default() -> IncrementalSolver {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// Fresh empty solver with no context yet (built on first check).
    pub fn new() -> IncrementalSolver {
        IncrementalSolver {
            frames: vec![Vec::new()],
            ctx: None,
            budget: ResourceBudget::default(),
            last_error: None,
            last: None,
        }
    }

    /// Formula size of the live stack plus assumptions, for the budget cap
    /// (same quantity the oneshot backend checks before blasting).
    fn formula_size(&self, assumptions: &[Term]) -> usize {
        self.frames
            .iter()
            .flatten()
            .chain(assumptions)
            .map(crate::term_size)
            .sum()
    }

    /// Bring the context in sync with the assertion stack: blast any terms
    /// asserted since the last check and feed the new CNF to the growing
    /// CDCL solver. Returns the flattened frame activation literals.
    fn sync(&mut self) -> Vec<Lit> {
        if self
            .ctx
            .as_ref()
            .is_some_and(|c| c.sat.num_clauses() > CTX_RESET_CLAUSES)
        {
            self.ctx = None;
            bf4_obs::counter_add("smt.ctx.reset", 1);
        }
        if self.ctx.is_some() {
            bf4_obs::counter_add("smt.ctx.reuse", 1);
        }
        let ctx = self.ctx.get_or_insert_with(|| Ctx {
            blaster: Blaster::new(),
            sat: CdclSolver::new(0, Vec::new()),
            frame_lits: Vec::new(),
        });
        ctx.frame_lits.resize(self.frames.len(), Vec::new());
        for (frame, lits) in self.frames.iter().zip(ctx.frame_lits.iter_mut()) {
            for t in &frame[lits.len()..] {
                lits.push(ctx.blaster.blast(t).b());
            }
        }
        ctx.frame_lits.iter().flatten().copied().collect()
    }

    fn run(&mut self, assumptions: &[Term]) -> SatResult {
        self.last_error = None;
        self.last = None;
        if let Some(cap) = self.budget.max_formula_size {
            if self.formula_size(assumptions) > cap {
                self.last_error = Some(SolverError::Budget(BudgetKind::FormulaSize));
                return SatResult::Unknown;
            }
        }
        let deadline = self.budget.timeout.map(|t| Instant::now() + t);
        let frame_lits = self.sync();
        let ctx = self.ctx.as_mut().unwrap();
        let user_lits: Vec<Lit> = assumptions
            .iter()
            .map(|t| ctx.blaster.blast(t).b())
            .collect();
        ctx.sat.grow_vars(ctx.blaster.cnf.num_vars);
        ctx.sat.add_clauses(ctx.blaster.cnf.clauses.drain(..));
        // Flush stale lemmas *before* solving (never after — that would
        // destroy a Sat result's model, which lives in the trail).
        if ctx.sat.num_learned() > CTX_FLUSH_LEARNED {
            ctx.sat.drop_learned();
            bf4_obs::counter_add("smt.ctx.flush_learned", 1);
        }
        let mut all = frame_lits.clone();
        all.extend_from_slice(&user_lits);
        let limits = SolveLimits {
            deadline,
            max_conflicts: self.budget.max_conflicts,
        };
        let result = match ctx.sat.solve_limited(&all, &limits) {
            SolveResult::Sat => SatResult::Sat,
            SolveResult::Unsat => SatResult::Unsat,
            SolveResult::Unknown => {
                let kind = if deadline.is_some_and(|d| Instant::now() >= d) {
                    BudgetKind::Timeout
                } else {
                    BudgetKind::Conflicts
                };
                self.last_error = Some(SolverError::Budget(kind));
                SatResult::Unknown
            }
        };
        self.last = Some(LastCheck {
            result,
            frame_lits,
            user_lits,
        });
        result
    }
}

impl Solver for IncrementalSolver {
    fn assert(&mut self, t: &Term) {
        self.frames
            .last_mut()
            .expect("frame stack non-empty (base frame is never popped)")
            .push(t.clone());
    }

    fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    fn pop(&mut self) {
        // Same pop-underflow contract as the other backends (`Solver::pop`).
        debug_assert!(self.frames.len() > 1, "pop on base assertion frame");
        if self.frames.len() > 1 {
            self.frames.pop();
            if let Some(ctx) = &mut self.ctx {
                if ctx.frame_lits.len() > self.frames.len() {
                    ctx.frame_lits.pop();
                }
            }
        }
    }

    fn check(&mut self) -> SatResult {
        self.run(&[])
    }

    fn check_assumptions(&mut self, assumptions: &[Term]) -> SatResult {
        self.run(assumptions)
    }

    fn unsat_core(&mut self) -> Vec<usize> {
        // Deletion-based minimization over the user assumptions only; the
        // frame activation literals are part of the context, not the core.
        let (frame_lits, all) = match (&self.last, &self.ctx) {
            (Some(l), Some(_)) if l.result == SatResult::Unsat => {
                (l.frame_lits.clone(), l.user_lits.clone())
            }
            _ => return Vec::new(),
        };
        let limits = SolveLimits {
            deadline: self.budget.timeout.map(|t| Instant::now() + t),
            max_conflicts: self.budget.max_conflicts,
        };
        let sat = &mut self.ctx.as_mut().unwrap().sat;
        let mut kept: Vec<usize> = (0..all.len()).collect();
        let mut i = 0;
        while i < kept.len() {
            let mut trial = frame_lits.clone();
            trial.extend(
                kept.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &k)| all[k]),
            );
            // An inconclusive trial keeps its assumption: a non-minimal
            // core is still a valid core.
            if sat.solve_limited(&trial, &limits) == SolveResult::Unsat {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        kept
    }

    fn model(&mut self, vars: &[(Arc<str>, Sort)]) -> Result<Assignment, SolverError> {
        let ctx = self.ctx.as_ref().ok_or(SolverError::NoModel)?;
        match &self.last {
            Some(l) if l.result == SatResult::Sat => {}
            _ => return Err(SolverError::NoModel),
        }
        let mut out = Assignment::new();
        for (name, sort) in vars {
            let v = match (ctx.blaster.vars.get(name), sort) {
                (Some(Bits::B(l)), Sort::Bool) => {
                    let b = ctx.sat.value(l.var());
                    Value::Bool(if l.is_pos() { b } else { !b })
                }
                (Some(Bits::V(bits)), Sort::Bv(w)) => {
                    let mut x: u128 = 0;
                    for (i, l) in bits.iter().enumerate() {
                        let b = ctx.sat.value(l.var());
                        let b = if l.is_pos() { b } else { !b };
                        if b {
                            x |= 1 << i;
                        }
                    }
                    Value::bv(*w, x)
                }
                (None, Sort::Bool) => Value::Bool(false),
                (None, Sort::Bv(w)) => Value::bv(*w, 0),
                (Some(_), _) => {
                    let err = SolverError::SortMismatch(format!(
                        "model extraction: stored bits for `{name}` disagree with requested sort {sort:?}"
                    ));
                    self.last_error = Some(err.clone());
                    return Err(err);
                }
            };
            out.insert(name.clone(), v);
        }
        Ok(out)
    }

    fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    fn last_error(&self) -> Option<&SolverError> {
        self.last_error.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitBlastSolver;

    #[test]
    fn push_pop_matches_oneshot() {
        let x = Term::var("x", Sort::Bool);
        let mut s = IncrementalSolver::new();
        s.assert(&x);
        s.push();
        s.assert(&x.not());
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(), SatResult::Sat);
        // The popped frame's clauses stay behind but must not constrain.
        s.push();
        s.assert(&x.not());
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
    }

    #[test]
    fn context_is_reused_across_checks() {
        let x = Term::var("x", Sort::Bv(8));
        let mut s = IncrementalSolver::new();
        s.assert(&x.bvugt(&Term::bv(8, 10)));
        assert_eq!(s.check(), SatResult::Sat);
        let clauses_first = s.ctx.as_ref().unwrap().sat.num_clauses();
        // Same prefix, new per-query condition: only the new term blasts.
        s.push();
        s.assert(&x.bvult(&Term::bv(8, 5)));
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop();
        let grown = s.ctx.as_ref().unwrap().sat.num_clauses();
        assert!(grown >= clauses_first, "context must persist, not rebuild");
        // Re-checking the prefix alone blasts nothing new (memo hit).
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.ctx.as_ref().unwrap().sat.num_clauses(), grown);
    }

    #[test]
    fn reasserting_popped_term_is_a_memo_hit() {
        let x = Term::var("x", Sort::Bv(8));
        let cond = x.bvult(&Term::bv(8, 5));
        let mut s = IncrementalSolver::new();
        s.assert(&x.bvugt(&Term::bv(8, 1)));
        s.push();
        s.assert(&cond);
        assert_eq!(s.check(), SatResult::Sat);
        s.pop();
        let before = s.ctx.as_ref().unwrap().sat.num_clauses();
        s.push();
        s.assert(&cond);
        assert_eq!(s.check(), SatResult::Sat);
        s.pop();
        assert_eq!(s.ctx.as_ref().unwrap().sat.num_clauses(), before);
    }

    #[test]
    fn model_and_core_work_on_the_persistent_context() {
        let x = Term::var("x", Sort::Bv(4));
        let y = Term::var("y", Sort::Bool);
        let mut s = IncrementalSolver::new();
        s.assert(&x.eq_term(&Term::bv(4, 9)));
        assert_eq!(s.check(), SatResult::Sat);
        let m = s
            .model(&[(Arc::from("x"), Sort::Bv(4))])
            .expect("model after sat");
        assert_eq!(m.get("x" as &str), Some(&Value::bv(4, 9)));
        // Core over user assumptions, frame lits held fixed.
        let assumptions = vec![y.clone(), x.eq_term(&Term::bv(4, 3)), y.not()];
        assert_eq!(s.check_assumptions(&assumptions), SatResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&1) || (core.contains(&0) && core.contains(&2)));
    }

    #[test]
    fn verdicts_match_oneshot_on_shared_script() {
        // Drive both solvers through the same assert/push/check/pop script.
        let x = Term::var("x", Sort::Bv(8));
        let y = Term::var("y", Sort::Bv(8));
        let prefix = x.bvadd(&y).eq_term(&Term::bv(8, 20));
        let conds = [
            x.bvugt(&y),
            x.eq_term(&Term::bv(8, 200)),
            x.bvult(&Term::bv(8, 21)),
            y.bvmul(&Term::bv(8, 2)).eq_term(&Term::bv(8, 1)),
        ];
        let mut inc = IncrementalSolver::new();
        let mut one = BitBlastSolver::new();
        inc.assert(&prefix);
        one.assert(&prefix);
        for c in &conds {
            inc.push();
            one.push();
            inc.assert(c);
            one.assert(c);
            assert_eq!(inc.check(), one.check(), "diverged on {c:?}");
            inc.pop();
            one.pop();
        }
    }

    #[test]
    fn budget_formula_size_cap_fires() {
        let x = Term::var("x", Sort::Bv(8));
        let mut s = IncrementalSolver::new();
        s.set_budget(ResourceBudget {
            max_formula_size: Some(1),
            ..ResourceBudget::default()
        });
        s.assert(&x.bvugt(&Term::bv(8, 10)));
        assert_eq!(s.check(), SatResult::Unknown);
        assert!(matches!(
            s.last_error(),
            Some(SolverError::Budget(BudgetKind::FormulaSize))
        ));
    }
}
