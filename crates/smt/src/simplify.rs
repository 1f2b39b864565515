//! A deeper, whole-DAG simplifier applied before formulas reach the solver.
//!
//! Construction-time folding (in [`crate::term`]) only sees one node at a
//! time. This pass re-traverses a formula bottom-up (memoized on node id)
//! and applies context rewrites that matter for the formulas the
//! verification core produces:
//!
//! * equality propagation through `ite`: `ite(c, a, b) == k` with constant
//!   `k`, `a`, `b` collapses to `c`, `!c`, `true` or `false`;
//! * extraction through concatenation;
//! * conjunction/disjunction complement detection (`x && !x` → `false`);
//! * re-application of all constructor folds after child rewriting.
//!
//! Simplification is semantics-preserving; the solver differential suite
//! checks that simplified formulas keep their verdicts.

use crate::term::{Term, TermNode};
use crate::visit::substitute;
use std::collections::HashMap;

/// Simplify a term (idempotent, semantics-preserving).
pub fn simplify(t: &Term) -> Term {
    // Rebuilding through the smart constructors already re-folds; the
    // cheapest full-strength pass is an identity substitution.
    let rebuilt = substitute(t, &HashMap::new());
    extra_pass(&rebuilt, &mut HashMap::new())
}

fn extra_pass(t: &Term, memo: &mut HashMap<u64, Term>) -> Term {
    if let Some(r) = memo.get(&t.id()) {
        return r.clone();
    }
    let out = match t.node() {
        TermNode::And(xs) => {
            let xs: Vec<Term> = xs.iter().map(|x| extra_pass(x, memo)).collect();
            // complement detection: x && !x
            if has_complement(&xs) {
                Term::ff()
            } else {
                Term::and_all(dedup_by_id(xs))
            }
        }
        TermNode::Or(xs) => {
            let xs: Vec<Term> = xs.iter().map(|x| extra_pass(x, memo)).collect();
            if has_complement(&xs) {
                Term::tt()
            } else {
                Term::or_all(dedup_by_id(xs))
            }
        }
        TermNode::Eq(a, b) => {
            let a = extra_pass(a, memo);
            let b = extra_pass(b, memo);
            // ite(c, k1, k2) == k  with all k const
            if let Some(r) = ite_eq_const(&a, &b).or_else(|| ite_eq_const(&b, &a)) {
                r
            } else {
                a.eq_term(&b)
            }
        }
        TermNode::Not(a) => extra_pass(a, memo).not(),
        TermNode::Extract { hi, lo, arg } => {
            let arg = extra_pass(arg, memo);
            // extract over concat: pick the side when fully contained
            if let TermNode::Concat(h, l) = arg.node() {
                let lw = l.width();
                if *hi < lw {
                    return remember(t, extra_pass(&l.extract(*hi, *lo), memo), memo);
                }
                if *lo >= lw {
                    return remember(
                        t,
                        extra_pass(&h.extract(*hi - lw, *lo - lw), memo),
                        memo,
                    );
                }
            }
            arg.extract(*hi, *lo)
        }
        _ => t.clone(),
    };
    remember(t, out, memo)
}

fn remember(key: &Term, val: Term, memo: &mut HashMap<u64, Term>) -> Term {
    memo.insert(key.id(), val.clone());
    val
}

fn dedup_by_id(mut xs: Vec<Term>) -> Vec<Term> {
    let mut seen = std::collections::HashSet::new();
    xs.retain(|x| seen.insert(x.id()));
    xs
}

fn has_complement(xs: &[Term]) -> bool {
    let ids: std::collections::HashSet<u64> = xs.iter().map(|x| x.id()).collect();
    xs.iter().any(|x| {
        if let TermNode::Not(inner) = x.node() {
            ids.contains(&inner.id())
        } else {
            false
        }
    })
}

/// `ite(c, a, b) == k` where `a`, `b`, `k` are constants.
fn ite_eq_const(ite: &Term, k: &Term) -> Option<Term> {
    let kv = k.as_const()?;
    if let TermNode::Ite(c, a, b) = ite.node() {
        let av = a.as_const()?;
        let bv = b.as_const()?;
        return Some(match (av == kv, bv == kv) {
            (true, true) => Term::tt(),
            (true, false) => c.clone(),
            (false, true) => c.not(),
            (false, false) => Term::ff(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn complement_in_and() {
        let x = Term::var("x", Sort::Bool);
        let y = Term::var("y", Sort::Bool);
        let nx = x.not();
        let t = Term::and_all([x.clone(), y.clone(), nx]);
        assert!(simplify(&t).is_false());
    }

    #[test]
    fn complement_in_or() {
        let x = Term::var("x", Sort::Bool);
        let t = Term::or_all([x.clone(), x.not()]);
        assert!(simplify(&t).is_true());
    }

    #[test]
    fn ite_eq_const_collapses() {
        let c = Term::var("c", Sort::Bool);
        let t = c
            .ite(&Term::bv(8, 1), &Term::bv(8, 2))
            .eq_term(&Term::bv(8, 1));
        assert_eq!(simplify(&t), c);
        let t = c
            .ite(&Term::bv(8, 1), &Term::bv(8, 2))
            .eq_term(&Term::bv(8, 2));
        assert!(matches!(simplify(&t).node(), TermNode::Not(_)));
        let t = c
            .ite(&Term::bv(8, 1), &Term::bv(8, 2))
            .eq_term(&Term::bv(8, 7));
        assert!(simplify(&t).is_false());
    }

    #[test]
    fn extract_through_concat() {
        let x = Term::var("x", Sort::Bv(8));
        let y = Term::var("y", Sort::Bv(8));
        let t = x.concat(&y).extract(15, 8); // == x
        assert_eq!(simplify(&t), x);
        let t = x.concat(&y).extract(7, 0); // == y
        assert_eq!(simplify(&t), y);
    }

    #[test]
    fn dedup_conjuncts() {
        let x = Term::var("x", Sort::Bool);
        let y = Term::var("y", Sort::Bool);
        let t = Term::and_all([x.clone(), y.clone(), x.clone()]);
        let s = simplify(&t);
        if let TermNode::And(xs) = s.node() {
            assert_eq!(xs.len(), 2);
        } else {
            panic!("expected And, got {s}");
        }
    }

    #[test]
    fn idempotent() {
        let x = Term::var("x", Sort::Bv(8));
        let t = x
            .bvadd(&Term::bv(8, 0))
            .eq_term(&Term::bv(8, 3))
            .and(&Term::var("b", Sort::Bool));
        let s1 = simplify(&t);
        let s2 = simplify(&s1);
        assert!(s1.alpha_eq(&s2));
    }
}
