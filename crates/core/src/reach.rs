//! Forward reachability conditions and reachable-bug detection (§4.1).
//!
//! Working on the acyclic SSA CFG, the condition to reach a node is
//! computed in a single topological pass: each block's instructions
//! contribute equalities (`x@3 == e`), branch edges contribute the branch
//! condition or its negation, and join points take the disjunction of
//! their incoming conditions. Because terms are DAG-shared, the resulting
//! formulas stay linear in program size (Flanagan–Saxe); the solver then decides
//! `SAT(reach(bug))` per bug node.

use bf4_ir::{BlockId, BlockKind, BugInfo, Cfg, Instr, Terminator};
use bf4_smt::{SatResult, Solver, Sort, Term};
use std::sync::Arc;

/// Outcome of checking one bug node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BugStatus {
    /// Reachable with all table rules possible.
    Reachable,
    /// Unreachable already (dead instrumentation).
    Unreachable,
    /// Unreachable once the inferred annotations are assumed (§4.2:
    /// "controlled").
    Controlled,
    /// Still reachable after annotations and fixes — a dataplane bug the
    /// programmer must fix.
    Uncontrolled,
    /// The solver could not decide reachability within its resource
    /// budget. Reported distinctly — never silently treated as "no bug" —
    /// and counted as a potential bug everywhere totals are formed.
    Undecided,
}

/// Counts from one [`check_bugs`] pass. `Undecided` is deliberately kept
/// separate from `reachable` so callers cannot conflate "solver timed out"
/// with either "bug" or "no bug".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BugCheckStats {
    /// Bugs proved reachable (`Sat`).
    pub reachable: usize,
    /// Bugs the solver could not decide within budget (`Unknown`).
    pub undecided: usize,
}

impl BugCheckStats {
    /// Bugs that must be treated as potentially present: proved reachable
    /// plus undecided.
    pub fn potential(&self) -> usize {
        self.reachable + self.undecided
    }
}

/// A bug node with its metadata and reachability condition.
#[derive(Clone, Debug)]
pub struct FoundBug {
    /// Block id of the bug node.
    pub block: BlockId,
    /// Instrumentation metadata.
    pub info: BugInfo,
    /// Reachability condition (over SSA variables).
    pub cond: Term,
    /// Current status (updated as the pipeline progresses).
    pub status: BugStatus,
    /// Index of the assert point (table site) that dominates this bug, if
    /// any.
    pub assert_point: Option<usize>,
}

/// Reachability conditions for a CFG.
pub struct ReachAnalysis {
    /// Per-block reachability condition (`false` for unreachable blocks).
    pub node_cond: Vec<Term>,
    /// The OK formula: disjunction over good terminals, minus runs through
    /// `dontCare` marks (§4.2).
    pub ok: Term,
    /// Disjunction of reach conditions of `dontCare` marks.
    pub dontcare: Term,
}

impl ReachAnalysis {
    /// Compute reachability conditions for every block.
    pub fn new(cfg: &Cfg) -> ReachAnalysis {
        let order = cfg.topo_order();
        let n = cfg.blocks.len();
        let mut incoming: Vec<Vec<Term>> = vec![Vec::new(); n];
        let mut node_cond: Vec<Term> = vec![Term::ff(); n];
        for &b in &order {
            let cond_in = if b == cfg.entry {
                Term::tt()
            } else {
                Term::or_all(incoming[b].drain(..).collect::<Vec<_>>())
            };
            node_cond[b] = cond_in.clone();
            // Transfer: conjoin instruction equalities.
            let mut parts = vec![cond_in];
            for ins in &cfg.blocks[b].instrs {
                if let Instr::Assign { var, sort, expr } = ins {
                    parts.push(Term::var(var.clone(), *sort).eq_term(expr));
                }
            }
            let out = Term::and_all(parts);
            match &cfg.blocks[b].term {
                Terminator::Jump(t) => incoming[*t].push(out),
                Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    incoming[*then_to].push(out.and(cond));
                    incoming[*else_to].push(out.and(&cond.not()));
                }
                Terminator::End => {}
            }
        }
        let good = Term::or_all(
            cfg.good_blocks()
                .into_iter()
                .map(|b| node_cond[b].clone())
                .collect::<Vec<_>>(),
        );
        let dontcare = Term::or_all(
            cfg.dontcare_marks
                .iter()
                .map(|&b| node_cond[b].clone())
                .collect::<Vec<_>>(),
        );
        let ok = good.and(&dontcare.not());
        ReachAnalysis {
            node_cond,
            ok,
            dontcare,
        }
    }

    /// Collect all bug nodes with conditions and their dominating assert
    /// points (nearest dominating table-site entry).
    pub fn found_bugs(&self, cfg: &Cfg) -> Vec<FoundBug> {
        let idom = cfg.dominators();
        let reachable: std::collections::HashSet<BlockId> =
            cfg.topo_order().into_iter().collect();
        let mut out = Vec::new();
        for b in cfg.bug_blocks() {
            let BlockKind::Bug(info) = &cfg.blocks[b].kind else {
                unreachable!()
            };
            let assert_point = if !reachable.contains(&b) {
                None
            } else if let Some(t) = info.table {
                Some(t)
            } else {
                // Nearest dominating table entry: walk the dominator chain.
                let mut cur = b;
                let mut found = None;
                loop {
                    if let Some(site) = cfg
                        .tables
                        .iter()
                        .position(|t| t.entry_block == cur)
                    {
                        found = Some(site);
                        break;
                    }
                    match idom.get(&cur) {
                        Some(&d) if d != cur => cur = d,
                        _ => break,
                    }
                }
                found
            };
            out.push(FoundBug {
                block: b,
                info: info.clone(),
                cond: self.node_cond[b].clone(),
                status: BugStatus::Unreachable, // refined by `check_bugs`
                assert_point,
            });
        }
        out
    }
}

/// Decide reachability of each bug, optionally under extra assumptions
/// (inferred specs). Updates `status` in place and returns separate counts
/// of proved-reachable and undecided bugs — an `Unknown` from the solver
/// becomes [`BugStatus::Undecided`], never `reachable_status` and never
/// "unreachable".
pub fn check_bugs(
    solver: &mut dyn Solver,
    bugs: &mut [FoundBug],
    assumptions: &[Term],
    reachable_status: BugStatus,
) -> BugCheckStats {
    let mut stats = BugCheckStats::default();
    for bug in bugs.iter_mut() {
        solver.push();
        solver.assert(&bug.cond);
        for a in assumptions {
            solver.assert(a);
        }
        let r = solver.check();
        solver.pop();
        match r {
            SatResult::Sat => {
                bug.status = reachable_status;
                stats.reachable += 1;
            }
            SatResult::Unknown => {
                bug.status = BugStatus::Undecided;
                stats.undecided += 1;
            }
            SatResult::Unsat => {
                // keep the previous (more specific) status unless this is
                // the first pass
                if reachable_status == BugStatus::Reachable {
                    bug.status = BugStatus::Unreachable;
                }
            }
        }
    }
    stats
}

/// Produce a counterexample model for a bug (assignment over the free
/// variables of its reachability condition).
pub fn bug_model(
    solver: &mut dyn Solver,
    bug: &FoundBug,
    assumptions: &[Term],
) -> Option<bf4_smt::Assignment> {
    solver.push();
    solver.assert(&bug.cond);
    for a in assumptions {
        solver.assert(a);
    }
    let r = solver.check();
    let model = if r == SatResult::Sat {
        let fv: Vec<(Arc<str>, Sort)> = bf4_smt::free_vars(&bug.cond).into_iter().collect();
        solver.model(&fv).ok()
    } else {
        None
    };
    solver.pop();
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf4_ir::{lower, LowerOptions};

    const GUARDED: &str = r#"
        header e_t { bit<8> t; }
        header h_t { bit<8> f; }
        struct headers { e_t e; h_t h; }
        struct meta_t { bit<8> m; }
        parser P(packet_in pkt, out headers hdr, inout meta_t meta, inout standard_metadata_t sm) {
            state start {
                pkt.extract(hdr.e);
                transition select(hdr.e.t) {
                    1: parse_h;
                    default: accept;
                }
            }
            state parse_h { pkt.extract(hdr.h); transition accept; }
        }
        control I(inout headers hdr, inout meta_t meta, inout standard_metadata_t sm) {
            apply {
                sm.egress_spec = 9w1;
                if (hdr.h.isValid()) {
                    meta.m = hdr.h.f;       // safe: guarded access
                }
            }
        }
        control E(inout headers hdr, inout meta_t meta, inout standard_metadata_t sm) { apply {} }
        control V(inout headers hdr, inout meta_t meta) { apply {} }
        control C(inout headers hdr, inout meta_t meta) { apply {} }
        control D(packet_out pkt, in headers hdr) { apply {} }
        V1Switch(P(), V(), I(), E(), C(), D()) main;
    "#;

    fn analyze(src: &str) -> (bf4_ir::Cfg, Vec<FoundBug>, usize) {
        let program = bf4_p4::frontend(src).unwrap();
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        bf4_ir::opt::optimize(&mut cfg);
        let ra = ReachAnalysis::new(&cfg);
        let mut bugs = ra.found_bugs(&cfg);
        let mut solver = bf4_smt::default_solver();
        let n = check_bugs(&mut solver, &mut bugs, &[], BugStatus::Reachable);
        assert_eq!(n.undecided, 0, "test formulas must be decidable");
        (cfg, bugs, n.reachable)
    }

    #[test]
    fn guarded_access_is_safe() {
        let (_cfg, bugs, reachable) = analyze(GUARDED);
        // The guarded field read generates a bug node, but it must be
        // unreachable; egress_spec is always set, so that bug is
        // unreachable too.
        assert_eq!(reachable, 0, "{bugs:?}");
    }

    #[test]
    fn unguarded_access_is_reachable() {
        let src = GUARDED.replace(
            "if (hdr.h.isValid()) {\n                    meta.m = hdr.h.f;       // safe: guarded access\n                }",
            "meta.m = hdr.h.f;",
        );
        let (_cfg, bugs, reachable) = analyze(&src);
        assert_eq!(reachable, 1, "{bugs:?}");
        let bug = bugs
            .iter()
            .find(|b| b.status == BugStatus::Reachable)
            .unwrap();
        assert_eq!(bug.info.kind, bf4_ir::BugKind::InvalidHeaderAccess);
    }

    #[test]
    fn egress_spec_not_set_detected() {
        let src = GUARDED.replace("sm.egress_spec = 9w1;", "");
        let (_cfg, bugs, reachable) = analyze(&src);
        assert!(reachable >= 1);
        assert!(bugs
            .iter()
            .any(|b| b.status == BugStatus::Reachable
                && b.info.kind == bf4_ir::BugKind::EgressSpecNotSet));
    }

    #[test]
    fn counterexample_model_satisfies_condition() {
        let src = GUARDED.replace(
            "if (hdr.h.isValid()) {\n                    meta.m = hdr.h.f;       // safe: guarded access\n                }",
            "meta.m = hdr.h.f;",
        );
        let program = bf4_p4::frontend(&src).unwrap();
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        bf4_ir::opt::optimize(&mut cfg);
        let ra = ReachAnalysis::new(&cfg);
        let bugs = ra.found_bugs(&cfg);
        let mut solver = bf4_smt::default_solver();
        let bug = bugs
            .iter()
            .find(|b| b.info.kind == bf4_ir::BugKind::InvalidHeaderAccess)
            .unwrap();
        let model = bug_model(&mut solver, bug, &[]).expect("model");
        let v = bf4_smt::eval(&bug.cond, &model).unwrap();
        assert_eq!(v, bf4_smt::Value::Bool(true));
    }
}
