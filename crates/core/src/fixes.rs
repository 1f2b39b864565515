//! **Algorithm 3 — Fixes** (§4.3): inferring missing table keys.
//!
//! When Infer cannot control a bug (its guarding state is not a function
//! of any key of the dominating table), bf4 proposes adding keys. Working
//! on the SSA CFG, the data-flow lattice of the paper collapses to a
//! backward dependency walk: starting from the branch conditions that
//! guard the bug *after* the assert point, trace each variable back
//! through its (unique) definition; variables defined before the assert
//! point — i.e. available when the table matches — and not already
//! controlled are exactly the missing keys.
//!
//! The `egress_spec`-not-set bug is special-cased per §4.6: its guard is a
//! ghost variable that no table key could meaningfully expose, so the fix
//! is "drop at the beginning of the pipeline" (a lowering option) instead
//! of key addition.

use crate::reach::FoundBug;
use bf4_ir::{BlockId, BugKind, Cfg, Instr};
use bf4_p4::ast::Expr;
use bf4_p4::typecheck::{Program, Type};
use bf4_p4::Span;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A proposed fix: keys to add to a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fix {
    /// Control the table lives in.
    pub control: String,
    /// Table name.
    pub table: String,
    /// Keys to add, as base variable names (`hdr.ipv4.$valid`, `meta.m.x`).
    pub keys: Vec<String>,
}

/// Why a bug admits no key-based fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unfixable {
    /// No table site dominates the bug — a genuine dataplane bug.
    NoDominatingTable,
    /// The bug guard depends on state produced *after* the assert point by
    /// a havoc (extern output, register read) — no key can expose it.
    HavocDependency(String),
    /// `egress_spec` bugs take the special drop fix, not keys (§4.6).
    EgressSpecSpecialCase,
}

/// Compute the missing keys that let the dominating table control `bug`.
pub fn fixes_for_bug(cfg: &Cfg, bug: &FoundBug) -> Result<Fix, Unfixable> {
    if bug.info.kind == BugKind::EgressSpecNotSet {
        return Err(Unfixable::EgressSpecSpecialCase);
    }
    let Some(site_idx) = bug.assert_point else {
        return Err(Unfixable::NoDominatingTable);
    };
    let site = &cfg.tables[site_idx];
    let entry = site.entry_block;
    let idom = cfg.dominators();

    // Slice the CFG w.r.t. the bug (line 8 of Alg. 3) — we only need its
    // branch set here; the slice keeps the computed keys small.
    let slice = bf4_ir::slice::compute_slice(cfg, &[bug.block]);

    // Guard conditions after the assert point.
    let mut roots: Vec<Term> = Vec::new();
    use bf4_smt::Term;
    for &b in &slice.needed_branches {
        if Cfg::dominates(&idom, entry, b) {
            if let bf4_ir::Terminator::Branch { cond, .. } = &cfg.blocks[b].term {
                roots.push(cond.clone());
            }
        }
    }

    let controlled: HashSet<Arc<str>> = site.control_vars().into_iter().collect();
    // Base names already matched by existing keys (don't re-add them).
    let mut existing: HashSet<String> = HashSet::new();
    for k in &site.keys {
        for (v, _) in bf4_smt::free_vars(&k.expr) {
            existing.insert(base_name(&v));
        }
    }

    // Definition sites per SSA name (multimap: merge variables have one
    // definition per incoming edge block).
    let mut def_site: HashMap<Arc<str>, Vec<(BlockId, usize)>> = HashMap::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for (i, ins) in blk.instrs.iter().enumerate() {
            def_site.entry(ins.target().clone()).or_default().push((b, i));
        }
    }

    let mut missing: Vec<String> = Vec::new();
    let mut seen: HashSet<Arc<str>> = HashSet::new();
    let mut wl: Vec<Arc<str>> = roots
        .iter()
        .flat_map(|t| bf4_smt::free_vars(t).into_keys())
        .collect();
    while let Some(v) = wl.pop() {
        if !seen.insert(v.clone()) {
            continue;
        }
        if controlled.contains(&v) {
            continue;
        }
        let defs = def_site.get(&v).map(|d| d.as_slice()).unwrap_or(&[]);
        // A variable counts as "defined after the assert point" only if
        // *every* definition is dominated by the table entry; merge
        // variables with any pre-table definition are available at match
        // time.
        let after_entry = !defs.is_empty()
            && defs
                .iter()
                .all(|&(b, _)| Cfg::dominates(&idom, entry, b) && b != entry);
        match defs {
            _ if after_entry => {
                // Defined after the assert point: trace through all defs.
                for &(b, i) in defs {
                    match &cfg.blocks[b].instrs[i] {
                        Instr::Assign { expr, .. } => {
                            wl.extend(bf4_smt::free_vars(expr).into_keys());
                        }
                        Instr::Havoc { var, .. } => {
                            return Err(Unfixable::HavocDependency(var.to_string()));
                        }
                    }
                }
            }
            _ => {
                // Available at the assert point: candidate key. Ghost
                // variables (`$egress_set`, `<stack>.$next`) are excluded —
                // they do not exist in the source program, so a key on them
                // would be the "esoteric and meaningless" fix §4.6 warns
                // about (validity bits `.$valid` are fine: they render as
                // `isValid()`).
                let base = base_name(&v);
                let ghost = base.starts_with('$')
                    || base
                        .rsplit('.')
                        .next()
                        .is_some_and(|c| c.starts_with('$') && c != "$valid");
                if !existing.contains(&base)
                    && !ghost
                    && !base.starts_with("pcn.")
                    && !missing.contains(&base)
                {
                    missing.push(base);
                }
            }
        }
    }
    missing.sort();
    Ok(Fix {
        control: site.control.clone(),
        table: site.table.clone(),
        keys: missing,
    })
}

/// Strip the SSA version suffix.
pub fn base_name(v: &str) -> String {
    match v.rsplit_once('@') {
        Some((base, ver)) if ver.chars().all(|c| c.is_ascii_digit()) => base.to_string(),
        _ => v.to_string(),
    }
}

/// Render a base variable name as P4 source for a key expression, using
/// the parameter names of the control the table belongs to.
///
/// `hdr.ipv4.$valid` → `<hdrparam>.ipv4.isValid()`;
/// `meta.m.x` → `<metaparam>.m.x`.
pub fn key_source(program: &Program, control: &str, base: &str) -> String {
    let ctrl = &program.controls[control];
    let mut param_names = ctrl
        .params
        .iter()
        .filter(|p| {
            !matches!(
                program.resolve_type(&p.ty),
                Ok(Type::Struct(s)) if s == "packet_in" || s == "packet_out"
            )
        })
        .map(|p| p.name.clone());
    let hdr = param_names.next().unwrap_or_else(|| "hdr".into());
    let meta = param_names.next().unwrap_or_else(|| "meta".into());
    let sm = param_names.next().unwrap_or_else(|| "standard_metadata".into());
    let (root, rest) = base.split_once('.').unwrap_or((base, ""));
    let mapped_root = match root {
        "hdr" => hdr,
        "meta" => meta,
        "standard_metadata" => sm,
        other => other.to_string(),
    };
    let path = if rest.is_empty() {
        mapped_root
    } else {
        format!("{mapped_root}.{rest}")
    };
    if let Some(stripped) = path.strip_suffix(".$valid") {
        format!("{stripped}.isValid()")
    } else {
        path
    }
}

/// Apply fixes to a checked program: append the missing keys as exact
/// matches to the named tables. Returns the number of keys added.
pub fn apply_fixes(program: &mut Program, fixes: &[Fix]) -> usize {
    let mut added = 0;
    for fix in fixes {
        let sources: Vec<String> = fix
            .keys
            .iter()
            .map(|k| key_source(program, &fix.control, k))
            .collect();
        let Some(ctrl) = program.controls.get_mut(&fix.control) else {
            continue;
        };
        let Some(table) = ctrl.tables.iter_mut().find(|t| t.name == fix.table) else {
            continue;
        };
        for src in sources {
            if table.keys.iter().any(|(e, _)| render(e) == src) {
                continue;
            }
            table.keys.push((parse_key_expr(&src), "exact".to_string()));
            added += 1;
        }
    }
    added
}

/// Build an AST expression from a rendered key path (dotted members with an
/// optional trailing `.isValid()`).
fn parse_key_expr(src: &str) -> Expr {
    let span = Span::default();
    let (path, is_valid) = match src.strip_suffix(".isValid()") {
        Some(p) => (p, true),
        None => (src, false),
    };
    let mut parts = path.split('.');
    let mut e = Expr::Ident {
        name: parts.next().unwrap().to_string(),
        span,
    };
    for p in parts {
        // numeric components are stack indices
        if p.chars().all(|c| c.is_ascii_digit()) {
            e = Expr::Index {
                base: Box::new(e),
                index: Box::new(Expr::Number {
                    value: p.parse().unwrap(),
                    width: None,
                    span,
                }),
                span,
            };
        } else {
            e = Expr::Member {
                base: Box::new(e),
                member: p.to_string(),
                span,
            };
        }
    }
    if is_valid {
        e = Expr::Call {
            func: Box::new(Expr::Member {
                base: Box::new(e),
                member: "isValid".to_string(),
                span,
            }),
            args: vec![],
            span,
        };
    }
    e
}

fn render(e: &Expr) -> String {
    match e {
        Expr::Ident { name, .. } => name.clone(),
        Expr::Member { base, member, .. } => format!("{}.{member}", render(base)),
        Expr::Index { base, index, .. } => format!("{}[{}]", render(base), render(index)),
        Expr::Call { func, .. } => format!("{}()", render(func)),
        Expr::Number { value, .. } => value.to_string(),
        _ => "?".into(),
    }
}

/// The textual diff of proposed table changes, for the "fixed P4 program"
/// output of Fig. 3.
pub fn describe_fixes(program: &Program, fixes: &[Fix]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for f in fixes {
        if f.keys.is_empty() {
            continue;
        }
        let _ = writeln!(out, "table {}.{} {{", f.control, f.table);
        for k in &f.keys {
            let _ = writeln!(out, "+   {}: exact;", key_source(program, &f.control, k));
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{check_bugs, BugStatus, ReachAnalysis};
    use bf4_ir::{lower, LowerOptions};

    #[test]
    fn fixes_add_validity_key_to_lpm() {
        let program = bf4_p4::frontend(crate::testutil::NAT_SOURCE).unwrap();
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        bf4_ir::opt::optimize(&mut cfg);
        let ra = ReachAnalysis::new(&cfg);
        let bugs = ra.found_bugs(&cfg);
        let ttl_bug = bugs
            .iter()
            .find(|b| {
                b.info.kind == BugKind::InvalidHeaderAccess && b.info.description.contains("ipv4")
            })
            .expect("ttl bug");
        let fix = fixes_for_bug(&cfg, ttl_bug).expect("fixable");
        assert_eq!(fix.table, "ipv4_lpm");
        assert!(
            fix.keys.contains(&"hdr.ipv4.$valid".to_string()),
            "keys: {:?}",
            fix.keys
        );
        // The paper reports at most 2 keys per table for a single bug.
        assert!(fix.keys.len() <= 2, "keys: {:?}", fix.keys);
    }

    #[test]
    fn egress_spec_bug_special_cased() {
        let program = bf4_p4::frontend(crate::testutil::NAT_SOURCE).unwrap();
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        let ra = ReachAnalysis::new(&cfg);
        let bugs = ra.found_bugs(&cfg);
        let es = bugs
            .iter()
            .find(|b| b.info.kind == BugKind::EgressSpecNotSet)
            .unwrap();
        assert_eq!(fixes_for_bug(&cfg, es), Err(Unfixable::EgressSpecSpecialCase));
    }

    #[test]
    fn applying_fix_makes_bug_controllable() {
        // After adding hdr.ipv4.isValid() to ipv4_lpm, Fast-Infer must be
        // able to control the ttl bug — the end-to-end claim of §4.3.
        let mut program = bf4_p4::frontend(crate::testutil::NAT_SOURCE).unwrap();
        let fix = Fix {
            control: "ingress".into(),
            table: "ipv4_lpm".into(),
            keys: vec!["hdr.ipv4.$valid".into()],
        };
        assert_eq!(apply_fixes(&mut program, &[fix]), 1);
        let mut cfg = lower(&program, &LowerOptions::default()).unwrap().cfg;
        bf4_ir::ssa::to_ssa(&mut cfg);
        bf4_ir::opt::optimize(&mut cfg);
        let lpm_idx = cfg
            .tables
            .iter()
            .position(|t| t.table == "ipv4_lpm")
            .unwrap();
        assert_eq!(cfg.tables[lpm_idx].keys.len(), 2);
        let res = crate::fast_infer::fast_infer(&cfg, lpm_idx, &Default::default());
        let ra = ReachAnalysis::new(&cfg);
        let mut bugs = ra.found_bugs(&cfg);
        let mut solver = bf4_smt::default_solver();
        let n_controlled = {
            let specs: Vec<bf4_smt::Term> = res.specs.clone();
            check_bugs(&mut solver, &mut bugs, &specs, BugStatus::Uncontrolled);
            bugs.iter()
                .filter(|b| {
                    b.info.kind == BugKind::InvalidHeaderAccess
                        && b.info.description.contains("ipv4")
                        && b.status != BugStatus::Uncontrolled
                })
                .count()
        };
        assert!(n_controlled >= 1, "ttl bug still uncontrolled after fix");
    }

    #[test]
    fn key_source_rendering() {
        let program = bf4_p4::frontend(crate::testutil::NAT_SOURCE).unwrap();
        assert_eq!(
            key_source(&program, "ingress", "hdr.ipv4.$valid"),
            "hdr.ipv4.isValid()"
        );
        assert_eq!(
            key_source(&program, "ingress", "meta.meta.do_forward"),
            "meta.meta.do_forward"
        );
        assert_eq!(base_name("hdr.ipv4.ttl@17"), "hdr.ipv4.ttl");
        assert_eq!(base_name("plain"), "plain");
    }
}
