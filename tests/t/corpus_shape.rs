//! Table-1 shape assertions: run the full bf4 pipeline on every corpus
//! program and check the per-program expectations (bug counts, inference
//! effectiveness, fixability, key additions).

use bf4_core::{verify, VerifyOptions};

#[test]
fn every_corpus_program_matches_its_expected_shape() {
    for p in bf4_corpus::all() {
        let r = verify(p.source, &VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{}: verification failed: {e}", p.name));
        assert_eq!(
            r.bugs_total, p.expect.bugs_total,
            "{}: exact bug count drifted",
            p.name
        );
        assert_eq!(
            r.bugs_after_infer, p.expect.bugs_after_infer,
            "{}: bugs after inference drifted",
            p.name
        );
        assert_eq!(
            r.keys_added, p.expect.keys_added,
            "{}: keys added drifted",
            p.name
        );
        assert!(
            r.bugs_total >= p.expect.min_bugs,
            "{}: expected >= {} bugs, found {}",
            p.name,
            p.expect.min_bugs,
            r.bugs_total
        );
        if p.expect.infer_reduces {
            assert!(
                r.bugs_after_infer < r.bugs_total,
                "{}: inference did not reduce bugs ({} of {})",
                p.name,
                r.bugs_after_infer,
                r.bugs_total
            );
        }
        assert_eq!(
            r.bugs_after_fixes, p.expect.bugs_after_fixes,
            "{}: bugs after fixes",
            p.name
        );
        assert_eq!(
            r.keys_added > 0,
            p.expect.adds_keys,
            "{}: keys added = {}",
            p.name,
            r.keys_added
        );
        assert_eq!(
            r.egress_spec_fix, p.expect.egress_spec_fix,
            "{}: egress-spec fix",
            p.name
        );
    }
}

#[test]
fn annotations_are_never_empty_when_bugs_were_controlled() {
    for p in bf4_corpus::all() {
        let r = verify(p.source, &VerifyOptions::default()).unwrap();
        let controlled = r
            .bugs
            .iter()
            .filter(|b| b.status == bf4_core::BugStatus::Controlled)
            .count();
        if controlled > 0 && !r.egress_spec_fix {
            assert!(
                !r.annotations.specs.is_empty(),
                "{}: {} controlled bugs but no annotations",
                p.name,
                controlled
            );
        }
    }
}

#[test]
fn fixes_only_add_keys_available_at_the_table() {
    // Every added key must resolve to an expression the control can type
    // check — re-running the frontend pipeline on the fixed program (done
    // inside verify) must never error, and the annotation descriptors must
    // list the new keys.
    for p in bf4_corpus::all() {
        let r = verify(p.source, &VerifyOptions::default()).unwrap();
        for fix in &r.fixes {
            if fix.keys.is_empty() {
                continue;
            }
            let desc = r
                .annotations
                .tables
                .iter()
                .find(|t| t.table == fix.table)
                .unwrap_or_else(|| panic!("{}: no descriptor for {}", p.name, fix.table));
            // The fixed table's descriptor must have at least original+added
            // keys.
            assert!(
                desc.keys.len() > fix.keys.len() || desc.keys.len() >= fix.keys.len(),
                "{}: descriptor for {} lost keys",
                p.name,
                fix.table
            );
        }
    }
}

#[test]
fn dataplane_bugs_are_reported_uncontrolled() {
    for name in ["mplb_router", "linearroad"] {
        let p = bf4_corpus::by_name(name).unwrap();
        let r = verify(p.source, &VerifyOptions::default()).unwrap();
        let uncontrolled = r
            .bugs
            .iter()
            .filter(|b| b.status == bf4_core::BugStatus::Uncontrolled)
            .count();
        assert_eq!(
            uncontrolled, p.expect.bugs_after_fixes,
            "{name}: dataplane bug accounting"
        );
    }
}

#[test]
fn fabric_switch_case_studies_hold() {
    // The three §5.1 case studies on the switch.p4 stand-in.
    let p = bf4_corpus::largest();
    let r = verify(p.source, &VerifyOptions::default()).unwrap();
    // (1) validate_outer_ethernet bugs controlled by existing keys.
    assert!(r
        .bugs
        .iter()
        .any(|b| b.table.as_deref() == Some("validate_outer_ethernet")
            && b.status == bf4_core::BugStatus::Controlled));
    // (2) fabric_ingress_dst_lkp needs a validity-key fix.
    let fabric_fix = r
        .fixes
        .iter()
        .find(|f| f.table == "fabric_ingress_dst_lkp")
        .expect("fabric fix");
    assert!(fabric_fix
        .keys
        .iter()
        .any(|k| k == "hdr.fabric_header.$valid"));
    // (3) the egress-spec special drop fix.
    assert!(r.egress_spec_fix);
    // End state: bug-free.
    assert_eq!(r.bugs_after_fixes, 0);
}

#[test]
fn egress_analysis_runs_in_separation() {
    // §4.6: bf4 analyzes ingress and egress separately. fabric_switch has
    // real egress tables (smac rewrite, vlan push); including egress must
    // find at least as many bugs and never error.
    let p = bf4_corpus::largest();
    let ingress_only = verify(p.source, &VerifyOptions::default()).unwrap();
    let both = verify(
        p.source,
        &VerifyOptions {
            include_egress: true,
            ..VerifyOptions::default()
        },
    )
    .unwrap();
    assert!(both.bugs_total >= ingress_only.bugs_total);
    // The merged annotation artifact still round-trips.
    let text = both.annotations.to_string();
    let parsed = bf4_core::specs::AnnotationFile::parse(&text).unwrap();
    assert_eq!(parsed.specs.len(), both.annotations.specs.len());
}

#[test]
fn verification_is_deterministic() {
    // Two runs of the full pipeline must produce identical counts and
    // identical annotation text (the internal solver is deterministic; our own
    // passes use ordered containers where order matters).
    let p = bf4_corpus::by_name("simple_nat").unwrap();
    let a = verify(p.source, &VerifyOptions::default()).unwrap();
    let b = verify(p.source, &VerifyOptions::default()).unwrap();
    assert_eq!(a.bugs_total, b.bugs_total);
    assert_eq!(a.bugs_after_infer, b.bugs_after_infer);
    assert_eq!(a.bugs_after_fixes, b.bugs_after_fixes);
    assert_eq!(a.keys_added, b.keys_added);
    assert_eq!(a.annotations.to_string(), b.annotations.to_string());
}
