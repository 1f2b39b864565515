//! `report` — regenerates every table and in-text measurement of the
//! paper's evaluation (§5) on the bf4-corpus suite.
//!
//! ```text
//! report table1        Table 1: per-program bug/fix counts and runtimes
//! report slicing       §4.1 ablation: instructions & time with/without slicing
//! report infer         §4.2: Fast-Infer vs Infer runtime on the largest program
//! report multitable    §4.2: bugs controlled only by multi-table assertions
//! report dontcare      §4.2: extra bugs trimmed by the dontCare heuristic
//! report keyoverhead   §5: key-addition overhead on the largest program
//! report p4v           §5.2: p4v-approximation monolithic query
//! report vera          §5.2: Vera-approximation concrete vs symbolic entries
//! report shim          §5.3: shim validation latency over a 2000-update trace
//! report shimbench [--out FILE] [--dir DIR]
//!                      staged-load stress campaign on the sharded shim
//!                      (warmup → burst → fault-mid-burst → drain) with a
//!                      crash/reopen check, assertion audit and the
//!                      group-commit vs per-update-fsync comparison
//!                      (optionally written as BENCH_shim.json); exit 1 on
//!                      any gate violation
//! report casestudies   §5.1: the three interesting-bug case studies
//! report corpus [--jobs N] [--cache-cap N] [--solver-mode M] [--trace-out FILE]
//!                      normalized corpus reports on stdout (stable across
//!                      worker counts, cache configs and solver modes;
//!                      engine stats go to stderr) — the basis of ci.sh's
//!                      sequential-vs-parallel and cross-mode diffs
//! report engine        speedup-vs-jobs table (jobs ∈ {1,2,4}, cache
//!                      on/off) with per-stage latencies and cache stats
//! report profile <trace.jsonl> [--request ID]
//!                      aggregate a bf4 --trace-out file into a per-stage /
//!                      per-program time table; with --request, reconstruct
//!                      one daemon request's flame from a bf4d trace
//! report trace-lint <trace.jsonl> [--require-layers a,b,...]
//!                      validate every line against the bf4-obs span
//!                      schema; exit 1 on the first violation. Requiring
//!                      the `daemon` layer additionally validates the
//!                      `daemon.request` span tree: every request span
//!                      carries its request-ID tag and every pipeline span
//!                      under it carries the matching tag
//! report faults <trace.jsonl>
//!                      audit a chaos run's `--trace-out` file: per-site
//!                      injection counts plus the solver degradations the
//!                      schedule caused
//! report chaos [--seeds a,b,c] [--jobs N]
//!                      run the corpus fault-free, re-run it under each
//!                      seeded chaos schedule and check every report
//!                      degrades only conservatively; exit 1 on any
//!                      verdict flip
//! report cachebench [--dir DIR] [--out FILE] [--jobs N]
//!                      cold-vs-warm persistent-cache run over the corpus
//!                      (optionally written as BENCH_cache.json); exit 1
//!                      unless the warm hit rate strictly beats the cold
//!                      one and the reports stay identical
//! report solverbench [--out FILE] [--jobs N]
//!                      corpus wall-clock in both solver modes
//!                      (oneshot, incremental; optionally written as
//!                      BENCH_solver.json); exit 1 unless the
//!                      incremental run strictly beats oneshot, reuses
//!                      solver contexts, and every normalized report is
//!                      byte-identical across the modes
//! report daemonbench [--out FILE]
//!                      cold full-verify vs warm incremental re-verify over
//!                      a scripted edit of every corpus program, through an
//!                      in-process bf4d daemon (optionally written as
//!                      BENCH_daemon.json); exit 1 unless the warm pass is
//!                      strictly faster, skips bugs, and every verdict is
//!                      byte-identical to a one-shot run
//! report normalize <file.p4> [--name N]
//!                      one-shot normalized report of a single program on
//!                      stdout (what ci.sh diffs a daemon verdict against)
//! report slo <tsdb.bf4t> --slo SPEC [--window N]
//!                      evaluate service-level objectives over the tail of
//!                      a daemon's persistent time-series; exit 1 when any
//!                      objective is violated
//! report expose-lint <file>
//!                      validate a Prometheus text exposition (e.g. one
//!                      scraped from bf4d --metrics-addr); exit 1 on any
//!                      grammar violation
//! report regress --fresh FILE --baseline FILE [--tolerance T]
//!                      compare a freshly written BENCH_*.json against a
//!                      committed baseline on its scale-free metrics (hit
//!                      rates, speedups, skip counts, verdict identity)
//!                      with a relative tolerance band; exit 1 on any
//!                      regression beyond the band
//! report all           everything above except `corpus`, `chaos`,
//!                      `cachebench` and `daemonbench`
//! ```

use bf4_core::driver::{verify_isolated, VerifyOptions};
use bf4_engine::{check_conservative, normalized_report, verify_corpus, EngineConfig};
use std::time::Instant;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match mode.as_str() {
        "table1" => table1(),
        "slicing" => slicing(),
        "infer" => infer_cmp(),
        "multitable" => multitable(),
        "dontcare" => dontcare(),
        "keyoverhead" => keyoverhead(),
        "p4v" => p4v(),
        "vera" => vera(),
        "shim" => shim(),
        "shimbench" => shimbench(),
        "casestudies" => casestudies(),
        "corpus" => corpus(),
        "engine" => engine(),
        "profile" => profile(),
        "trace-lint" => trace_lint(),
        "faults" => faults(),
        "chaos" => chaos(),
        "cachebench" => cachebench(),
        "solverbench" => solverbench(),
        "daemonbench" => daemonbench(),
        "normalize" => normalize_cmd(),
        "slo" => slo_cmd(),
        "expose-lint" => expose_lint(),
        "regress" => regress_cmd(),
        "all" => {
            table1();
            slicing();
            infer_cmp();
            multitable();
            dontcare();
            keyoverhead();
            p4v();
            vera();
            shim();
            casestudies();
            engine();
        }
        other => {
            eprintln!("unknown mode `{other}`");
            std::process::exit(2);
        }
    }
}

/// Table 1 of the paper: LoC, #bugs, bugs after Infer, runtime, bugs after
/// fixes, keys added — one row per corpus program.
fn table1() {
    println!("== Table 1: experimental results on the corpus ==");
    println!(
        "{:<20} {:>5} {:>6} {:>12} {:>11} {:>11} {:>10}",
        "program", "LoC", "#bugs", "after-Infer", "runtime(s)", "after-fixes", "keys-added"
    );
    for p in bf4_corpus::all() {
        let t0 = Instant::now();
        // Isolated per program: a panic or frontend error in one program
        // degrades its row but the rest of the table still prints.
        let r = verify_isolated(p.source, &VerifyOptions::default());
        let flag = if !r.degraded.is_empty() {
            " DEGRADED"
        } else if r.egress_spec_fix {
            " +drop-fix"
        } else {
            ""
        };
        println!(
            "{:<20} {:>5} {:>6} {:>12} {:>11.3} {:>11} {:>10}{}",
            p.name,
            r.metrics.loc,
            r.bugs_total,
            r.bugs_after_infer,
            t0.elapsed().as_secs_f64(),
            r.bugs_after_fixes,
            r.keys_added,
            flag,
        );
        for d in &r.degraded {
            println!("{:<20}   degraded[{}]: {}", "", d.stage, d.error);
        }
    }
    println!();
}

/// §4.1: slicing ablation on the largest program (paper: 17155→7087
/// instructions, 36s→11s on switch.p4).
fn slicing() {
    println!("== §4.1 slicing ablation ({}) ==", bf4_corpus::largest().name);
    let src = bf4_corpus::largest().source;
    // Three configurations, mirroring the paper's "instructions relevant
    // for bug reachability" comparison: the raw instrumented program, the
    // classically optimized one, and the sliced one.
    for (label, optimize, slicing) in [
        ("instrumented only", false, false),
        ("slicing alone", false, true),
        ("optimizations alone", true, false),
        ("optimizations+slice", true, true),
    ] {
        let opts = VerifyOptions {
            optimize,
            slicing,
            fast_infer: false,
            infer: false,
            multi_table: false,
            fixes: false,
            ..VerifyOptions::default()
        };
        let t0 = Instant::now();
        let r = verify_isolated(src, &opts);
        let instrs = if slicing {
            r.metrics.instrs_after_slice
        } else {
            r.metrics.instrs_before_slice
        };
        println!(
            "{label:<20} instrs={:>6} (lowered {:>6}) bugs={} model-check time={:?}",
            instrs,
            r.metrics.instrs_lowered,
            r.bugs_total,
            t0.elapsed(),
        );
    }
    println!();
}

/// §4.2: Fast-Infer vs Infer runtime (paper: 1.5 s vs ~10 min).
fn infer_cmp() {
    println!("== §4.2 Fast-Infer vs Infer ({}) ==", bf4_corpus::largest().name);
    let src = bf4_corpus::largest().source;
    for (label, fast, full) in [("Fast-Infer only", true, false), ("Infer only", false, true)] {
        let opts = VerifyOptions {
            fast_infer: fast,
            infer: full,
            multi_table: false,
            fixes: false,
            ..VerifyOptions::default()
        };
        let t0 = Instant::now();
        let r = verify_isolated(src, &opts);
        println!(
            "{label:<18} specs={:>3} bugs-after={:>3} time={:?} (phase fast={:?} infer={:?})",
            r.annotations.specs.len(),
            r.bugs_after_infer,
            t0.elapsed(),
            r.timings.fast_infer,
            r.timings.infer,
        );
    }
    println!();
}

/// §4.2: multi-table heuristic contribution.
fn multitable() {
    println!("== §4.2 multi-table heuristic ==");
    for name in ["fabric_switch", "multi_tenant"] {
        let p = bf4_corpus::by_name(name).unwrap();
        let without = VerifyOptions {
            multi_table: false,
            fixes: false,
            ..VerifyOptions::default()
        };
        let with = VerifyOptions {
            multi_table: true,
            fixes: false,
            ..VerifyOptions::default()
        };
        let r0 = verify_isolated(p.source, &without);
        let r1 = verify_isolated(p.source, &with);
        println!(
            "{name}: bugs after single-table inference={} after multi-table={} (controlled by multi-table: {})",
            r0.bugs_after_infer,
            r1.bugs_after_infer,
            r0.bugs_after_infer.saturating_sub(r1.bugs_after_infer),
        );
    }
    println!();
}

/// §4.2: dontCare heuristic — encapsulation bugs trimmed.
fn dontcare() {
    println!("== §4.2 dontCare heuristic (destructive header copies) ==");
    let p = bf4_corpus::largest();
    for (label, dc) in [("without dontCare", false), ("with dontCare", true)] {
        let mut opts = VerifyOptions {
            fixes: false,
            ..VerifyOptions::default()
        };
        opts.lower.dontcare = dc;
        let r = verify_isolated(p.source, &opts);
        println!(
            "{label:<18} bugs={} after inference={}",
            r.bugs_total, r.bugs_after_infer
        );
    }
    println!();
}

/// §5: key-addition overhead (paper: +23 keys on 372 = 6%, 13/129 tables).
fn keyoverhead() {
    println!("== §5 key-addition overhead ({}) ==", bf4_corpus::largest().name);
    let p = bf4_corpus::largest();
    let r = verify_isolated(p.source, &VerifyOptions::default());
    let program = bf4_p4::frontend(p.source).unwrap();
    let total_keys: usize = program
        .controls
        .values()
        .flat_map(|c| &c.tables)
        .map(|t| t.keys.len())
        .sum();
    let total_tables: usize = program.controls.values().map(|c| c.tables.len()).sum();
    // validity keys are 1 bit each
    println!(
        "keys added: {} (+{:.1}% of {} existing keys); tables modified: {}/{} ({:.1}%)",
        r.keys_added,
        100.0 * r.keys_added as f64 / total_keys.max(1) as f64,
        total_keys,
        r.tables_modified,
        total_tables,
        100.0 * r.tables_modified as f64 / total_tables.max(1) as f64,
    );
    for f in &r.fixes {
        println!("  {}.{} += {:?}", f.control, f.table, f.keys);
    }
    println!();
}

/// §5.2: the p4v approximation — one monolithic reachability query.
fn p4v() {
    println!("== §5.2 p4v approximation ==");
    let p = bf4_corpus::largest();
    let program = bf4_p4::frontend(p.source).unwrap();
    let (cfg, _) =
        bf4_core::driver::build_cfg(&program, &VerifyOptions::default()).unwrap();
    let t0 = Instant::now();
    let res = bf4_core::baselines::p4v_check(&cfg, &[]);
    println!(
        "{}: any-bug={} ({} bug disjuncts) query={:?} total={:?}",
        p.name,
        res.any_bug,
        res.bug_count,
        res.query_time,
        t0.elapsed()
    );
    println!();
}

/// §5.2: the Vera approximation — concrete snapshot vs symbolic entries.
fn vera() {
    println!("== §5.2 Vera approximation ==");
    // Concrete snapshots are tractable on a moderate program (the paper:
    // 15 s per switch.p4 snapshot) while symbolic entries blow the path
    // budget on the large one (the paper: 30% coverage after 7 hours).
    let nat = bf4_corpus::by_name("simple_nat").unwrap();
    let program = bf4_p4::frontend(nat.source).unwrap();
    let (cfg, _) =
        bf4_core::driver::build_cfg(&program, &VerifyOptions::default()).unwrap();
    let snap = bf4_core::baselines::benign_snapshot(&cfg);
    let concrete = bf4_core::baselines::vera_explore(&cfg, Some(&snap), 100_000);
    println!(
        "simple_nat, concrete snapshot: paths={} bugs-hit={} exhausted={} time={:?}",
        concrete.paths,
        concrete.bugs_hit.len(),
        concrete.exhausted_budget,
        concrete.time
    );
    let big = bf4_corpus::largest();
    let program = bf4_p4::frontend(big.source).unwrap();
    let (cfg, _) =
        bf4_core::driver::build_cfg(&program, &VerifyOptions::default()).unwrap();
    let symbolic = bf4_core::baselines::vera_explore(&cfg, None, 2000);
    println!(
        "{}, symbolic entries: paths={} bugs-hit={} exhausted={} time={:?}   <- coverage collapse",
        big.name,
        symbolic.paths,
        symbolic.bugs_hit.len(),
        symbolic.exhausted_budget,
        symbolic.time
    );
    println!();
}

/// §5.3: shim latency over a 2000-update trace on the largest program.
fn shim() {
    println!("== §5.3 shim validation latency ==");
    let p = bf4_corpus::largest();
    let r = verify_isolated(p.source, &VerifyOptions::default());
    println!(
        "{}: {} assertions over {} asserted tables",
        p.name,
        r.annotations.specs.len(),
        r.annotations.tables.len()
    );
    let mut shim = bf4_shim::Shim::new(&r.annotations);
    let mut ctrl = bf4_shim::controller::Controller::new(
        &r.annotations,
        bf4_shim::controller::WorkloadConfig::default(),
    );
    let mut hist = bf4_obs::Histogram::default();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for u in ctrl.workload() {
        let t0 = Instant::now();
        match shim.apply(&u) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        hist.record(t0.elapsed());
    }
    let stats = bf4_shim::stats::from_histogram(&hist);
    println!("updates: {} accepted, {} rejected", accepted, rejected);
    println!("per-update validation latency: {stats}");
    println!();
}

/// The sharded shim's staged-load stress campaign, with its own gates:
/// zero acknowledged batches lost across the mid-campaign crash/reopen,
/// zero invalid rules admitted under any injected fault, and group-commit
/// journaling strictly beating one fsync per update.
fn shimbench() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut out: Option<String> = None;
    let mut config = bf4_shim::campaign::CampaignConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
                if out.is_none() {
                    eprintln!("report shimbench: --out expects a file path");
                    std::process::exit(2);
                }
            }
            "--dir" => {
                i += 1;
                config.dir = args.get(i).map(Into::into).unwrap_or_else(|| {
                    eprintln!("report shimbench: --dir expects a directory");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("report shimbench: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let p = bf4_corpus::largest();
    println!("== shimbench: sharded-shim stress campaign ({}) ==", p.name);
    let r = verify_isolated(p.source, &VerifyOptions::default());
    let report = bf4_shim::campaign::run_campaign(&r.annotations, &config).unwrap_or_else(|e| {
        eprintln!("report shimbench: campaign failed: {e}");
        std::process::exit(2);
    });
    print!("{}", report.render_text());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("report shimbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    let gates = report.gate_violations();
    if !gates.is_empty() {
        for g in &gates {
            eprintln!("shimbench gate: {g}");
        }
        std::process::exit(1);
    }
    println!("shimbench OK: nothing acknowledged was lost, nothing invalid admitted, group commit pays");
}

fn corpus_programs() -> Vec<(String, String)> {
    bf4_corpus::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect()
}

/// Normalized corpus reports: stdout is identical for any `--jobs` /
/// `--cache-cap` combination (ci.sh diffs it); engine stats go to stderr.
fn corpus() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut config = EngineConfig::default();
    let mut options = VerifyOptions::default();
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--solver-mode" => {
                i += 1;
                options.solver.mode = args
                    .get(i)
                    .and_then(|v| bf4_smt::SolverMode::parse(v))
                    .unwrap_or_else(|| {
                        eprintln!(
                            "report corpus: --solver-mode expects oneshot or incremental"
                        );
                        std::process::exit(2);
                    });
            }
            "--trace-out" => {
                i += 1;
                trace_out = args.get(i).cloned();
                if trace_out.is_none() {
                    eprintln!("report corpus: --trace-out expects an output path");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                i += 1;
                config.jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("report corpus: --jobs expects a count >= 1");
                        std::process::exit(2);
                    });
            }
            "--cache-cap" => {
                i += 1;
                config.cache_cap = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("report corpus: --cache-cap expects a number of entries");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("report corpus: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if trace_out.is_some() {
        bf4_obs::set_enabled(true);
    }
    let programs = corpus_programs();
    let (reports, stats) = verify_corpus(&programs, &options, &config);
    for ((name, _), report) in programs.iter().zip(&reports) {
        print!("{}", normalized_report(name, report));
    }
    eprint!("{stats}");
    if let Some(path) = trace_out {
        let jsonl = bf4_obs::render_jsonl(&bf4_obs::take_spans());
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("report corpus: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Read a `--trace-out` JSONL file into validated spans, exiting with the
/// offending line number on the first schema violation.
fn read_trace(path: &str) -> Vec<bf4_obs::TraceSpan> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        match bf4_obs::parse_line(line) {
            Ok(Some(s)) => spans.push(s),
            Ok(None) => {}
            Err(e) => {
                eprintln!("{path}:{}: {e}", lineno + 1);
                std::process::exit(1);
            }
        }
    }
    spans
}

/// Aggregate a trace file into the per-program / per-stage time table,
/// plus the cache's effectiveness as seen by the solver spans. With
/// `--request ID`, reconstruct one daemon request's flame instead: the
/// request-ID context tag every span under a `daemon.request` span
/// carries makes the subtree selectable without walking parent chains.
fn profile() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut path: Option<String> = None;
    let mut request: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--request" => {
                i += 1;
                request = args.get(i).cloned();
                if request.is_none() {
                    eprintln!("report profile: --request expects a request ID like req-3");
                    std::process::exit(2);
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("report profile: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: report profile <trace.jsonl> [--request ID]");
        std::process::exit(2);
    };
    let spans = read_trace(&path);
    if let Some(id) = request {
        let selected: Vec<bf4_obs::TraceSpan> = spans
            .into_iter()
            .filter(|s| s.tags.get("request").map(String::as_str) == Some(id.as_str()))
            .collect();
        if selected.is_empty() {
            eprintln!("report profile: no span tagged request={id} in {path}");
            std::process::exit(1);
        }
        println!("== request {id}: {} span(s) ==", selected.len());
        print!("{}", bf4_obs::render_flame(&selected));
        return;
    }
    print!("{}", bf4_obs::stage_table(&spans));
    // Cache accounting from `smt/query` spans, on the one definition all
    // surfaces share (DESIGN.md §11): a lookup answered from the cache is
    // a hit whether the entry was computed this session or warm-started
    // from a persistent store; `warm` breaks out the latter. This matches
    // the CLI summary line and the daemon's `stats` response.
    let (mut hits, mut warm, mut misses) = (0u64, 0u64, 0u64);
    for s in &spans {
        if s.layer != "smt" || s.name != "query" {
            continue;
        }
        match s.tags.get("cache").map(String::as_str) {
            Some("hit") => {
                hits += 1;
                if s.tags.get("warm").map(String::as_str) == Some("true") {
                    warm += 1;
                }
            }
            Some("miss") => misses += 1,
            _ => {}
        }
    }
    if hits + misses > 0 {
        println!(
            "cache: {hits} hit(s) [{warm} warm] / {misses} miss(es), hit-rate {:.1}%",
            100.0 * hits as f64 / (hits + misses) as f64
        );
    }
    // Group-commit accounting from `shim/journal_fsync` spans: each span
    // is one fsync covering `updates` journal appends, so everything past
    // the first rode along for free — the `shim.journal_fsync_amortized`
    // counter, reconstructed offline.
    let (mut fsyncs, mut amortized) = (0u64, 0u64);
    for s in &spans {
        if s.layer == "shim" && s.name == "journal_fsync" {
            fsyncs += 1;
            if let Some(n) = s.tags.get("updates").and_then(|v| v.parse::<u64>().ok()) {
                amortized += n.saturating_sub(1);
            }
        }
    }
    if fsyncs > 0 {
        println!(
            "shim: {fsyncs} journal fsync(s), {amortized} append(s) amortized onto a group commit"
        );
    }
}

/// Validate a trace file against the span schema; optionally require a
/// set of layers to actually appear (so a silently un-instrumented stage
/// fails CI instead of shrinking the trace).
fn trace_lint() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--require-layers" => {
                i += 1;
                match args.get(i) {
                    Some(list) => {
                        required.extend(list.split(',').map(|s| s.trim().to_string()))
                    }
                    None => {
                        eprintln!("report trace-lint: --require-layers expects a,b,...");
                        std::process::exit(2);
                    }
                }
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string())
            }
            other => {
                eprintln!("report trace-lint: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: report trace-lint <trace.jsonl> [--require-layers a,b,...]");
        std::process::exit(2);
    };
    let spans = read_trace(&path);
    let layers: std::collections::BTreeSet<&str> =
        spans.iter().map(|s| s.layer.as_str()).collect();
    for want in &required {
        if !layers.contains(want.as_str()) {
            eprintln!("{path}: no span with layer `{want}` (have: {layers:?})");
            std::process::exit(1);
        }
    }
    if required.iter().any(|l| l == "daemon") {
        lint_daemon_requests(&path, &spans);
    }
    println!(
        "trace-lint: {} span(s) OK, layers: {}",
        spans.len(),
        layers.into_iter().collect::<Vec<_>>().join(",")
    );
}

/// The daemon-mode lint: every `daemon.request` span must carry its
/// request-ID tag, and every pipeline span nested under one must carry
/// the *matching* tag — i.e. the context propagation that makes
/// `report profile --request` work never silently broke.
fn lint_daemon_requests(path: &str, spans: &[bf4_obs::TraceSpan]) {
    const PIPELINE_LAYERS: [&str; 5] = ["frontend", "ir", "core", "engine", "smt"];
    let by_id: std::collections::HashMap<u64, &bf4_obs::TraceSpan> =
        spans.iter().map(|s| (s.id, s)).collect();
    let mut requests = 0u64;
    for s in spans {
        if s.layer == "daemon" && s.name == "request" {
            if s.tags.get("request").map(String::is_empty).unwrap_or(true) {
                eprintln!("{path}: daemon.request span id={} has no request tag", s.id);
                std::process::exit(1);
            }
            requests += 1;
        }
    }
    if requests == 0 {
        eprintln!("{path}: layer `daemon` present but no daemon.request span");
        std::process::exit(1);
    }
    for s in spans {
        if !PIPELINE_LAYERS.contains(&s.layer.as_str()) {
            continue;
        }
        // Walk up to the enclosing request span, if any; spans outside a
        // request (e.g. startup warm-start work) are exempt.
        let mut cur = s.parent;
        let mut owner: Option<&bf4_obs::TraceSpan> = None;
        while let Some(pid) = cur {
            let Some(p) = by_id.get(&pid) else { break };
            if p.layer == "daemon" && p.name == "request" {
                owner = Some(p);
                break;
            }
            cur = p.parent;
        }
        let Some(req_span) = owner else { continue };
        let want = req_span.tags.get("request");
        match s.tags.get("request") {
            Some(got) if Some(got) == want => {}
            Some(got) => {
                eprintln!(
                    "{path}: span id={} ({}/{}) carries request={got} under request span {:?}",
                    s.id, s.layer, s.name, want
                );
                std::process::exit(1);
            }
            None => {
                eprintln!(
                    "{path}: span id={} ({}/{}) under request {:?} has no request tag",
                    s.id, s.layer, s.name, want
                );
                std::process::exit(1);
            }
        }
    }
    println!("trace-lint: {requests} daemon request(s), request-ID propagation OK");
}

/// Audit a chaos run from its `--trace-out` file: every injected fault
/// leaves a `fault`-layer span, and every solver query it degraded an
/// `injected=fault` tag, so the schedule's footprint is fully
/// reconstructible offline.
fn faults() {
    let Some(path) = std::env::args().nth(2) else {
        eprintln!("usage: report faults <trace.jsonl>");
        std::process::exit(2);
    };
    let spans = read_trace(&path);
    let mut sites: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for s in &spans {
        if s.layer != "fault" {
            continue;
        }
        let e = sites.entry(s.name.as_str()).or_default();
        e.0 += 1;
        // The `hit` tag is the 1-based hit index at fire time; the max
        // over all fires bounds how often the site was reached.
        if let Some(hit) = s.tags.get("hit").and_then(|h| h.parse::<u64>().ok()) {
            e.1 = e.1.max(hit);
        }
    }
    let degraded = spans
        .iter()
        .filter(|s| s.layer == "smt" && s.tags.get("injected").map(String::as_str) == Some("fault"))
        .count();
    println!("== injected faults in {path} ==");
    if sites.is_empty() {
        println!("no injected faults recorded (clean run, or tracing was off)");
        return;
    }
    println!("{:<24} {:>8} {:>10}", "site", "injected", "hits-seen");
    let mut total = 0u64;
    for (site, (fires, max_hit)) in &sites {
        println!("{site:<24} {fires:>8} {:>10}", if *max_hit > 0 { max_hit.to_string() } else { "?".into() });
        total += fires;
    }
    println!(
        "total: {total} injection(s) across {} site(s); {degraded} solver quer(ies) degraded to Unknown",
        sites.len()
    );
}

/// The standard chaos schedule shared with the engine's chaos suite and
/// the ci.sh gate: solver failures, worker panics and scheduler wedges.
fn chaos_plan(seed: u64) -> bf4_obs::FaultPlan {
    bf4_obs::FaultPlan::parse(&format!(
        "seed={seed},smt.backend_error=p0.05,smt.timeout=p0.05,\
         engine.job_panic=p0.02,engine.queue_wedge=p0.1"
    ))
    .expect("chaos plan parses")
}

/// Chaos gate: the corpus under seeded fault schedules must produce
/// reports identical to the fault-free run or conservatively degraded —
/// never a flipped verdict. Exit 1 on any violation.
fn chaos() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut seeds: Vec<u64> = vec![11, 23, 37];
    let mut config = EngineConfig {
        jobs: 4,
        cache_cap: 65536,
        ..EngineConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .map(|list| {
                        list.split(',')
                            .map(|s| s.trim().parse())
                            .collect::<Result<Vec<u64>, _>>()
                    })
                    .and_then(Result::ok)
                    .unwrap_or_else(|| {
                        eprintln!("report chaos: --seeds expects a,b,c");
                        std::process::exit(2);
                    });
            }
            "--jobs" => {
                i += 1;
                config.jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("report chaos: --jobs expects a count >= 1");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("report chaos: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    println!("== chaos gate: corpus under seeded fault schedules ==");
    let programs = corpus_programs();
    let options = VerifyOptions::default();
    let (base, _) = verify_corpus(&programs, &options, &config);
    let mut violations = 0usize;
    for seed in seeds {
        bf4_obs::fault::install(chaos_plan(seed));
        let (faulty, _) = verify_corpus(&programs, &options, &config);
        let stats = bf4_obs::fault::clear();
        let fires: u64 = stats.iter().map(|s| s.fires).sum();
        let mut identical = 0usize;
        let mut degraded = 0usize;
        for (i, (name, _)) in programs.iter().enumerate() {
            if let Err(e) = check_conservative(&base[i], &faulty[i]) {
                eprintln!("seed {seed}, {name}: VERDICT FLIP: {e}");
                violations += 1;
            } else if normalized_report(name, &base[i]) == normalized_report(name, &faulty[i]) {
                identical += 1;
            } else {
                degraded += 1;
            }
        }
        println!(
            "seed {seed}: {fires} fault(s) injected; {identical}/{} reports identical, {degraded} degraded conservatively",
            programs.len()
        );
        if fires == 0 {
            eprintln!("seed {seed}: the schedule never fired — the gate proved nothing");
            violations += 1;
        }
    }
    if violations > 0 {
        eprintln!("chaos gate FAILED: {violations} violation(s)");
        std::process::exit(1);
    }
    println!("chaos gate OK: faults only ever cost confidence, never invented it");
}

/// One cachebench run's cache-facing numbers, JSON-ready.
fn cache_run_json(label: &str, wall: f64, stats: &bf4_engine::EngineStats) -> String {
    format!(
        "  \"{label}\": {{\"wall_seconds\": {wall:.6}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"preloaded\": {}, \"insertions\": {}, \"corrupt_records\": {}}}",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate(),
        stats.cache.preloaded,
        stats.cache.insertions,
        stats.cache.corrupt_records,
    )
}

/// Cold-vs-warm persistent-cache comparison: run the corpus twice against
/// the same `--cache-dir`; the second run must warm-start from the store
/// and strictly beat the first run's hit rate with identical reports.
fn cachebench() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut dir: Option<std::path::PathBuf> = None;
    let mut out: Option<String> = None;
    let mut jobs = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = args.get(i).map(Into::into);
                if dir.is_none() {
                    eprintln!("report cachebench: --dir expects a directory");
                    std::process::exit(2);
                }
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
                if out.is_none() {
                    eprintln!("report cachebench: --out expects a file path");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("report cachebench: --jobs expects a count >= 1");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("report cachebench: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let (dir, scratch) = match dir {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("bf4-cachebench-{}", std::process::id())),
            true,
        ),
    };
    // Always start cold: a stale store would fake the warm-start delta.
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        jobs,
        cache_cap: 65536,
        cache_dir: Some(dir.clone()),
        cache_persist: true,
        ..EngineConfig::default()
    };
    println!("== cachebench: cold vs warm persistent query cache ==");
    let programs = corpus_programs();
    let options = VerifyOptions::default();
    let t0 = Instant::now();
    let (cold_reports, cold) = verify_corpus(&programs, &options, &config);
    let cold_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (warm_reports, warm) = verify_corpus(&programs, &options, &config);
    let warm_wall = t1.elapsed().as_secs_f64();
    for (label, wall, stats) in [("cold", cold_wall, &cold), ("warm", warm_wall, &warm)] {
        println!(
            "{label}: wall={wall:.3}s hit-rate={:.1}% ({} hit(s) / {} miss(es), {} preloaded)",
            100.0 * stats.cache.hit_rate(),
            stats.cache.hits,
            stats.cache.misses,
            stats.cache.preloaded,
        );
    }
    let store = warm.persist.unwrap_or_default();
    println!(
        "store: generation {}, {} loaded, {} corrupt, {} stale file(s), {} io error(s)",
        store.generation, store.loaded, store.corrupt_records, store.stale_files, store.io_errors
    );
    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"cache\",\n  \"programs\": {},\n  \"jobs\": {jobs},\n{},\n{},\n  \"store\": {{\"generation\": {}, \"loaded\": {}, \"corrupt_records\": {}, \"stale_files\": {}, \"io_errors\": {}}}\n}}\n",
            programs.len(),
            cache_run_json("cold", cold_wall, &cold),
            cache_run_json("warm", warm_wall, &warm),
            store.generation,
            store.loaded,
            store.corrupt_records,
            store.stale_files,
            store.io_errors,
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("report cachebench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The gates: a warm start must visibly pay off and must not change a
    // single report.
    let mut failed = false;
    for (i, (name, _)) in programs.iter().enumerate() {
        if normalized_report(name, &cold_reports[i]) != normalized_report(name, &warm_reports[i]) {
            eprintln!("cachebench: {name}: warm-start changed the report");
            failed = true;
        }
    }
    if warm.cache.preloaded == 0 {
        eprintln!("cachebench: the warm run preloaded nothing — the store did not round-trip");
        failed = true;
    }
    if warm.cache.hit_rate() <= cold.cache.hit_rate() {
        eprintln!(
            "cachebench: warm hit rate {:.4} must strictly exceed cold {:.4}",
            warm.cache.hit_rate(),
            cold.cache.hit_rate()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("cachebench OK: warm-start hit rate strictly exceeds cold");
}

/// Pull one run-delta counter out of the engine's metrics snapshot.
fn solver_counter(stats: &bf4_engine::EngineStats, name: &str) -> u64 {
    stats
        .obs_metrics
        .as_ref()
        .and_then(|m| m.counters.get(name).copied())
        .unwrap_or(0)
}

/// Corpus wall-clock in all three solver modes. The gates are the PR's
/// solver hot-path criteria: incremental must strictly beat oneshot while
/// visibly reusing solver contexts, and no mode may change a single
/// normalized report (verdicts are mode-independent by contract).
fn solverbench() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut out: Option<String> = None;
    let mut jobs = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
                if out.is_none() {
                    eprintln!("report solverbench: --out expects a file path");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("report solverbench: --jobs expects a count >= 1");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("report solverbench: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // Metrics give us the context-reuse counters per run (the
    // engine snapshots a before/after delta around each corpus pass).
    bf4_obs::set_metrics(true);
    let config = EngineConfig {
        jobs,
        ..EngineConfig::default()
    };
    println!("== solverbench: corpus wall-clock per solver mode (jobs={jobs}) ==");
    let programs = corpus_programs();
    let modes = [bf4_smt::SolverMode::Oneshot, bf4_smt::SolverMode::Incremental];
    let mut runs = Vec::new();
    for mode in modes {
        let mut options = VerifyOptions::default();
        options.solver.mode = mode;
        let t = Instant::now();
        let (reports, stats) = verify_corpus(&programs, &options, &config);
        runs.push((mode, t.elapsed().as_secs_f64(), reports, stats));
    }
    let oneshot_wall = runs[0].1;
    for (mode, wall, _, stats) in &runs {
        let speedup = oneshot_wall / wall.max(1e-9);
        println!(
            "{:<11} wall={wall:>7.3}s speedup={speedup:>5.2}x ctx-reuse={} ctx-reset={}",
            format!("{mode:?}").to_lowercase(),
            solver_counter(stats, "smt.ctx.reuse"),
            solver_counter(stats, "smt.ctx.reset"),
        );
    }
    // The identity gate: the paper's verdicts may not depend on how the
    // solver context is managed.
    let mut identical = true;
    for (mode, _, reports, _) in &runs[1..] {
        for (i, (name, _)) in programs.iter().enumerate() {
            if normalized_report(name, &runs[0].2[i]) != normalized_report(name, &reports[i]) {
                eprintln!("solverbench: {name}: {mode:?} changed the report vs oneshot");
                identical = false;
            }
        }
    }
    let inc_wall = runs[1].1;
    let inc_speedup = oneshot_wall / inc_wall.max(1e-9);
    let inc_reuse = solver_counter(&runs[1].3, "smt.ctx.reuse");
    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"solver\",\n  \"programs\": {},\n  \"jobs\": {jobs},\n  \"oneshot\": {{\"wall_seconds\": {oneshot_wall:.6}}},\n  \"incremental\": {{\"wall_seconds\": {inc_wall:.6}, \"speedup\": {inc_speedup:.4}, \"ctx_reuse\": {inc_reuse}, \"ctx_reset\": {}}},\n  \"reports_identical\": {identical}\n}}\n",
            programs.len(),
            solver_counter(&runs[1].3, "smt.ctx.reset"),
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("report solverbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    let mut failed = !identical;
    if inc_wall >= oneshot_wall {
        eprintln!(
            "solverbench: incremental wall {inc_wall:.3}s must strictly beat oneshot {oneshot_wall:.3}s"
        );
        failed = true;
    }
    if inc_reuse == 0 {
        eprintln!("solverbench: the incremental run reused no solver contexts");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("solverbench OK: incremental strictly beats oneshot with identical reports");
}

/// Cold full-verify vs warm incremental re-verify through an in-process
/// daemon: submit every corpus program cold, apply a scripted edit to
/// each, resubmit (incremental), and compare against a cold one-shot
/// verification of the same edited sources. The gates are the PR's
/// incremental soundness criteria: every daemon verdict byte-identical to
/// the one-shot normalized report, the skip counter proving not every bug
/// re-verified, and the warm pass strictly faster than the cold one.
fn daemonbench() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
                if out.is_none() {
                    eprintln!("report daemonbench: --out expects a file path");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("report daemonbench: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("== daemonbench: cold full-verify vs warm incremental re-verify ==");
    let programs = corpus_programs();
    let options = VerifyOptions::default();
    // The scripted edit: a trailing comment — the IR is unchanged, which
    // is the watch-mode hot path (save, re-verify, nothing moved).
    let edited: Vec<(String, String)> = programs
        .iter()
        .map(|(name, source)| (name.clone(), format!("{source}\n// daemonbench edit\n")))
        .collect();

    let mut daemon = bf4_daemon::Daemon::new(bf4_daemon::DaemonConfig::default());
    let t0 = Instant::now();
    for (name, source) in &programs {
        daemon.submit(name, source);
    }
    let cold_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let warm: Vec<bf4_daemon::SubmitOutcome> = edited
        .iter()
        .map(|(name, source)| daemon.submit(name, source))
        .collect();
    let warm_wall = t1.elapsed().as_secs_f64();
    let skips: u64 = warm.iter().map(|o| o.skips).sum();
    let reverified: u64 = warm.iter().map(|o| o.reverified).sum();

    // The baseline the warm pass must beat: verifying the edited sources
    // from scratch, exactly what a non-incremental `bf4` run would do.
    let t2 = Instant::now();
    let baseline: Vec<String> = edited
        .iter()
        .map(|(name, source)| normalized_report(name, &verify_isolated(source, &options)))
        .collect();
    let baseline_wall = t2.elapsed().as_secs_f64();

    println!("cold submit (all programs):        {cold_wall:.3}s");
    println!(
        "warm incremental resubmit (edits): {warm_wall:.3}s ({skips} skip(s), {reverified} re-verified)"
    );
    println!("cold one-shot of the same edits:   {baseline_wall:.3}s");

    // Telemetry overhead: the same cold+warm pass through the full
    // request path (`handle`, which mints request IDs and records the
    // per-request telemetry), once with the stack disabled and once with
    // metrics + persistent time-series + SLO evaluation all on. The
    // design target is 5% (DESIGN.md §14); the CI gate is lenient so
    // scheduler noise on short warm passes cannot flake the build.
    let warm_pass = |telemetry: bool| -> f64 {
        let dir = std::env::temp_dir().join(format!(
            "bf4-daemonbench-telemetry-{}-{}",
            std::process::id(),
            telemetry
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = if telemetry {
            let _ = std::fs::create_dir_all(&dir);
            bf4_daemon::DaemonConfig {
                cache_dir: Some(dir.clone()),
                // Thresholds no healthy run crosses: the evaluation cost
                // is measured, the alert path stays quiet.
                slo: Some(
                    bf4_obs::slo::SloSpec::parse(
                        "p99_ms=600000,unknown_rate=1,degraded_rate=1",
                    )
                    .expect("static spec parses"),
                ),
                ..bf4_daemon::DaemonConfig::default()
            }
        } else {
            bf4_daemon::DaemonConfig::default()
        };
        bf4_obs::set_metrics(telemetry);
        let mut d = bf4_daemon::Daemon::new(config);
        let submit = |d: &mut bf4_daemon::Daemon, name: &str, source: &str| {
            d.handle(bf4_daemon::proto::Request::Submit {
                program: name.to_string(),
                source: source.to_string(),
            });
        };
        for (name, source) in &programs {
            submit(&mut d, name, source);
        }
        let t = Instant::now();
        for (name, source) in &edited {
            submit(&mut d, name, source);
        }
        let wall = t.elapsed().as_secs_f64();
        bf4_obs::set_metrics(false);
        let _ = std::fs::remove_dir_all(&dir);
        wall
    };
    // Best of two per mode: the warm pass is short, so one scheduler
    // hiccup would otherwise dominate the ratio.
    let telemetry_off = warm_pass(false).min(warm_pass(false));
    let telemetry_on = warm_pass(true).min(warm_pass(true));
    let overhead = telemetry_on / telemetry_off.max(1e-9);
    println!(
        "telemetry overhead: warm pass {telemetry_off:.3}s off vs {telemetry_on:.3}s on \
         ({overhead:.3}x; design target 1.05x)"
    );

    let mut failed = false;
    if overhead > 1.25 {
        eprintln!(
            "daemonbench: telemetry overhead {overhead:.3}x exceeds the 1.25x gate \
             (design target is 1.05x)"
        );
        failed = true;
    }
    for (o, expect) in warm.iter().zip(&baseline) {
        if &o.normalized != expect {
            eprintln!("daemonbench: {}: incremental verdict differs from one-shot", o.program);
            failed = true;
        }
    }
    if skips == 0 {
        eprintln!("daemonbench: the warm pass skipped nothing — it was not incremental");
        failed = true;
    }
    if warm_wall >= baseline_wall {
        eprintln!(
            "daemonbench: warm incremental {warm_wall:.3}s must be strictly faster than the \
             cold one-shot {baseline_wall:.3}s"
        );
        failed = true;
    }

    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"daemon\",\n  \"programs\": {},\n  \"cold\": {{\"wall_seconds\": {cold_wall:.6}}},\n  \"warm_incremental\": {{\"wall_seconds\": {warm_wall:.6}, \"skips\": {skips}, \"reverified\": {reverified}}},\n  \"cold_one_shot_of_edits\": {{\"wall_seconds\": {baseline_wall:.6}}},\n  \"telemetry\": {{\"off_wall_seconds\": {telemetry_off:.6}, \"on_wall_seconds\": {telemetry_on:.6}, \"overhead\": {overhead:.4}}},\n  \"verdicts_identical\": {},\n  \"speedup\": {:.2}\n}}\n",
            programs.len(),
            !failed,
            baseline_wall / warm_wall.max(1e-9),
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("report daemonbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "daemonbench OK: warm incremental strictly faster ({:.1}x), verdicts identical",
        baseline_wall / warm_wall.max(1e-9)
    );
}

/// One-shot normalized report of a single program file — the reference a
/// daemon verdict must be byte-identical to (ci.sh diffs the two).
fn normalize_cmd() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--name" => {
                i += 1;
                name = args.get(i).cloned();
                if name.is_none() {
                    eprintln!("report normalize: --name expects a program name");
                    std::process::exit(2);
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("report normalize: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: report normalize <file.p4> [--name N]");
        std::process::exit(2);
    };
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("report normalize: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let name = name.unwrap_or_else(|| {
        std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(&path)
            .to_string()
    });
    print!(
        "{}",
        normalized_report(&name, &verify_isolated(&source, &VerifyOptions::default()))
    );
}

/// Evaluate SLOs over the tail of a daemon's persistent time-series: the
/// offline twin of the daemon's own in-flight evaluation, for postmortems
/// and CI gates. Exit 1 when any objective is violated.
fn slo_cmd() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut path: Option<String> = None;
    let mut spec: Option<bf4_obs::slo::SloSpec> = None;
    let mut window = 64usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--slo" => {
                i += 1;
                match args.get(i).map(|v| bf4_obs::slo::SloSpec::parse(v)) {
                    Some(Ok(s)) => spec = Some(s),
                    Some(Err(e)) => {
                        eprintln!("report slo: bad --slo spec: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("report slo: --slo expects a spec like p99_ms=500");
                        std::process::exit(2);
                    }
                }
            }
            "--window" => {
                i += 1;
                window = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("report slo: --window expects a count >= 1");
                        std::process::exit(2);
                    });
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("report slo: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let (Some(path), Some(spec)) = (path, spec) else {
        eprintln!("usage: report slo <tsdb.bf4t> --slo SPEC [--window N]");
        std::process::exit(2);
    };
    let loaded = bf4_obs::tsdb::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
        eprintln!("report slo: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let skip = loaded.samples.len().saturating_sub(window);
    let tail = &loaded.samples[skip..];
    println!(
        "== SLO over {path}: {} of {} sample(s) ({} corrupt line(s) dropped) ==",
        tail.len(),
        loaded.samples.len(),
        loaded.corrupt_records
    );
    let mut hist = bf4_obs::Histogram::default();
    for s in tail {
        hist.record(std::time::Duration::from_micros(s.wall_micros));
    }
    if hist.count() > 0 {
        println!(
            "latency: p50<{}us p90<{}us p99<{}us over {} request(s)",
            hist.quantile_bound_micros(0.5),
            hist.quantile_bound_micros(0.9),
            hist.quantile_bound_micros(0.99),
            hist.count()
        );
        let degraded = tail.iter().filter(|s| s.degraded).count();
        let (bugs, undecided): (u64, u64) =
            tail.iter().fold((0, 0), |(b, u), s| (b + s.bugs, u + s.undecided));
        println!(
            "rates: degraded {degraded}/{}, undecided {undecided}/{bugs} bug check(s)",
            tail.len()
        );
    }
    let violations = spec.evaluate(tail);
    if violations.is_empty() {
        println!("slo OK: every objective holds over the window");
        return;
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    std::process::exit(1);
}

/// Validate a Prometheus text exposition — the gate behind the ci.sh
/// metrics-endpoint smoke (whatever the HTTP responder served must parse
/// under the same grammar `bf4_obs::expose::render` writes).
fn expose_lint() {
    let Some(path) = std::env::args().nth(2) else {
        eprintln!("usage: report expose-lint <file>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("report expose-lint: cannot read {path}: {e}");
        std::process::exit(2);
    });
    match bf4_obs::expose::parse(&text) {
        Ok(exp) => println!(
            "expose-lint: {} sample(s) across {} metric(s) OK",
            exp.samples.len(),
            exp.types.len()
        ),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Look up a dotted path (`warm.hit_rate`) in a parsed bench JSON.
fn bench_field(v: &bf4_obs::json::Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for key in path.split('.') {
        cur = cur.as_obj()?.get(key)?;
    }
    match cur {
        bf4_obs::json::Value::Num(n) => Some(*n),
        bf4_obs::json::Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Regression gate over BENCH_*.json files: fresh numbers may not be
/// *worse* than the committed baseline beyond the tolerance band. Only
/// scale-free metrics are compared — hit rates, speedups, skip counts and
/// verdict identity travel across machines; raw wall-clock does not.
fn regress_cmd() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut fresh_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fresh" => {
                i += 1;
                fresh_path = args.get(i).cloned();
            }
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned();
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("report regress: --tolerance expects a non-negative number");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("report regress: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let (Some(fresh_path), Some(baseline_path)) = (fresh_path, baseline_path) else {
        eprintln!("usage: report regress --fresh FILE --baseline FILE [--tolerance T]");
        std::process::exit(2);
    };
    let read = |p: &str| -> bf4_obs::json::Value {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("report regress: cannot read {p}: {e}");
            std::process::exit(2);
        });
        bf4_obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("report regress: {p} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let fresh = read(&fresh_path);
    let baseline = read(&baseline_path);
    let kind = fresh
        .as_obj()
        .and_then(|o| o.get("bench"))
        .and_then(bf4_obs::json::Value::as_str)
        .unwrap_or_else(|| {
            eprintln!("report regress: {fresh_path} has no \"bench\" kind");
            std::process::exit(2);
        })
        .to_string();
    let base_kind = baseline
        .as_obj()
        .and_then(|o| o.get("bench"))
        .and_then(bf4_obs::json::Value::as_str);
    if base_kind != Some(kind.as_str()) {
        eprintln!("report regress: baseline {baseline_path} is not a \"{kind}\" bench");
        std::process::exit(2);
    }
    // (metric path, direction): `Lower` fails when fresh drops below
    // baseline*(1-tol) - eps, `Upper` when it rises above
    // baseline*(1+tol) + eps. Booleans encode as 0/1 and use `Lower`.
    enum Dir {
        Lower,
        Upper,
    }
    let checks: Vec<(&str, Dir)> = match kind.as_str() {
        "cache" => vec![
            ("cold.hit_rate", Dir::Lower),
            ("warm.hit_rate", Dir::Lower),
            ("warm.preloaded", Dir::Lower),
            ("store.corrupt_records", Dir::Upper),
            ("store.io_errors", Dir::Upper),
        ],
        "daemon" => vec![
            ("verdicts_identical", Dir::Lower),
            ("speedup", Dir::Lower),
            ("warm_incremental.skips", Dir::Lower),
            ("telemetry.overhead", Dir::Upper),
        ],
        "solver" => vec![
            ("reports_identical", Dir::Lower),
            ("incremental.speedup", Dir::Lower),
            ("incremental.ctx_reuse", Dir::Lower),
        ],
        "shim" => vec![
            ("throughput.speedup", Dir::Lower),
            ("recovery.acked_lost", Dir::Upper),
            ("recovery.mismatched", Dir::Upper),
            ("recovery.digest_match", Dir::Lower),
            ("audit.invalid_admitted", Dir::Upper),
            ("faults.fires", Dir::Lower),
        ],
        other => {
            eprintln!("report regress: unknown bench kind `{other}`");
            std::process::exit(2);
        }
    };
    println!("== regress: {fresh_path} vs baseline {baseline_path} (tolerance {tolerance}) ==");
    let mut failed = false;
    for (path, dir) in checks {
        let Some(base) = bench_field(&baseline, path) else {
            // An older baseline simply predates the metric; nothing to
            // compare against.
            println!("  {path:<28} (not in baseline, skipped)");
            continue;
        };
        let Some(now) = bench_field(&fresh, path) else {
            eprintln!("  {path:<28} MISSING from the fresh bench");
            failed = true;
            continue;
        };
        // The additive epsilon keeps zero baselines meaningful (a purely
        // relative band around 0 would reject any nonzero fresh value).
        let eps = 1e-9;
        let ok = match dir {
            Dir::Lower => now >= base * (1.0 - tolerance) - eps,
            Dir::Upper => now <= base * (1.0 + tolerance) + tolerance.max(eps),
        };
        let verdict = if ok { "ok" } else { "REGRESSED" };
        println!("  {path:<28} fresh={now:.4} baseline={base:.4} {verdict}");
        if !ok {
            failed = true;
        }
    }
    if failed {
        eprintln!("regress gate FAILED");
        std::process::exit(1);
    }
    println!("regress OK: no scale-free metric regressed beyond the band");
}

/// Speedup-vs-jobs table over the corpus, with per-stage latencies and
/// cache statistics from the engine.
fn engine() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== engine scaling: corpus wall-clock vs worker count ==");
    println!("(host has {cores} core(s); speedup beyond that is not expected)");
    let programs = corpus_programs();
    let options = VerifyOptions::default();
    let mut base = None;
    let mut last_stats = None;
    for jobs in [1usize, 2, 4] {
        for cache_cap in [0usize, 1 << 16] {
            let config = EngineConfig {
                jobs,
                cache_cap,
                ..EngineConfig::default()
            };
            let (_, stats) = verify_corpus(&programs, &options, &config);
            let wall = stats.wall.as_secs_f64();
            if jobs == 1 && cache_cap == 0 {
                base = Some(wall);
            }
            let speedup = base.map_or(1.0, |b| b / wall.max(1e-9));
            println!(
                "jobs={jobs} cache={:<5} wall={wall:>7.3}s speedup={speedup:>5.2}x cache-hit-rate={:>5.1}% steals={}",
                if cache_cap == 0 { "off" } else { "on" },
                100.0 * stats.cache.hit_rate(),
                stats.steals,
            );
            if jobs == 4 && cache_cap != 0 {
                last_stats = Some(stats);
            }
        }
    }
    if let Some(stats) = last_stats {
        println!("-- engine stats at jobs=4, cache on --");
        print!("{stats}");
    }
    println!();
}

/// §5.1: the three interesting-bug case studies on fabric_switch.
fn casestudies() {
    println!("== §5.1 case studies (fabric_switch) ==");
    let p = bf4_corpus::largest();
    let r = verify_isolated(p.source, &VerifyOptions::default());
    // 1. missing assumptions: validate_outer_ethernet bugs controlled by
    //    Infer with existing keys.
    let voe_controlled = r
        .bugs
        .iter()
        .filter(|b| {
            b.table.as_deref() == Some("validate_outer_ethernet")
                && b.status == bf4_core::BugStatus::Controlled
        })
        .count();
    println!("missing assumptions: {voe_controlled} validate_outer_ethernet bug(s) controlled by inferred assertions");
    // 2. missing validity: fabric_ingress_dst_lkp needs a key fix.
    let fabric_fix = r
        .fixes
        .iter()
        .find(|f| f.table == "fabric_ingress_dst_lkp");
    match fabric_fix {
        Some(f) => println!(
            "missing validity: fabric_ingress_dst_lkp gains keys {:?}",
            f.keys
        ),
        None => println!("missing validity: fabric_ingress_dst_lkp needed no fix (unexpected)"),
    }
    // 3. egress-spec-not-set: the special drop fix.
    println!(
        "egress spec not set: special drop fix suggested = {}",
        r.egress_spec_fix
    );
    println!();
}
