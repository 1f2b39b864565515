//! `corpus`: the paper's compile-time job. All 22 corpus programs in
//! Table-1 order, each verified by one `bf4_engine::verify_one` call with
//! `jobs = nproc` and a fresh 65536-entry query cache, closed loop, one
//! caller. Every report is checked against its `bf4_corpus` `Expected`.
//! Set-up loads the corpus and checks that each program passes the
//! frontend. It takes milliseconds, so its repetitions are spread over the
//! run, a few before every verdict: a single burst at the start would time
//! only the host's speed in that one second.
//!
//! The programs are fixed, so the seed selects nothing here; it is
//! recorded with the result like on every workload.

use crate::rollup;
use crate::util::{self, sampled, Outcome, Phase, Tally};
use crate::{Args, LayerCounts};
use bf4_core::driver::{Report, VerifyOptions};
use bf4_corpus::Expected;
use bf4_engine::EngineConfig;
use std::time::Instant;

/// `bf4d`'s default query-cache capacity.
const CACHE_CAP: usize = 65536;
/// Set-up repetitions before the first verdict and before each later one.
const SETUP_REPS: usize = 3;

struct State {
    programs: Vec<(String, String, Expected)>,
    options: VerifyOptions,
    config: EngineConfig,
}

/// Load the corpus and check that every program passes the frontend
/// before anything is timed.
fn setup(tally: &mut Tally) -> State {
    let programs: Vec<(String, String, Expected)> = bf4_corpus::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string(), p.expect))
        .collect();
    for (name, source, _) in &programs {
        let parsed = bf4_p4::frontend(source);
        tally.check(parsed.is_ok(), || {
            format!("corpus set-up {name}: frontend rejected the program")
        });
    }
    State {
        programs,
        options: VerifyOptions::default(),
        config: EngineConfig {
            jobs: util::cores(),
            cache_cap: CACHE_CAP,
            ..EngineConfig::default()
        },
    }
}

/// Does `r` match the Table-1 row it must reproduce?
pub fn expected_mismatch(r: &Report, e: &Expected) -> Option<String> {
    let got = (
        r.bugs_total,
        r.bugs_after_infer,
        r.bugs_after_fixes,
        r.keys_added,
        r.egress_spec_fix,
    );
    let want = (
        e.bugs_total,
        e.bugs_after_infer,
        e.bugs_after_fixes,
        e.keys_added,
        e.egress_spec_fix,
    );
    if got != want {
        return Some(format!(
            "(total, after infer, after fixes, keys, egress fix) = {got:?}, expected {want:?}"
        ));
    }
    if !r.degraded.is_empty() {
        return Some(format!("degraded stage {}", r.degraded[0].stage));
    }
    if r.bugs_undecided != 0 {
        return Some(format!("{} undecided bug(s)", r.bugs_undecided));
    }
    None
}

/// Engine and IR counts of a phase, for the traced roll-up.
#[derive(Default)]
struct Acc {
    jobs: u64,
    steals: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    slice_before: usize,
    slice_after: usize,
}

/// Whole passes over the corpus until `seconds` have elapsed. With
/// `setups_s`, every verdict after the first follows a block of set-up
/// repetitions whose times go there. Only the verdicts and their checks
/// are timed, each inside a `bench/phase` span.
fn phase(
    s: &State,
    seconds: f64,
    tally: &mut Tally,
    acc: &mut Acc,
    mut setups_s: Option<&mut Vec<f64>>,
) -> Phase {
    let mut out = Phase::default();
    let t0 = Instant::now();
    while out.ops() == 0 || t0.elapsed().as_secs_f64() < seconds {
        // Memory is taken per pass and the largest pass counts: each
        // `verify_one` starts fresh worker threads, and the allocator
        // arenas they get move one pass's peak between two levels about
        // 15 MiB apart.
        util::reset_peak_rss();
        let mut pass_s = 0.0;
        for (i, (name, source, expect)) in s.programs.iter().enumerate() {
            if out.ops() > 0 {
                if let Some(setups) = setups_s.as_deref_mut() {
                    setups.extend(util::repeat_setup(SETUP_REPS, |_| setup(tally)).1);
                }
            }
            let t = Instant::now();
            let _sp = bf4_obs::span("bench", "phase");
            let (report, stats) = {
                let _call = rollup::call_span("engine", "verify_one");
                bf4_engine::verify_one(name, source, &s.options, &s.config)
            };
            out.record(i, t.elapsed().as_secs_f64() * 1e3);
            let _check = bf4_obs::span("bench", "check");
            let bad = expected_mismatch(&report, expect);
            tally.check(bad.is_none(), || {
                format!("corpus {name}: {}", bad.unwrap_or_default())
            });
            acc.jobs += stats.jobs_run;
            acc.steals += stats.steals;
            acc.hits += stats.cache.hits;
            acc.misses += stats.cache.misses;
            acc.insertions += stats.cache.insertions;
            acc.slice_before += report.metrics.instrs_before_slice;
            acc.slice_after += report.metrics.instrs_after_slice;
            pass_s += t.elapsed().as_secs_f64();
        }
        out.rounds_s.push(pass_s);
        out.peak_rss_mb = out.peak_rss_mb.max(util::peak_rss_mb());
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (state, mut setups_s) = util::repeat_setup(SETUP_REPS, |_| setup(&mut tally));
    let mut acc = Acc::default();
    let untraced = phase(
        &state,
        args.seconds,
        &mut tally,
        &mut acc,
        Some(&mut setups_s),
    );
    let named = vec![
        sampled(
            "corpus_pass_s",
            util::median(&untraced.rounds_s),
            "s",
            untraced.rounds_s.len(),
        ),
        sampled(
            "verdict_p50_ms",
            untraced.op_quantile_ms(0.50),
            "ms",
            untraced.ops(),
        ),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let mut acc = Acc::default();
        let tracing = rollup::begin();
        let traced = phase(&state, args.seconds, &mut tally, &mut acc, None);
        let delta = tracing.end();
        let (spans, windows) = rollup::collect();
        let busy = rollup::root_busy_us(&spans, "engine", &windows);
        let counts = LayerCounts {
            slice_keep_ratio: util::ratio(acc.slice_after as f64, acc.slice_before as f64),
            engine_jobs: acc.jobs as f64,
            engine_steals: acc.steals as f64,
            engine_busy_ratio: util::ratio(
                busy,
                rollup::total_us(&windows) * state.config.jobs as f64,
            ),
            cache_hit_ratio: util::ratio(acc.hits as f64, (acc.hits + acc.misses) as f64),
            cache_insertions: acc.insertions as f64,
            ..LayerCounts::default()
        };
        let overhead = util::ratio(traced.per_op_ms(), untraced.per_op_ms());
        layers = crate::layer_metrics(&spans, &windows, traced.ops(), &delta, &counts, overhead);
    }
    Ok(Outcome {
        setups_s,
        tally,
        phase: untraced,
        named,
        layers,
    })
}
