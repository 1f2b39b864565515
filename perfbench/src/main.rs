//! The repository benchmark.
//!
//! ```text
//! bf4-perfbench --workload corpus|daemon_edits|shim_updates --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the root of the source tree (it builds against `crates/`
//! and keeps its scratch files under `.bench_run/`). It prints a
//! human-readable record, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end figures of an untraced run; with
//! `--trace 1` they are the per-layer figures of a traced run that
//! follows an untraced one. See `README.md` beside this crate.

mod corpus;
mod daemon;
mod rollup;
mod shim;
mod util;

use util::{metric, quantile, sampled, Metric, Outcome};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: bf4-perfbench --workload corpus|daemon_edits|shim_updates --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bf4-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The workloads read the program sources and write scratch files
    // relative to the root of the source tree.
    if !std::path::Path::new("crates/corpus/programs").is_dir() {
        eprintln!("bf4-perfbench: run from the root of the bf4 source tree");
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "corpus" => corpus::run(&args),
        "daemon_edits" => daemon::run(&args),
        "shim_updates" => shim::run(&args),
        other => {
            eprintln!("bf4-perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bf4-perfbench: {}: set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report(&args, &outcome);
}

/// The end-to-end figures every workload reports. An operation is one
/// verdict (`corpus`), one submit (`daemon_edits`) or one 8-update batch
/// (`shim_updates`). The percentiles are taken over the distinct
/// operations of each one's median latency (`Phase::op_quantile_ms`).
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let n = o.phase.ops();
    vec![
        sampled("setup_s", util::median(&o.setups_s), "s", o.setups_s.len()),
        sampled("op_p50_ms", o.phase.op_quantile_ms(0.50), "ms", n),
        sampled("op_p90_ms", o.phase.op_quantile_ms(0.90), "ms", n),
        metric("ops_per_s", o.phase.ops_per_s(), "1/s"),
        metric("peak_rss_mb", o.phase.peak_rss_mb, "MiB"),
    ]
}

fn report(args: &Args, o: &Outcome) {
    let t = &o.tally;
    println!(
        "bf4-perfbench workload={} seed={} seconds={} trace={} cores={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::cores(),
        util::commit()
    );
    println!(
        "checks: attempted={} failed={} fail_ratio={:.6}",
        t.attempted,
        t.failed,
        util::ratio(t.failed as f64, t.attempted as f64)
    );
    for r in &t.reasons {
        println!("  FAILED: {r}");
    }
    println!(
        "timed: {} operations, {} distinct",
        o.phase.ops(),
        o.phase.distinct_ops()
    );
    let e2e = end_to_end(o);
    let print = |title: &str, ms: &[Metric]| {
        println!("{title}:");
        for m in ms {
            match m.samples {
                Some(n) => println!("  {:<26} {:>14.6} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit),
            }
        }
    };
    print("end-to-end (untraced)", &e2e);
    print("end-to-end, workload names (untraced)", &o.named);
    if args.trace {
        print("per-layer (traced; times per operation)", &o.layers);
    }
    let shown = if args.trace { &o.layers } else { &e2e };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                bf4_obs::json::escape(m.name),
                json_number(m.value),
                bf4_obs::json::escape(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per-layer inputs a workload gathers besides the span roll-up; layers
/// that do no work on a workload stay zero.
#[derive(Default)]
pub struct LayerCounts {
    pub slice_keep_ratio: f64,
    pub engine_jobs: f64,
    pub engine_steals: f64,
    pub engine_busy_ratio: f64,
    pub cache_hit_ratio: f64,
    pub cache_insertions: f64,
    pub daemon_transport_ms: f64,
    pub daemon_reuse_ratio: f64,
    pub daemon_reverified: f64,
    pub shim_fsyncs_per_batch: f64,
    pub shim_accept_ratio: f64,
    pub shim_live_rules: f64,
}

/// Assemble the per-layer figures of a traced phase. Self times and
/// counts are per operation, so they do not scale with run length; the
/// self-time figures plus `bench.self_ms` add up to `bench.phase_ms`.
pub fn layer_metrics(
    spans: &[bf4_obs::SpanRecord],
    windows: &[rollup::Window],
    ops: usize,
    delta: &bf4_obs::MetricsSnapshot,
    c: &LayerCounts,
    overhead: f64,
) -> Vec<Metric> {
    let roll = rollup::rollup(spans, windows);
    let per_op = |v: f64| util::ratio(v, ops as f64);
    let self_time = |name: &'static str| {
        let us = roll.self_us[name];
        if name.ends_with("_us") {
            per_op(us)
        } else {
            per_op(us) / 1e3
        }
    };
    let unit = |name: &str| if name.ends_with("_us") { "us" } else { "ms" };
    let counter = |name: &str| per_op(delta.counters.get(name).copied().unwrap_or(0) as f64);
    let checks = rollup::durations(spans, "smt", "check", windows);
    let queue_wait_us = delta
        .hists
        .get("engine.queue_wait")
        .map_or(0.0, |h| h.sum_micros as f64);
    let s = |name: &'static str| metric(name, self_time(name), unit(name));
    vec![
        s("p4.self_ms"),
        s("ir.self_ms"),
        metric("ir.slice_keep_ratio", c.slice_keep_ratio, "ratio"),
        s("core.prepare_ms"),
        s("core.infer_ms"),
        s("core.unsafe_defaults_ms"),
        s("core.fixes_ms"),
        s("smt.check_ms"),
        metric("smt.checks", counter("smt.queries"), "count"),
        sampled(
            "smt.check_p50_us",
            quantile(&checks, 0.50),
            "us",
            checks.len(),
        ),
        sampled(
            "smt.check_p99_us",
            quantile(&checks, 0.99),
            "us",
            checks.len(),
        ),
        metric("smt.retries", counter("smt.retries"), "count"),
        metric("smt.fallbacks", counter("smt.fallbacks"), "count"),
        metric(
            "smt.budget_exhausted",
            counter("smt.budget_exhausted"),
            "count",
        ),
        s("engine.self_ms"),
        metric("engine.jobs", per_op(c.engine_jobs), "count"),
        metric("engine.steals", per_op(c.engine_steals), "count"),
        metric("engine.queue_wait_ms", per_op(queue_wait_us) / 1e3, "ms"),
        metric("engine.busy_ratio", c.engine_busy_ratio, "ratio"),
        metric("engine.cache_hit_ratio", c.cache_hit_ratio, "ratio"),
        metric(
            "engine.cache_insertions",
            per_op(c.cache_insertions),
            "count",
        ),
        s("daemon.request_ms"),
        s("daemon.client_ms"),
        metric("daemon.transport_ms", c.daemon_transport_ms, "ms"),
        metric("daemon.reuse_ratio", c.daemon_reuse_ratio, "ratio"),
        metric("daemon.reverified", per_op(c.daemon_reverified), "count"),
        s("shim.validate_us"),
        s("shim.journal_fsync_us"),
        metric("shim.fsyncs_per_batch", c.shim_fsyncs_per_batch, "count"),
        metric("shim.accept_ratio", c.shim_accept_ratio, "ratio"),
        metric("shim.live_rules", c.shim_live_rules, "count"),
        s("other.self_ms"),
        s("bench.self_ms"),
        metric("bench.phase_ms", per_op(roll.window_us) / 1e3, "ms"),
        metric("obs.overhead", overhead, "ratio"),
    ]
}
