//! Per-layer self time from the span forest of a traced phase.
//!
//! Each span's *self* intervals are its own interval minus its children's
//! (children nest inside parents on the same thread). A sweep over the
//! phase window then splits every instant between the threads doing work
//! at that instant, so the per-layer totals add up to the window exactly:
//!
//! * a thread counts through its innermost open span;
//! * a benchmark *call* span (the benchmark waiting on a public call that
//!   hands the work to another thread — the engine pool, the daemon's
//!   server thread) counts only while no other thread has a span open;
//! * `k` threads counting at once get `1/k` of the instant each;
//! * an instant no span covers belongs to the benchmark.

use bf4_obs::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Tag on the benchmark's own spans around public calls.
const CALL_TAG: &str = "bench_call";

/// Open a benchmark span around a public call into `layer`.
pub fn call_span(layer: &'static str, name: &'static str) -> bf4_obs::Span {
    bf4_obs::span(layer, name).tag(CALL_TAG, "1")
}

/// The self-time figures, in roll-up order. Each span lands in exactly
/// one of them; `bench.self_ms` takes the benchmark's own spans and every
/// instant no span covers.
pub const BUCKETS: [&str; 14] = [
    "p4.self_ms",
    "ir.self_ms",
    "core.prepare_ms",
    "core.infer_ms",
    "core.unsafe_defaults_ms",
    "core.fixes_ms",
    "smt.check_ms",
    "engine.self_ms",
    "daemon.request_ms",
    "daemon.client_ms",
    "shim.validate_us",
    "shim.journal_fsync_us",
    "other.self_ms",
    "bench.self_ms",
];

fn bucket(span: &SpanRecord) -> &'static str {
    let call = span.tags.iter().any(|(k, _)| *k == CALL_TAG);
    match (span.layer, span.name.as_str(), call) {
        ("frontend", _, _) => "p4.self_ms",
        ("ir", _, _) => "ir.self_ms",
        ("core", "prepare", _) => "core.prepare_ms",
        ("core", "inference", _) => "core.infer_ms",
        ("core", "unsafe-defaults", _) => "core.unsafe_defaults_ms",
        ("core", "fixes", _) => "core.fixes_ms",
        ("smt", "check", _) => "smt.check_ms",
        // `smt/query` is the query cache's span (key hashing + lookup):
        // the cache lives in the engine crate.
        ("smt", "query", _) | ("engine", _, _) | ("cache", _, _) => "engine.self_ms",
        ("daemon", _, true) => "daemon.client_ms",
        ("daemon", _, false) => "daemon.request_ms",
        ("shim", "journal_fsync", _) => "shim.journal_fsync_us",
        ("shim", _, _) => "shim.validate_us",
        ("bench", _, _) => "bench.self_ms",
        _ => "other.self_ms",
    }
}

/// Self time per bucket over a window, in microseconds.
pub struct Rollup {
    pub self_us: BTreeMap<&'static str, f64>,
    pub window_us: f64,
}

struct Seg {
    start: u64,
    end: u64,
    span: usize,
}

/// A timed window `[from, to]` (epoch-relative µs).
pub type Window = (u64, u64);

/// Summed length of the windows, in µs.
pub fn total_us(windows: &[Window]) -> f64 {
    windows.iter().map(|&(from, to)| (to - from) as f64).sum()
}

/// Roll the spans up over the timed windows, summed.
pub fn rollup(spans: &[SpanRecord], windows: &[Window]) -> Rollup {
    let mut total = Rollup {
        self_us: BUCKETS.iter().map(|b| (*b, 0.0)).collect(),
        window_us: 0.0,
    };
    for &(from, to) in windows {
        let r = rollup_window(spans, from, to);
        for (b, us) in r.self_us {
            *total.self_us.get_mut(b).expect("bucket") += us;
        }
        total.window_us += r.window_us;
    }
    total
}

fn rollup_window(spans: &[SpanRecord], from: u64, to: u64) -> Rollup {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.ts_micros, s.ts_micros + s.dur_micros));
        }
    }
    // Self segments per thread, clipped to the window.
    let mut threads: BTreeMap<u64, Vec<Seg>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let end = s.ts_micros + s.dur_micros;
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_unstable();
        let mut cur = s.ts_micros;
        let segs = threads.entry(s.thread).or_default();
        let mut push = |a: u64, b: u64| {
            let (a, b) = (a.max(from), b.min(to));
            if a < b {
                segs.push(Seg {
                    start: a,
                    end: b,
                    span: i,
                });
            }
        };
        for (ks, ke) in kids {
            if ks > cur {
                push(cur, ks.min(end));
            }
            cur = cur.max(ke);
        }
        if end > cur {
            push(cur, end);
        }
    }
    let mut bounds: Vec<u64> = vec![from, to];
    for segs in threads.values_mut() {
        segs.sort_unstable_by_key(|s| s.start);
        for s in segs.iter() {
            bounds.push(s.start);
            bounds.push(s.end);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    let mut self_us: BTreeMap<&'static str, f64> = BUCKETS.iter().map(|b| (*b, 0.0)).collect();
    let mut cursor: Vec<usize> = vec![0; threads.len()];
    let lanes: Vec<&Vec<Seg>> = threads.values().collect();
    let mut active: Vec<usize> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        active.clear();
        for (lane, segs) in lanes.iter().enumerate() {
            let c = &mut cursor[lane];
            while *c < segs.len() && segs[*c].end <= a {
                *c += 1;
            }
            if let Some(s) = segs.get(*c) {
                if s.start <= a && b <= s.end {
                    active.push(s.span);
                }
            }
        }
        let is_call = |i: &usize| spans[*i].tags.iter().any(|(k, _)| *k == CALL_TAG);
        if active.iter().any(|i| !is_call(i)) {
            active.retain(|i| !is_call(i));
        }
        let dt = (b - a) as f64;
        if active.is_empty() {
            *self_us.get_mut("bench.self_ms").expect("bucket") += dt;
        } else {
            let share = dt / active.len() as f64;
            for i in &active {
                *self_us.get_mut(bucket(&spans[*i])).expect("bucket") += share;
            }
        }
    }
    Rollup {
        self_us,
        window_us: (to - from) as f64,
    }
}

fn inside(s: &SpanRecord, windows: &[Window]) -> bool {
    windows
        .iter()
        .any(|&(from, to)| s.ts_micros >= from && s.ts_micros + s.dur_micros <= to)
}

/// Durations (µs) of the spans named `layer/name` that lie in a window.
pub fn durations(spans: &[SpanRecord], layer: &str, name: &str, windows: &[Window]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .filter(|s| inside(s, windows))
        .map(|s| s.dur_micros as f64)
        .collect()
}

/// Summed durations (µs) of the program's root spans of `layer` in the
/// windows (the benchmark's call spans excluded).
pub fn root_busy_us(spans: &[SpanRecord], layer: &str, windows: &[Window]) -> f64 {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    spans
        .iter()
        .filter(|s| s.layer == layer && s.parent.is_none_or(|p| !ids.contains(&p)))
        .filter(|s| !s.tags.iter().any(|(k, _)| *k == CALL_TAG))
        .filter(|s| inside(s, windows))
        .map(|s| s.dur_micros as f64)
        .sum()
}

/// A traced phase in progress: spans and metrics on, counters baselined.
pub struct Tracing {
    before: bf4_obs::MetricsSnapshot,
}

/// Turn spans and metrics on for a traced phase.
pub fn begin() -> Tracing {
    bf4_obs::reset_spans();
    bf4_obs::set_metrics(true);
    let before = bf4_obs::snapshot();
    bf4_obs::set_enabled(true);
    Tracing { before }
}

impl Tracing {
    /// Turn tracing off again; the metric deltas of the phase.
    pub fn end(self) -> bf4_obs::MetricsSnapshot {
        bf4_obs::set_enabled(false);
        let delta = bf4_obs::snapshot().delta_since(&self.before);
        bf4_obs::set_metrics(false);
        delta
    }
}

/// Drain the recorded spans (threads that worked in the phase must have
/// been joined) and find the timed windows: the `bench/phase` spans.
pub fn collect() -> (Vec<SpanRecord>, Vec<Window>) {
    let spans = bf4_obs::take_spans();
    let windows = spans
        .iter()
        .filter(|s| s.layer == "bench" && s.name == "phase")
        .map(|s| (s.ts_micros, s.ts_micros + s.dur_micros))
        .collect();
    (spans, windows)
}
