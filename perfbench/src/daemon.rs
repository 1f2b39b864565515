//! `daemon_edits`: the incremental service path. `bf4_daemon::server::serve`
//! runs on a unix socket in a thread of this process, with `cache_dir` set
//! so the cache WAL and the per-request time-series are written. Set-up
//! submits all 22 base programs; then one client connection, closed loop,
//! resubmits edited versions through the `proto` frames.
//!
//! Each program has two kinds of edit: a comment-only variant (a seeded
//! end-of-line comment; line numbers never move) and its single semantic
//! variant (the last numeric literal of an assignment, arithmetic or select
//! label flipped in its lowest bit). Program `p` cycles through comment,
//! comment, semantic from a seeded starting point, so every three edits
//! of a program are one comment-only edit (nothing to re-verify), one
//! semantic edit and one revert of it (a comment variant of the base).
//! That is the mix of the daemon's own scripted edit sequence
//! (`crates/daemon/tests/daemon_integration.rs`: comment-only edit,
//! semantic edit, revert). Neither the repository nor the paper measures
//! how developers edit P4 programs, so the mix is a stated choice, not a
//! measured one.
//!
//! A round is `PASSES` passes in seeded orders. In each pass every program
//! makes its next edit, except the corpus' largest program
//! (`bf4_corpus::largest()`), which makes one edit per round, in a seeded
//! pass. One of its submits takes about 2.7 s on a 2-core host, 50 times
//! the next slowest program's; submitted as often as the others, it took
//! 95% of the phase and left about 130 samples of the other 21 programs
//! per run, too few for a steady median. That weight is a choice made for
//! the measurement, not a measured share of edits.
//!
//! References: a base program or comment variant must reproduce its
//! corpus `Expected` row and the base program's normalized report byte for
//! byte; a semantic variant must match a one-shot `verify_isolated` of the
//! edited source, computed during set-up.

use crate::rollup;
use crate::util::{self, sampled, Outcome, Phase, Rng, RunDir, Tally};
use crate::{Args, LayerCounts};
use bf4_core::driver::{verify_isolated, VerifyOptions};
use bf4_corpus::Expected;
use bf4_daemon::proto::{self, Request};
use bf4_daemon::server::{self, Listener, ServeOptions};
use bf4_daemon::{Daemon, DaemonConfig};
use bf4_engine::normalized_report;
use bf4_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

const SETUP_REPS: usize = 3;
/// Per-program edit cycle (comment, comment, semantic): the comment edit
/// after a semantic one reverts it.
const CYCLE: [bool; 3] = [false, false, true];
/// Passes per round: two whole edit cycles of every program but the
/// largest.
const PASSES: usize = 2 * CYCLE.len();

struct Program {
    name: String,
    base: String,
    /// Normalized report of the base program, from the set-up fill.
    base_report: String,
    semantic: String,
    semantic_report: String,
}

/// A resubmit's verdict as the client sees it.
struct Verdict {
    fields: BTreeMap<String, Value>,
    round_trip_ms: f64,
}

impl Verdict {
    fn num(&self, key: &str) -> u64 {
        self.fields.get(key).and_then(Value::as_u64).unwrap_or(0)
    }

    fn report(&self) -> &str {
        self.fields
            .get("report")
            .and_then(Value::as_str)
            .unwrap_or("")
    }
}

struct Client {
    stream: UnixStream,
    server: Option<JoinHandle<std::io::Result<u64>>>,
}

impl Client {
    fn start(dir: &Path) -> Result<Client, String> {
        let socket = dir.join("bf4d.sock");
        let listener = UnixListener::bind(&socket).map_err(|e| format!("bind: {e}"))?;
        let config = DaemonConfig {
            cache_dir: Some(dir.join("cache")),
            cache_persist: true,
            ..DaemonConfig::default()
        };
        let server = std::thread::spawn(move || {
            let mut daemon = Daemon::new(config);
            let opts = ServeOptions {
                quiet: true,
                ..ServeOptions::default()
            };
            server::serve(Listener::Unix(listener), &mut daemon, &opts)
        });
        let stream = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
        Ok(Client {
            stream,
            server: Some(server),
        })
    }

    fn call(&mut self, req: &Request) -> Result<(BTreeMap<String, Value>, f64), String> {
        let t = Instant::now();
        let body = {
            let _call = rollup::call_span("daemon", "roundtrip");
            proto::write_frame(&mut self.stream, &proto::encode_request(req))
                .and_then(|()| proto::read_frame(&mut self.stream))
                .map_err(|e| format!("daemon connection: {e}"))?
                .ok_or("daemon closed the connection")?
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let _parse = bf4_obs::span("bench", "parse");
        match json::parse(&body).map_err(|e| format!("response JSON: {e:?}"))? {
            Value::Obj(fields) => Ok((fields, ms)),
            _ => Err("response is not a JSON object".into()),
        }
    }

    fn submit(&mut self, name: &str, source: &str) -> Result<Verdict, String> {
        let (fields, round_trip_ms) = self.call(&Request::Submit {
            program: name.to_string(),
            source: source.to_string(),
        })?;
        Ok(Verdict {
            fields,
            round_trip_ms,
        })
    }

    /// Counters of the `stats` op.
    fn stats(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.call(&Request::Stats).map(|(f, _)| f)
    }

    /// Shut the daemon down and wait for its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let asked = self.call(&Request::Shutdown);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let served = server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        asked?;
        served.map(|_| ()).map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Numeric literals a semantic edit may flip: the right-hand side of an
/// assignment or comparison, an arithmetic operand, or a select label.
/// Returns byte ranges of the value part (after any `Nw` width prefix).
fn literal_sites(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut sites = Vec::new();
    let mut i = 0;
    let prev_nonspace = |at: usize| {
        b[..at]
            .iter()
            .rev()
            .find(|c| !c.is_ascii_whitespace())
            .copied()
    };
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if b[i..].starts_with(b"/*") {
            i = src[i + 2..].find("*/").map_or(b.len(), |e| i + 2 + e + 2);
            continue;
        }
        let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        if b[i].is_ascii_digit() && (i == 0 || !ident(b[i - 1])) {
            let start = i;
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            let token = &src[start..i];
            let value_at = token.find('w').map_or(start, |w| start + w + 1);
            let next = b[i..].iter().find(|c| !c.is_ascii_whitespace()).copied();
            let prev = prev_nonspace(start);
            let operand = matches!(prev, Some(b'=' | b'-' | b'+'));
            let label = next == Some(b':') && matches!(prev, Some(b'{' | b';'));
            if (operand || label) && parse_literal(&src[value_at..i]).is_some() {
                sites.push((value_at, i));
            }
            continue;
        }
        i += 1;
    }
    sites
}

fn parse_literal(s: &str) -> Option<u128> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u128::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The program's semantic variant: its last literal site, lowest bit
/// flipped (so the value keeps its width and its base).
fn semantic_variant(src: &str) -> Option<String> {
    let &(a, e) = literal_sites(src).last()?;
    let old = &src[a..e];
    let v = parse_literal(old)? ^ 1;
    let new = if old.starts_with("0x") || old.starts_with("0X") {
        format!("0x{v:x}")
    } else {
        v.to_string()
    };
    Some(format!("{}{new}{}", &src[..a], &src[e..]))
}

/// A comment-only variant: `// edit <n>` at the end of a seeded line.
fn comment_variant(src: &str, rng: &mut Rng, n: u64) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let at = rng.below(lines.len().max(1));
    let mut out = String::with_capacity(src.len() + 24);
    for (i, l) in lines.iter().enumerate() {
        out.push_str(l);
        if i == at {
            out.push_str(&format!(" // edit {n}"));
        }
        out.push('\n');
    }
    out
}

/// Check one verdict against its reference report. The base report a
/// comment variant must reproduce was itself checked against the Table-1
/// row at set-up.
fn check(tally: &mut Tally, p: &Program, v: &Verdict, semantic: bool) {
    let ok = v.fields.get("ok") == Some(&Value::Bool(true));
    let reference = if semantic {
        &p.semantic_report
    } else {
        &p.base_report
    };
    let problem = if !ok {
        Some(format!("error response {:?}", v.fields.get("error")))
    } else if v.num("degraded") != 0 {
        Some(format!("{} degraded stage(s)", v.num("degraded")))
    } else if v.report() != reference {
        Some("normalized report differs from its reference".into())
    } else {
        None
    };
    let kind = if semantic { "semantic" } else { "comment" };
    tally.check(problem.is_none(), || {
        format!(
            "daemon {} ({kind} edit): {}",
            p.name,
            problem.clone().unwrap_or_default()
        )
    });
}

struct State {
    client: Client,
    programs: Vec<Program>,
    stream: Stream,
}

impl State {
    /// Resubmit program `p` as its semantic variant or as a fresh
    /// comment-only variant.
    fn submit(&mut self, p: usize, semantic: bool) -> Result<Verdict, String> {
        let program = &self.programs[p];
        let source = if semantic {
            program.semantic.clone()
        } else {
            self.stream.edits += 1;
            comment_variant(&program.base, &mut self.stream.rng, self.stream.edits)
        };
        self.client.submit(&program.name, &source)
    }
}

/// The seeded resubmit stream.
struct Stream {
    rng: Rng,
    /// Per program, the position in `CYCLE` of its next edit.
    next: Vec<usize>,
    /// The program that makes one edit per round.
    largest: usize,
    edits: u64,
}

impl Stream {
    fn new(seed: u64, programs: usize, largest: usize) -> Stream {
        let mut rng = Rng::new(seed);
        // Set-up leaves every program at a comment variant, so each starts
        // at a seeded position that follows a comment edit (1 or 2). The
        // set-up then does the same work on every seed: starting the
        // largest program after its semantic edit would save it one
        // 2.7-second submit on a third of the seeds.
        let next = (0..programs)
            .map(|_| 1 + rng.below(CYCLE.len() - 1))
            .collect();
        Stream {
            rng,
            next,
            largest,
            edits: 0,
        }
    }

    /// One round: `PASSES` passes, each over the programs in a seeded
    /// order, as `(program, position of the edit in CYCLE)`.
    fn next_round(&mut self) -> Vec<(usize, usize)> {
        let largest_pass = self.rng.below(PASSES);
        let mut round = Vec::new();
        for pass in 0..PASSES {
            let mut order: Vec<usize> = (0..self.next.len()).collect();
            self.rng.shuffle(&mut order);
            for p in order {
                if p == self.largest && pass != largest_pass {
                    continue;
                }
                round.push((p, self.next[p] % CYCLE.len()));
                self.next[p] += 1;
            }
        }
        round
    }
}

fn setup(dir: &Path, rep: usize, seed: u64, tally: &mut Tally) -> Result<State, String> {
    let dir = dir.join(format!("daemon-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let corpus = bf4_corpus::all();
    let mut client = Client::start(&dir)?;
    let options = VerifyOptions::default();
    let variants: Vec<Option<String>> = corpus.iter().map(|p| semantic_variant(p.source)).collect();
    let largest = bf4_corpus::largest().name;
    let largest = corpus.iter().position(|p| p.name == largest);
    let largest = largest.ok_or("the largest program is not in the corpus")?;
    let mut stream = Stream::new(seed, corpus.len(), largest);
    // The semantic references are computed on a second thread while the
    // daemon's thread verifies the base programs and then the cache
    // warm-up: every semantic variant once, so the timed phase sees the
    // steady state rather than first-edit misses, then a comment variant,
    // the version every program's cycle continues from, so every round
    // makes the same edits.
    let (submitted, references) = std::thread::scope(|scope| {
        let refs = scope.spawn(|| {
            variants
                .iter()
                .zip(&corpus)
                .map(|(v, p)| {
                    let v = v.as_deref()?;
                    let parses = bf4_p4::frontend(v).is_ok();
                    Some((
                        parses,
                        normalized_report(p.name, &verify_isolated(v, &options)),
                    ))
                })
                .collect::<Vec<_>>()
        });
        let mut submitted = Vec::new();
        let mut submit_all = || -> Result<(), String> {
            for p in &corpus {
                submitted.push((p.name, false, client.submit(p.name, p.source)?));
            }
            for (i, p) in corpus.iter().enumerate() {
                let semantic = variants[i].as_deref().unwrap_or(p.source);
                submitted.push((p.name, true, client.submit(p.name, semantic)?));
                let comment = comment_variant(p.source, &mut stream.rng, 0);
                submitted.push((p.name, false, client.submit(p.name, &comment)?));
            }
            Ok(())
        };
        let done = submit_all();
        (
            done.map(|()| submitted),
            refs.join().expect("reference thread"),
        )
    });
    let submitted = submitted?;
    let mut programs = Vec::new();
    for ((p, verdict), (variant, reference)) in corpus
        .iter()
        .zip(&submitted)
        .zip(variants.into_iter().zip(references))
    {
        let base_report = verdict.2.report().to_string();
        let bad = header_mismatch(&base_report, &p.expect);
        tally.check(bad.is_none() && verdict.2.num("degraded") == 0, || {
            format!(
                "daemon set-up {}: {}",
                p.name,
                bad.clone().unwrap_or("degraded".into())
            )
        });
        tally.check(reference.as_ref().is_some_and(|r| r.0), || {
            format!(
                "daemon set-up {}: semantic variant does not pass the frontend",
                p.name
            )
        });
        programs.push(Program {
            name: p.name.to_string(),
            base: p.source.to_string(),
            base_report,
            semantic: variant.unwrap_or_else(|| p.source.to_string()),
            semantic_report: reference.map(|r| r.1).unwrap_or_default(),
        });
    }
    for (name, semantic, verdict) in &submitted[corpus.len()..] {
        let p = programs
            .iter()
            .find(|p| p.name == *name)
            .expect("submitted program");
        check(tally, p, verdict, *semantic);
    }
    Ok(State {
        client,
        programs,
        stream,
    })
}

/// Compare the totals line of a normalized report with the Table-1 row.
fn header_mismatch(report: &str, e: &Expected) -> Option<String> {
    let header = report.lines().next().unwrap_or("");
    let want = format!(
        "totals {}/{}/{} undecided 0 keys {} ",
        e.bugs_total, e.bugs_after_infer, e.bugs_after_fixes, e.keys_added
    );
    let egress = format!("egress_fix {}", e.egress_spec_fix);
    if header.contains(&want) && header.ends_with(&egress) {
        None
    } else {
        Some(format!("`{header}` does not match `{want}… {egress}`"))
    }
}

#[derive(Default)]
struct Acc {
    transport_ms: f64,
}

/// Whole rounds of resubmits (the same edits of the same programs in
/// every round but one edit of the largest program, whose three kinds of
/// edit cost about the same) until `seconds` have elapsed.
fn phase(s: &mut State, seconds: f64, tally: &mut Tally, acc: &mut Acc) -> Result<Phase, String> {
    util::reset_peak_rss();
    let _sp = bf4_obs::span("bench", "phase");
    let mut out = Phase::default();
    let t0 = Instant::now();
    while out.ops() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        for (p, step) in s.stream.next_round() {
            let semantic = CYCLE[step];
            let v = s.submit(p, semantic)?;
            // One operation per program and kind of edit: comment-only,
            // semantic, or the revert that follows a semantic edit.
            out.record(p * CYCLE.len() + step, v.round_trip_ms);
            acc.transport_ms += v.round_trip_ms - v.num("wall_micros") as f64 / 1e3;
            let _check = bf4_obs::span("bench", "check");
            check(tally, &s.programs[p], &v, semantic);
        }
        out.rounds_s.push(round.elapsed().as_secs_f64());
    }
    out.peak_rss_mb = util::peak_rss_mb();
    Ok(out)
}

fn counter(stats: &BTreeMap<String, Value>, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = RunDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut tally = Tally::default();
    let mut setup_err = None;
    let (state, setups_s) = util::repeat_setup(SETUP_REPS, |rep| {
        setup(&dir.0, rep, args.seed, &mut tally)
            .map_err(|e| setup_err = Some(e))
            .ok()
    });
    let mut state = state.ok_or_else(|| setup_err.unwrap_or_default())?;
    let untraced = phase(&mut state, args.seconds, &mut tally, &mut Acc::default())?;
    let lat = &untraced.latencies_ms;
    let named = vec![
        sampled(
            "request_p50_ms",
            untraced.op_quantile_ms(0.50),
            "ms",
            lat.len(),
        ),
        sampled(
            "request_p90_ms",
            untraced.op_quantile_ms(0.90),
            "ms",
            lat.len(),
        ),
        util::metric("requests_per_s", untraced.ops_per_s(), "1/s"),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let before = state.client.stats()?;
        let mut acc = Acc::default();
        let tracing = rollup::begin();
        let traced = phase(&mut state, args.seconds, &mut tally, &mut acc)?;
        let delta = tracing.end();
        let after = state.client.stats()?;
        // The server thread's spans reach the registry when it exits.
        state.client.stop()?;
        let (spans, windows) = rollup::collect();
        let d = |key: &str| counter(&after, key) - counter(&before, key);
        let counts = LayerCounts {
            cache_hit_ratio: util::ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")),
            cache_insertions: delta.counters.get("cache.insertions").copied().unwrap_or(0) as f64,
            daemon_transport_ms: util::ratio(acc.transport_ms, traced.ops() as f64),
            daemon_reuse_ratio: util::ratio(d("skips"), d("skips") + d("reverified")),
            daemon_reverified: d("reverified"),
            ..LayerCounts::default()
        };
        let overhead = util::ratio(traced.per_op_ms(), untraced.per_op_ms());
        layers = crate::layer_metrics(&spans, &windows, traced.ops(), &delta, &counts, overhead);
    }
    state.client.stop()?;
    Ok(Outcome {
        setups_s,
        tally,
        phase: untraced,
        named,
        layers,
    })
}
