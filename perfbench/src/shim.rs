//! `shim_updates`: the run-time path. One controller thread, closed loop,
//! sends P4Runtime-style batches of 8 updates to a `ShardedShim` built from
//! the annotations inferred for `bf4_corpus::largest()`, with the journal
//! on disk (one group-commit fsync per acknowledged batch).
//!
//! The generator keeps rule keys unique and the live rule count fixed:
//! a round starts from a shim holding `LIVE_RULES` benign rules, then
//! every batch deletes 4 acknowledged rules and inserts 4 fresh ones, so
//! an acknowledged batch leaves the count unchanged and a rejected one
//! changes nothing. Each insert is built to violate an annotation with
//! probability `VIOLATING_FRACTION` and labelled so. The label is the
//! reference: each candidate rule is evaluated against the annotation
//! formulas directly, not through the shim.
//!
//! The shim marks deleted rules dead and never removes them, so a batch
//! costs more the longer a shim has run. The timed phase is therefore
//! made of whole rounds of `ROUND_BATCHES` batches, each on a fresh shim
//! filled from the same seed: every round does the same work, however
//! many rounds a run fits.

use crate::rollup;
use crate::util::{self, sampled, Outcome, Phase, Rng, RunDir, Tally};
use crate::{Args, LayerCounts};
use bf4_core::driver::{verify_isolated, VerifyOptions};
use bf4_core::specs::{AnnotationFile, TableDescriptor};
use bf4_shim::{Batch, RuleUpdate, ShardedShim, ShimConfig, ShimError, Update};
use bf4_smt::{Assignment, Sort, Term, Value};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Updates per batch, as in the committed shim campaign
/// (`BENCH_shim.json`, `config.batch_size`).
const BATCH: usize = 8;
/// Live rules held through a round: the live count the committed shim
/// campaign ends with (`BENCH_shim.json`, `audit.live_rules`).
const LIVE_RULES: usize = 472;
/// Share of inserts labelled violating: the default `faulty_fraction` of
/// `bf4_shim::controller::WorkloadConfig`.
const VIOLATING_FRACTION: f64 = 0.1;
/// Timed batches per round.
const ROUND_BATCHES: usize = 256;
const SETUP_REPS: usize = 3;
/// Candidate draws before the generator gives up on a label.
const TRIES: usize = 10_000;

struct Table {
    desc: TableDescriptor,
    name: String,
    /// Single-table annotation formulas asserted on this table.
    specs: Vec<Term>,
}

type Key = (usize, Vec<u128>, Vec<u128>);

/// An acknowledged, live rule.
struct Live {
    table: usize,
    id: usize,
    key: Key,
}

struct Generator {
    rng: Rng,
    tables: Vec<Table>,
    /// Tables for which some rule violates an annotation.
    violable: Vec<usize>,
    live: Vec<Live>,
    keys: HashSet<Key>,
}

/// One generated batch and what the generator knows about it.
struct Planned {
    batch: Batch,
    /// Per update: `Some(key)` for inserts, and whether it is labelled
    /// violating.
    inserts: Vec<Option<(Key, bool)>>,
    /// Indexes into `Generator::live` of the deleted rules.
    deletes: Vec<usize>,
}

impl Generator {
    fn new(ann: &AnnotationFile, seed: u64) -> Result<Generator, String> {
        let tables: Vec<Table> = ann
            .tables
            .iter()
            .map(|d| Table {
                name: d.qualified(),
                specs: ann
                    .specs
                    .iter()
                    .filter(|s| s.with_table.is_none() && s.qualified() == d.qualified())
                    .map(|s| s.formula.clone())
                    .collect(),
                desc: d.clone(),
            })
            .collect();
        if tables.is_empty() {
            return Err("the annotations name no table".into());
        }
        if ann.specs.iter().any(|s| s.with_table.is_some()) {
            // Labelling a multi-table insert needs the partner's live
            // rules; the reference evaluates single-table formulas only.
            return Err("multi-table annotations are not labelled by this generator".into());
        }
        let mut g = Generator {
            rng: Rng::new(seed),
            tables,
            violable: Vec::new(),
            live: Vec::new(),
            keys: HashSet::new(),
        };
        for t in 0..g.tables.len() {
            if (0..256).any(|_| {
                let r = g.candidate(t, true);
                g.violates(t, &r)
            }) {
                g.violable.push(t);
            }
        }
        if g.violable.is_empty() {
            return Err("no table has an annotation a rule can violate".into());
        }
        Ok(g)
    }

    /// A random rule for table `t`; `faulty` biases validity keys to
    /// false and masks to non-zero (the pattern annotations forbid).
    fn candidate(&mut self, t: usize, faulty: bool) -> RuleUpdate {
        let desc = &self.tables[t].desc;
        let mut values = Vec::with_capacity(desc.keys.len());
        let mut masks = Vec::with_capacity(desc.keys.len());
        for k in &desc.keys {
            let w = match k.sort {
                Sort::Bool => 1,
                Sort::Bv(w) => w,
            };
            let full = if w >= 128 {
                u128::MAX
            } else {
                (1u128 << w) - 1
            };
            let value = if matches!(k.sort, Sort::Bool) {
                u128::from(if faulty {
                    self.rng.below(4) == 0
                } else {
                    self.rng.below(4) != 0
                })
            } else {
                self.rng.bits(w)
            };
            let mask = match k.match_kind.as_str() {
                "ternary" | "lpm" => match self.rng.below(if faulty { 2 } else { 3 }) {
                    0 => full,
                    1 => self.rng.bits(w) | 1,
                    _ => 0,
                },
                _ => full,
            };
            values.push(value);
            masks.push(mask);
        }
        let action = desc.actions[self.rng.below(desc.actions.len().max(1))].clone();
        let params = (0..action.num_params).map(|_| self.rng.bits(8)).collect();
        RuleUpdate {
            key_values: values,
            key_masks: masks,
            action: action.name,
            params,
        }
    }

    /// Reference label: does the rule violate an annotation of its table?
    /// Unbound variables default to false / zero, as in the shim.
    fn violates(&self, t: usize, rule: &RuleUpdate) -> bool {
        let table = &self.tables[t];
        let desc = &table.desc;
        let mut env = Assignment::new();
        env.insert(Arc::from(desc.hit_var()), Value::Bool(true));
        let action = desc
            .actions
            .iter()
            .position(|a| a.name == rule.action)
            .unwrap_or(0);
        env.insert(Arc::from(desc.action_var()), Value::bv(8, action as u128));
        for (i, k) in desc.keys.iter().enumerate() {
            let v = rule.key_values[i];
            match k.sort {
                Sort::Bool => {
                    env.insert(Arc::from(desc.key_value_var(i)), Value::Bool(v != 0));
                }
                Sort::Bv(w) => {
                    env.insert(Arc::from(desc.key_value_var(i)), Value::bv(w, v));
                    if k.match_kind != "exact" {
                        env.insert(
                            Arc::from(desc.key_mask_var(i)),
                            Value::bv(w, rule.key_masks[i]),
                        );
                    }
                }
            }
        }
        table.specs.iter().any(|f| {
            let mut full = env.clone();
            for (v, sort) in bf4_smt::free_vars(f) {
                full.entry(v).or_insert(match sort {
                    Sort::Bool => Value::Bool(false),
                    Sort::Bv(w) => Value::bv(w, 0),
                });
            }
            !matches!(bf4_smt::eval(f, &full), Ok(Value::Bool(true)))
        })
    }

    /// A fresh-keyed insert with the wanted label.
    fn insert(
        &mut self,
        violating: bool,
        taken: &mut HashSet<Key>,
    ) -> Result<(Update, Key), String> {
        let t = if violating {
            self.violable[self.rng.below(self.violable.len())]
        } else {
            self.rng.below(self.tables.len())
        };
        for _ in 0..TRIES {
            let rule = self.candidate(t, violating);
            let key = (t, rule.key_values.clone(), rule.key_masks.clone());
            if self.violates(t, &rule) == violating
                && !self.keys.contains(&key)
                && !taken.contains(&key)
            {
                taken.insert(key.clone());
                let table = self.tables[t].name.clone();
                return Ok((Update::Insert { table, rule }, key));
            }
        }
        Err(format!(
            "no {} rule with a fresh key found for {}",
            if violating { "violating" } else { "benign" },
            self.tables[t].name
        ))
    }

    /// `inserts` fresh inserts plus `deletes` deletes of live rules, in
    /// seeded order.
    fn plan(&mut self, inserts: usize, deletes: usize) -> Result<Planned, String> {
        let mut slots: Vec<bool> = (0..inserts).map(|_| true).collect();
        slots.extend((0..deletes).map(|_| false));
        self.rng.shuffle(&mut slots);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < deletes.min(self.live.len()) {
            let i = self.rng.below(self.live.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        let mut taken = HashSet::new();
        let (mut updates, mut info) = (Vec::new(), Vec::new());
        let mut next_delete = picked.iter();
        for is_insert in slots {
            if is_insert {
                let violating = self.rng.chance(VIOLATING_FRACTION);
                let (u, key) = self.insert(violating, &mut taken)?;
                updates.push(u);
                info.push(Some((key, violating)));
            } else if let Some(&i) = next_delete.next() {
                let l = &self.live[i];
                updates.push(Update::Delete {
                    table: self.tables[l.table].name.clone(),
                    rule_id: l.id,
                });
                info.push(None);
            }
        }
        Ok(Planned {
            batch: Batch { updates },
            inserts: info,
            deletes: picked,
        })
    }

    /// Apply an acknowledged batch to the generator's model.
    fn acknowledged(&mut self, p: Planned, rule_ids: &[Option<usize>]) {
        let mut gone = p.deletes;
        gone.sort_unstable_by(|a, b| b.cmp(a));
        for i in gone {
            let l = self.live.swap_remove(i);
            self.keys.remove(&l.key);
        }
        for (slot, id) in p.inserts.into_iter().zip(rule_ids) {
            if let (Some((key, _)), Some(id)) = (slot, id) {
                self.keys.insert(key.clone());
                self.live.push(Live {
                    table: key.0,
                    id: *id,
                    key,
                });
            }
        }
    }
}

struct State {
    annotations: AnnotationFile,
    shim: ShardedShim,
    generator: Generator,
    journal: std::path::PathBuf,
}

/// Apply one planned batch and check the outcome against the labels.
/// Returns whether the batch was acknowledged.
fn apply(s: &mut State, p: Planned, tally: &mut Tally) -> (bool, f64) {
    let t = Instant::now();
    let result = {
        let _call = rollup::call_span("shim", "apply_batch");
        s.shim.apply_batch(&p.batch)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _check = bf4_obs::span("bench", "check");
    let violating: Vec<usize> = p
        .inserts
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Some((_, true))))
        .map(|(n, _)| n)
        .collect();
    match result {
        Ok(d) => {
            tally.check(violating.is_empty(), || {
                format!("shim: batch with a labelled-violating insert at {violating:?} was acknowledged")
            });
            s.generator.acknowledged(p, &d.rule_ids);
            (true, ms)
        }
        Err(r) => {
            let expected = matches!(r.error, ShimError::AssertionViolated { .. })
                && r.index.is_some_and(|i| violating.contains(&i));
            tally.check(expected, || {
                format!("shim: batch rejected ({r}); labelled-violating inserts at {violating:?}")
            });
            (false, ms)
        }
    }
}

/// A fresh shim with its own journal, filled to `LIVE_RULES` benign rules.
fn fresh(
    annotations: &AnnotationFile,
    journal: &Path,
    seed: u64,
    tally: &mut Tally,
) -> Result<State, String> {
    let config = ShimConfig {
        journal_path: Some(journal.to_path_buf()),
        ..ShimConfig::default()
    };
    let shim = ShardedShim::new(annotations, &config).map_err(|e| format!("shim: {e}"))?;
    let generator = Generator::new(annotations, seed)?;
    let mut s = State {
        annotations: annotations.clone(),
        shim,
        generator,
        journal: journal.to_path_buf(),
    };
    while s.generator.live.len() < LIVE_RULES {
        let n = BATCH.min(LIVE_RULES - s.generator.live.len());
        let p = s.generator.plan(n, 0)?;
        // The prefill is all benign: a batch with a violating draw is
        // drawn again.
        if p.inserts.iter().any(|i| matches!(i, Some((_, true)))) {
            continue;
        }
        let (acked, _) = apply(&mut s, p, tally);
        if !acked {
            return Err("a benign prefill batch was rejected".into());
        }
    }
    Ok(s)
}

fn setup(dir: &Path, rep: usize, seed: u64, tally: &mut Tally) -> Result<State, String> {
    let program = bf4_corpus::largest();
    let report = verify_isolated(program.source, &VerifyOptions::default());
    let bad = crate::corpus::expected_mismatch(&report, &program.expect);
    tally.check(bad.is_none(), || {
        format!(
            "shim set-up: {}: {}",
            program.name,
            bad.clone().unwrap_or_default()
        )
    });
    fresh(
        &report.annotations,
        &dir.join(format!("journal-{rep}")),
        seed,
        tally,
    )
}

/// Shim counts of a phase, for the traced roll-up.
#[derive(Default)]
struct Acc {
    acked: u64,
    fsyncs: u64,
    live: usize,
}

/// Whole rounds until `seconds` have elapsed. A round takes `first` (the
/// set-up's shim) or fills a fresh one from the seed, times
/// `ROUND_BATCHES` batches inside a `bench/phase` span, then runs the
/// end-of-round checks. Only the batches are timed.
fn phase(
    annotations: &AnnotationFile,
    mut first: Option<State>,
    dir: &Path,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    acc: &mut Acc,
) -> Result<Phase, String> {
    util::reset_peak_rss();
    let mut out = Phase::default();
    let t0 = Instant::now();
    while out.ops() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let mut s = match first.take() {
            Some(s) => s,
            None => {
                let journal = dir.join("journal-round");
                let _ = std::fs::remove_file(&journal);
                fresh(annotations, &journal, seed, tally)?
            }
        };
        let before = s.shim.stats();
        let round = Instant::now();
        {
            let _sp = bf4_obs::span("bench", "phase");
            for i in 0..ROUND_BATCHES {
                let p = s.generator.plan(BATCH / 2, BATCH / 2)?;
                let (_, ms) = apply(&mut s, p, tally);
                // Every round replays the same batches, so batch `i` is
                // the same operation in each.
                out.record(i, ms);
            }
        }
        out.rounds_s.push(round.elapsed().as_secs_f64());
        let after = s.shim.stats();
        acc.acked += after.batches_acked - before.batches_acked;
        acc.fsyncs += after.fsyncs - before.fsyncs;
        acc.live = live_rules(&s);
        final_checks(&s, tally);
    }
    out.peak_rss_mb = util::peak_rss_mb();
    Ok(out)
}

fn live_rules(s: &State) -> usize {
    s.annotations
        .tables
        .iter()
        .map(|d| s.shim.shadow_size(&d.qualified()))
        .sum()
}

/// End-of-run checks: the live count held, nothing invalid is installed,
/// and the on-disk journal replays to the same state.
fn final_checks(s: &State, tally: &mut Tally) {
    let live = live_rules(s);
    tally.check(live == LIVE_RULES, || {
        format!("shim: {live} live rules, expected {LIVE_RULES}")
    });
    let audit = s.shim.audit_violations();
    tally.check(audit.is_empty(), || format!("shim: audit found {audit:?}"));
    let replay = std::fs::read(&s.journal)
        .map_err(|e| e.to_string())
        .and_then(|bytes| {
            ShardedShim::recover(&s.annotations, &bytes, &ShimConfig::default())
                .map_err(|e| e.to_string())
        });
    let digest = s.shim.state_digest();
    tally.check(
        matches!(&replay, Ok((r, _)) if r.state_digest() == digest),
        || "shim: journal recovery does not reproduce the live state digest".into(),
    );
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
    let state = state.ok_or_else(|| setup_err.unwrap_or_default())?;
    let annotations = state.annotations.clone();
    let untraced = phase(
        &annotations,
        Some(state),
        &dir.0,
        args.seed,
        args.seconds,
        &mut tally,
        &mut Acc::default(),
    )?;
    let lat_us: Vec<f64> = untraced.latencies_ms.iter().map(|ms| ms * 1e3).collect();
    let named = vec![
        util::metric("updates_per_s", untraced.ops_per_s() * BATCH as f64, "1/s"),
        sampled(
            "batch_p50_us",
            untraced.op_quantile_ms(0.50) * 1e3,
            "us",
            lat_us.len(),
        ),
        sampled(
            "batch_p99_us",
            util::quantile(&lat_us, 0.99),
            "us",
            lat_us.len(),
        ),
        util::metric("rounds", (untraced.ops() / ROUND_BATCHES) as f64, "count"),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let mut acc = Acc::default();
        let tracing = rollup::begin();
        let traced = phase(
            &annotations,
            None,
            &dir.0,
            args.seed,
            args.seconds,
            &mut tally,
            &mut acc,
        )?;
        let delta = tracing.end();
        let (spans, windows) = rollup::collect();
        let batches = traced.ops() as f64;
        let counts = LayerCounts {
            shim_fsyncs_per_batch: util::ratio(acc.fsyncs as f64, batches),
            shim_accept_ratio: util::ratio(acc.acked as f64, batches),
            shim_live_rules: acc.live as f64,
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
