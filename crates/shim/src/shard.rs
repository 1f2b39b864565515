//! Sharded, crash-consistent batch validation — the shim at line rate.
//!
//! The monolithic [`Shim`](crate::Shim) validates one update at a time
//! under one big lock. A production controller pushes P4Runtime update
//! *batches* from many worker threads, so this module rebuilds the shim
//! around three ideas:
//!
//! * **Sharded shadow tables.** Tables (and their per-variable hash
//!   indexes) are striped across a fixed pool of shards by table-name
//!   hash. Each shard is a full [`Shim`] that is *authoritative* only for
//!   the tables it owns; batches touching disjoint shards validate
//!   concurrently. Rule ids stay per-table positional, so verdicts and
//!   state digests are independent of the shard count by construction.
//! * **Deterministic two-phase locking.** A batch locks every involved
//!   shard — owners of the updated tables plus owners of every
//!   multi-table-assertion partner — in ascending shard index before
//!   reading or writing anything (growing phase), and releases only after
//!   the commit decision (shrinking phase). Ascending acquisition order
//!   makes deadlock impossible; holding all involved locks across the
//!   journal fsync means a batch is acknowledged only after it is durable
//!   and no later batch can observe (or journal after) non-durable state.
//!   Cross-shard assertions are evaluated against *mirrors*: at batch
//!   start each involved shard's copy of the other involved tables is
//!   refreshed from the owner, and staged updates propagate to the
//!   mirrors, so the owner's monolithic validation code sees exactly the
//!   joint state a single-shard shim would.
//! * **Atomic batches with group-commit journaling.** All updates of a
//!   batch validate and stage together; the first rejection rolls the
//!   whole batch back. Accepted batches append one checksummed journal
//!   frame (`B`/entries/`C`, §10 FNV-1a idiom) with a *single* fsync —
//!   group commit — and are acknowledged only after the fsync returns.
//!   Recovery replays committed frames all-or-nothing and drops a torn
//!   trailing frame whole, so an acknowledged batch is never lost and a
//!   never-acknowledged one never resurfaces split.
//!
//! Overload degrades by shedding, not queueing: at most
//! [`ShimConfig::max_inflight`] batches may be past admission at once;
//! beyond that (or when the `shim.overload` fault simulates a lagging
//! journal) a batch is rejected immediately with
//! [`ShimError::Overloaded`].
//!
//! Chaos sites (`BF4_FAULTS`): `shim.shard_poison` panics a worker
//! mid-batch (the batch rolls back and rejects conservatively),
//! `shim.batch_torn` tears the group-commit write half-way (the batch is
//! never acknowledged; the file heals on the next append),
//! `shim.overload` forces shedding.

use crate::journal::{self, encode_frame, parse_frames, persist_journal, replay};
use crate::{Shim, ShimError, StoredRule, Update};
use bf4_core::specs::AnnotationFile;
use bf4_obs::durable::fnv1a;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{Seek, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of the sharded shim.
#[derive(Clone, Debug)]
pub struct ShimConfig {
    /// Number of shards the shadow tables are striped over.
    pub shards: usize,
    /// Maximum batches past admission at once; beyond it batches are shed
    /// with [`ShimError::Overloaded`].
    pub max_inflight: usize,
    /// Journal file. `None` keeps the journal in memory only (tests).
    pub journal_path: Option<PathBuf>,
    /// Naive baseline mode: journal every update as its own record with
    /// its own fsync instead of one frame + one fsync per batch. Used by
    /// the campaign's throughput comparison; not crash-atomic per batch.
    pub fsync_per_update: bool,
}

impl Default for ShimConfig {
    fn default() -> ShimConfig {
        ShimConfig {
            shards: 8,
            max_inflight: 64,
            journal_path: None,
            fsync_per_update: false,
        }
    }
}

/// A P4Runtime-style update batch: the atomic unit of validation,
/// application, journaling, and acknowledgement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    /// Updates, applied in order.
    pub updates: Vec<Update>,
}

impl From<Vec<Update>> for Batch {
    fn from(updates: Vec<Update>) -> Batch {
        Batch { updates }
    }
}

/// Outcome of an acknowledged batch.
#[derive(Clone, Debug)]
pub struct BatchDecision {
    /// Journal sequence number of the batch's frame.
    pub seq: u64,
    /// Assigned rule ids, one slot per update (inserts only).
    pub rule_ids: Vec<Option<usize>>,
    /// End-to-end latency including the journal fsync.
    pub latency: Duration,
    /// Assertions evaluated across the batch.
    pub assertions_checked: usize,
}

/// A rejected batch. The whole batch was rolled back — nothing of it is
/// visible in shadow state or the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReject {
    /// Index of the offending update for validation failures; `None` for
    /// batch-level rejections (shed, poisoned shard, journal failure).
    pub index: Option<usize>,
    /// Why.
    pub error: ShimError,
}

impl std::fmt::Display for BatchReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "batch rejected at update {i}: {}", self.error),
            None => write!(f, "batch rejected: {}", self.error),
        }
    }
}

/// What batch recovery did.
#[derive(Clone, Debug, Default)]
pub struct BatchRecovery {
    /// Committed frames replayed.
    pub frames: usize,
    /// Entries replayed into the fresh shadow state.
    pub replayed: usize,
    /// Entries skipped as already applied (idempotent replay).
    pub skipped: usize,
    /// Entries whose replay contradicted the journal.
    pub mismatched: usize,
    /// A torn trailing frame (never-acknowledged batch) was dropped whole.
    pub torn_tail: bool,
    /// Highest batch sequence number seen.
    pub last_seq: Option<u64>,
}

/// Counters of a sharded shim, snapshotted at read time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Batches acknowledged (validated, journaled, fsynced).
    pub batches_acked: u64,
    /// Batches rejected by validation or a fault.
    pub batches_rejected: u64,
    /// Batches shed by admission control.
    pub batches_shed: u64,
    /// Batches rolled back because the journal write/fsync failed.
    pub journal_failures: u64,
    /// Updates inside acknowledged batches.
    pub updates_acked: u64,
    /// Journal fsyncs issued.
    pub fsyncs: u64,
    /// Appends that shared a batch fsync instead of paying their own
    /// (`sum(batch_len - 1)` over acknowledged group commits).
    pub fsync_amortized: u64,
}

#[derive(Default)]
struct AtomicStats {
    batches_acked: AtomicU64,
    batches_rejected: AtomicU64,
    batches_shed: AtomicU64,
    journal_failures: AtomicU64,
    updates_acked: AtomicU64,
}

/// The group-commit journal: an append-only frame stream, optionally
/// backed by a file. `buf` mirrors exactly the bytes that are durable
/// (or would be, in memory-only mode); a failed/torn append marks the
/// file dirty and the next append heals it by truncating back to `buf`.
struct GroupJournal {
    file: Option<std::fs::File>,
    buf: Vec<u8>,
    dirty: bool,
    next_seq: u64,
    fsyncs: u64,
    fsync_amortized: u64,
}

impl GroupJournal {
    fn open(path: Option<&Path>) -> std::io::Result<GroupJournal> {
        let file = match path {
            Some(p) => Some(std::fs::File::create(p)?),
            None => None,
        };
        Ok(GroupJournal {
            file,
            buf: Vec::new(),
            dirty: false,
            next_seq: 0,
            fsyncs: 0,
            fsync_amortized: 0,
        })
    }

    /// Append pre-encoded record bytes covering `updates` updates, then
    /// fsync once. On any error nothing is considered durable: the caller
    /// rolls the batch back and the file is healed before the next append.
    fn append(&mut self, record: &[u8], updates: usize) -> std::io::Result<()> {
        if let Some(f) = self.file.as_mut() {
            if self.dirty {
                f.set_len(self.buf.len() as u64)?;
                f.seek(std::io::SeekFrom::Start(self.buf.len() as u64))?;
                self.dirty = false;
            }
            // Chaos hook: tear the group-commit write half-way — the
            // on-disk state a crash mid-commit produces. The frame's
            // trailer never lands, so recovery drops the batch whole.
            if bf4_obs::fault::fire("shim.batch_torn") {
                let _ = f.write_all(&record[..record.len() / 2]);
                let _ = f.sync_all();
                self.dirty = true;
                return Err(std::io::Error::other("injected fault: shim.batch_torn"));
            }
            if let Err(e) = f.write_all(record) {
                self.dirty = true;
                return Err(e);
            }
            let mut sp = bf4_obs::span("shim", "journal_fsync");
            if sp.is_active() {
                sp.add_tag("updates", updates.to_string());
            }
            let t0 = Instant::now();
            if let Err(e) = f.sync_all() {
                self.dirty = true;
                return Err(e);
            }
            bf4_obs::hist_record("shim.journal_fsync", t0.elapsed());
        } else if bf4_obs::fault::fire("shim.batch_torn") {
            return Err(std::io::Error::other("injected fault: shim.batch_torn"));
        }
        self.buf.extend_from_slice(record);
        self.fsyncs += 1;
        if updates > 1 {
            let shared = (updates - 1) as u64;
            self.fsync_amortized += shared;
            bf4_obs::counter_add("shim.journal_fsync_amortized", shared);
        }
        Ok(())
    }
}

enum StagedOp {
    Insert { table: String },
    Delete { table: String, id: usize },
    SetDefault { table: String, old: Option<String> },
}

fn update_table(u: &Update) -> &str {
    match u {
        Update::Insert { table, .. }
        | Update::Delete { table, .. }
        | Update::SetDefault { table, .. } => table,
    }
}

fn lock_shim<'a>(m: &'a Mutex<Shim>) -> MutexGuard<'a, Shim> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded, journaled, admission-controlled shim.
pub struct ShardedShim {
    annotations: AnnotationFile,
    shards: Vec<Mutex<Shim>>,
    /// Table → owning shard (striped by FNV-1a of the qualified name).
    owner: HashMap<String, usize>,
    /// Table → tables it shares a multi-table assertion with (both
    /// directions), i.e. the tables whose state its validation reads.
    partners: HashMap<String, Vec<String>>,
    journal: Mutex<GroupJournal>,
    inflight: AtomicUsize,
    max_inflight: usize,
    fsync_per_update: bool,
    stats: AtomicStats,
}

impl ShardedShim {
    /// Build a sharded shim from an annotation file.
    pub fn new(annotations: &AnnotationFile, config: &ShimConfig) -> std::io::Result<ShardedShim> {
        let nshards = config.shards.max(1);
        let shards = (0..nshards).map(|_| Mutex::new(Shim::new(annotations))).collect();
        let owner: HashMap<String, usize> = annotations
            .tables
            .iter()
            .map(|d| {
                let q = d.qualified();
                let s = (fnv1a(q.as_bytes()) as usize) % nshards;
                (q, s)
            })
            .collect();
        let mut partners: HashMap<String, Vec<String>> = HashMap::new();
        for spec in &annotations.specs {
            if let Some(w) = &spec.with_table {
                let q = spec.qualified();
                partners.entry(q.clone()).or_default().push(w.clone());
                partners.entry(w.clone()).or_default().push(q);
            }
        }
        for v in partners.values_mut() {
            v.sort();
            v.dedup();
        }
        Ok(ShardedShim {
            annotations: annotations.clone(),
            shards,
            owner,
            partners,
            journal: Mutex::new(GroupJournal::open(config.journal_path.as_deref())?),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            fsync_per_update: config.fsync_per_update,
            stats: AtomicStats::default(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Owning shard of a table.
    pub fn owner_shard(&self, table: &str) -> Option<usize> {
        self.owner.get(table).copied()
    }

    /// Validate and apply one batch atomically. On success the batch is
    /// durable in the journal (one group-commit fsync) before it is
    /// acknowledged; on any rejection the shadow state is untouched.
    pub fn apply_batch(&self, batch: &Batch) -> Result<BatchDecision, BatchReject> {
        let mut sp = bf4_obs::span("shim", "batch");
        if sp.is_active() {
            sp.add_tag("updates", batch.updates.len().to_string());
        }
        let t0 = Instant::now();

        // Admission control: bounded in-flight batches; shed beyond the
        // bound (or when the fault plan simulates a lagging journal).
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        let _inflight_guard = InflightGuard(&self.inflight);
        bf4_obs::gauge_set("shim.inflight", (prev + 1) as i64);
        if prev >= self.max_inflight || bf4_obs::fault::fire("shim.overload") {
            self.stats.batches_shed.fetch_add(1, Ordering::Relaxed);
            bf4_obs::counter_add("shim.batch_shed", 1);
            sp.add_tag("outcome", "shed");
            return Err(BatchReject {
                index: None,
                error: ShimError::Overloaded {
                    inflight: prev + 1,
                    limit: self.max_inflight,
                },
            });
        }

        // Structural pre-check before locking: a batch naming an unknown
        // table has no owner shard and is rejected deterministically at
        // the first offending update.
        for (i, u) in batch.updates.iter().enumerate() {
            let t = update_table(u);
            if !self.owner.contains_key(t) {
                self.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_rejected", 1);
                sp.add_tag("outcome", "rejected");
                return Err(BatchReject {
                    index: Some(i),
                    error: ShimError::UnknownTable(t.to_string()),
                });
            }
        }

        // Involved tables = updated tables plus every multi-table-spec
        // partner whose shadow their validation reads.
        let mut tables: BTreeSet<&str> = BTreeSet::new();
        for u in &batch.updates {
            let t = update_table(u);
            tables.insert(t);
            if let Some(ps) = self.partners.get(t) {
                for p in ps {
                    if self.owner.contains_key(p.as_str()) {
                        tables.insert(p);
                    }
                }
            }
        }
        let shard_ids: BTreeSet<usize> = tables.iter().map(|t| self.owner[*t]).collect();

        // Growing phase of the two-phase lock: every involved shard, in
        // ascending index order (deadlock-free by construction).
        let mut guards: BTreeMap<usize, MutexGuard<'_, Shim>> = shard_ids
            .iter()
            .map(|&i| (i, lock_shim(&self.shards[i])))
            .collect();

        // Refresh cross-shard mirrors so each owner's monolithic
        // validation sees the authoritative joint state.
        if guards.len() > 1 {
            let snaps: Vec<(&str, usize, Vec<StoredRule>, Option<String>)> = tables
                .iter()
                .map(|&t| {
                    let o = self.owner[t];
                    let (rules, default) = guards[&o].clone_table(t).expect("owned table");
                    (t, o, rules, default)
                })
                .collect();
            for (t, o, rules, default) in &snaps {
                for (&sid, g) in guards.iter_mut() {
                    if sid != *o {
                        g.overwrite_table(t, rules.clone(), default.clone());
                    }
                }
            }
        }

        // Stage the batch with panic isolation: a poisoned shard worker
        // must not leave a half-applied batch behind.
        let staged: std::cell::RefCell<Vec<StagedOp>> = std::cell::RefCell::new(Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.stage_batch(batch, &mut guards, &staged)
        }));

        let (rule_ids, checked) = match outcome {
            Err(_panic) => {
                Self::rollback(&mut guards, staged.into_inner());
                self.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_rejected", 1);
                sp.add_tag("outcome", "poisoned");
                let shard = shard_ids.iter().next().copied().unwrap_or(0);
                return Err(BatchReject {
                    index: None,
                    error: ShimError::ShardPoisoned { shard },
                });
            }
            Ok(Err((index, error))) => {
                Self::rollback(&mut guards, staged.into_inner());
                self.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_rejected", 1);
                sp.add_tag("outcome", "rejected");
                return Err(BatchReject {
                    index: Some(index),
                    error,
                });
            }
            Ok(Ok(v)) => v,
        };

        // Group commit: one frame, one fsync, while still holding the
        // shard locks — durability before acknowledgement, and no later
        // batch can build on (or journal after) non-durable state.
        let entries: Vec<(Update, Option<usize>)> = batch
            .updates
            .iter()
            .cloned()
            .zip(rule_ids.iter().copied())
            .collect();
        let journal_result = {
            let mut j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = j.next_seq;
            let result = if self.fsync_per_update {
                // Naive baseline: one bare-line record + fsync per update.
                let mut r = Ok(());
                for (u, id) in &entries {
                    let mut line = journal::encode(u, *id).into_bytes();
                    line.push(b'\n');
                    r = j.append(&line, 1);
                    if r.is_err() {
                        break;
                    }
                }
                r
            } else {
                j.append(&encode_frame(seq, &entries), entries.len())
            };
            result.map(|()| {
                j.next_seq += 1;
                seq
            })
        };
        match journal_result {
            Err(e) => {
                Self::rollback(&mut guards, staged.into_inner());
                self.stats.journal_failures.fetch_add(1, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_journal_failed", 1);
                sp.add_tag("outcome", "journal-failed");
                Err(BatchReject {
                    index: None,
                    error: ShimError::JournalFailed(e.to_string()),
                })
            }
            Ok(seq) => {
                self.stats.batches_acked.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .updates_acked
                    .fetch_add(batch.updates.len() as u64, Ordering::Relaxed);
                bf4_obs::counter_add("shim.batch_acked", 1);
                let latency = t0.elapsed();
                bf4_obs::hist_record("shim.batch_apply", latency);
                sp.add_tag("outcome", "accepted");
                Ok(BatchDecision {
                    seq,
                    rule_ids,
                    latency,
                    assertions_checked: checked,
                })
            }
        }
    }

    /// Validate and stage every update of the batch against the locked
    /// shards, recording undo ops. Returns assigned rule ids and the
    /// number of assertions checked, or the first offending update.
    #[allow(clippy::type_complexity)]
    fn stage_batch(
        &self,
        batch: &Batch,
        guards: &mut BTreeMap<usize, MutexGuard<'_, Shim>>,
        staged: &std::cell::RefCell<Vec<StagedOp>>,
    ) -> Result<(Vec<Option<usize>>, usize), (usize, ShimError)> {
        let mut rule_ids = Vec::with_capacity(batch.updates.len());
        let mut checked = 0usize;
        for (i, u) in batch.updates.iter().enumerate() {
            // Chaos hook: a shard worker panics mid-batch. Everything
            // staged so far (this update's predecessors) rolls back.
            if bf4_obs::fault::fire("shim.shard_poison") {
                panic!("injected fault: shim.shard_poison");
            }
            let table = update_table(u);
            let o = self.owner[table];
            match u {
                Update::Insert { table, rule } => {
                    let n = guards[&o]
                        .validate_insert(table, rule)
                        .map_err(|e| (i, e))?;
                    checked += n;
                    let id = guards
                        .get_mut(&o)
                        .expect("locked")
                        .insert_shadow(table, rule.clone());
                    for (&sid, g) in guards.iter_mut() {
                        if sid != o {
                            let mid = g.insert_shadow(table, rule.clone());
                            debug_assert_eq!(mid, id, "mirror id diverged for {table}");
                        }
                    }
                    staged.borrow_mut().push(StagedOp::Insert {
                        table: table.clone(),
                    });
                    rule_ids.push(Some(id));
                }
                Update::Delete { table, rule_id } => {
                    guards[&o]
                        .validate_delete(table, *rule_id)
                        .map_err(|e| (i, e))?;
                    for g in guards.values_mut() {
                        g.delete_shadow(table, *rule_id);
                    }
                    staged.borrow_mut().push(StagedOp::Delete {
                        table: table.clone(),
                        id: *rule_id,
                    });
                    rule_ids.push(None);
                }
                Update::SetDefault { table, action } => {
                    guards[&o]
                        .validate_set_default(table, action)
                        .map_err(|e| (i, e))?;
                    checked += self.annotations.unsafe_defaults.len();
                    let old = guards[&o].default_action(table);
                    for g in guards.values_mut() {
                        g.set_default_raw(table, Some(action.clone()));
                    }
                    staged.borrow_mut().push(StagedOp::SetDefault {
                        table: table.clone(),
                        old,
                    });
                    rule_ids.push(None);
                }
            }
        }
        Ok((rule_ids, checked))
    }

    /// Undo staged ops in reverse order across every locked shard (owner
    /// and mirrors saw the same ops, so the undo is symmetric).
    fn rollback(guards: &mut BTreeMap<usize, MutexGuard<'_, Shim>>, ops: Vec<StagedOp>) {
        for op in ops.into_iter().rev() {
            match op {
                StagedOp::Insert { table } => {
                    for g in guards.values_mut() {
                        g.undo_insert(&table);
                    }
                }
                StagedOp::Delete { table, id } => {
                    for g in guards.values_mut() {
                        g.undo_delete(&table, id);
                    }
                }
                StagedOp::SetDefault { table, old } => {
                    for g in guards.values_mut() {
                        g.set_default_raw(&table, old.clone());
                    }
                }
            }
        }
    }

    /// Rebuild a sharded shim from journal bytes after a crash. Committed
    /// frames replay all-or-nothing (idempotently, like
    /// [`JournaledShim::recover`](crate::JournaledShim::recover)); a torn
    /// trailing frame — a batch that was never acknowledged — is dropped
    /// whole. The recovered shim continues the same journal (the file, if
    /// configured, is rewritten to the valid prefix).
    pub fn recover(
        annotations: &AnnotationFile,
        journal_bytes: &[u8],
        config: &ShimConfig,
    ) -> std::io::Result<(ShardedShim, BatchRecovery)> {
        let parsed = parse_frames(journal_bytes);
        let mut mono = Shim::new(annotations);
        let counts = replay(&mut mono, parsed.frames.iter().flat_map(|f| &f.entries));
        let report = BatchRecovery {
            frames: parsed.frames.len(),
            replayed: counts.replayed,
            skipped: counts.skipped,
            mismatched: counts.mismatched,
            torn_tail: parsed.torn,
            last_seq: parsed.frames.iter().filter_map(|f| f.seq).max(),
        };
        let sharded = ShardedShim::new(annotations, config)?;
        // Distribute the replayed state to each table's owner shard.
        for table in mono.table_names() {
            if let Some((rules, default)) = mono.clone_table(&table) {
                let o = sharded.owner[&table];
                lock_shim(&sharded.shards[o]).overwrite_table(&table, rules, default);
            }
        }
        {
            let mut j = sharded.journal.lock().unwrap_or_else(PoisonError::into_inner);
            j.buf = journal_bytes[..parsed.valid_len].to_vec();
            j.next_seq = report.last_seq.map_or(0, |s| s + 1);
            let buf = std::mem::take(&mut j.buf);
            if let Some(f) = j.file.as_mut() {
                f.write_all(&buf)?;
                f.sync_all()?;
            }
            j.buf = buf;
        }
        Ok((sharded, report))
    }

    /// A monolithic snapshot of the current shadow state (locks every
    /// shard). Used for audits and state export.
    pub fn snapshot(&self) -> Shim {
        let guards: Vec<MutexGuard<'_, Shim>> = self.shards.iter().map(lock_shim).collect();
        let mut mono = Shim::new(&self.annotations);
        for (table, &o) in &self.owner {
            if let Some((rules, default)) = guards[o].clone_table(table) {
                mono.overwrite_table(table, rules, default);
            }
        }
        mono
    }

    /// Deterministic digest of the full shadow state; equals the digest a
    /// monolithic shim computes after the same accepted updates,
    /// regardless of shard count.
    pub fn state_digest(&self) -> u64 {
        let guards: Vec<MutexGuard<'_, Shim>> = self.shards.iter().map(lock_shim).collect();
        let mut names: Vec<&String> = self.owner.keys().collect();
        names.sort();
        let mut render = String::new();
        for name in names {
            guards[self.owner[name.as_str()]].render_table_into(name, &mut render);
        }
        fnv1a(render.as_bytes())
    }

    /// Audit the shadow state against every inferred assertion
    /// (see [`Shim::audit_violations`]).
    pub fn audit_violations(&self) -> Vec<String> {
        self.snapshot().audit_violations()
    }

    /// Number of live rules in a table's shadow.
    pub fn shadow_size(&self, table: &str) -> usize {
        match self.owner.get(table) {
            Some(&o) => lock_shim(&self.shards[o]).shadow_size(table),
            None => 0,
        }
    }

    /// The durable journal bytes (valid frames only).
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buf
            .clone()
    }

    /// Crash-safe full rewrite of the journal to `path` (tmp + fsync +
    /// rename + directory fsync).
    pub fn persist(&self, path: &Path) -> std::io::Result<()> {
        let buf = self.journal_bytes();
        persist_journal(&buf, path)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShardStats {
        let j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        ShardStats {
            batches_acked: self.stats.batches_acked.load(Ordering::Relaxed),
            batches_rejected: self.stats.batches_rejected.load(Ordering::Relaxed),
            batches_shed: self.stats.batches_shed.load(Ordering::Relaxed),
            journal_failures: self.stats.journal_failures.load(Ordering::Relaxed),
            updates_acked: self.stats.updates_acked.load(Ordering::Relaxed),
            fsyncs: j.fsyncs,
            fsync_amortized: j.fsync_amortized,
        }
    }

    /// The annotation file this shim was built from.
    pub fn annotations(&self) -> &AnnotationFile {
        &self.annotations
    }
}

struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}
