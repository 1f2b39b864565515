//! Append-only journal of accepted updates with crash recovery.
//!
//! The shim of §4.4 keeps shadow copies of every asserted table; if the
//! shim process dies, the shadow state is gone while the dataplane still
//! holds the accepted rules — every later multi-table check would run
//! against an empty shadow and silently accept violating rules. To make
//! the shim restartable, every *accepted* update is appended to a journal
//! before the decision is returned:
//!
//! * one record per line, self-delimiting, with a per-line FNV-1a
//!   checksum — a crash half-way through a write leaves a truncated or
//!   corrupt tail that parsing detects and drops instead of choking on;
//! * recovery replays the valid prefix into a fresh [`Shim`]. Replay is
//!   idempotent: an insert already present reads back as
//!   [`ShimError::Duplicate`] and a delete of an already-dead rule as
//!   [`ShimError::NoSuchRule`]; both are skipped, so recovering twice (or
//!   from a journal that double-logged an entry) converges to the same
//!   state;
//! * insert records carry the rule id the original run assigned, and
//!   recovery cross-checks that replay reproduces it — a mismatch means
//!   the journal does not match the annotation file it is replayed under
//!   and is reported rather than papered over.
//!
//! The journal is plain bytes ([`Journal::bytes`]); callers persist it
//! wherever they like ([`Journal::persist`] writes it to a file) and hand
//! the bytes back to [`JournaledShim::recover`] after a crash.

use crate::{Decision, RuleUpdate, Shim, ShimError, Update};
use bf4_core::specs::AnnotationFile;
use bf4_obs::durable::{fnv1a, fnv1a_update, seal, unseal, FNV_OFFSET};

/// One journaled (accepted) update.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// The accepted update.
    pub update: Update,
    /// Rule id the shim assigned (inserts only).
    pub rule_id: Option<usize>,
}

/// In-memory append-only journal. The byte representation is the journal;
/// persistence is just writing those bytes out.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    buf: Vec<u8>,
}

/// Result of parsing journal bytes.
#[derive(Clone, Debug)]
pub struct ParsedJournal {
    /// Entries of the valid prefix, in append order.
    pub entries: Vec<JournalEntry>,
    /// Bytes of the valid prefix (safe to continue appending to).
    pub valid_len: usize,
    /// Whether a truncated or corrupt tail was dropped.
    pub truncated: bool,
}

impl Journal {
    /// Empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Append one accepted update.
    pub fn append(&mut self, update: &Update, rule_id: Option<usize>) {
        let line = encode(update, rule_id);
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// The raw journal bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of journaled entries (assumes `buf` holds only valid lines,
    /// which `append` guarantees).
    pub fn len(&self) -> usize {
        self.buf.iter().filter(|&&b| b == b'\n').count()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write the journal to a file (full rewrite; callers appending
    /// incrementally can write `bytes()` deltas themselves). The write is
    /// fsynced — a persisted journal that a crash can lose defeats its
    /// purpose — and the fsync time is traced separately from the write.
    pub fn persist(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        // Chaos hook: an injected fsync failure that leaves a torn write
        // behind (half the bytes landed before the error) — exactly the
        // on-disk state a crash mid-persist produces, which `parse` must
        // salvage as a valid prefix on reopen.
        if bf4_obs::fault::fire("shim.journal_fsync") {
            let mut f = std::fs::File::create(path)?;
            let _ = f.write_all(&self.buf[..self.buf.len() / 2]);
            let _ = f.sync_all();
            return Err(std::io::Error::other("injected fault: shim.journal_fsync"));
        }
        persist_journal(&self.buf, path)
    }

    /// Parse journal bytes, tolerating a truncated or corrupt tail: the
    /// first line that fails its checksum or does not decode ends the
    /// valid prefix, and everything after it is dropped.
    pub fn parse(bytes: &[u8]) -> ParsedJournal {
        let mut entries = Vec::new();
        let mut valid_len = 0usize;
        let mut pos = 0usize;
        let mut truncated = false;
        while pos < bytes.len() {
            let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                // no terminating newline: the write was cut short
                truncated = true;
                break;
            };
            let line = &bytes[pos..pos + nl];
            match std::str::from_utf8(line).ok().and_then(decode) {
                Some(entry) => {
                    entries.push(entry);
                    pos += nl + 1;
                    valid_len = pos;
                }
                None => {
                    truncated = true;
                    break;
                }
            }
        }
        ParsedJournal {
            entries,
            valid_len,
            truncated,
        }
    }
}

/// What recovery did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Entries re-applied into the fresh shadow state.
    pub replayed: usize,
    /// Entries skipped as already applied (idempotent replay).
    pub skipped: usize,
    /// Entries whose replay outcome contradicted the journal (rejected
    /// update, or an insert that came back with a different rule id):
    /// the journal does not match the annotations it was replayed under.
    pub mismatched: usize,
    /// A truncated/corrupt journal tail was dropped.
    pub truncated_tail: bool,
}

/// A [`Shim`] that journals every accepted update so it can be rebuilt
/// after a crash.
pub struct JournaledShim {
    shim: Shim,
    journal: Journal,
}

impl JournaledShim {
    /// Fresh shim with an empty journal.
    pub fn new(annotations: &AnnotationFile) -> JournaledShim {
        JournaledShim {
            shim: Shim::new(annotations),
            journal: Journal::new(),
        }
    }

    /// Validate and apply one update; accepted updates are journaled.
    pub fn apply(&mut self, update: &Update) -> Result<Decision, ShimError> {
        let decision = self.shim.apply(update)?;
        {
            let _sp = bf4_obs::span("shim", "journal_append");
            self.journal.append(update, decision.rule_id);
        }
        Ok(decision)
    }

    /// The wrapped shim (read access for digests/exports).
    pub fn shim(&self) -> &Shim {
        &self.shim
    }

    /// The journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Rebuild shadow state from journal bytes after a crash. The
    /// recovered shim keeps the valid journal prefix, so accepting more
    /// updates continues the same journal.
    pub fn recover(
        annotations: &AnnotationFile,
        journal_bytes: &[u8],
    ) -> (JournaledShim, RecoveryReport) {
        let parsed = Journal::parse(journal_bytes);
        let mut shim = Shim::new(annotations);
        let counts = replay(&mut shim, &parsed.entries);
        let report = RecoveryReport {
            replayed: counts.replayed,
            skipped: counts.skipped,
            mismatched: counts.mismatched,
            truncated_tail: parsed.truncated,
        };
        let journal = Journal {
            buf: journal_bytes[..parsed.valid_len].to_vec(),
        };
        (JournaledShim { shim, journal }, report)
    }
}

/// Entry tallies of one [`replay`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReplayCounts {
    pub replayed: usize,
    pub skipped: usize,
    pub mismatched: usize,
}

/// Replay journal entries into `shim`, idempotently: an entry that was
/// already applied is skipped, and an entry whose outcome contradicts the
/// journal (rejected, or an insert that gets a different rule id) is
/// counted as mismatched. Shared by both recovery paths.
pub(crate) fn replay<'a>(
    shim: &mut Shim,
    entries: impl IntoIterator<Item = &'a JournalEntry>,
) -> ReplayCounts {
    let mut c = ReplayCounts::default();
    for entry in entries {
        // An insert whose recorded id already holds this exact rule
        // (live or tombstoned) was applied before: re-applying it would
        // mint a fresh id — e.g. a doubled journal replaying the insert
        // of a since-deleted rule. Skip it instead.
        if let (Update::Insert { table, rule }, Some(id)) = (&entry.update, entry.rule_id) {
            if shim.stored_rule(table, id) == Some(rule) {
                c.skipped += 1;
                continue;
            }
        }
        match shim.apply(&entry.update) {
            Ok(d) if d.rule_id == entry.rule_id => c.replayed += 1,
            Ok(_) => c.mismatched += 1,
            // Already present / already gone: the entry had been applied
            // before the snapshot this journal extends.
            Err(ShimError::Duplicate) | Err(ShimError::NoSuchRule) => c.skipped += 1,
            Err(_) => c.mismatched += 1,
        }
    }
    c
}

// ---------------------------------------------------------------------
// record encoding
// ---------------------------------------------------------------------

/// Crash-safe full rewrite of a journal to `path`
/// ([`bf4_obs::durable::persist_bytes`]), with the fsync traced as
/// `shim/journal_fsync`.
pub(crate) fn persist_journal(buf: &[u8], path: &std::path::Path) -> std::io::Result<()> {
    bf4_obs::durable::persist_bytes(buf, path, |f| {
        let _sp = bf4_obs::span("shim", "journal_fsync");
        let t0 = std::time::Instant::now();
        f.sync_all()?;
        bf4_obs::hist_record("shim.journal_fsync", t0.elapsed());
        Ok(())
    })
}

fn csv(vals: &[u128]) -> String {
    if vals.is_empty() {
        return "-".into();
    }
    vals.iter()
        .map(|v| format!("{v:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_csv(s: &str) -> Option<Vec<u128>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',').map(|v| u128::from_str_radix(v, 16).ok()).collect()
}

pub(crate) fn encode(update: &Update, rule_id: Option<usize>) -> String {
    let payload = match update {
        Update::Insert { table, rule } => format!(
            "I {table} {} {} {} {} {}",
            rule_id.unwrap_or(usize::MAX),
            rule.action,
            csv(&rule.key_values),
            csv(&rule.key_masks),
            csv(&rule.params),
        ),
        Update::Delete { table, rule_id } => format!("D {table} {rule_id}"),
        Update::SetDefault { table, action } => format!("S {table} {action}"),
    };
    seal(&payload)
}

fn decode(line: &str) -> Option<JournalEntry> {
    let payload = unseal(line)?;
    let mut p = payload.split(' ');
    match p.next()? {
        "I" => {
            let table = p.next()?.to_string();
            let id: usize = p.next()?.parse().ok()?;
            let action = p.next()?.to_string();
            let key_values = parse_csv(p.next()?)?;
            let key_masks = parse_csv(p.next()?)?;
            let params = parse_csv(p.next()?)?;
            if p.next().is_some() {
                return None;
            }
            Some(JournalEntry {
                update: Update::Insert {
                    table,
                    rule: RuleUpdate {
                        key_values,
                        key_masks,
                        action,
                        params,
                    },
                },
                rule_id: (id != usize::MAX).then_some(id),
            })
        }
        "D" => {
            let table = p.next()?.to_string();
            let rule_id: usize = p.next()?.parse().ok()?;
            if p.next().is_some() {
                return None;
            }
            Some(JournalEntry {
                update: Update::Delete { table, rule_id },
                rule_id: None,
            })
        }
        "S" => {
            let table = p.next()?.to_string();
            let action = p.next()?.to_string();
            if p.next().is_some() {
                return None;
            }
            Some(JournalEntry {
                update: Update::SetDefault { table, action },
                rule_id: None,
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// batch frames (group commit)
// ---------------------------------------------------------------------
//
// A batch frame is the atomic commit unit of the sharded shim:
//
// ```text
// B <seq> <n> #<fnv>          header: sequence number, entry count
// <entry line> × n            the same per-line format as above
// C <seq> <payload_fnv> #<fnv> trailer: seals the payload bytes
// ```
//
// Every line carries the canonical-strict FNV-1a checksum; the trailer
// additionally commits the FNV-1a of the n payload lines (bytes including
// newlines), so a frame is valid only when header, every entry, and the
// trailer all verify *and* the trailer's payload hash matches. Anything
// less — a missing trailer, a short entry list, a corrupt byte — makes
// the whole frame torn: recovery drops it whole, never a split batch.
// Bare entry lines outside a frame are legacy single-update commits
// (what `JournaledShim` and the per-update-fsync baseline write) and
// parse as single-entry frames.

/// One commit unit recovered from journal bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Batch sequence number; `None` for legacy bare-line entries.
    pub seq: Option<u64>,
    /// The committed updates, in apply order.
    pub entries: Vec<JournalEntry>,
}

/// Result of frame-aware parsing.
#[derive(Clone, Debug)]
pub struct ParsedFrames {
    /// Fully committed frames of the valid prefix, in append order.
    pub frames: Vec<Frame>,
    /// Bytes of the valid prefix (ends at the last committed frame).
    pub valid_len: usize,
    /// Whether a torn trailing frame (or corrupt tail) was dropped whole.
    pub torn: bool,
}

/// Encode one batch as a frame (header + entry lines + sealing trailer).
pub(crate) fn encode_frame(seq: u64, entries: &[(Update, Option<usize>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (update, rule_id) in entries {
        payload.extend_from_slice(encode(update, *rule_id).as_bytes());
        payload.push(b'\n');
    }
    let header = format!("B {seq} {}", entries.len());
    let trailer = format!("C {seq} {:016x}", fnv1a(&payload));
    let mut out = Vec::new();
    out.extend_from_slice(seal(&header).as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&payload);
    out.extend_from_slice(seal(&trailer).as_bytes());
    out.push(b'\n');
    out
}

fn decode_frame_header(line: &str) -> Option<(u64, usize)> {
    let payload = unseal(line)?;
    let mut p = payload.split(' ');
    if p.next()? != "B" {
        return None;
    }
    let seq = p.next()?.parse().ok()?;
    let n = p.next()?.parse().ok()?;
    if p.next().is_some() {
        return None;
    }
    Some((seq, n))
}

fn decode_frame_trailer(line: &str) -> Option<(u64, u64)> {
    let payload = unseal(line)?;
    let mut p = payload.split(' ');
    if p.next()? != "C" {
        return None;
    }
    let seq = p.next()?.parse().ok()?;
    let payload_fnv = u64::from_str_radix(p.next()?, 16).ok()?;
    if p.next().is_some() {
        return None;
    }
    Some((seq, payload_fnv))
}

/// Parse journal bytes into commit units, tolerating a torn tail. Frames
/// commit all-or-nothing: the valid prefix ends at the last frame whose
/// trailer verifies (or last valid bare line), and a torn trailing frame
/// is dropped whole — acknowledged batches are never split by recovery.
pub fn parse_frames(bytes: &[u8]) -> ParsedFrames {
    let mut frames = Vec::new();
    let mut valid_len = 0usize;
    let mut pos = 0usize;
    let mut torn = false;
    'outer: while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            torn = true;
            break;
        };
        let Ok(line) = std::str::from_utf8(&bytes[pos..pos + nl]) else {
            torn = true;
            break;
        };
        if let Some((seq, n)) = decode_frame_header(line) {
            let mut fpos = pos + nl + 1;
            let mut entries = Vec::with_capacity(n.min(4096));
            let mut payload_fnv = FNV_OFFSET;
            for _ in 0..n {
                let Some(enl) = bytes[fpos..].iter().position(|&b| b == b'\n') else {
                    torn = true;
                    break 'outer;
                };
                let eline = &bytes[fpos..fpos + enl];
                let Some(entry) = std::str::from_utf8(eline).ok().and_then(decode) else {
                    torn = true;
                    break 'outer;
                };
                payload_fnv = fnv1a_update(payload_fnv, eline);
                payload_fnv = fnv1a_update(payload_fnv, b"\n");
                entries.push(entry);
                fpos += enl + 1;
            }
            let Some(tnl) = bytes[fpos..].iter().position(|&b| b == b'\n') else {
                torn = true;
                break;
            };
            let trailer = std::str::from_utf8(&bytes[fpos..fpos + tnl])
                .ok()
                .and_then(decode_frame_trailer);
            if trailer != Some((seq, payload_fnv)) {
                torn = true;
                break;
            }
            pos = fpos + tnl + 1;
            valid_len = pos;
            frames.push(Frame {
                seq: Some(seq),
                entries,
            });
        } else if let Some(entry) = decode(line) {
            pos += nl + 1;
            valid_len = pos;
            frames.push(Frame {
                seq: None,
                entries: vec![entry],
            });
        } else {
            torn = true;
            break;
        }
    }
    ParsedFrames {
        frames,
        valid_len,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, WorkloadConfig};
    use bf4_core::driver::{verify, VerifyOptions};

    fn nat_annotations() -> AnnotationFile {
        verify(bf4_core::testutil::NAT_SOURCE, &VerifyOptions::default())
            .unwrap()
            .annotations
    }

    fn workload(annotations: &AnnotationFile, n: usize, seed: u64) -> Vec<Update> {
        Controller::new(
            annotations,
            WorkloadConfig {
                updates: n,
                faulty_fraction: 0.2,
                delete_fraction: 0.2,
                seed,
                ..WorkloadConfig::default()
            },
        )
        .workload()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = vec![
            (
                Update::Insert {
                    table: "ingress.nat".into(),
                    rule: RuleUpdate {
                        key_values: vec![1, 0x0a000001],
                        key_masks: vec![u128::MAX, 0xffffffff],
                        action: "nat_hit_int_to_ext".into(),
                        params: vec![0xC0A80001, 7],
                    },
                },
                Some(3),
            ),
            (
                Update::Insert {
                    table: "ingress.t".into(),
                    rule: RuleUpdate {
                        key_values: vec![],
                        key_masks: vec![],
                        action: "a".into(),
                        params: vec![],
                    },
                },
                Some(0),
            ),
            (
                Update::Delete {
                    table: "ingress.nat".into(),
                    rule_id: 12,
                },
                None,
            ),
            (
                Update::SetDefault {
                    table: "ingress.nat".into(),
                    action: "drop_".into(),
                },
                None,
            ),
        ];
        for (u, id) in cases {
            let line = encode(&u, id);
            let back = decode(&line).expect(&line);
            assert_eq!(format!("{:?}", back.update), format!("{u:?}"));
            assert_eq!(back.rule_id, id);
        }
    }

    #[test]
    fn corrupt_line_rejected() {
        let good = encode(
            &Update::Delete {
                table: "a.b".into(),
                rule_id: 1,
            },
            None,
        );
        assert!(decode(&good).is_some());
        let mut bad = good.clone();
        bad.replace_range(0..1, "X");
        assert!(decode(&bad).is_none(), "checksum must catch edits");
        assert!(decode(&good[..good.len() - 3]).is_none());
        // Uppercasing the hex sum is a single 0x20 bit flip per letter: a
        // different line, so it must not verify.
        let (payload, sum) = good.rsplit_once(" #").unwrap();
        let upper = sum.to_uppercase();
        assert_ne!(sum, upper, "the sum must contain a hex letter");
        assert!(decode(&format!("{payload} #{upper}")).is_none());
    }

    #[test]
    fn parse_drops_truncated_tail() {
        let mut j = Journal::new();
        j.append(
            &Update::Delete {
                table: "a.b".into(),
                rule_id: 0,
            },
            None,
        );
        j.append(
            &Update::SetDefault {
                table: "a.b".into(),
                action: "x".into(),
            },
            None,
        );
        let full = j.bytes();
        // cut inside the second line
        let cut = &full[..full.len() - 5];
        let parsed = Journal::parse(cut);
        assert_eq!(parsed.entries.len(), 1);
        assert!(parsed.truncated);
        // the valid prefix is exactly the first line
        let first_line_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(parsed.valid_len, first_line_len);
        let clean = Journal::parse(full);
        assert_eq!(clean.entries.len(), 2);
        assert!(!clean.truncated);
    }

    #[test]
    fn recovery_rebuilds_identical_state_at_every_entry_prefix() {
        let annotations = nat_annotations();
        let mut shim = JournaledShim::new(&annotations);
        // digest after each accepted update, indexed by journal length
        let mut digests = vec![shim.shim().state_digest()];
        for u in workload(&annotations, 200, 11) {
            if shim.apply(&u).is_ok() {
                digests.push(shim.shim().state_digest());
            }
        }
        let bytes = shim.journal().bytes().to_vec();
        assert_eq!(shim.journal().len() + 1, digests.len());
        // newline offsets = crash points right after a flushed entry
        let mut offsets = vec![0usize];
        offsets.extend(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        for (k, &off) in offsets.iter().enumerate() {
            let (rec, report) = JournaledShim::recover(&annotations, &bytes[..off]);
            assert_eq!(
                rec.shim().state_digest(),
                digests[k],
                "prefix of {k} entries must reconstruct the same state"
            );
            assert_eq!(report.replayed, k);
            assert_eq!(report.mismatched, 0);
            assert!(!report.truncated_tail);
        }
    }

    #[test]
    fn recovery_from_mid_line_crash_equals_last_flushed_entry() {
        let annotations = nat_annotations();
        let mut shim = JournaledShim::new(&annotations);
        let mut digests = vec![shim.shim().state_digest()];
        for u in workload(&annotations, 120, 5) {
            if shim.apply(&u).is_ok() {
                digests.push(shim.shim().state_digest());
            }
        }
        let bytes = shim.journal().bytes().to_vec();
        // crash at EVERY byte position: state must equal the digest after
        // the last fully flushed entry
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            let flushed = prefix.iter().filter(|&&b| b == b'\n').count();
            let (rec, _) = JournaledShim::recover(&annotations, prefix);
            assert_eq!(
                rec.shim().state_digest(),
                digests[flushed],
                "crash at byte {cut} ({flushed} entries flushed)"
            );
        }
    }

    #[test]
    fn recovered_shim_decides_like_uninterrupted_run() {
        let annotations = nat_annotations();
        let updates = workload(&annotations, 300, 77);
        for crash_at in [0, 1, 37, 150, 299, 300] {
            let mut straight = JournaledShim::new(&annotations);
            let mut crashed = JournaledShim::new(&annotations);
            for u in &updates[..crash_at] {
                let a = straight.apply(u).map(|d| d.rule_id);
                let b = crashed.apply(u).map(|d| d.rule_id);
                assert_eq!(a.is_ok(), b.is_ok());
            }
            let (mut recovered, report) =
                JournaledShim::recover(&annotations, crashed.journal().bytes());
            assert_eq!(report.mismatched, 0);
            assert_eq!(
                recovered.shim().state_digest(),
                straight.shim().state_digest()
            );
            for u in &updates[crash_at..] {
                let a = straight.apply(u).map(|d| d.rule_id);
                let b = recovered.apply(u).map(|d| d.rule_id);
                match (&a, &b) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y),
                    (Err(x), Err(y)) => assert_eq!(x, y),
                    other => panic!("decisions diverge after recovery at {crash_at}: {other:?}"),
                }
            }
            assert_eq!(
                straight.journal().bytes(),
                recovered.journal().bytes(),
                "continued journal must match the uninterrupted one"
            );
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let annotations = nat_annotations();
        let mut shim = JournaledShim::new(&annotations);
        for u in workload(&annotations, 100, 3) {
            let _ = shim.apply(&u);
        }
        // double the journal: second half replays as Duplicate/NoSuchRule
        let mut doubled = shim.journal().bytes().to_vec();
        doubled.extend_from_slice(shim.journal().bytes());
        let (rec, report) = JournaledShim::recover(&annotations, &doubled);
        assert_eq!(rec.shim().state_digest(), shim.shim().state_digest());
        assert_eq!(report.replayed, shim.journal().len());
        assert!(report.skipped > 0);
    }

    #[test]
    fn journal_under_wrong_annotations_reports_mismatch() {
        let annotations = nat_annotations();
        let mut shim = JournaledShim::new(&annotations);
        for u in workload(&annotations, 60, 9) {
            let _ = shim.apply(&u);
        }
        // replaying under empty annotations: every table is unknown
        let (rec, report) = JournaledShim::recover(&AnnotationFile::default(), shim.journal().bytes());
        assert_eq!(report.replayed, 0);
        assert_eq!(report.mismatched, shim.journal().len());
        assert_eq!(rec.shim().table_names().len(), 0);
    }

    #[test]
    fn persist_and_reload() {
        let annotations = nat_annotations();
        let mut shim = JournaledShim::new(&annotations);
        for u in workload(&annotations, 50, 21) {
            let _ = shim.apply(&u);
        }
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bf4-journal-test-{}.log", std::process::id()));
        shim.journal().persist(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let (rec, _) = JournaledShim::recover(&annotations, &bytes);
        assert_eq!(rec.shim().state_digest(), shim.shim().state_digest());
    }

    #[test]
    fn frames_roundtrip_and_mix_with_bare_lines() {
        let u1 = Update::Delete {
            table: "a.b".into(),
            rule_id: 0,
        };
        let u2 = Update::SetDefault {
            table: "a.b".into(),
            action: "x".into(),
        };
        let mut bytes = encode_frame(7, &[(u1.clone(), None), (u2.clone(), None)]);
        bytes.extend_from_slice(encode(&u1, None).as_bytes());
        bytes.push(b'\n');
        let parsed = parse_frames(&bytes);
        assert!(!parsed.torn);
        assert_eq!(parsed.valid_len, bytes.len());
        assert_eq!(parsed.frames.len(), 2);
        assert_eq!(parsed.frames[0].seq, Some(7));
        assert_eq!(parsed.frames[0].entries.len(), 2);
        assert_eq!(parsed.frames[1].seq, None);
        assert_eq!(parsed.frames[1].entries.len(), 1);
    }

    #[test]
    fn torn_frame_dropped_whole_at_every_cut() {
        let u1 = Update::Delete {
            table: "a.b".into(),
            rule_id: 0,
        };
        let u2 = Update::SetDefault {
            table: "a.b".into(),
            action: "x".into(),
        };
        let mut bytes = encode_frame(1, &[(u1.clone(), None)]);
        let committed = bytes.len();
        bytes.extend_from_slice(&encode_frame(2, &[(u2, None), (u1, None)]));
        // A crash at any byte inside the second frame must drop it whole:
        // never a partial batch, and the first frame stays intact.
        for cut in committed + 1..bytes.len() {
            let p = parse_frames(&bytes[..cut]);
            assert_eq!(p.frames.len(), 1, "cut at {cut}");
            assert_eq!(p.valid_len, committed, "cut at {cut}");
            assert!(p.torn, "cut at {cut}");
        }
        // corrupting any single byte of the second frame also tears it
        let mut evil = bytes.clone();
        evil[committed + 3] ^= 0x40;
        let p = parse_frames(&evil);
        assert_eq!(p.frames.len(), 1);
        assert!(p.torn);
    }
}
