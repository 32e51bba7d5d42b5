//! Write-ahead journaling of platform batches for crash recovery.
//!
//! Crowdsourced judgments cost real money: a campaign killed halfway has
//! paid for every answered comparison, and restarting from scratch buys
//! them all again. The paper's two-phase algorithm is driven entirely by
//! its ordered comparison stream, so a journal of *(batch pairs, worker
//! assignments, outcomes, RNG stream positions, budget spent)* is a
//! complete recovery state.
//!
//! This module provides the journal itself:
//!
//! * [`JournalRecord`] — the versioned record vocabulary: one
//!   [`Started`](JournalRecord::Started) header, then a
//!   [`Scheduled`](JournalRecord::Scheduled) /
//!   [`Completed`](JournalRecord::Completed) pair per batch.
//! * [`Journal`] — an append-only byte log with an explicit durability
//!   line: records accumulate in a pending buffer and survive a crash
//!   only once [`flush`](Journal::flush)ed. Every record is framed as
//!   `<len> <fnv1a64-hex> <json>\n` (length-prefixed + checksummed
//!   JSONL), so a torn tail — a crash mid-write — is *detected*, not
//!   silently parsed.
//! * [`JournaledOracle`] — a [`PlatformOracle`] decorator that
//!   write-ahead journals every batch: the `Scheduled` record is flushed
//!   *before* workers are asked (the WAL invariant — at most one batch is
//!   ever in flight), the `Completed` record is flushed at the
//!   batch-aligned cadence of a [`CheckpointPolicy`].
//!
//! # The resume audit
//!
//! Every journal in the workspace — this job WAL and the crowd-serve WAL
//! in [`crate::serve`] — is resumed the same way: the code re-runs from
//! the start on a fresh, deterministic state machine, writing a new
//! journal, and that journal is opened with [`Journal::resuming`] over
//! the crashed journal's intact frames. One rule audits the run: it must
//! re-append those frames **byte for byte and in order** before it
//! appends anything new. A different frame, or a run that finishes with
//! recovered frames not yet reproduced, is a divergence
//! ([`Journal::diverged`]). A re-encoded `Completed` frame carries the
//! winners, worker assignments, tally, spend, fault-stream position and
//! partial flag, so this one byte comparison audits all of them; and
//! since a `Scheduled` frame is compared before its batch executes, a
//! diverged run buys no new work.
//!
//! Recovery from these bytes lives in [`mod@crate::recover`]; deterministic
//! crash injection in [`crate::chaos`].

use crate::chaos::ChaosPlan;
use crate::platform::{Platform, PlatformOracle};
use crate::worker::WorkerId;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_obs::{names as metric_names, Event};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Version stamped into every [`JournalRecord::Started`] header. Bump on
/// any change to the record vocabulary or frame format; recovery refuses
/// journals written by a different version rather than misread them.
pub const JOURNAL_VERSION: u32 = 2;

/// FNV-1a 64-bit — the frame checksum. Not cryptographic; it only has to
/// catch torn tails and bit rot, and it does that in four lines with no
/// dependencies.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One journal record. Serialized as one framed JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The journal header — always the first record.
    Started {
        /// The writing code's [`JOURNAL_VERSION`].
        version: u32,
        /// A caller-chosen job label (recovery verifies it resumes the
        /// job it thinks it does).
        job: String,
        /// The platform RNG seed the job was started with.
        seed: u64,
    },
    /// A batch is about to be submitted to workers. Flushed *before*
    /// execution — the write-ahead half of the WAL pair.
    Scheduled {
        /// 0-based batch index.
        batch: u64,
        /// The worker class asked.
        class: WorkerClass,
        /// The comparison pairs, in submission order.
        pairs: Vec<(ElementId, ElementId)>,
    },
    /// The batch finished (fully, or up to a mid-batch fault).
    Completed {
        /// The matching [`Scheduled`](JournalRecord::Scheduled) index.
        batch: u64,
        /// Majority winner per pair, in submission order. On a partial
        /// batch this is the completed *prefix* — those answers were
        /// purchased and must never be re-bought.
        winners: Vec<ElementId>,
        /// Workers the batch's schedule assigned, in assignment order.
        workers: Vec<WorkerId>,
        /// The platform's cumulative judgment tally after the batch.
        counts: ComparisonCounts,
        /// Money spent after the batch, in the ledger's units.
        spent: f64,
        /// The fault plan's SplitMix64 stream position after the batch:
        /// the attempt index the next judgment fate will be drawn at.
        fault_seq: u64,
        /// True when the batch errored mid-way and `winners` is a prefix.
        partial: bool,
    },
}

/// When `Completed` records are made durable. `Scheduled` records ignore
/// the cadence: the WAL invariant flushes them unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Flush after this many completed batches (minimum 1).
    pub every_batches: u64,
}

impl CheckpointPolicy {
    /// Checkpoint after every completed batch — maximum durability, one
    /// flush per batch.
    pub fn every_batch() -> Self {
        CheckpointPolicy { every_batches: 1 }
    }

    /// Checkpoint after every `n` completed batches (`n` is clamped to at
    /// least 1). Larger `n` amortizes flushes; a crash can lose up to
    /// `n - 1` completed batches (they are then re-bought on resume).
    pub fn every(n: u64) -> Self {
        CheckpointPolicy {
            every_batches: n.max(1),
        }
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::every_batch()
    }
}

/// The outcome of decoding journal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedJournal {
    /// The records that decoded cleanly, in order.
    pub records: Vec<JournalRecord>,
    /// Bytes consumed by those records — the recovery point.
    pub valid_bytes: usize,
    /// True when trailing bytes after the last clean record failed the
    /// frame or checksum check (a torn tail from a crash mid-write).
    pub torn_tail: bool,
}

/// An append-only journal with an explicit durability line.
///
/// The in-memory stand-in for an fsync'd file: [`append`](Journal::append)
/// buffers a record, [`flush`](Journal::flush) moves the buffer across the
/// durability line, and a crash (see [`crate::chaos`]) discards whatever
/// was still pending — or, for a torn write, half a frame.
///
/// A journal opened with [`resuming`](Journal::resuming) also carries the
/// resume audit described in the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Journal {
    durable: Vec<u8>,
    pending: Vec<u8>,
    replay: Option<Replay>,
}

/// The resume audit: the crashed journal's intact frames and how far the
/// resumed run has re-appended them.
#[derive(Debug, Clone, Default)]
struct Replay {
    /// The crashed journal's intact frames, as encoded.
    recovered: Vec<u8>,
    /// Bytes of `recovered` re-appended so far.
    pos: usize,
    /// Batches the re-appended frames restored.
    batches: u64,
    /// Comparisons the re-appended frames restored.
    comparisons: u64,
    /// The first divergence, if any.
    diverged: Option<String>,
    /// [`Event::RecoveryCompleted`] has been emitted.
    completed: bool,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// An empty journal for a resumed run, audited against `recovered` —
    /// the crashed journal's intact frames (its valid prefix). Emits
    /// [`Event::RecoveryStarted`] with the caller's count of completed
    /// batches in `recovered` and whether a torn tail was discarded.
    pub fn resuming(recovered: &[u8], batches: u64, torn_tail: bool) -> Self {
        crowd_obs::emit(Event::RecoveryStarted { batches, torn_tail });
        Journal {
            replay: Some(Replay {
                recovered: recovered.to_vec(),
                ..Replay::default()
            }),
            ..Journal::default()
        }
    }

    /// Encodes `record` into the pending buffer. Not durable until
    /// [`flush`](Journal::flush).
    ///
    /// # Panics
    ///
    /// Panics if the record fails to serialize (it cannot: records are
    /// plain value trees).
    pub fn append(&mut self, record: &JournalRecord) {
        let json = serde_json::to_string(record).expect("journal record serializes");
        let (batches, comparisons) = match record {
            JournalRecord::Started { .. } => (0, 0),
            JournalRecord::Scheduled { .. } => (1, 0),
            JournalRecord::Completed { winners, .. } => (0, winners.len() as u64),
        };
        self.append_restoring(&json, batches, comparisons);
    }

    /// Encodes an arbitrary pre-serialized JSON record into the pending
    /// buffer using the same `<len> <checksum> <json>\n` framing. This is
    /// the extension seam other record vocabularies (the service journal
    /// in [`crate::serve`]) share so every journal in the workspace has
    /// one torn-tail story and one resume audit.
    pub fn append_json(&mut self, json: &str) {
        self.append_restoring(json, 0, 0);
    }

    /// [`append_json`](Journal::append_json) for a frame that, when a
    /// resumed run re-appends it, restores `batches` batches and
    /// `comparisons` purchased comparisons from the crashed journal — the
    /// counts [`Event::RecoveryCompleted`] reports.
    pub fn append_restoring(&mut self, json: &str, batches: u64, comparisons: u64) {
        let start = self.pending.len();
        let header = format!("{} {:016x} ", json.len(), fnv1a64(json.as_bytes()));
        self.pending.extend_from_slice(header.as_bytes());
        self.pending.extend_from_slice(json.as_bytes());
        self.pending.push(b'\n');
        let Some(replay) = &mut self.replay else {
            return;
        };
        if replay.diverged.is_some() || replay.pos == replay.recovered.len() {
            return;
        }
        let frame = &self.pending[start..];
        if replay.recovered[replay.pos..].starts_with(frame) {
            replay.pos += frame.len();
            replay.batches += batches;
            replay.comparisons += comparisons;
        } else {
            replay.diverged = Some(format!(
                "byte {}: the resumed run appended a frame the crashed journal does not hold",
                replay.pos
            ));
        }
    }

    /// The resume audit's first divergence, if any (always `None` for a
    /// journal not opened with [`resuming`](Journal::resuming)).
    pub fn diverged(&self) -> Option<&str> {
        self.replay.as_ref()?.diverged.as_deref()
    }

    /// True while recovered frames remain to be re-appended.
    pub fn replaying(&self) -> bool {
        self.replay
            .as_ref()
            .is_some_and(|r| r.pos < r.recovered.len())
    }

    /// Comparisons restored so far by re-appended frames.
    pub fn replayed_comparisons(&self) -> u64 {
        self.replay.as_ref().map_or(0, |r| r.comparisons)
    }

    /// Closes the resume audit once every recovered frame has been
    /// re-appended: emits [`Event::RecoveryCompleted`] and adds the
    /// restored comparisons to the
    /// [`crowd_replayed_comparisons_total`](metric_names::REPLAYED_COMPARISONS)
    /// counter, exactly once. With `finished` — the resumed run has ended
    /// — recovered frames still not re-appended are a divergence instead.
    /// A no-op on a journal that is not resuming.
    pub fn end_replay(&mut self, finished: bool) {
        let Some(replay) = &mut self.replay else {
            return;
        };
        if replay.completed || replay.diverged.is_some() {
            return;
        }
        if replay.pos < replay.recovered.len() {
            if finished {
                replay.diverged = Some(format!(
                    "byte {}: the resumed run finished before re-appending the crashed journal",
                    replay.pos
                ));
            }
            return;
        }
        replay.completed = true;
        crowd_obs::emit(Event::RecoveryCompleted {
            replayed_batches: replay.batches,
            replayed_comparisons: replay.comparisons,
        });
        crowd_obs::counter_add(metric_names::REPLAYED_COMPARISONS, &[], replay.comparisons);
    }

    /// Moves every pending byte across the durability line. Returns the
    /// bytes flushed (0 when nothing was pending).
    pub fn flush(&mut self) -> u64 {
        let n = self.pending.len() as u64;
        self.durable.append(&mut self.pending);
        n
    }

    /// Simulates a crash mid-write: only the first `keep` pending bytes
    /// reach durable storage, the rest are lost with the process. The
    /// durable journal now ends in a torn frame that decoding must detect
    /// via its length prefix and checksum.
    pub fn flush_torn(&mut self, keep: usize) -> u64 {
        let keep = keep.min(self.pending.len());
        self.durable.extend_from_slice(&self.pending[..keep]);
        self.pending.clear();
        keep as u64
    }

    /// The bytes that would survive a crash right now.
    pub fn durable(&self) -> &[u8] {
        &self.durable
    }

    /// Bytes appended but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Decodes journal bytes frame by frame, stopping at the first torn
    /// or corrupt frame. Never fails: a journal is readable up to its
    /// last intact record by construction.
    pub fn decode(bytes: &[u8]) -> DecodedJournal {
        let raw = Journal::decode_json(bytes);
        let mut records = Vec::new();
        let mut valid_bytes = 0usize;
        let mut torn_tail = raw.torn_tail;
        for (json, len) in raw.frames {
            match serde_json::from_str(&json) {
                Ok(record) => {
                    records.push(record);
                    valid_bytes += len;
                }
                Err(_) => {
                    // Intact frame, wrong vocabulary: unreadable from here.
                    torn_tail = true;
                    break;
                }
            }
        }
        DecodedJournal {
            records,
            valid_bytes,
            torn_tail,
        }
    }

    /// Decodes journal bytes into raw JSON payloads, stopping at the first
    /// torn or corrupt frame, without committing to a record vocabulary.
    /// Shared by every journal reader in the workspace.
    pub fn decode_json(bytes: &[u8]) -> DecodedFrames {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(frame) = decode_raw_frame(&bytes[pos..]) else {
                return DecodedFrames {
                    frames,
                    valid_bytes: pos,
                    torn_tail: true,
                };
            };
            pos += frame.1;
            frames.push(frame);
        }
        DecodedFrames {
            frames,
            valid_bytes: pos,
            torn_tail: false,
        }
    }
}

/// Raw frames decoded from journal bytes: `(json payload, encoded frame
/// length)` pairs plus the same torn-tail verdict [`DecodedJournal`]
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrames {
    /// The intact frames, in order: JSON payload and total encoded length.
    pub frames: Vec<(String, usize)>,
    /// Bytes consumed by the intact frames.
    pub valid_bytes: usize,
    /// True when trailing bytes failed the frame or checksum check.
    pub torn_tail: bool,
}

/// Decodes one `<len> <checksum> <json>\n` frame from the front of
/// `bytes` into `(json, total frame length)`, or `None` when the frame is
/// truncated or corrupt.
fn decode_raw_frame(bytes: &[u8]) -> Option<(String, usize)> {
    let sp1 = bytes.iter().position(|&b| b == b' ')?;
    let len: usize = std::str::from_utf8(&bytes[..sp1]).ok()?.parse().ok()?;
    let sum_start = sp1 + 1;
    let sum_end = sum_start.checked_add(16)?;
    if bytes.len() <= sum_end || bytes[sum_end] != b' ' {
        return None;
    }
    let sum =
        u64::from_str_radix(std::str::from_utf8(&bytes[sum_start..sum_end]).ok()?, 16).ok()?;
    let json_start = sum_end + 1;
    let json_end = json_start.checked_add(len)?;
    if bytes.len() <= json_end || bytes[json_end] != b'\n' {
        return None;
    }
    let json = &bytes[json_start..json_end];
    if fnv1a64(json) != sum {
        return None;
    }
    Some((std::str::from_utf8(json).ok()?.to_string(), json_end + 1))
}

/// A [`PlatformOracle`] decorator that write-ahead journals every batch.
///
/// Per batch: the `Scheduled` record is appended and *flushed* before any
/// worker is asked (so a crash can leave at most one batch in flight),
/// the batch runs on the wrapped platform, and the `Completed` record —
/// winners, worker assignments, cumulative tally, spend, and the fault
/// plan's SplitMix64 position — is appended and flushed at the
/// [`CheckpointPolicy`] cadence. Each checkpoint emits
/// [`Event::CheckpointWritten`] and bumps the
/// [`crowd_journal_bytes_total`](metric_names::JOURNAL_BYTES) counter.
///
/// An optional [`ChaosPlan`] deterministically kills the run at a seeded
/// injection point: the oracle reports [`OracleError::Interrupted`], and
/// every later call short-circuits to the same error — a crashed journal
/// stays frozen exactly at the crash point. [`mod@crate::recover`] turns the
/// durable bytes back into a running job: a decorator over a
/// [`resuming`](Journal::resuming) journal, which refuses to execute a
/// batch whose `Scheduled` frame diverged from the crashed journal.
#[derive(Debug)]
pub struct JournaledOracle<R: RngCore> {
    inner: PlatformOracle<R>,
    journal: Journal,
    policy: CheckpointPolicy,
    chaos: Option<ChaosPlan>,
    next_batch: u64,
    unflushed_completed: u64,
    crashed: bool,
}

impl<R: RngCore> JournaledOracle<R> {
    /// Wraps `platform`, journaling under the given job label and
    /// checkpoint cadence. The `Started` header is flushed immediately.
    pub fn new(platform: Platform<R>, job: &str, seed: u64, policy: CheckpointPolicy) -> Self {
        JournaledOracle::with_journal(platform, job, seed, policy, Journal::new())
    }

    /// [`new`](Self::new) over a given (possibly
    /// [`resuming`](Journal::resuming)) journal.
    pub(crate) fn with_journal(
        platform: Platform<R>,
        job: &str,
        seed: u64,
        policy: CheckpointPolicy,
        mut journal: Journal,
    ) -> Self {
        journal.append(&JournalRecord::Started {
            version: JOURNAL_VERSION,
            job: job.to_string(),
            seed,
        });
        journal.flush();
        journal.end_replay(false);
        JournaledOracle {
            inner: PlatformOracle::new(platform),
            journal,
            policy,
            chaos: None,
            next_batch: 0,
            unflushed_completed: 0,
            crashed: false,
        }
    }

    /// Arms a deterministic crash plan. See [`crate::chaos`].
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The journal (its [`durable`](Journal::durable) bytes are what a
    /// crash leaves behind).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Platform<R> {
        self.inner.platform()
    }

    /// True once a chaos crash has fired; every oracle call now reports
    /// [`OracleError::Interrupted`].
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Batches journaled so far.
    pub fn batches(&self) -> u64 {
        self.next_batch
    }

    /// Flushes any pending `Completed` records (an orderly shutdown —
    /// call when the driving algorithm finishes). Returns bytes flushed.
    /// On a resumed run this also ends the resume audit: recovered frames
    /// the run never re-appended make it [`diverged`](Journal::diverged).
    pub fn finish(&mut self) -> u64 {
        let bytes = self.journal.flush();
        if bytes > 0 {
            self.checkpoint_written(bytes);
        }
        self.unflushed_completed = 0;
        self.journal.end_replay(true);
        bytes
    }

    /// Consumes the decorator, returning the journal and the platform.
    pub fn into_parts(self) -> (Journal, Platform<R>) {
        (self.journal, self.inner.into_platform())
    }

    fn checkpoint_written(&self, bytes: u64) {
        crowd_obs::emit(Event::CheckpointWritten {
            batches: self.next_batch,
            bytes,
        });
        crowd_obs::counter_add(metric_names::JOURNAL_BYTES, &[], bytes);
    }

    fn crash(&mut self) -> OracleError {
        self.crashed = true;
        OracleError::Interrupted
    }
}

impl<R: RngCore> ComparisonOracle for JournaledOracle<R> {
    /// Infallible trait surface. Callers that must not panic on a
    /// fault-exhausted platform use [`Self::try_compare`], which returns
    /// the typed [`OracleError`] instead.
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.try_compare(class, k, j)
            .expect("the journaled platform cannot answer")
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        let mut winners = Vec::with_capacity(1);
        self.try_compare_batch(class, &[(k, j)], &mut winners)?;
        Ok(winners[0])
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.try_compare_batch(class, pairs, winners)
            .expect("the journaled platform cannot answer");
    }

    /// The WAL hot path. On a chaos crash nothing is executed: the run is
    /// dead, the durable journal is the recovery state, and the completed
    /// prefix of earlier batches is already behind the durability line.
    /// A resumed run that diverged from its crashed journal is refused the
    /// same way, so it buys no new work.
    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        if self.crashed || self.journal.diverged().is_some() {
            return Err(OracleError::Interrupted);
        }
        if pairs.is_empty() {
            return Ok(());
        }
        if self.chaos.as_mut().is_some_and(|c| c.fires_armed()) {
            // A boundary-armed crash (between rounds, at the phase
            // transition) dies before this batch writes anything: any
            // Completed records still pending under a lazy checkpoint
            // cadence are lost with the process and re-bought on resume.
            return Err(self.crash());
        }
        let batch = self.next_batch;
        self.next_batch += 1;
        let scheduled = JournalRecord::Scheduled {
            batch,
            class,
            pairs: pairs.to_vec(),
        };
        if self
            .chaos
            .as_mut()
            .is_some_and(|c| c.tears_journal_at(batch))
        {
            // Crash mid-journal-write: half the Scheduled frame reaches
            // durable storage. Decoding must detect and drop the torn
            // tail; the batch never ran, so nothing is lost but the
            // frame itself.
            self.journal.append(&scheduled);
            let torn = self.journal.pending_len() / 2;
            self.journal.flush_torn(torn);
            return Err(self.crash());
        }
        self.journal.append(&scheduled);
        if self.journal.diverged().is_some() {
            // The resumed run asks for other work than the crashed run
            // scheduled: refuse before anything is flushed or bought.
            return Err(OracleError::Interrupted);
        }
        let bytes = self.journal.flush();
        self.checkpoint_written(bytes);
        self.unflushed_completed = 0;
        if self.chaos.as_mut().is_some_and(|c| c.crashes_at(batch)) {
            // Crash mid-batch: the Scheduled record is durable (the WAL
            // write happened) but no worker was asked — recovery finds
            // the dangling record and runs the batch live.
            return Err(self.crash());
        }
        let start = winners.len();
        let outcome = self.inner.try_compare_batch(class, pairs, winners);
        let partial = outcome.is_err();
        self.journal.append(&JournalRecord::Completed {
            batch,
            winners: winners[start..].to_vec(),
            workers: self.inner.platform().last_assignments().to_vec(),
            counts: self.inner.counts(),
            spent: self.inner.platform().ledger().total(),
            fault_seq: self.inner.platform().fault_seq(),
            partial,
        });
        self.unflushed_completed += 1;
        if partial || self.unflushed_completed >= self.policy.every_batches {
            let bytes = self.journal.flush();
            self.checkpoint_written(bytes);
            self.unflushed_completed = 0;
        }
        if self.journal.diverged().is_some() {
            return Err(OracleError::Interrupted);
        }
        self.journal.end_replay(false);
        outcome
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crowd_core::trace::TraceEvent) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.on_trace(event);
        }
        self.inner.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Started {
                version: JOURNAL_VERSION,
                job: "demo".to_string(),
                seed: 7,
            },
            JournalRecord::Scheduled {
                batch: 0,
                class: WorkerClass::Naive,
                pairs: vec![(ElementId(0), ElementId(1)), (ElementId(2), ElementId(3))],
            },
            JournalRecord::Completed {
                batch: 0,
                winners: vec![ElementId(1), ElementId(2)],
                workers: vec![WorkerId(4), WorkerId(9)],
                counts: ComparisonCounts {
                    naive: 2,
                    expert: 0,
                },
                spent: 0.2,
                fault_seq: 2,
                partial: false,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut journal = Journal::new();
        for r in &sample_records() {
            journal.append(r);
        }
        journal.flush();
        let decoded = Journal::decode(journal.durable());
        assert_eq!(decoded.records, sample_records());
        assert_eq!(decoded.valid_bytes, journal.durable().len());
        assert!(!decoded.torn_tail);
    }

    #[test]
    fn unflushed_records_do_not_survive() {
        let mut journal = Journal::new();
        journal.append(&sample_records()[0]);
        journal.flush();
        journal.append(&sample_records()[1]);
        // No flush: the second record dies with the process.
        let decoded = Journal::decode(journal.durable());
        assert_eq!(decoded.records.len(), 1);
        assert!(!decoded.torn_tail, "a missing record is not a torn one");
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let mut journal = Journal::new();
        journal.append(&sample_records()[0]);
        let clean = journal.flush();
        journal.append(&sample_records()[1]);
        journal.flush_torn(journal.pending_len() / 2);
        let decoded = Journal::decode(journal.durable());
        assert_eq!(decoded.records.len(), 1, "the torn frame must not parse");
        assert_eq!(decoded.valid_bytes as u64, clean);
        assert!(decoded.torn_tail);
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let mut journal = Journal::new();
        for r in &sample_records() {
            journal.append(r);
        }
        journal.flush();
        let mut bytes = journal.durable().to_vec();
        // Flip one byte inside the last frame's JSON payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        let decoded = Journal::decode(&bytes);
        assert_eq!(decoded.records.len(), sample_records().len() - 1);
        assert!(decoded.torn_tail);
    }

    #[test]
    fn journaled_oracle_writes_ahead() {
        let instance = Instance::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let platform = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(3),
        );
        let mut oracle = JournaledOracle::new(platform, "wal", 3, CheckpointPolicy::every(64));
        let mut winners = Vec::new();
        oracle
            .try_compare_batch(
                WorkerClass::Naive,
                &[(ElementId(0), ElementId(3))],
                &mut winners,
            )
            .unwrap();
        assert_eq!(winners, vec![ElementId(3)]);
        // The lazy checkpoint cadence keeps Completed pending, but the
        // Scheduled record is already durable: WAL.
        let decoded = Journal::decode(oracle.journal().durable());
        assert!(matches!(
            decoded.records.last(),
            Some(JournalRecord::Scheduled { batch: 0, .. })
        ));
        oracle.finish();
        let decoded = Journal::decode(oracle.journal().durable());
        assert!(matches!(
            decoded.records.last(),
            Some(JournalRecord::Completed {
                batch: 0,
                partial: false,
                ..
            })
        ));
    }

    #[test]
    fn checkpoint_cadence_batches_completed_flushes() {
        let instance = Instance::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let platform = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(3),
        );
        let mut oracle = JournaledOracle::new(platform, "cadence", 3, CheckpointPolicy::every(2));
        let mut winners = Vec::new();
        for _ in 0..2 {
            oracle
                .try_compare_batch(
                    WorkerClass::Naive,
                    &[(ElementId(0), ElementId(3))],
                    &mut winners,
                )
                .unwrap();
        }
        // At cadence 2, batch 0's Completed rode along with batch 1's
        // write-ahead Scheduled flush (the journal is one append-only
        // stream), while batch 1's own Completed is still pending — the
        // crash window a lazy cadence accepts.
        let completed = |bytes: &[u8]| {
            Journal::decode(bytes)
                .records
                .iter()
                .filter(|r| matches!(r, JournalRecord::Completed { .. }))
                .count()
        };
        assert_eq!(completed(oracle.journal().durable()), 1);
        assert!(oracle.journal().pending_len() > 0);
        oracle.finish();
        assert_eq!(completed(oracle.journal().durable()), 2);
    }
}
