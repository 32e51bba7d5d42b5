//! Crash recovery: turn durable journal bytes back into a running job.
//!
//! The model is write-ahead-log state-machine replay. The platform is a
//! deterministic state machine (seeded RNGs, a stateless SplitMix64 fault
//! plan, hash-free iteration orders), so re-executing the job on a
//! *fresh* platform rebuilds worker trust, the ledger, the RNG streams
//! and the fault-plan position exactly. [`recover`] decodes the journal
//! and validates its header and WAL grammar (journal bytes are outside
//! input); [`resume_job`] then re-runs the job through a
//! [`JournaledOracle`] whose new journal is audited by the one rule every
//! journal in the workspace obeys (see [`crate::journal`]): the resumed
//! run must re-append the crashed journal's intact frames byte for byte
//! and in order before it appends anything new. Any difference means the
//! journal and the code disagree (config drift, version skew, a forged
//! frame) and the run stops rather than silently diverge.
//!
//! The one deliberately re-bought case: a dangling `Scheduled` record
//! (the WAL wrote the intent, the crash hit before any worker answered).
//! The resumed run executes that batch live — at most one batch per
//! crash, the floor any write-ahead scheme can guarantee.

use crate::journal::{CheckpointPolicy, Journal, JournalRecord, JournaledOracle, JOURNAL_VERSION};
use crate::platform::Platform;
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use rand::RngCore;

/// Why a journal could not be recovered.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// The journal holds no intact record at all.
    Empty,
    /// The first intact record is not a `Started` header.
    MissingHeader,
    /// The journal was written by a different [`JOURNAL_VERSION`].
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The header does not describe the job being resumed.
    JobMismatch {
        /// The job label in the journal.
        journal: String,
        /// The label the caller expected.
        expected: String,
    },
    /// The record sequence violates the WAL grammar (e.g. a `Completed`
    /// without its `Scheduled`).
    Corrupt(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Empty => write!(f, "the journal holds no intact record"),
            RecoverError::MissingHeader => write!(f, "the journal does not start with a header"),
            RecoverError::VersionMismatch { found } => write!(
                f,
                "journal version {found} does not match this build's {JOURNAL_VERSION}"
            ),
            RecoverError::JobMismatch { journal, expected } => {
                write!(f, "the journal describes job {journal:?}, not {expected:?}")
            }
            RecoverError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// A decoded, structurally validated journal, ready to drive a resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The job label from the header.
    pub job: String,
    /// The platform seed from the header.
    pub seed: u64,
    /// Batches with a `Completed` record (a dangling `Scheduled`, if
    /// any, is not counted — it runs live).
    pub completed_batches: u64,
    /// True when a torn tail was detected (and discarded) by checksum.
    pub torn_tail: bool,
    /// Journal bytes covered by intact records — the frames a resumed
    /// run must re-append.
    pub valid_bytes: usize,
}

/// Decodes and structurally validates journal `bytes`.
///
/// A torn tail (crash mid-write) is not an error: the tail is discarded
/// and recovery proceeds from the last intact record, with
/// [`Recovered::torn_tail`] set.
///
/// # Errors
///
/// Returns a [`RecoverError`] when the journal is empty, headerless,
/// version-skewed, or grammatically corrupt.
pub fn recover(bytes: &[u8]) -> Result<Recovered, RecoverError> {
    let decoded = Journal::decode(bytes);
    let mut records = decoded.records.into_iter();
    let Some(header) = records.next() else {
        return Err(RecoverError::Empty);
    };
    let JournalRecord::Started { version, job, seed } = header else {
        return Err(RecoverError::MissingHeader);
    };
    if version != JOURNAL_VERSION {
        return Err(RecoverError::VersionMismatch { found: version });
    }
    // The batch index the next `Scheduled` must carry, and the pair count
    // of the batch in flight (scheduled, not yet completed).
    let mut next = 0u64;
    let mut in_flight: Option<usize> = None;
    let mut completed_batches = 0u64;
    for record in records {
        match record {
            JournalRecord::Started { .. } => {
                return Err(RecoverError::Corrupt("second Started header".to_string()));
            }
            JournalRecord::Scheduled { batch, pairs, .. } => {
                if in_flight.is_some() {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} scheduled while the previous batch is still in flight"
                    )));
                }
                if batch != next {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} scheduled out of order (expected {next})"
                    )));
                }
                next += 1;
                in_flight = Some(pairs.len());
            }
            JournalRecord::Completed {
                batch,
                winners,
                partial,
                ..
            } => {
                if next == 0 {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed without being scheduled"
                    )));
                }
                let Some(pairs) = in_flight.take().filter(|_| batch + 1 == next) else {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed out of order"
                    )));
                };
                if winners.len() > pairs || (!partial && winners.len() != pairs) {
                    return Err(RecoverError::Corrupt(format!(
                        "batch {batch} completed with {} winners for {pairs} pairs",
                        winners.len()
                    )));
                }
                completed_batches += 1;
            }
        }
    }
    Ok(Recovered {
        job,
        seed,
        completed_batches,
        torn_tail: decoded.torn_tail,
        valid_bytes: decoded.valid_bytes,
    })
}

/// An oracle that resumes a journaled job: a [`JournaledOracle`] on a
/// fresh platform whose journal is audited against the crashed one (see
/// [`crate::journal`]). It replays the journaled batches — no worker is
/// asked anything already paid for — then continues live.
///
/// The new journal is the resumed run's own, so a resumed job can itself
/// crash and be resumed again.
#[derive(Debug)]
pub struct ResumeOracle<R: RngCore> {
    inner: JournaledOracle<R>,
}

impl<R: RngCore> ResumeOracle<R> {
    /// Comparisons restored from the journal instead of re-purchased.
    pub fn replayed_comparisons(&self) -> u64 {
        self.inner.journal().replayed_comparisons()
    }

    /// True while journal replay is still in progress.
    pub fn replaying(&self) -> bool {
        self.inner.journal().replaying()
    }

    /// The first audit failure, if replay diverged from the journal.
    /// Recovered frames left unreproduced count once the run is
    /// [`finish`](JournaledOracle::finish)ed.
    pub fn diverged(&self) -> Option<&str> {
        self.inner.journal().diverged()
    }

    /// The wrapped journaled platform.
    pub fn inner(&self) -> &JournaledOracle<R> {
        &self.inner
    }

    /// Consumes the resume path, returning the journaled platform.
    pub fn into_inner(self) -> JournaledOracle<R> {
        self.inner
    }
}

impl<R: RngCore> ComparisonOracle for ResumeOracle<R> {
    fn compare(&mut self, class: WorkerClass, k: ElementId, j: ElementId) -> ElementId {
        self.inner.compare(class, k, j)
    }

    fn try_compare(
        &mut self,
        class: WorkerClass,
        k: ElementId,
        j: ElementId,
    ) -> Result<ElementId, OracleError> {
        self.inner.try_compare(class, k, j)
    }

    fn compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) {
        self.inner.compare_batch(class, pairs, winners);
    }

    fn try_compare_batch(
        &mut self,
        class: WorkerClass,
        pairs: &[(ElementId, ElementId)],
        winners: &mut Vec<ElementId>,
    ) -> Result<(), OracleError> {
        self.inner.try_compare_batch(class, pairs, winners)
    }

    fn counts(&self) -> ComparisonCounts {
        self.inner.counts()
    }

    fn observe(&mut self, event: crowd_core::trace::TraceEvent) {
        self.inner.observe(event);
    }
}

/// One-call resume: recover `bytes`, validate them against the job the
/// caller is rebuilding, and wrap a fresh `platform` in the replay path.
/// Emits [`Event::RecoveryStarted`](crowd_obs::Event::RecoveryStarted).
///
/// `platform` must be constructed exactly as the crashed run's was (same
/// instance, pool, config, and the `seed` the journal header records) —
/// recovery re-executes the journaled batches on it, and the journal
/// audit stops the run at the first frame it does not reproduce.
///
/// # Errors
///
/// Fails when the journal cannot be decoded ([`recover`]) or its header
/// names a different job or seed.
pub fn resume_job<R: RngCore>(
    bytes: &[u8],
    platform: Platform<R>,
    job: &str,
    seed: u64,
    policy: CheckpointPolicy,
) -> Result<ResumeOracle<R>, RecoverError> {
    let recovered = recover(bytes)?;
    if recovered.job != job {
        return Err(RecoverError::JobMismatch {
            journal: recovered.job,
            expected: job.to_string(),
        });
    }
    if recovered.seed != seed {
        return Err(RecoverError::Corrupt(format!(
            "the journal was seeded with {}, the rebuilt platform with {seed}",
            recovered.seed
        )));
    }
    let journal = Journal::resuming(
        &bytes[..recovered.valid_bytes],
        recovered.completed_batches,
        recovered.torn_tail,
    );
    Ok(ResumeOracle {
        inner: JournaledOracle::with_journal(platform, job, seed, policy, journal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, InjectionPoint};
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const JOB: &str = "recover-test";
    const SEED: u64 = 0xFEED;

    fn fresh_platform() -> Platform<StdRng> {
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(6, 0.1, 0.05);
        Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(SEED),
        )
    }

    fn batches() -> Vec<Vec<(ElementId, ElementId)>> {
        vec![
            vec![(ElementId(0), ElementId(1)), (ElementId(2), ElementId(3))],
            vec![(ElementId(4), ElementId(5))],
            vec![(ElementId(1), ElementId(3)), (ElementId(3), ElementId(4))],
        ]
    }

    /// Drives the batch list, returning winners and the journal bytes.
    fn run_journaled(chaos: Option<ChaosPlan>) -> (Vec<ElementId>, Vec<u8>) {
        let mut oracle =
            JournaledOracle::new(fresh_platform(), JOB, SEED, CheckpointPolicy::every_batch());
        if let Some(plan) = chaos {
            oracle = oracle.with_chaos(plan);
        }
        let mut winners = Vec::new();
        for batch in batches() {
            if oracle
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .is_err()
            {
                break;
            }
        }
        oracle.finish();
        let (journal, _) = oracle.into_parts();
        (winners, journal.durable().to_vec())
    }

    #[test]
    fn resume_after_mid_batch_crash_matches_uninterrupted() {
        let (full, _) = run_journaled(None);
        let (prefix, bytes) =
            run_journaled(Some(ChaosPlan::at(InjectionPoint::MidBatch { batch: 1 })));
        assert_eq!(prefix.len(), 2, "batch 0 answered before the crash");

        let mut resumed = resume_job(
            &bytes,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .expect("journal recovers");
        assert!(resumed.replaying());
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .expect("resumed run answers");
        }
        assert_eq!(winners, full, "resume must equal the uninterrupted run");
        assert_eq!(resumed.diverged(), None);
        assert_eq!(
            resumed.replayed_comparisons(),
            2,
            "batch 0's two comparisons came from the journal replay"
        );
    }

    #[test]
    fn resume_after_torn_write_discards_the_tail_and_matches() {
        let (full, _) = run_journaled(None);
        let (_, bytes) = run_journaled(Some(ChaosPlan::at(InjectionPoint::MidJournalWrite {
            batch: 2,
        })));
        let recovered = recover(&bytes).expect("journal recovers");
        assert!(recovered.torn_tail, "the torn frame must be detected");
        assert_eq!(recovered.completed_batches, 2);

        let mut resumed = resume_job(
            &bytes,
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .unwrap();
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .unwrap();
        }
        assert_eq!(winners, full);
        assert_eq!(resumed.diverged(), None);
    }

    #[test]
    fn resume_audits_against_a_drifted_journal() {
        let (_, bytes) = run_journaled(Some(ChaosPlan::at(InjectionPoint::MidBatch { batch: 2 })));
        // Rebuild the platform with a *different* worker pool: replay
        // diverges from the checkpoints and must abort, not silently
        // continue.
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(6, 0.45, 0.4);
        let drifted = Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(SEED),
        );
        let mut resumed =
            resume_job(&bytes, drifted, JOB, SEED, CheckpointPolicy::every_batch()).unwrap();
        let mut winners = Vec::new();
        let mut failed = false;
        for batch in batches() {
            if resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(
            failed && resumed.diverged().is_some(),
            "a drifted platform must be caught by the audit"
        );
    }

    /// Edits one journaled field in place.
    type Tamper = fn(&mut JournalRecord);

    /// Re-encodes `bytes` with `tamper` applied to every record.
    fn tampered(bytes: &[u8], tamper: Tamper) -> Vec<u8> {
        let mut journal = Journal::new();
        for mut record in Journal::decode(bytes).records {
            tamper(&mut record);
            journal.append(&record);
        }
        journal.flush();
        journal.durable().to_vec()
    }

    #[test]
    fn every_tampered_field_is_caught_as_divergence() {
        let (_, bytes) = run_journaled(Some(ChaosPlan::at(InjectionPoint::MidBatch { batch: 2 })));
        let after_batch_0 = Journal::decode(&bytes)
            .records
            .iter()
            .find_map(|r| match r {
                JournalRecord::Completed {
                    batch: 0, counts, ..
                } => Some(*counts),
                _ => None,
            })
            .expect("batch 0 completed");
        // One tampered field of batch 1 per case; batch 1 is (4, 5).
        let cases: [(&str, Tamper); 5] = [
            ("winner", |r| {
                if let JournalRecord::Completed {
                    batch: 1, winners, ..
                } = r
                {
                    winners[0] = if winners[0] == ElementId(4) {
                        ElementId(5)
                    } else {
                        ElementId(4)
                    };
                }
            }),
            ("spent", |r| {
                if let JournalRecord::Completed {
                    batch: 1, spent, ..
                } = r
                {
                    *spent += 0.01;
                }
            }),
            ("fault_seq", |r| {
                if let JournalRecord::Completed {
                    batch: 1,
                    fault_seq,
                    ..
                } = r
                {
                    *fault_seq += 1;
                }
            }),
            ("counts", |r| {
                if let JournalRecord::Completed {
                    batch: 1, counts, ..
                } = r
                {
                    counts.naive += 1;
                }
            }),
            ("scheduled pair", |r| {
                if let JournalRecord::Scheduled {
                    batch: 1, pairs, ..
                } = r
                {
                    pairs[0] = (ElementId(5), ElementId(4));
                }
            }),
        ];
        for (field, tamper) in cases {
            let forged = tampered(&bytes, tamper);
            assert_ne!(forged, bytes, "{field}: the tamper must change the journal");
            let mut resumed = resume_job(
                &forged,
                fresh_platform(),
                JOB,
                SEED,
                CheckpointPolicy::every_batch(),
            )
            .expect("the grammar is still valid");
            let mut winners = Vec::new();
            let failed_at = batches().iter().position(|batch| {
                resumed
                    .try_compare_batch(WorkerClass::Naive, batch, &mut winners)
                    .is_err()
            });
            assert_eq!(failed_at, Some(1), "{field}: batch 1 must diverge");
            assert!(resumed.diverged().is_some(), "{field}");
            if field == "scheduled pair" {
                assert_eq!(
                    resumed.counts(),
                    after_batch_0,
                    "a mismatched Scheduled frame must stop the batch before it executes"
                );
            }
        }
    }

    #[test]
    fn an_extra_journaled_batch_is_caught_when_the_run_finishes() {
        // A complete journal plus one validly framed batch the test
        // never issues.
        let (full, bytes) = run_journaled(None);
        let mut forged = Journal::new();
        for record in Journal::decode(&bytes).records {
            forged.append(&record);
        }
        forged.append(&JournalRecord::Scheduled {
            batch: 3,
            class: WorkerClass::Naive,
            pairs: vec![(ElementId(0), ElementId(5))],
        });
        forged.append(&JournalRecord::Completed {
            batch: 3,
            winners: vec![ElementId(0)],
            workers: Vec::new(),
            counts: ComparisonCounts::default(),
            spent: 0.0,
            fault_seq: 0,
            partial: false,
        });
        forged.flush();

        let mut resumed = resume_job(
            forged.durable(),
            fresh_platform(),
            JOB,
            SEED,
            CheckpointPolicy::every_batch(),
        )
        .expect("the grammar is valid");
        let mut winners = Vec::new();
        for batch in batches() {
            resumed
                .try_compare_batch(WorkerClass::Naive, &batch, &mut winners)
                .expect("every real batch replays");
        }
        assert_eq!(winners, full);
        assert!(resumed.replaying(), "the forged batch is still ahead");
        let mut inner = resumed.into_inner();
        inner.finish();
        assert!(
            inner.journal().diverged().is_some(),
            "finishing with unreproduced frames is a divergence"
        );
        assert_eq!(inner.journal().durable(), &bytes[..]);
    }

    #[test]
    fn header_mismatches_are_refused() {
        let (_, bytes) = run_journaled(None);
        assert!(matches!(
            resume_job(
                &bytes,
                fresh_platform(),
                "other-job",
                SEED,
                CheckpointPolicy::every_batch()
            ),
            Err(RecoverError::JobMismatch { .. })
        ));
        assert_eq!(recover(b"").unwrap_err(), RecoverError::Empty);
    }

    #[test]
    fn version_skew_is_refused() {
        let mut journal = Journal::new();
        journal.append(&JournalRecord::Started {
            version: JOURNAL_VERSION + 1,
            job: JOB.to_string(),
            seed: SEED,
        });
        journal.flush();
        assert_eq!(
            recover(journal.durable()).unwrap_err(),
            RecoverError::VersionMismatch {
                found: JOURNAL_VERSION + 1
            }
        );
    }
}
