//! Crash/resume equivalence sweep: kill Algorithm 1 at every seeded
//! injection point and prove the resumed run equals the uninterrupted one.
//!
//! Each trial runs the full two-phase algorithm three times on
//! identically-constructed platforms:
//!
//! 1. **uninterrupted** — a [`JournaledOracle`] baseline, run to the end;
//! 2. **doomed** — the same run with a [`ChaosPlan`] armed at one
//!    [`InjectionPoint`]; the crash freezes its durable journal;
//! 3. **resumed** — [`resume_job`] on the crash's durable bytes: the
//!    journaled batches replay on a fresh platform, then the run
//!    continues live. The journal's resume audit (see
//!    `crowd_platform::journal`) holds the new journal to the crashed
//!    one frame for frame; a frame it appends differently, or a crashed
//!    frame it never reproduces by the time the job ends, makes the
//!    trial diverge.
//!
//! The equivalence claim is checked at the byte level: the resumed run's
//! algorithm outcome, final journal bytes, comparison tally, ledger spend,
//! and fault-stream position must all equal the uninterrupted run's. The
//! sweep crosses the four crash windows of [`crate::chaos`](crowd_platform::chaos)
//! with fault-free and faulty platforms (faults exercise partial-batch
//! journal records), and reports what recovery cost: comparisons restored
//! from the journal vs. re-bought (the dangling `Scheduled` batch plus any
//! completions a lazy checkpoint cadence lost), and torn tails detected by
//! checksum.
//!
//! Expected shape: every row's `identical` column equals its trial count
//! and `divergences` is zero — at any fault rate, any injection point, and
//! any `--jobs` count.

use crate::engine;
use crate::fault_sweep::{fault_config, EXPERT_POOL, NAIVE_POOL};
use crate::harness::planted_for;
use crate::report::{fmt_f64, Table};
use crate::scale::Scale;
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome};
use crowd_core::element::ElementId;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError};
use crowd_obs::{install_recorder, Event, Recorder};
use crowd_platform::{
    recover, resume_job, ChaosPlan, CheckpointPolicy, InjectionPoint, Journal, JournaledOracle,
    Platform, PlatformConfig, ResumeOracle, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Fault rates swept: fault-free (every batch completes whole) and a
/// moderate rate that produces retries and partial-batch journal records.
pub const RATES: [f64; 2] = [0.0, 0.05];

/// Display labels for the four crash windows, in sweep order.
pub const POINTS: [&str; 4] = [
    "mid_batch",
    "mid_journal_write",
    "between_rounds",
    "phase_transition",
];

/// Checkpoint cadence used by every leg of a trial: lazy enough that a
/// boundary crash genuinely loses pending completions (and must re-buy
/// them), tight enough that recovery still replays most of the run.
const CADENCE: u64 = 4;

/// The injection point for sweep row `kind` (an index into [`POINTS`]) at
/// trial `t` — the batch/round parameter varies with the trial so a sweep
/// kills runs at different depths.
pub fn point_for(kind: usize, t: u64) -> InjectionPoint {
    match kind {
        0 => InjectionPoint::MidBatch { batch: 1 + 2 * t },
        1 => InjectionPoint::MidJournalWrite { batch: 1 + 2 * t },
        2 => InjectionPoint::BetweenRounds {
            round: (t % 2) as u32,
        },
        _ => InjectionPoint::AtPhaseTransition,
    }
}

/// The [`POINTS`] label for an injection point.
pub fn point_label(point: InjectionPoint) -> &'static str {
    match point {
        InjectionPoint::MidBatch { .. } => POINTS[0],
        InjectionPoint::MidJournalWrite { .. } => POINTS[1],
        InjectionPoint::BetweenRounds { .. } => POINTS[2],
        InjectionPoint::AtPhaseTransition => POINTS[3],
    }
}

/// What one kill/resume trial established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTrialOutcome {
    /// The chaos plan fired (a run can finish — or abort on a genuine
    /// fault — before reaching its injection point; resume is then
    /// exercised on the complete journal instead).
    pub crashed: bool,
    /// The durable journal ended in a torn frame, detected by checksum.
    pub torn_tail: bool,
    /// [`resume_job`] accepted the durable bytes.
    pub resumed: bool,
    /// The resumed run matched the uninterrupted one on every channel:
    /// algorithm outcome, final journal bytes, comparison tally, spend,
    /// and fault-stream position.
    pub identical: bool,
    /// Replay diverged from the journal's checkpoints (must never happen).
    pub diverged: bool,
    /// Comparisons restored from the journal instead of re-purchased.
    pub replayed: u64,
    /// Comparisons the crashed run had bought that recovery could not
    /// restore (unflushed completions, the dangling batch's partial work).
    pub re_bought: u64,
    /// Durable journal bytes the crash left behind for recovery.
    pub journal_bytes: u64,
}

/// The job label journaled by every trial.
const JOB: &str = "chaos_sweep";

fn build_platform(
    instance: &crowd_core::element::Instance,
    delta_n: f64,
    delta_e: f64,
    rate: f64,
    trial_seed: u64,
) -> Platform<StdRng> {
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(NAIVE_POOL, delta_n, 0.0);
    pool.hire_expert_panel(EXPERT_POOL, delta_e, 0.0);
    let config = PlatformConfig::paper_default()
        .without_gold()
        .with_faults(fault_config(rate), trial_seed ^ 0xFA117)
        .with_retry(RetryPolicy::paper_default().with_max_retries(4))
        .with_expert_fallback(3);
    Platform::new(
        instance.clone(),
        pool,
        config,
        StdRng::seed_from_u64(trial_seed),
    )
}

fn drive<O: ComparisonOracle>(
    oracle: &mut O,
    ids: &[crowd_core::element::ElementId],
    un: usize,
    trial_seed: u64,
) -> Result<ExpertMaxOutcome, OracleError> {
    let mut rng = StdRng::seed_from_u64(trial_seed ^ 0x5eed);
    try_expert_max_find(oracle, ids, &ExpertMaxConfig::new(un), &mut rng)
}

/// One kill/resume trial with its byte-diff inputs: the events each leg
/// emitted and the uninterrupted run's observable result. Produced by
/// [`run_trial_artifacts`]; the `chaos` binary writes these side by side
/// and diffs them.
#[derive(Debug)]
pub struct TrialArtifacts {
    /// The equivalence verdict.
    pub outcome: ChaosTrialOutcome,
    /// Events the uninterrupted leg emitted, in order.
    pub uninterrupted_events: Vec<Event>,
    /// Events the resumed leg emitted, with the recovery bookkeeping
    /// ([`Event::RecoveryStarted`] / [`Event::RecoveryCompleted`])
    /// filtered out — what remains must equal the uninterrupted leg's
    /// stream byte-for-byte.
    pub resumed_events: Vec<Event>,
    /// The uninterrupted leg's observable result.
    pub uninterrupted: LegSummary,
    /// The resumed leg's observable result, measured independently from
    /// its own final platform state (`None` when [`resume_job`] refused
    /// the journal). Must equal [`uninterrupted`](Self::uninterrupted).
    pub resumed: Option<LegSummary>,
}

/// One leg's observable result — the per-trial manifest row the `chaos`
/// binary byte-diffs between the uninterrupted and resumed sides.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct LegSummary {
    /// The algorithm's winner (`None` when the run aborted on a genuine
    /// platform fault).
    pub winner: Option<ElementId>,
    /// The platform's final comparison tally.
    pub comparisons: ComparisonCounts,
    /// The platform's final ledger spend.
    pub spent: f64,
    /// Final durable journal bytes.
    pub journal_bytes: u64,
}

/// True for the recovery-bookkeeping events only the resumed leg emits.
fn is_recovery_event(event: &Event) -> bool {
    matches!(
        event,
        Event::RecoveryStarted { .. } | Event::RecoveryCompleted { .. }
    )
}

/// Runs one kill/resume trial: uninterrupted baseline, chaos-killed run,
/// resume from the durable journal, and the byte-level comparison.
pub fn run_trial(
    n: usize,
    un: usize,
    rate: f64,
    point: InjectionPoint,
    base_seed: u64,
    t: u64,
) -> ChaosTrialOutcome {
    run_trial_artifacts(n, un, rate, point, base_seed, t).outcome
}

/// [`run_trial`] plus the per-leg event logs and the uninterrupted run's
/// observable result — see [`TrialArtifacts`].
pub fn run_trial_artifacts(
    n: usize,
    un: usize,
    rate: f64,
    point: InjectionPoint,
    base_seed: u64,
    t: u64,
) -> TrialArtifacts {
    let planted = planted_for(n, un, (un / 4).max(1), base_seed ^ 0xCA, t);
    let instance = &planted.instance;
    let ids = instance.ids();
    let trial_seed = base_seed ^ (t.wrapping_mul(0x9E37) << 16) ^ (rate.to_bits() >> 12);
    let policy = CheckpointPolicy::every(CADENCE);
    let fresh = || build_platform(instance, planted.delta_n, planted.delta_e, rate, trial_seed);

    // Leg 1: the uninterrupted baseline every later channel is held to.
    let base_rec = Arc::new(Recorder::new());
    let (base_out, base_journal, base_platform) = {
        let _guard = install_recorder(base_rec.clone());
        let mut base = JournaledOracle::new(fresh(), JOB, trial_seed, policy);
        let out = drive(&mut base, &ids, un, trial_seed);
        base.finish();
        let (journal, platform) = base.into_parts();
        (out, journal, platform)
    };
    let base_summary = LegSummary {
        winner: base_out.as_ref().ok().map(|o| o.winner),
        comparisons: base_platform.counts(),
        spent: base_platform.ledger().total(),
        journal_bytes: base_journal.durable().len() as u64,
    };

    // Leg 2: the same run, killed at the injection point. No `finish()`
    // after a crash — the process is dead, only the durable bytes remain.
    let mut doomed =
        JournaledOracle::new(fresh(), JOB, trial_seed, policy).with_chaos(ChaosPlan::at(point));
    let _ = drive(&mut doomed, &ids, un, trial_seed);
    let crashed = doomed.crashed();
    if !crashed {
        doomed.finish();
    }
    let (doomed_journal, doomed_platform) = doomed.into_parts();
    let bytes = doomed_journal.durable().to_vec();

    let torn_tail = recover(&bytes).map(|r| r.torn_tail).unwrap_or(false);

    // Leg 3: resume on a fresh, identically-constructed platform.
    let resumed_rec = Arc::new(Recorder::new());
    let Ok(mut resumed) = resume_job(&bytes, fresh(), JOB, trial_seed, policy) else {
        return TrialArtifacts {
            outcome: ChaosTrialOutcome {
                crashed,
                torn_tail,
                resumed: false,
                identical: false,
                diverged: false,
                replayed: 0,
                re_bought: 0,
                journal_bytes: bytes.len() as u64,
            },
            uninterrupted_events: base_rec.events(),
            resumed_events: Vec::new(),
            uninterrupted: base_summary,
            resumed: None,
        };
    };
    let (resumed_out, (replayed, diverged, res_journal, res_platform)) = {
        let _guard = install_recorder(resumed_rec.clone());
        let out = drive(&mut resumed, &ids, un, trial_seed);
        (out, end_resumed(resumed))
    };

    let identical = !diverged
        && resumed_out == base_out
        && res_journal.durable() == base_journal.durable()
        && res_platform.counts() == base_platform.counts()
        && res_platform.ledger().total() == base_platform.ledger().total()
        && res_platform.fault_seq() == base_platform.fault_seq();

    TrialArtifacts {
        outcome: ChaosTrialOutcome {
            crashed,
            torn_tail,
            resumed: true,
            identical,
            diverged,
            replayed,
            re_bought: doomed_platform.counts().total().saturating_sub(replayed),
            journal_bytes: bytes.len() as u64,
        },
        uninterrupted_events: base_rec.events(),
        resumed_events: resumed_rec
            .events()
            .into_iter()
            .filter(|e| !is_recovery_event(e))
            .collect(),
        uninterrupted: base_summary,
        resumed: Some(LegSummary {
            winner: resumed_out.as_ref().ok().map(|o| o.winner),
            comparisons: res_platform.counts(),
            spent: res_platform.ledger().total(),
            journal_bytes: res_journal.durable().len() as u64,
        }),
    }
}

/// Ends a resumed leg once its job has ended: finishes the journal, which
/// closes the resume audit — a crashed journal still holding frames the
/// run never re-appended counts as divergence — and returns the replayed
/// comparisons, the divergence verdict, and the final journal and
/// platform.
fn end_resumed(resumed: ResumeOracle<StdRng>) -> (u64, bool, Journal, Platform<StdRng>) {
    let replayed = resumed.replayed_comparisons();
    let mut inner = resumed.into_inner();
    inner.finish();
    let diverged = inner.journal().diverged().is_some();
    let (journal, platform) = inner.into_parts();
    (replayed, diverged, journal, platform)
}

/// One aggregated sweep point: an injection-point kind at one fault rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRow {
    /// Index into [`POINTS`].
    pub kind: usize,
    /// Index into [`RATES`].
    pub rate_index: usize,
    /// Trials run at this point.
    pub trials: u64,
    /// Trials whose chaos plan actually fired.
    pub crashes: u64,
    /// Trials whose journal [`resume_job`] accepted.
    pub resumes: u64,
    /// Trials where the resumed run matched the uninterrupted one on
    /// every channel.
    pub identical: u64,
    /// Replay-audit divergences (must be 0).
    pub divergences: u64,
    /// Torn tails detected by checksum.
    pub torn_tails: u64,
    /// Summed comparisons restored from journals.
    pub replayed: u64,
    /// Summed comparisons re-bought after crashes.
    pub re_bought: u64,
    /// Summed durable journal bytes handed to recovery.
    pub journal_bytes: u64,
}

/// Sweeps every injection point in [`POINTS`] crossed with every rate in
/// [`RATES`], `trials` trials per cell. Trials fan out over the parallel
/// engine; aggregation stays in `(point, rate, trial)` order, so the rows
/// are identical at any `--jobs` count.
pub fn sweep(n: usize, un: usize, trials: u64, base_seed: u64) -> Vec<SweepRow> {
    let items: Vec<(usize, usize, u64)> = (0..POINTS.len())
        .flat_map(|pi| (0..RATES.len()).flat_map(move |ri| (0..trials).map(move |t| (pi, ri, t))))
        .collect();
    let outcomes = engine::parallel_map(items, |(pi, ri, t)| {
        run_trial(n, un, RATES[ri], point_for(pi, t), base_seed, t)
    });
    let per_cell = trials as usize;
    (0..POINTS.len())
        .flat_map(|pi| (0..RATES.len()).map(move |ri| (pi, ri)))
        .enumerate()
        .map(|(cell, (pi, ri))| {
            let slice = &outcomes[cell * per_cell..(cell + 1) * per_cell];
            let mut row = SweepRow {
                kind: pi,
                rate_index: ri,
                trials,
                crashes: 0,
                resumes: 0,
                identical: 0,
                divergences: 0,
                torn_tails: 0,
                replayed: 0,
                re_bought: 0,
                journal_bytes: 0,
            };
            for o in slice {
                row.crashes += u64::from(o.crashed);
                row.resumes += u64::from(o.resumed);
                row.identical += u64::from(o.identical);
                row.divergences += u64::from(o.diverged);
                row.torn_tails += u64::from(o.torn_tail);
                row.replayed += o.replayed;
                row.re_bought += o.re_bought;
                row.journal_bytes += o.journal_bytes;
            }
            row
        })
        .collect()
}

/// Runs the sweep at experiment scale.
pub fn run(scale: &Scale) -> Table {
    // Each trial is three full platform runs; keep n modest so the
    // eight-cell sweep stays in seconds.
    let n = (*scale.n_grid.first().unwrap_or(&300)).min(120);
    let un = (n / 50).max(3);
    let trials = scale.trials.max(2);
    let rows = sweep(n, un, trials, scale.seed ^ 0xC4A5);

    let mut t = Table::new(
        "chaos_sweep",
        &format!(
            "Crash/resume equivalence: Algorithm 1 killed at seeded injection points \
             and resumed from the write-ahead journal (n={n}, un={un}, {trials} trials \
             per cell, checkpoint cadence {CADENCE})"
        ),
        &[
            "injection point",
            "fault rate",
            "trials",
            "crashes",
            "resumes",
            "identical",
            "divergences",
            "torn tails",
            "replayed cmps",
            "re-bought cmps",
            "journal bytes",
        ],
    )
    .with_notes(
        "Each trial compares a chaos-killed-then-resumed run against an \
         uninterrupted baseline at the byte level: algorithm outcome, final \
         journal bytes, comparison tally, spend, and fault-stream position. \
         `identical` must equal `trials` and `divergences` must be 0 in \
         every row. Re-bought comparisons are the recovery floor: the \
         dangling scheduled batch plus completions the lazy checkpoint \
         cadence had not flushed. Torn tails appear only on the \
         mid_journal_write row, detected by the frame checksum.",
    );
    for row in &rows {
        t.push_row(vec![
            POINTS[row.kind].to_string(),
            fmt_f64(RATES[row.rate_index], 2),
            row.trials.to_string(),
            row.crashes.to_string(),
            row.resumes.to_string(),
            row.identical.to_string(),
            row.divergences.to_string(),
            row.torn_tails.to_string(),
            row.replayed.to_string(),
            row.re_bought.to_string(),
            row.journal_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::element::{ElementId, Instance};
    use crowd_core::equiv::{assert_oracles_equal, drive_until_error};
    use crowd_core::model::WorkerClass;
    use crowd_platform::JournalRecord;

    #[test]
    fn mid_batch_kill_resumes_identically() {
        let o = run_trial(100, 3, 0.0, InjectionPoint::MidBatch { batch: 3 }, 31, 0);
        assert!(o.crashed, "the plan must fire at batch 3");
        assert!(o.resumed && o.identical && !o.diverged, "{o:?}");
        assert!(o.replayed > 0, "earlier batches replay from the journal");
        assert!(!o.torn_tail);
    }

    #[test]
    fn resume_leg_fails_a_journal_with_unreproduced_frames() {
        // A complete journal plus one forged completed batch beyond what
        // the algorithm issues: every real frame replays, the forged one is
        // never reproduced, and the ended leg must report divergence.
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0, 8.0, 4.0]);
        let ids = instance.ids();
        let policy = CheckpointPolicy::every(CADENCE);
        let fresh = || build_platform(&instance, 0.5, 0.0, 0.0, 7);
        let mut base = JournaledOracle::new(fresh(), JOB, 7, policy);
        let base_out = drive(&mut base, &ids, 2, 7);
        base.finish();
        let (base_journal, _) = base.into_parts();
        let decoded = Journal::decode(base_journal.durable());
        let batches = decoded
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Scheduled { .. }))
            .count() as u64;
        let mut forged = Journal::new();
        for record in &decoded.records {
            forged.append(record);
        }
        forged.append(&JournalRecord::Scheduled {
            batch: batches,
            class: WorkerClass::Naive,
            pairs: vec![(ElementId(0), ElementId(1))],
        });
        forged.append(&JournalRecord::Completed {
            batch: batches,
            winners: vec![ElementId(1)],
            workers: Vec::new(),
            counts: ComparisonCounts::default(),
            spent: 0.0,
            fault_seq: 0,
            partial: false,
        });
        forged.flush();

        let mut resumed =
            resume_job(forged.durable(), fresh(), JOB, 7, policy).expect("the grammar is valid");
        let out = drive(&mut resumed, &ids, 2, 7);
        assert_eq!(out, base_out, "every real batch replays");
        assert_eq!(
            resumed.diverged(),
            None,
            "nothing differed while the job ran"
        );
        let (_, diverged, journal, _) = end_resumed(resumed);
        assert!(diverged, "the forged batch was never reproduced");
        assert_eq!(journal.durable(), base_journal.durable());
    }

    #[test]
    fn torn_write_is_detected_and_still_resumes_identically() {
        let o = run_trial(
            100,
            3,
            0.0,
            InjectionPoint::MidJournalWrite { batch: 3 },
            31,
            0,
        );
        assert!(o.crashed && o.torn_tail, "{o:?}");
        assert!(o.resumed && o.identical, "{o:?}");
    }

    #[test]
    fn boundary_kills_lose_only_unflushed_work() {
        for point in [
            InjectionPoint::BetweenRounds { round: 0 },
            InjectionPoint::AtPhaseTransition,
        ] {
            let o = run_trial(100, 3, 0.0, point, 33, 1);
            assert!(o.crashed, "{point:?} must fire during a real run");
            assert!(o.identical && !o.diverged, "{point:?}: {o:?}");
            assert!(
                o.re_bought > 0,
                "{point:?}: a lazy cadence loses pending completions"
            );
        }
    }

    #[test]
    fn faulty_trials_stay_identical_through_partial_batches() {
        let o = run_trial(100, 3, 0.05, InjectionPoint::MidBatch { batch: 5 }, 35, 2);
        assert!(o.resumed && o.identical && !o.diverged, "{o:?}");
    }

    #[test]
    fn resumed_event_log_equals_the_uninterrupted_one_modulo_recovery() {
        let a = run_trial_artifacts(100, 3, 0.0, InjectionPoint::MidBatch { batch: 3 }, 31, 0);
        assert!(a.outcome.identical);
        assert!(
            !a.uninterrupted_events.is_empty(),
            "the journaled run emits checkpoint events"
        );
        assert_eq!(
            a.resumed_events, a.uninterrupted_events,
            "after dropping RecoveryStarted/RecoveryCompleted, the resumed \
             run's event stream must be identical"
        );
        let base = &a.uninterrupted;
        assert!(base.winner.is_some());
        assert!(base.comparisons.total() > 0 && base.spent > 0.0 && base.journal_bytes > 0);
        assert_eq!(
            a.resumed.as_ref(),
            Some(base),
            "the resumed leg's own measurements must match"
        );
    }

    #[test]
    fn resume_is_byte_identical_under_the_equiv_harness() {
        // The promoted crash/resume driver: kill a journaled run mid-way,
        // resume it, and let `assert_oracles_equal` prove the resumed side
        // issues the byte-identical comparison sequence.
        let instance = Instance::new(vec![1.0, 5.0, 3.0, 9.0, 7.0, 2.0]);
        let pairs: Vec<(ElementId, ElementId)> = vec![
            (ElementId(0), ElementId(1)),
            (ElementId(2), ElementId(3)),
            (ElementId(4), ElementId(5)),
            (ElementId(1), ElementId(3)),
            (ElementId(3), ElementId(4)),
        ];
        let fresh = || {
            let mut pool = WorkerPool::new();
            pool.hire_naive_crowd(6, 0.1, 0.05);
            Platform::new(
                instance.clone(),
                pool,
                PlatformConfig::paper_default().without_gold(),
                StdRng::seed_from_u64(0xFEED),
            )
        };
        let policy = CheckpointPolicy::every_batch();
        let segments = [2usize, 1, 2];

        // Crash the journaled run at batch 1, outside the harness.
        let mut doomed = JournaledOracle::new(fresh(), "equiv", 0xFEED, policy)
            .with_chaos(ChaosPlan::at(InjectionPoint::MidBatch { batch: 1 }));
        let (prefix, err) = drive_until_error(&mut doomed, WorkerClass::Naive, &pairs, &segments);
        assert!(matches!(err, Some(OracleError::Interrupted)));
        assert_eq!(prefix.len(), 2, "batch 0 answered before the crash");
        let (journal, _) = doomed.into_parts();

        let resumed = resume_job(journal.durable(), fresh(), "equiv", 0xFEED, policy)
            .expect("the crash journal recovers");
        assert_oracles_equal(
            JournaledOracle::new(fresh(), "equiv", 0xFEED, policy),
            resumed,
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
            |o| drive_until_error(o, WorkerClass::Naive, &pairs, &segments),
        );
    }

    #[test]
    fn point_for_covers_all_kinds_and_varies_with_the_trial() {
        assert_eq!(
            point_for(0, 2),
            InjectionPoint::MidBatch { batch: 5 },
            "the kill depth varies with the trial"
        );
        let kinds: std::collections::HashSet<_> = (0..POINTS.len())
            .map(|k| std::mem::discriminant(&point_for(k, 0)))
            .collect();
        assert_eq!(kinds.len(), POINTS.len());
    }

    #[test]
    fn table_shape() {
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), POINTS.len() * RATES.len());
        let md = t.to_markdown();
        assert!(md.contains("re-bought"), "{md}");
        // Every row proves equivalence: identical == trials, divergences == 0.
        for row in &t.rows {
            assert_eq!(row[5], row[2], "identical must equal trials: {row:?}");
            assert_eq!(row[6], "0", "divergences must be zero: {row:?}");
        }
    }
}
