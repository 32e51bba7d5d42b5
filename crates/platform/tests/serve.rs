//! Integration tests of the crowd-serve service layer: overload
//! shedding, determinism, correct-or-degraded completion, breaker
//! behaviour, admission accounting, and chaos kill + resume.

use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_obs::{install_recorder, Event, Recorder, RecorderGuard};
use crowd_platform::fault::{FaultConfig, LatencyModel};
use crowd_platform::serve::{
    Admission, ArrivalPlan, BreakerPolicy, CachePolicy, CrowdServe, JobSpec, ServeConfig,
    ServeError, ServeKill, ServeReport, ShardSpec, TenantId, TenantPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

fn record() -> (Arc<Recorder>, RecorderGuard) {
    let rec = Arc::new(Recorder::new());
    let guard = install_recorder(rec.clone());
    (rec, guard)
}

/// Two tenants, modest pools, mild faults — the workhorse config.
fn faulty_config() -> ServeConfig {
    ServeConfig::basic()
        .with_tenants(vec![
            TenantPolicy::new(TenantId(0), 400, 8),
            TenantPolicy::new(TenantId(1), 200, 4),
        ])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36).with_fault(
                FaultConfig::none()
                    .with_no_answer(0.10)
                    .with_abandon(0.05)
                    .with_latency(LatencyModel::Geometric { p: 0.7, cap: 6 })
                    .with_timeout_steps(4),
            ),
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(4)
}

fn overload_plan(seed: u64) -> ArrivalPlan {
    // Far more jobs per tick than the shard windows can absorb.
    ArrivalPlan::new(seed, 3, 1, 60, 2)
        .with_catalog(4, 9)
        .with_deadline(40)
}

fn true_argmax(spec: &JobSpec) -> ElementId {
    let mut best = 0usize;
    for (i, v) in spec.values.iter().enumerate() {
        if *v > spec.values[best] {
            best = i;
        }
    }
    ElementId(best as u32)
}

#[test]
fn overload_sheds_terminates_and_stays_correct_or_degraded() {
    let (_rec, _g) = record();
    let plan = overload_plan(11);
    let mut service = CrowdServe::new(faulty_config(), 7).unwrap();
    let report = service.run(&plan, 600).expect("overload must not crash");

    let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
    let completed = report.jobs.len() as u64;
    assert_eq!(offered, 60, "every arrival was offered");
    assert!(report.shed > 0, "2x-plus overload must shed");
    assert_eq!(
        completed + report.shed,
        offered,
        "every offered job either completed or was shed — nothing hangs"
    );
    // Correct-or-degraded: a non-degraded completion is the true max.
    for job in &report.jobs {
        let spec = plan.spec(job.job.0);
        assert_eq!(spec.tenant, job.tenant);
        if job.degraded.is_none() {
            assert_eq!(
                job.winner,
                true_argmax(&spec),
                "non-degraded job {} must return the true max",
                job.job
            );
        }
    }
    assert!(
        report.jobs.iter().any(|j| j.degraded.is_none()),
        "some jobs should still complete cleanly"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| -> (ServeReport, Vec<u8>) {
        let (_rec, _g) = record();
        let mut service = CrowdServe::new(faulty_config(), seed).unwrap();
        let report = service.run(&overload_plan(3), 600).unwrap();
        (report, service.journal().durable().to_vec())
    };
    let (ra, ja) = run(5);
    let (rb, jb) = run(5);
    let (rc, jc) = run(6);
    assert_eq!(ra, rb, "same seed: same report");
    assert_eq!(ja, jb, "same seed: byte-identical journal");
    assert!(rc != ra || jc != ja, "different seed must differ");
}

#[test]
fn zero_fault_run_with_breakers_matches_run_without() {
    // Satellite: a zero-rate fault plan never trips a breaker, so the
    // breaker layer enabled is byte-identical to the layer disabled.
    let clean = ServeConfig::basic().with_tenants(vec![
        TenantPolicy::new(TenantId(0), 50_000, 500),
        TenantPolicy::new(TenantId(1), 50_000, 500),
    ]);
    let run = |config: ServeConfig| -> (ServeReport, Vec<u8>, Vec<Event>) {
        let (rec, _g) = record();
        let mut service = CrowdServe::new(config, 9).unwrap();
        let report = service.run(&overload_plan(4), 600).unwrap();
        (report, service.journal().durable().to_vec(), rec.events())
    };
    let (on_report, on_journal, on_events) =
        run(clean.clone().with_breaker(BreakerPolicy::default_on()));
    let (off_report, off_journal, off_events) = run(clean.with_breaker(BreakerPolicy::disabled()));
    assert_eq!(on_report.breaker_trips, 0, "no faults, no trips");
    assert_eq!(on_report, off_report);
    // The `Started` header frame embeds the config digest, which covers
    // the breaker policy; everything after it must be byte-identical.
    let body = |journal: &[u8]| -> Vec<u8> {
        let header_end = journal.iter().position(|b| *b == b'\n').unwrap() + 1;
        journal[header_end..].to_vec()
    };
    assert_eq!(
        body(&on_journal),
        body(&off_journal),
        "breaker layer must be invisible"
    );
    assert_eq!(on_events, off_events);
}

#[test]
fn quarantine_storm_degrades_instead_of_hanging() {
    // Every naive judgment faults: breakers trip across the board, pairs
    // dead-letter or wait, deadlines finish every job — no hang.
    let (_rec, _g) = record();
    let config = ServeConfig::basic()
        .with_tenants(vec![TenantPolicy::new(TenantId(0), 50_000, 500)])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 6, 24)
                .with_fault(FaultConfig::none().with_no_answer(1.0)),
            ShardSpec::honest(WorkerClass::Expert, 2, 8),
        ]);
    let plan = ArrivalPlan::new(2, 1, 2, 8, 1).with_deadline(12);
    let mut service = CrowdServe::new(config, 3).unwrap();
    let report = service.run(&plan, 400).expect("storm must not crash");
    let completed: u64 = report.jobs.len() as u64;
    assert_eq!(completed + report.shed, 8, "all offered jobs resolved");
    assert!(report.breaker_trips > 0, "the storm must trip breakers");
    assert!(
        report.jobs.iter().all(|j| j.degraded.is_some()),
        "nothing can complete cleanly when every crowd judgment faults"
    );
}

#[test]
fn expert_outage_falls_back_to_boosted_crowd() {
    let (rec, _g) = record();
    let config = ServeConfig::basic()
        .with_tenants(vec![TenantPolicy::new(TenantId(0), 50_000, 500)])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 48),
            // The whole expert shard drops out before judging anything.
            ShardSpec::honest(WorkerClass::Expert, 3, 12)
                .with_fault(FaultConfig::none().with_dropout(1.0)),
        ]);
    let plan = ArrivalPlan::new(5, 1, 2, 6, 1).with_catalog(5, 8);
    let mut service = CrowdServe::new(config, 1).unwrap();
    let report = service.run(&plan, 400).unwrap();
    assert!(!report.jobs.is_empty());
    for job in &report.jobs {
        assert_eq!(
            job.degraded,
            Some(crowd_core::trace::DegradedReason::ExpertExhausted),
            "every job needed the expert phase and had to fall back"
        );
        // Honest crowd with boosted votes still finds the max.
        assert_eq!(job.winner, true_argmax(&plan.spec(job.job.0)));
    }
    assert!(rec.events().iter().any(|e| matches!(
        e,
        Event::FaultObserved {
            kind: crowd_core::trace::FaultKind::ExpertFallback,
            ..
        }
    )));
}

#[test]
fn under_reservation_finishes_jobs_budget_exhausted() {
    let (_rec, _g) = record();
    let config = ServeConfig::basic()
        .with_tenants(vec![TenantPolicy::new(TenantId(0), 50_000, 500)])
        .with_reserve_factor_percent(5);
    let plan = ArrivalPlan::new(8, 1, 2, 6, 1).with_catalog(10, 14);
    let mut service = CrowdServe::new(config, 2).unwrap();
    let report = service.run(&plan, 400).unwrap();
    assert_eq!(report.jobs.len() as u64 + report.shed, 6);
    assert!(
        report
            .jobs
            .iter()
            .any(|j| j.degraded == Some(crowd_core::trace::DegradedReason::BudgetExhausted)),
        "a 5% reservation cannot fund a 10+-element tournament"
    );
}

#[test]
fn shed_submissions_leave_no_residue() {
    let (rec, _g) = record();
    // Queue of zero and a bucket too small for any job: everything sheds.
    let config = ServeConfig::basic()
        .with_tenants(vec![TenantPolicy::new(TenantId(0), 10, 0)])
        .with_queue_cap(0);
    let mut service = CrowdServe::new(config, 4).unwrap();
    let header_len = service.journal().durable().len();
    let spec = JobSpec {
        tenant: TenantId(0),
        values: vec![1.0, 2.0, 3.0, 4.0],
        votes: 3,
        expert_votes: 3,
        deadline_ticks: 16,
    };
    for _ in 0..5 {
        match service.submit(spec.clone()).unwrap() {
            Admission::Rejected { retry_after, .. } => {
                assert_eq!(retry_after, u64::MAX, "this job can never fit the bucket");
            }
            other => panic!("expected a shed, got {other:?}"),
        }
    }
    for _ in 0..3 {
        service.step().unwrap();
    }
    let report = service.report();
    assert_eq!(service.journal().durable().len(), header_len);
    assert_eq!(service.journal().pending_len(), 0, "no journal residue");
    assert_eq!(report.tenants[0].shed, 5);
    assert_eq!(report.tenants[0].tokens_granted, 0, "no bucket movement");
    assert_eq!(report.comparisons, 0);
    let shed_events = rec
        .events()
        .iter()
        .filter(|e| matches!(e, Event::JobShed { .. }))
        .count();
    assert_eq!(shed_events, 5, "shed leaves only its event");
}

/// Runs `plan` uninterrupted and returns report + journal + events.
fn uninterrupted(
    config: &ServeConfig,
    seed: u64,
    plan: &ArrivalPlan,
) -> (ServeReport, Vec<u8>, Vec<Event>) {
    let (rec, _g) = record();
    let mut service = CrowdServe::new(config.clone(), seed).unwrap();
    let report = service.run(plan, 600).unwrap();
    (report, service.journal().durable().to_vec(), rec.events())
}

fn is_recovery_marker(event: &Event) -> bool {
    matches!(
        event,
        Event::RecoveryStarted { .. } | Event::RecoveryCompleted { .. }
    )
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let config = faulty_config();
    let plan = overload_plan(13);
    let (base_report, base_journal, base_events) = uninterrupted(&config, 21, &plan);
    assert!(!base_report.jobs.is_empty());

    for kill in [
        ServeKill::BeforeTick(6),
        ServeKill::MidTick(9),
        ServeKill::TornCompleted(11),
    ] {
        // Doom a run, keeping only its durable journal bytes.
        let durable = {
            let (_rec, _g) = record();
            let mut doomed = CrowdServe::new(config.clone(), 21)
                .unwrap()
                .with_chaos(kill);
            let err = doomed.run(&plan, 600).expect_err("the kill must fire");
            assert_eq!(err, ServeError::Crashed);
            assert!(doomed.crashed());
            doomed.journal().durable().to_vec()
        };
        assert!(durable.len() < base_journal.len(), "{kill:?} lost work");

        // Resume from the wreckage.
        let (rec, _g) = record();
        let (report, resumed) =
            CrowdServe::resume(config.clone(), 21, &plan, &durable, 600).unwrap();
        assert_eq!(report, base_report, "{kill:?}: reports must match");
        assert_eq!(
            resumed.journal().durable(),
            &base_journal[..],
            "{kill:?}: resumed journal must be byte-identical"
        );
        let events = rec.events();
        assert!(events.iter().any(is_recovery_marker));
        let filtered: Vec<&Event> = events.iter().filter(|e| !is_recovery_marker(e)).collect();
        let base: Vec<&Event> = base_events.iter().collect();
        assert_eq!(filtered, base, "{kill:?}: event stream must match");
        // Per-tenant accounting is identical by construction of the
        // report equality above, but make the acceptance bar explicit.
        for (a, b) in report.tenants.iter().zip(base_report.tenants.iter()) {
            assert_eq!(a, b, "{kill:?}: per-tenant accounting must match");
        }
    }
}

#[test]
fn resume_refuses_foreign_journals() {
    let config = faulty_config();
    let plan = overload_plan(13);
    let (_rec, _g) = record();
    let mut service = CrowdServe::new(config.clone(), 21)
        .unwrap()
        .with_chaos(ServeKill::BeforeTick(4));
    let _ = service.run(&plan, 600);
    let bytes = service.journal().durable().to_vec();

    // Wrong seed.
    let err = CrowdServe::resume(config.clone(), 22, &plan, &bytes, 600).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Resume(crowd_platform::serve::ResumeError::SeedMismatch { .. })
    ));
    // Wrong config.
    let other = config.clone().with_queue_cap(99);
    let err = CrowdServe::resume(other, 21, &plan, &bytes, 600).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Resume(crowd_platform::serve::ResumeError::ConfigMismatch)
    ));
    // No header at all.
    let err = CrowdServe::resume(config, 21, &plan, b"", 600).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Resume(crowd_platform::serve::ResumeError::MissingHeader)
    ));
}

#[test]
fn non_finite_catalog_values_are_refused() {
    let (rec, _g) = record();
    let mut service = CrowdServe::new(ServeConfig::basic(), 0).unwrap();
    for (values, at) in [
        (vec![1.0, f64::NAN, 3.0, 2.0], 1),
        (vec![1.0, f64::INFINITY, 3.0], 1),
        (vec![f64::NEG_INFINITY, 2.0], 0),
    ] {
        let spec = JobSpec {
            tenant: TenantId(0),
            values,
            votes: 1,
            expert_votes: 1,
            deadline_ticks: 8,
        };
        assert_eq!(
            service.submit(spec).unwrap_err(),
            ServeError::NonFiniteValue(at)
        );
    }
    // A refused submission leaves no residue: no job, no journal bytes.
    service.step().unwrap();
    let report = service.report();
    assert!(report.jobs.is_empty());
    assert!(report.tenants.iter().all(|t| t.offered == 0));
    assert!(rec.events().is_empty(), "{:?}", rec.events());
}

#[test]
fn resume_refuses_a_forged_trailing_frame() {
    // A real crashed journal plus one validly framed TickCompleted the
    // run never produces: the resumed run cannot re-append it.
    let config = faulty_config();
    let plan = overload_plan(13);
    let mut durable = {
        let (_rec, _g) = record();
        let mut doomed = CrowdServe::new(config.clone(), 21)
            .unwrap()
            .with_chaos(ServeKill::MidTick(9));
        assert_eq!(doomed.run(&plan, 600), Err(ServeError::Crashed));
        doomed.journal().durable().to_vec()
    };
    let mut forged = crowd_platform::Journal::new();
    forged.append_json(
        r#"{"TickCompleted":{"tick":999999,"shard_seqs":[],"answers":0,"charged":[],"completed":[]}}"#,
    );
    forged.flush();
    durable.extend_from_slice(forged.durable());

    let (_rec, _g) = record();
    let err = CrowdServe::resume(config.clone(), 21, &plan, &durable, 600).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Resume(crowd_platform::serve::ResumeError::Diverged { .. })
        ),
        "{err:?}"
    );

    // The same frame after a complete journal: every real frame is
    // reproduced, and the run ends with the forged one still unmatched.
    let (_, mut complete, _) = uninterrupted(&config, 21, &plan);
    complete.extend_from_slice(forged.durable());
    let (_rec, _g) = record();
    let err = CrowdServe::resume(config, 21, &plan, &complete, 600).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Resume(crowd_platform::serve::ResumeError::Diverged { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn submission_errors_are_typed() {
    let (_rec, _g) = record();
    let mut service = CrowdServe::new(ServeConfig::basic(), 0).unwrap();
    let bad_tenant = JobSpec {
        tenant: TenantId(42),
        values: vec![1.0, 2.0],
        votes: 1,
        expert_votes: 1,
        deadline_ticks: 8,
    };
    assert_eq!(
        service.submit(bad_tenant).unwrap_err(),
        ServeError::UnknownTenant(TenantId(42))
    );
    let empty = JobSpec {
        tenant: TenantId(0),
        values: vec![],
        votes: 1,
        expert_votes: 1,
        deadline_ticks: 8,
    };
    assert_eq!(service.submit(empty).unwrap_err(), ServeError::EmptyCatalog);
    assert!(matches!(
        CrowdServe::new(ServeConfig::basic().with_shards(vec![]), 0),
        Err(ServeError::NoShards)
    ));
    let dup = ServeConfig::basic().with_tenants(vec![
        TenantPolicy::new(TenantId(3), 10, 1),
        TenantPolicy::new(TenantId(3), 10, 1),
    ]);
    assert!(matches!(
        CrowdServe::new(dup, 0),
        Err(ServeError::DuplicateTenant(TenantId(3)))
    ));
}

/// Fault-free honest config with a generous single-tenant budget: every
/// submission admits, every distinguishable pair is judged correctly.
fn cache_test_config(cache: CachePolicy) -> ServeConfig {
    ServeConfig::basic()
        .with_tenants(vec![TenantPolicy::new(TenantId(0), 100_000, 200)])
        .with_shards(vec![
            ShardSpec::honest(WorkerClass::Naive, 12, 36),
            ShardSpec::honest(WorkerClass::Expert, 4, 12),
        ])
        .with_queue_cap(16)
        .with_cache(cache)
}

/// Submits `specs` (each `gap` ticks after the previous) and steps the
/// service until everything completes; returns the final report plus
/// the cache hit count.
fn run_specs(specs: &[JobSpec], gap: u64, cache: CachePolicy, seed: u64) -> (ServeReport, u64) {
    let (_rec, _g) = record();
    let mut service = CrowdServe::new(cache_test_config(cache), seed).expect("config is valid");
    let mut pending = specs.iter().cloned();
    let mut next_submit = 0u64;
    let mut queued = pending.next();
    for _ in 0..2_000u64 {
        while queued.is_some() && service.tick() >= next_submit {
            let spec = queued.take().expect("checked is_some");
            if let Admission::Rejected { .. } =
                service.submit(spec).expect("submission is well-formed")
            {
                panic!("generous budget must admit");
            }
            next_submit = service.tick() + gap;
            queued = pending.next();
        }
        service.step().expect("no chaos: cannot crash");
        if queued.is_none() && service.report().jobs.len() == specs.len() {
            break;
        }
    }
    let report = service.report();
    assert_eq!(report.jobs.len(), specs.len(), "all jobs must complete");
    let hits = report.cache_hits;
    (report, hits)
}

/// Disjoint catalogs leave the cache without a single hit, and the run's
/// report is identical to a cache-off run's — the cache is invisible
/// until catalogs actually overlap.
#[test]
fn cache_is_invisible_without_overlap() {
    let a = JobSpec {
        tenant: TenantId(0),
        values: vec![10.0, 30.0, 20.0, 5.0],
        votes: 3,
        expert_votes: 3,
        deadline_ticks: 64,
    };
    let mut b = a.clone();
    b.values = vec![11.0, 31.0, 21.0, 6.0];
    let specs = [a, b];
    let (on, hits) = run_specs(&specs, 1, CachePolicy::default_on(), 77);
    let (off, _) = run_specs(&specs, 1, CachePolicy::disabled(), 77);
    assert_eq!(hits, 0, "disjoint catalogs cannot hit");
    assert_eq!(on, off, "the cache must be invisible without overlap");
}

/// Two identical catalogs: the second job's naive tournament is answered
/// entirely from the cache, hits are accounted, and nothing is charged
/// for them.
#[test]
fn identical_catalogs_reuse_judgments_and_are_never_charged_for_hits() {
    let spec = JobSpec {
        tenant: TenantId(0),
        values: vec![10.0, 40.0, 20.0, 30.0, 5.0],
        votes: 3,
        expert_votes: 3,
        deadline_ticks: 64,
    };
    let solo = [spec.clone()];
    let twice = [spec.clone(), spec];
    let (solo_report, _) = run_specs(&solo, 1, CachePolicy::default_on(), 91);
    let (pair_report, hits) = run_specs(&twice, 1, CachePolicy::default_on(), 91);
    assert!(hits > 0, "an identical catalog must hit: {pair_report:?}");
    assert!(
        pair_report.comparisons < 2 * solo_report.comparisons,
        "reuse must cost less than two isolated runs: {} vs 2×{}",
        pair_report.comparisons,
        solo_report.comparisons
    );
    assert_eq!(
        pair_report.cache_saved_comparisons,
        2 * solo_report.comparisons - pair_report.comparisons,
        "every comparison not charged is accounted as saved"
    );
    for job in &pair_report.jobs {
        assert_eq!(job.winner, ElementId(1), "winner is the true max");
        assert_eq!(job.degraded, None);
    }
    // Ledger invariant holds with hits in play: hits are never charged,
    // so charged + refunded still never exceeds granted.
    for tenant in &pair_report.tenants {
        assert!(tenant.comparisons + tenant.tokens_refunded <= tenant.tokens_granted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-job reuse never costs extra and never changes an answer:
    /// for any interleaving of two jobs over overlapping catalogs, the
    /// combined run's total comparisons stay at or below the sum of two
    /// isolated runs, and each job's winner is unchanged.
    #[test]
    fn overlapping_jobs_cost_at_most_the_sum_of_isolated_runs(
        seed in 0u64..500,
        a_len in 2usize..8,
        b_len in 2usize..8,
        b_start in 0usize..8,
        gap in 0u64..6,
        b_first in 0usize..2,
    ) {
        let b_first = b_first == 1;
        // Distinct universe values, bit-identical wherever both
        // catalogs draw the same item — that is what "overlapping
        // catalogs" means to a content-keyed cache.
        let universe: Vec<f64> = (0..16)
            .map(|i| (i as f64) * 9.0 + ((seed % 7) as f64) / 8.0)
            .collect();
        let mk = |start: usize, len: usize| JobSpec {
            tenant: TenantId(0),
            values: universe[start..start + len].to_vec(),
            votes: 3,
            expert_votes: 3,
            deadline_ticks: 64,
        };
        let a = mk(0, a_len);
        let b = mk(b_start, b_len);
        let combined = if b_first {
            [b.clone(), a.clone()]
        } else {
            [a.clone(), b.clone()]
        };

        let (a_iso, _) = run_specs(std::slice::from_ref(&a), 0, CachePolicy::default_on(), seed);
        let (b_iso, _) = run_specs(std::slice::from_ref(&b), 0, CachePolicy::default_on(), seed);
        let (both, _) = run_specs(&combined, gap, CachePolicy::default_on(), seed);

        prop_assert!(
            both.comparisons <= a_iso.comparisons + b_iso.comparisons,
            "interleaved total {} > isolated sum {} + {}",
            both.comparisons, a_iso.comparisons, b_iso.comparisons
        );
        // Winners unchanged: each job still returns its catalog's true
        // maximum, exactly as the isolated runs did.
        prop_assert_eq!(a_iso.jobs[0].winner, true_argmax(&a));
        prop_assert_eq!(b_iso.jobs[0].winner, true_argmax(&b));
        // Job ids are assigned in submission order, so the smaller id
        // belongs to the spec submitted first.
        let first_id = both.jobs.iter().map(|j| j.job.0).min().expect("two jobs completed");
        for job in &both.jobs {
            let spec = if job.job.0 == first_id { &combined[0] } else { &combined[1] };
            prop_assert_eq!(
                job.winner,
                true_argmax(spec),
                "job {:?} winner changed under interleaving", job.job
            );
        }
    }

    /// Admission accounting: for every tenant, comparisons charged never
    /// exceed the tokens its bucket dispensed, and the bucket can never
    /// dispense more than its initial fill plus its refill inflow.
    #[test]
    fn charges_never_exceed_the_token_budget(
        seed in 0u64..1000,
        capacity in 50u64..3000,
        refill in 0u64..60,
        rate_num in 1u64..4,
        jobs in 1u64..30,
    ) {
        let (_rec, _g) = record();
        let config = ServeConfig::basic().with_tenants(vec![
            TenantPolicy::new(TenantId(0), capacity, refill),
            TenantPolicy::new(TenantId(1), capacity / 2 + 1, refill / 2),
        ]);
        let plan = ArrivalPlan::new(seed, rate_num, 1, jobs, 2)
            .with_catalog(2, 8)
            .with_deadline(30);
        let mut service = CrowdServe::new(config, seed ^ 0xABCD).unwrap();
        let report = service.run(&plan, 500).expect("never crashes");
        for tenant in &report.tenants {
            let policy_cap = if tenant.tenant == TenantId(0) { capacity } else { capacity / 2 + 1 };
            let policy_refill = if tenant.tenant == TenantId(0) { refill } else { refill / 2 };
            prop_assert!(
                tenant.comparisons + tenant.tokens_refunded <= tenant.tokens_granted,
                "tenant {} charged {} + refunded {} > granted {}",
                tenant.tenant, tenant.comparisons, tenant.tokens_refunded, tenant.tokens_granted
            );
            // Refunded tokens return to the bucket and may legitimately
            // be granted again, so they count as inflow too.
            let inflow = policy_cap + policy_refill * report.ticks + tenant.tokens_refunded;
            prop_assert!(
                tenant.tokens_granted <= inflow,
                "tenant {} granted {} > inflow {}",
                tenant.tenant, tenant.tokens_granted, inflow
            );
        }
    }

    /// Load shedding is residue-free: a shed submission changes neither
    /// the journal nor the tenant's bucket ledger.
    #[test]
    fn shedding_is_residue_free(
        seed in 0u64..1000,
        capacity in 10u64..200,
        queue_cap in 0usize..3,
        n in 2u32..12,
    ) {
        let (_rec, _g) = record();
        let config = ServeConfig::basic()
            .with_tenants(vec![TenantPolicy::new(TenantId(0), capacity, 1)])
            .with_queue_cap(queue_cap);
        let mut service = CrowdServe::new(config, seed).unwrap();
        let plan = ArrivalPlan::new(seed, 1, 1, 40, 1).with_catalog(n, n);
        let mut saw_shed = false;
        for idx in 0..40 {
            let before_journal =
                (service.journal().durable().len(), service.journal().pending_len());
            let before = service.report();
            let admission = service.submit(plan.spec(idx)).unwrap();
            if let Admission::Rejected { .. } = admission {
                saw_shed = true;
                let after = service.report();
                let after_journal =
                    (service.journal().durable().len(), service.journal().pending_len());
                prop_assert_eq!(before_journal, after_journal, "journal residue");
                prop_assert_eq!(
                    before.tenants[0].tokens_granted,
                    after.tenants[0].tokens_granted
                );
                prop_assert_eq!(
                    before.tenants[0].tokens_refunded,
                    after.tenants[0].tokens_refunded
                );
                prop_assert_eq!(before.jobs.len(), after.jobs.len());
            }
        }
        prop_assume!(saw_shed);
    }

    /// Breaker state machine: deterministic under a fixed seed, and the
    /// trip threshold is exact — `threshold − 1` consecutive failures
    /// leave it closed, one more opens it.
    #[test]
    fn breaker_trips_exactly_at_threshold(
        threshold in 1u32..8,
        seed in 0u64..1000,
        worker in 0u64..64,
    ) {
        use crowd_platform::serve::CircuitBreaker;
        let policy = BreakerPolicy::default_on().with_trip_threshold(threshold);
        let mut a = CircuitBreaker::new();
        let mut b = CircuitBreaker::new();
        for i in 0..threshold - 1 {
            let va = a.on_failure(0, &policy, seed, worker);
            let vb = b.on_failure(0, &policy, seed, worker);
            prop_assert_eq!(va, vb, "replay diverged at failure {}", i);
            prop_assert!(va.tripped.is_none(), "tripped below threshold");
            prop_assert!(a.admits(0));
        }
        let va = a.on_failure(0, &policy, seed, worker);
        let vb = b.on_failure(0, &policy, seed, worker);
        prop_assert_eq!(va, vb);
        prop_assert!(va.tripped.is_some(), "threshold reached, no trip");
        prop_assert!(!a.admits(0), "open breaker admits nothing at trip tick");
        prop_assert_eq!(a.state(), b.state(), "state replay diverged");
    }

    /// A breaker's open/probe cycle is deterministic: the same seeded
    /// failure schedule replays to the same trips and cooldowns.
    #[test]
    fn breaker_cycles_replay_deterministically(
        seed in 0u64..1000,
        worker in 0u64..64,
        script in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        use crowd_platform::serve::CircuitBreaker;
        let policy = BreakerPolicy::default_on()
            .with_trip_threshold(2)
            .with_cooldown(2, 3);
        let run = |script: &[bool]| {
            let mut b = CircuitBreaker::new();
            let mut states = Vec::new();
            for (tick, ok) in script.iter().enumerate() {
                let tick = tick as u64;
                if b.admits(tick) {
                    if *ok {
                        b.on_success();
                    } else {
                        b.on_failure(tick, &policy, seed, worker);
                    }
                }
                states.push((b.state(), b.trips()));
            }
            states
        };
        prop_assert_eq!(run(&script), run(&script));
    }
}

/// The span-accounting invariant (the `serve_trace` contract): for every
/// completed job — degraded, queued, and cache-hit jobs included — the
/// stage-span ticks sum to exactly `latency_ticks()`, and the span log
/// reconciles as a whole.
#[test]
fn stage_spans_partition_every_completed_jobs_latency() {
    use crowd_obs::Stage;
    use std::collections::BTreeMap;

    let (rec, _g) = record();
    // Overlapping catalogs force judgment-cache hits; the faulty config
    // forces retries and queueing; the tight deadline forces degraded
    // completions even for jobs the cache accelerates.
    let plan = overload_plan(11).with_overlap(60, 6).with_deadline(3);
    let mut service = CrowdServe::new(faulty_config(), 7).unwrap();
    let report = service.run(&plan, 600).expect("run completes");

    let log = rec.span_log();
    log.reconcile().expect("span log reconciles");

    // Cross-check against the report: one Admission/Completion marker
    // pair per completed job, stage ticks summing to latency_ticks().
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    let mut markers: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &log.spans {
        match span.stage {
            Stage::Admission | Stage::Completion => {
                *markers.entry(span.job).or_insert(0) += 1;
            }
            _ => *sums.entry(span.job).or_insert(0) += span.ticks,
        }
    }
    assert!(!report.jobs.is_empty());
    for job in &report.jobs {
        assert_eq!(
            markers.get(&job.job.0),
            Some(&2),
            "job {} must carry both markers",
            job.job
        );
        assert_eq!(
            sums.get(&job.job.0).copied().unwrap_or(0),
            job.latency_ticks(),
            "job {} stage ticks must equal its latency",
            job.job
        );
    }
    assert_eq!(
        markers.len(),
        report.jobs.len(),
        "spans exist exactly for completed jobs"
    );

    // The scenario really exercised the hard cases.
    assert!(
        report.jobs.iter().any(|j| j.degraded.is_some()),
        "scenario must include degraded jobs"
    );
    assert!(report.cache_hits > 0, "scenario must include cache hits");
    assert!(
        log.spans.iter().any(|s| s.stage == Stage::QueueWait),
        "scenario must include queued jobs"
    );
    assert!(
        log.spans.iter().any(|s| s.stage == Stage::Retry),
        "scenario must include retried ticks"
    );
}

/// Spans are part of the determinism contract: kill+resume emits exactly
/// the spans of the uninterrupted twin (no `Recovery*`-style bookkeeping
/// exists in span space, so the logs compare byte-equal).
#[test]
fn kill_and_resume_emits_identical_spans() {
    let config = faulty_config();
    let plan = overload_plan(13);

    let (rec_a, g) = record();
    let mut baseline = CrowdServe::new(config.clone(), 9).unwrap();
    baseline.run(&plan, 600).unwrap();
    drop(g);

    // The doomed leg records privately (its spans died with the crash);
    // only the resume leg's spans are compared against the baseline.
    let bytes = {
        let (_rec, _g) = record();
        let mut doomed = CrowdServe::new(config.clone(), 9)
            .unwrap()
            .with_chaos(ServeKill::MidTick(6));
        assert_eq!(doomed.run(&plan, 600), Err(ServeError::Crashed));
        doomed.journal().durable().to_vec()
    };
    let (rec_b, _g) = record();
    let (_report, _svc) = CrowdServe::resume(config, 9, &plan, &bytes, 600).unwrap();

    assert!(!rec_a.span_log().is_empty());
    assert_eq!(
        rec_a.span_log().to_jsonl(),
        rec_b.span_log().to_jsonl(),
        "resume must reproduce the uninterrupted span log byte-for-byte"
    );
}
