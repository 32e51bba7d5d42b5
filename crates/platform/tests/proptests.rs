//! Property-based tests of the platform substrate: scheduling invariants,
//! billing conservation, and quality-control behaviour under randomized
//! workloads and pool compositions, plus crash recovery from journals
//! truncated at arbitrary offsets.

use crowd_core::cost::CostModel;
use crowd_core::element::{ElementId, Instance};
use crowd_core::model::{TiePolicy, WorkerClass};
use crowd_core::oracle::ComparisonOracle;
use crowd_platform::{
    batched_filter, schedule, scheduler::distinct_workers_per_unit, Behavior, Job, Platform,
    PlatformConfig, PlatformOracle, SpamStrategy, TrustTracker, WorkerId, WorkerPool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn pool_with(naive: usize, experts: usize) -> WorkerPool {
    let mut p = WorkerPool::new();
    p.hire_naive_crowd(naive, 5.0, 0.05);
    p.hire_expert_panel(experts, 0.5, 0.0);
    p
}

/// A platform over values `3·i` whose naïve workers all answer the same
/// way: perfectly, or (`intransitive`) under `T(δ = 10, ε = 0)` with ties
/// to the lower value, which beats anything within 10 of it and so makes
/// cyclic tournaments.
fn deterministic_platform(
    n: usize,
    workers: usize,
    intransitive: bool,
    seed: u64,
) -> Platform<StdRng> {
    let instance = Instance::new((0..n).map(|i| i as f64 * 3.0).collect());
    let delta = if intransitive { 10.0 } else { 0.0 };
    let mut pool = WorkerPool::new();
    pool.hire_many(
        workers,
        WorkerClass::Naive,
        "crowd",
        Behavior::Threshold {
            delta,
            epsilon: 0.0,
            tie: TiePolicy::FavorLower,
        },
    );
    Platform::new(
        instance,
        pool,
        PlatformConfig::paper_default().without_gold(),
        StdRng::seed_from_u64(seed),
    )
}

/// Appendix A pruning reaches the batched filter: at n = 40, un = 2 under
/// intransitive workers, global-loss tracking leaves only e36, and the
/// batched run must prune exactly as the sequential one does.
#[test]
fn batched_filter_prunes_global_losses_like_the_sequential_filter() {
    use crowd_core::algorithms::{filter_candidates, FilterConfig};
    let cfg = FilterConfig::new(2).with_global_losses();
    let ids: Vec<ElementId> = (0..40).map(ElementId).collect();
    let mut oracle = PlatformOracle::new(deterministic_platform(40, 10, true, 1));
    let sequential = filter_candidates(&mut oracle, &ids, &cfg);
    assert_eq!(sequential.survivors, vec![ElementId(36)]);
    let mut bp = deterministic_platform(40, 10, true, 1);
    let batched = batched_filter(&mut bp, WorkerClass::Naive, &ids, &cfg).unwrap();
    assert_eq!(batched, sequential);
}

fn job_with(units: usize, judgments: u32) -> Job {
    let pairs: Vec<_> = (0..units)
        .map(|i| (ElementId(2 * i as u32), ElementId(2 * i as u32 + 1)))
        .collect();
    Job::from_pairs(&pairs, judgments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule covers exactly `units × judgments` assignments, never
    /// double-books a worker within a physical step, never assigns a worker
    /// twice to the same unit, and obeys the ⌈m/w⌉ physical-step rule.
    #[test]
    fn schedule_invariants(
        workers in 1usize..40,
        units in 1usize..30,
        judgments in 1u32..8,
        rotation in 0usize..100,
        start in 0u64..1000,
    ) {
        prop_assume!(judgments as usize <= workers);
        let pool = pool_with(workers, 0);
        let job = job_with(units, judgments);
        let s = schedule(&pool, &job, WorkerClass::Naive, &HashSet::new(), start, rotation).unwrap();

        prop_assert_eq!(s.assignments.len() as u64, job.total_judgments());
        prop_assert!(distinct_workers_per_unit(&s));
        let expected_steps = job.total_judgments().div_ceil(workers as u64);
        prop_assert_eq!(s.physical_steps, expected_steps);
        for step in 0..expected_steps {
            let mut at_step = HashSet::new();
            for a in s.assignments.iter().filter(|a| a.physical_step == start + step) {
                prop_assert!(at_step.insert(a.worker), "double-booked worker at step {}", step);
            }
        }
        prop_assert!(s.assignments.iter().all(|a| (start..start + expected_steps).contains(&a.physical_step)));
    }

    /// The rotation parameter is a pure relabeling: it changes who works,
    /// never how much work happens.
    #[test]
    fn rotation_preserves_workload(workers in 2usize..20, units in 1usize..20, r1 in 0usize..50, r2 in 0usize..50) {
        let pool = pool_with(workers, 0);
        let job = job_with(units, 1);
        let s1 = schedule(&pool, &job, WorkerClass::Naive, &HashSet::new(), 0, r1).unwrap();
        let s2 = schedule(&pool, &job, WorkerClass::Naive, &HashSet::new(), 0, r2).unwrap();
        prop_assert_eq!(s1.assignments.len(), s2.assignments.len());
        prop_assert_eq!(s1.physical_steps, s2.physical_steps);
    }

    /// Billing conservation: ledger total = naive judgments × cn + expert
    /// judgments × ce, and judgment counts match the oracle tally.
    #[test]
    fn billing_matches_judgments(
        n in 4usize..40,
        comparisons in 1usize..25,
        judgments_per_unit in 1u32..4,
        cn in 0.01f64..2.0,
        ce in 2.0f64..50.0,
        seed in any::<u64>(),
    ) {
        let instance = Instance::new((0..n).map(|i| i as f64 * 10.0).collect());
        let pool = pool_with(8, 4);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_judgments_per_unit(judgments_per_unit)
            .with_payment(CostModel::new(cn, ce));
        let mut platform = Platform::new(instance.clone(), pool, config, StdRng::seed_from_u64(seed));
        let pairs: Vec<_> = (0..comparisons)
            .map(|i| {
                let a = (i % n) as u32;
                let b = ((i + 1 + i / n) % n) as u32;
                (ElementId(a), ElementId(if a == b { (b + 1) % n as u32 } else { b }))
            })
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!pairs.is_empty());
        platform.submit_comparisons(&pairs, WorkerClass::Naive).unwrap();
        platform.submit_comparisons(&pairs, WorkerClass::Expert).unwrap();

        let counts = platform.counts();
        let expected = counts.naive as f64 * cn + counts.expert as f64 * ce;
        prop_assert!((platform.ledger().total() - expected).abs() < 1e-6);
        prop_assert_eq!(platform.ledger().judgments(), counts.total());
    }

    /// The platform oracle always answers with one of the two compared
    /// elements, for both classes.
    #[test]
    fn platform_oracle_is_closed(n in 2usize..30, seed in any::<u64>(), a in 0u32..30, b in 0u32..30) {
        prop_assume!((a as usize) < n && (b as usize) < n && a != b);
        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let platform = Platform::new(
            instance,
            pool_with(6, 3),
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(seed),
        );
        let mut oracle = PlatformOracle::new(platform);
        for class in [WorkerClass::Naive, WorkerClass::Expert] {
            let w = oracle.compare(class, ElementId(a), ElementId(b));
            prop_assert!(w == ElementId(a) || w == ElementId(b));
        }
    }

    /// Trust tracking: a worker's gold accuracy decides her fate exactly at
    /// the threshold, for any record.
    #[test]
    fn trust_threshold_is_exact(correct in 0u32..50, wrong in 0u32..50, threshold in 0.01f64..1.0, min_gold in 1u32..10) {
        let mut t = TrustTracker::new(threshold, min_gold);
        let w = WorkerId(0);
        for i in 0..(correct + wrong) {
            t.record(w, i < correct);
        }
        let seen = correct + wrong;
        let expected = seen < min_gold || correct as f64 / seen as f64 >= threshold;
        prop_assert_eq!(t.is_trusted(w), expected);
    }

    /// The batched filter and the sequential filter agree exactly when
    /// workers are deterministic — perfect, or the intransitive
    /// `T(δ = 10, ε = 0)` with ties to the lower value — with or without
    /// Appendix A global-loss tracking, and batching never changes the
    /// comparison count — only the physical-step clock.
    #[test]
    fn batched_filter_equals_sequential(n in 8usize..150, un_frac in 0.0f64..0.3, workers in 2usize..30, seed in any::<u64>(), intransitive in any::<bool>(), global_losses in any::<bool>()) {
        use crowd_core::algorithms::{filter_candidates, FilterConfig};
        let un = ((n as f64 * un_frac) as usize).clamp(1, n / 2);
        let mut cfg = FilterConfig::new(un);
        if global_losses {
            cfg = cfg.with_global_losses();
        }
        let build = || deterministic_platform(n, workers, intransitive, seed);
        let ids: Vec<ElementId> = (0..n as u32).map(ElementId).collect();

        let mut bp = build();
        let batched = batched_filter(&mut bp, WorkerClass::Naive, &ids, &cfg).unwrap();

        let mut oracle = PlatformOracle::new(build());
        let sequential = filter_candidates(&mut oracle, &ids, &cfg);

        prop_assert_eq!(&batched, &sequential);
        let sp = oracle.into_platform();
        prop_assert_eq!(bp.counts().naive, sp.counts().naive);
        prop_assert!(bp.physical_clock() <= sp.physical_clock());
    }

    /// Under arbitrary fault pressure, retry re-assignment never hands a
    /// unit back to a worker who already judged it — the
    /// distinct-workers-per-unit invariant survives recovery — and every
    /// performed judgment is billed.
    #[test]
    fn retry_reassignment_never_repeats_a_worker(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        abandon in 0.0f64..0.4,
        no_answer in 0.0f64..0.4,
        timeout_steps in 1u64..6,
        judgments in 1u32..3,
    ) {
        use crowd_platform::{FaultConfig, LatencyModel, RetryPolicy};
        use std::collections::HashMap;

        let instance = Instance::new((0..12).map(|i| i as f64 * 5.0).collect());
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_judgments_per_unit(judgments)
            .with_faults(
                FaultConfig::none()
                    .with_abandon(abandon)
                    .with_no_answer(no_answer)
                    .with_latency(LatencyModel::Geometric { p: 0.5, cap: 12 })
                    .with_timeout_steps(timeout_steps),
                fault_seed,
            )
            .with_retry(RetryPolicy::paper_default());
        let mut platform = Platform::new(
            instance,
            pool_with(10, 0),
            config,
            StdRng::seed_from_u64(seed),
        );
        for round in 0..8u32 {
            let job = Job::from_pairs(
                &[
                    (ElementId(round % 6), ElementId(6 + round % 6)),
                    (ElementId((round + 1) % 6), ElementId(11)),
                ],
                judgments,
            );
            if let Ok(result) = platform.run_job(&job, WorkerClass::Naive) {
                let mut seen: HashMap<_, HashSet<_>> = HashMap::new();
                for j in &result.judgments {
                    prop_assert!(
                        seen.entry(j.unit).or_default().insert(j.worker),
                        "unit {:?} judged twice by {} (round {round})",
                        j.unit,
                        j.worker
                    );
                }
            }
        }
        prop_assert_eq!(platform.ledger().judgments(), platform.counts().total());
    }

    /// A persistent spammer in a gold-rich platform eventually gets
    /// excluded, regardless of seed.
    #[test]
    fn spammers_eventually_excluded(seed in any::<u64>()) {
        let instance = Instance::new((0..20).map(|i| i as f64 * 100.0).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(5, 0.0, 0.0);
        let spammer = pool.hire(
            WorkerClass::Naive,
            "spam",
            Behavior::Spammer(SpamStrategy::AlwaysSecond),
        );
        let mut config = PlatformConfig::paper_default();
        config.gold_fraction = 0.5;
        config.min_gold = 2;
        let mut platform = Platform::new(instance, pool, config, StdRng::seed_from_u64(seed));
        // Gold pairs presented higher-first: AlwaysSecond always fails them.
        platform.set_gold_pairs(vec![
            (ElementId(19), ElementId(0)),
            (ElementId(18), ElementId(1)),
            (ElementId(17), ElementId(2)),
        ]);
        for _ in 0..120 {
            platform
                .submit_comparisons(&[(ElementId(5), ElementId(6))], WorkerClass::Naive)
                .unwrap();
            if !platform.trust().is_trusted(spammer) {
                break;
            }
        }
        prop_assert!(!platform.trust().is_trusted(spammer), "spammer survived 120 jobs");
    }
}

/// A truncation-property fixture: the uninterrupted run's result and
/// final journal, and the durable bytes a kill of the same run left.
struct Truncation<T> {
    result: T,
    journal: Vec<u8>,
    crashed: Vec<u8>,
}

const TRUNCATED_JOB: &str = "truncation";

fn truncation_platform() -> Platform<StdRng> {
    let instance = Instance::new((0..40).map(|i| f64::from((i * 17) % 40)).collect());
    let mut pool = WorkerPool::new();
    pool.hire_naive_crowd(8, 2.0, 0.05);
    pool.hire_expert_panel(3, 0.5, 0.0);
    Platform::new(
        instance,
        pool,
        PlatformConfig::paper_default().without_gold(),
        StdRng::seed_from_u64(0x7C),
    )
}

fn drive_truncated_job<O: ComparisonOracle>(
    oracle: &mut O,
) -> Result<crowd_core::algorithms::ExpertMaxOutcome, crowd_core::oracle::OracleError> {
    use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig};
    let ids: Vec<ElementId> = (0..40).map(ElementId).collect();
    try_expert_max_find(
        oracle,
        &ids,
        &ExpertMaxConfig::new(2),
        &mut StdRng::seed_from_u64(0x7D),
    )
}

/// Algorithm 1 through the job WAL, uninterrupted and killed mid-batch.
fn job_truncation() -> &'static Truncation<crowd_core::algorithms::ExpertMaxOutcome> {
    use crowd_platform::{ChaosPlan, CheckpointPolicy, InjectionPoint, JournaledOracle};
    static FIXTURE: std::sync::OnceLock<Truncation<crowd_core::algorithms::ExpertMaxOutcome>> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let policy = CheckpointPolicy::every(3);
        let mut base = JournaledOracle::new(truncation_platform(), TRUNCATED_JOB, 0x7C, policy);
        let result = drive_truncated_job(&mut base).expect("fault-free run finishes");
        base.finish();
        let mut doomed = JournaledOracle::new(truncation_platform(), TRUNCATED_JOB, 0x7C, policy)
            .with_chaos(ChaosPlan::at(InjectionPoint::MidBatch { batch: 5 }));
        assert!(drive_truncated_job(&mut doomed).is_err() && doomed.crashed());
        Truncation {
            result,
            journal: base.journal().durable().to_vec(),
            crashed: doomed.journal().durable().to_vec(),
        }
    })
}

/// crowd-serve, uninterrupted and killed mid-tick.
fn serve_truncation() -> &'static Truncation<crowd_platform::ServeReport> {
    use crowd_platform::serve::{ArrivalPlan, CrowdServe, ServeConfig, ServeKill};
    static FIXTURE: std::sync::OnceLock<Truncation<crowd_platform::ServeReport>> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let plan = ArrivalPlan::new(0x5E, 2, 1, 24, 1).with_catalog(4, 9);
        let mut base = CrowdServe::new(ServeConfig::basic(), 3).unwrap();
        let result = base.run(&plan, 600).expect("no chaos: cannot crash");
        let mut doomed = CrowdServe::new(ServeConfig::basic(), 3)
            .unwrap()
            .with_chaos(ServeKill::MidTick(4));
        assert!(doomed.run(&plan, 600).is_err() && doomed.crashed());
        Truncation {
            result,
            journal: base.journal().durable().to_vec(),
            crashed: doomed.journal().durable().to_vec(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resuming a job from its durable journal cut at any byte offset
    /// either returns a typed error or reproduces the uninterrupted
    /// result and journal byte for byte — never a panic.
    #[test]
    fn truncated_job_journal_resumes_or_refuses(cut in any::<usize>()) {
        use crowd_platform::{resume_job, CheckpointPolicy};
        let fixture = job_truncation();
        let bytes = &fixture.crashed[..cut % (fixture.crashed.len() + 1)];
        if let Ok(mut resumed) = resume_job(
            bytes,
            truncation_platform(),
            TRUNCATED_JOB,
            0x7C,
            CheckpointPolicy::every(3),
        ) {
            let result = drive_truncated_job(&mut resumed);
            let mut inner = resumed.into_inner();
            inner.finish();
            prop_assert_eq!(inner.journal().diverged(), None);
            prop_assert_eq!(result.as_ref().ok(), Some(&fixture.result));
            prop_assert!(inner.journal().durable() == &fixture.journal[..]);
        }
    }

    /// The serve twin: a `MidTick` crash journal cut at any offset.
    #[test]
    fn truncated_serve_journal_resumes_or_refuses(cut in any::<usize>()) {
        use crowd_platform::serve::{ArrivalPlan, CrowdServe, ServeConfig};
        let fixture = serve_truncation();
        let bytes = &fixture.crashed[..cut % (fixture.crashed.len() + 1)];
        let plan = ArrivalPlan::new(0x5E, 2, 1, 24, 1).with_catalog(4, 9);
        if let Ok((report, resumed)) = CrowdServe::resume(ServeConfig::basic(), 3, &plan, bytes, 600) {
            prop_assert_eq!(&report, &fixture.result);
            prop_assert!(resumed.journal().durable() == &fixture.journal[..]);
        }
    }
}
