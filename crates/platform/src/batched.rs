//! Batched algorithm execution: one job per logical step.
//!
//! The paper's computation model (Section 3) runs algorithms in logical
//! steps: "in the s-th logical step, a batch `B_s` of pairwise comparisons
//! is sent to the crowdsourcing platform", and each logical step costs
//! `⌈|B_s| / |W_t|⌉` *physical* steps of wall-clock time. Driving the
//! platform through the sequential [`ComparisonOracle`](crowd_core::oracle::ComparisonOracle) adapter submits
//! one-unit jobs, so a tournament of `m` games takes `m` physical steps;
//! submitting every independent comparison of a round as a single job
//! takes `⌈m/w⌉` physical steps on a pool of `w` workers — the parallel
//! speedup the paper's time model is about (and the measure Venetis et al.
//! optimize).
//!
//! Algorithm 2 is embarrassingly batchable: within a round, every group's
//! entire all-play-all tournament is independent of every other
//! comparison. [`batched_filter`] drives the shared round engine
//! ([`FilterRounds`]) with exactly that batching.

use crate::platform::{Platform, PlatformError};
use crowd_core::algorithms::{FilterConfig, FilterOutcome, FilterRounds};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use rand::RngCore;

/// Algorithm 2 with one platform job per round: all groups' tournaments of
/// a round are batched together, so a round of `m` comparisons costs
/// `⌈m/w⌉` physical steps instead of `m`.
///
/// With deterministic workers the outcome equals
/// [`filter_candidates`](crowd_core::algorithms::filter_candidates) over a
/// [`PlatformOracle`](crate::PlatformOracle); only the batching, read off
/// [`Platform::logical_steps`] and [`Platform::physical_clock`], differs.
///
/// # Errors
///
/// Propagates platform failures: scheduling errors, budget exhaustion, or
/// units left unanswered after the retry budget is spent.
///
/// # Panics
///
/// Panics if `config.un == 0`.
pub fn batched_filter<R: RngCore>(
    platform: &mut Platform<R>,
    class: WorkerClass,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, PlatformError> {
    let mut rounds = FilterRounds::new(elements, config);
    let start = platform.counts();
    let mut pairs = Vec::new();
    while rounds.is_running() {
        pairs.clear();
        for gi in 0..rounds.played_groups() {
            rounds.push_pairs(gi, &mut pairs);
        }
        let answers = platform.submit_comparisons(&pairs, class)?;
        let mut rest = answers.as_slice();
        let result = rounds.play(0..rounds.played_groups(), |_, group_pairs, out| {
            let (group_answers, tail) = rest.split_at(group_pairs.len());
            out.extend_from_slice(group_answers);
            rest = tail;
        });
        rounds.end_round([result]);
    }
    Ok(rounds.finish(platform.counts() - start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::pool::WorkerPool;
    use crowd_core::element::Instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn perfect_platform(n: usize, workers: usize, seed: u64) -> Platform<StdRng> {
        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(workers, 0.0, 0.0);
        Platform::new(
            instance,
            pool,
            PlatformConfig::paper_default().without_gold(),
            StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn batched_filter_keeps_max_and_parallelizes() {
        let n = 200;
        let workers = 25;
        let mut p = perfect_platform(n, workers, 2);
        let ids: Vec<ElementId> = (0..n as u32).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(4)).unwrap();
        assert!(out.survivors.contains(&ElementId(n as u32 - 1)));
        assert!(out.survivors.len() <= 7);
        // Parallelism: far fewer physical steps than comparisons.
        let comparisons = p.counts().naive;
        assert_eq!(out.comparisons.naive, comparisons);
        assert!(
            p.physical_clock() <= comparisons / (workers as u64 / 2),
            "{} physical steps for {} comparisons on {} workers",
            p.physical_clock(),
            comparisons,
            workers
        );
        // One logical step (job) per round.
        assert_eq!(p.logical_steps(), out.rounds as u64);
        assert!(
            p.logical_steps() <= 8,
            "{} logical steps",
            p.logical_steps()
        );
    }

    #[test]
    fn batched_and_sequential_agree_with_perfect_workers() {
        use crate::platform::PlatformOracle;
        use crowd_core::algorithms::filter_candidates;

        let n = 150;
        let ids: Vec<ElementId> = (0..n as u32).map(ElementId).collect();

        let mut batched_p = perfect_platform(n, 10, 3);
        let batched = batched_filter(
            &mut batched_p,
            WorkerClass::Naive,
            &ids,
            &FilterConfig::new(3),
        )
        .unwrap();

        let sequential_p = perfect_platform(n, 10, 3);
        let mut oracle = PlatformOracle::new(sequential_p);
        let sequential = filter_candidates(&mut oracle, &ids, &FilterConfig::new(3));

        assert_eq!(batched, sequential);
        // Same comparisons, radically different wall-clock.
        let seq_platform = oracle.into_platform();
        assert_eq!(batched_p.counts().naive, seq_platform.counts().naive);
        assert!(batched_p.physical_clock() < seq_platform.physical_clock() / 5);
    }

    #[test]
    fn single_group_instances_work() {
        let mut p = perfect_platform(10, 3, 4);
        let ids: Vec<ElementId> = (0..10).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(3)).unwrap();
        assert!(out.survivors.contains(&ElementId(9)));
    }

    /// A platform whose naïve pool mixes honest workers with a whole
    /// channel of spammers, with gold questions armed so quality control
    /// can catch them.
    fn spam_infested_platform(
        n: usize,
        honest: usize,
        spammers: usize,
        seed: u64,
    ) -> Platform<StdRng> {
        use crate::worker::{Behavior, SpamStrategy};
        use crowd_core::model::WorkerClass;

        let instance = Instance::new((0..n).map(|i| i as f64).collect());
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(honest, 0.0, 0.0);
        for _ in 0..spammers {
            pool.hire(
                WorkerClass::Naive,
                "spamhaus",
                Behavior::Spammer(SpamStrategy::AlwaysSecond),
            );
        }
        let mut cfg = PlatformConfig::paper_default();
        cfg.gold_fraction = 0.25;
        cfg.min_gold = 2;
        let mut p = Platform::new(instance, pool, cfg, StdRng::seed_from_u64(seed));
        p.set_gold_pairs(vec![
            (ElementId(n as u32 - 1), ElementId(0)),
            (ElementId(n as u32 - 2), ElementId(1)),
        ]);
        p
    }

    #[test]
    fn batched_filter_survives_an_all_spammer_channel() {
        // Half the pool is one big spam channel. Gold questions flag the
        // spammers; the filter must either still honour Lemma 3's
        // |S| <= 2·un − 1 bound, or the platform must report degraded
        // service.
        let un = 3;
        let mut p = spam_infested_platform(120, 12, 12, 6);
        let ids: Vec<ElementId> = (0..120).map(ElementId).collect();
        let out = batched_filter(&mut p, WorkerClass::Naive, &ids, &FilterConfig::new(un)).unwrap();
        // |S| < 2·un is Lemma 3's |S| <= 2·un − 1.
        assert!(
            out.survivors.len() < 2 * un || p.degraded(),
            "{} survivors with un = {un}, degraded = {}",
            out.survivors.len(),
            p.degraded()
        );
        // Quality control earned its keep: the spam channel is flagged.
        let untrusted = p.trust().untrusted();
        assert!(
            !untrusted.is_empty(),
            "gold questions should have caught at least one spammer"
        );
    }
}
