//! Parallel Phase-1 filtering: a driver of the shared round engine
//! ([`FilterRounds`]) that fans a round's tournament groups out across
//! [`engine::parallel_map`] in cache-sized chunks.
//!
//! The groups of a round share no state, so each can play on its own
//! thread. A shared sequential oracle would still share its RNG stream, so
//! this entry point takes an oracle **factory**: every `(round, group)`
//! gets a fresh oracle derived from those coordinates alone, and results
//! are joined in group order — the output is **byte-identical at any
//! `--jobs` count**. Each group is answered by one
//! [`ComparisonOracle::compare_batch`] call, and a chunk of roughly
//! `CHUNK_COMPARISONS` comparisons is one `parallel_map` work item, so
//! per-comparison and per-item bookkeeping (tally sinks, decorator
//! dispatch, `crowd-obs` segment capture) is amortized; chunk boundaries
//! are invisible in the output.
//!
//! The price is a different (but equally valid) random realization than
//! [`filter_candidates`](crowd_core::algorithms::filter_candidates) would
//! produce with one sequential oracle — the two agree exactly whenever the
//! oracle is deterministic (e.g.
//! [`PerfectOracle`](crowd_core::oracle::PerfectOracle), or a threshold
//! model that never reaches a tie-break), which the tests pin down.
//! Comparison tallies still reach the installed
//! [`TallySink`](crowd_core::trace::TallySink) stack: worker threads
//! inherit the spawner's sinks through [`engine::parallel_map`].

use crate::engine;
use crowd_core::algorithms::{FilterConfig, FilterOutcome, FilterRounds};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle};
use crowd_platform::fault::mix;
use std::ops::Range;

/// Target comparisons per parallel work item. Each chunk's flat pair and
/// winner buffers stay around a megabyte (inside L2), while a chunk is
/// large enough that thread hand-off, segment capture, and per-chunk
/// buffer growth are noise against the comparison work it carries.
const CHUNK_COMPARISONS: usize = 128 * 1024;

/// Derives the seed for one filter group from a base seed and the group's
/// `(round, group)` coordinates, via two rounds of SplitMix64 avalanching.
/// Benches and tests share this so parallel runs are reproducible from a
/// single base seed.
pub fn group_seed(base: u64, round: u32, group: u32) -> u64 {
    mix(mix(base ^ (u64::from(round) << 32)) ^ u64::from(group))
}

/// Runs Algorithm 2 with the round's tournament groups spread over worker
/// threads in cache-sized chunks.
///
/// `make_oracle(round, group)` must build the oracle for that group from
/// its coordinates alone (typically: seed an RNG with [`group_seed`]) —
/// that is what makes the outcome independent of the job count.
///
/// # Panics
///
/// Panics if `config.un == 0`, like the sequential filter.
pub fn parallel_filter_candidates<O, F>(
    make_oracle: F,
    elements: &[ElementId],
    config: &FilterConfig,
) -> FilterOutcome
where
    O: ComparisonOracle,
    F: Fn(u32, u32) -> O + Sync,
{
    let mut rounds = FilterRounds::new(elements, config);
    let mut comparisons = ComparisonCounts::zero();
    let g = rounds.group_size();

    while rounds.is_running() {
        let round = rounds.round();
        let playable = rounds.played_groups();

        // Pack consecutive groups into chunks of ~CHUNK_COMPARISONS
        // comparisons each, capped so every worker still sees several
        // chunks (load balance beats cache residency when rounds are
        // small). Chunk boundaries never change the output: each group
        // plays under its own coordinate-seeded oracle either way.
        let per_group = g * (g - 1) / 2;
        let by_cache = (CHUNK_COMPARISONS / per_group).max(1);
        let by_balance = playable.div_ceil(engine::jobs().max(1) * 4).max(1);
        let chunk_len = by_cache.min(by_balance);
        let chunks: Vec<Range<usize>> = (0..playable)
            .step_by(chunk_len)
            .map(|lo| lo..(lo + chunk_len).min(playable))
            .collect();

        let shared = &rounds;
        let results = engine::parallel_map(chunks, |chunk| {
            let mut counts = ComparisonCounts::zero();
            let result = shared.play(chunk, |gi, pairs, answers| {
                let mut oracle = make_oracle(round, gi as u32);
                let start = oracle.counts();
                oracle.compare_batch(WorkerClass::Naive, pairs, answers);
                counts += oracle
                    .counts()
                    .delta_since(start)
                    .unwrap_or_else(|e| panic!("{e}"));
            });
            (result, counts)
        });
        rounds.end_round(results.into_iter().map(|(result, counts)| {
            comparisons += counts;
            result
        }));
    }
    rounds.finish(comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::element::Instance;
    use crowd_core::model::{ExpertModel, TiePolicy};
    use crowd_core::oracle::{PerfectOracle, SimulatedOracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    #[test]
    fn matches_sequential_filter_under_a_deterministic_oracle() {
        for un in [2usize, 3, 7] {
            let inst = uniform_instance(500, un as u64);
            let cfg = FilterConfig::new(un);
            let mut o = PerfectOracle::new(inst.clone());
            let seq = crowd_core::algorithms::filter_candidates(&mut o, &inst.ids(), &cfg);
            let par = parallel_filter_candidates(
                |_, _| PerfectOracle::new(inst.clone()),
                &inst.ids(),
                &cfg,
            );
            assert_eq!(seq, par, "un = {un}");
        }
    }

    #[test]
    fn byte_identical_at_any_job_count() {
        let inst = uniform_instance(600, 42);
        let delta_n = 25.0;
        let un = inst.indistinguishable_from_max(delta_n).max(1);
        let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::UniformRandom);
        let run = |cfg: FilterConfig| {
            parallel_filter_candidates(
                |round, group| {
                    SimulatedOracle::new(
                        inst.clone(),
                        model.clone(),
                        StdRng::seed_from_u64(group_seed(7, round, group)),
                    )
                },
                &inst.ids(),
                &cfg,
            )
        };
        for cfg in [
            FilterConfig::new(un),
            FilterConfig::new(un).with_global_losses(),
        ] {
            engine::set_jobs(1);
            let serial = run(cfg);
            engine::set_jobs(4);
            let parallel = run(cfg);
            engine::set_jobs(0);
            assert_eq!(serial, parallel);
            assert!(serial.survivors.contains(&inst.max_element()));
        }
    }

    #[test]
    fn short_final_group_threshold_scales_in_the_parallel_path_too() {
        let mut values: Vec<f64> = (0..20).map(f64::from).collect();
        values[15] = 1000.0;
        let inst = Instance::new(values);
        let out = parallel_filter_candidates(
            |_, _| PerfectOracle::new(inst.clone()),
            &inst.ids(),
            &FilterConfig::new(3),
        );
        assert!(out.survivors.contains(&inst.max_element()));
    }

    #[test]
    fn group_seed_is_sensitive_to_both_coordinates() {
        let a = group_seed(1, 0, 0);
        assert_ne!(a, group_seed(1, 0, 1));
        assert_ne!(a, group_seed(1, 1, 0));
        assert_ne!(a, group_seed(2, 0, 0));
        assert_eq!(a, group_seed(1, 0, 0));
    }

    /// A borrowed-instance factory (the bench's shape): oracles borrow one
    /// shared instance instead of cloning it per group.
    #[test]
    fn borrowed_instance_factory_matches_the_owning_one() {
        let inst = uniform_instance(400, 9);
        let delta_n = 30.0;
        let un = inst.indistinguishable_from_max(delta_n).max(1);
        let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::UniformRandom);
        let cfg = FilterConfig::new(un);
        let owning = parallel_filter_candidates(
            |round, group| {
                SimulatedOracle::new(
                    inst.clone(),
                    model.clone(),
                    StdRng::seed_from_u64(group_seed(3, round, group)),
                )
            },
            &inst.ids(),
            &cfg,
        );
        let borrowing = parallel_filter_candidates(
            |round, group| {
                SimulatedOracle::new(
                    &inst,
                    model.clone(),
                    StdRng::seed_from_u64(group_seed(3, round, group)),
                )
            },
            &inst.ids(),
            &cfg,
        );
        assert_eq!(owning, borrowing);
    }
}
