//! Algorithm 2 — Phase 1: filter a candidate set with naïve workers.
//!
//! Given `L` of size `n` and the parameter `un(n) = o(n)`, the filter
//! repeatedly partitions the surviving elements into groups of
//! `g = 4·un(n)`, plays an all-play-all tournament inside each group, and
//! keeps only elements winning at least `g − un(n)` games (a smaller last
//! group is kept whole when `|G_ℓ| <= un(n)`, else filtered with threshold
//! `|G_ℓ| − un(n)`). It stops when fewer than `2·un(n)` elements survive.
//!
//! **Lemma 3**: the output `S` satisfies `M ∈ S` and `|S| <= 2·un(n) − 1`,
//! using at most `4·n·un(n)` naïve comparisons. The bound `M ∈ S` holds
//! because, by Lemma 1, `M` never loses more than `un(n) − 1` comparisons to
//! distinct opponents; termination and `|S| <= 2·un(n) − 1` follow from
//! Lemma 2, a counting argument independent of worker behaviour — the filter
//! terminates even against a fully adversarial oracle.
//!
//! The Appendix A optimization is available via
//! [`FilterConfig::track_global_losses`]: an element may lose at most
//! `un(n)` comparisons in a single group, but across rounds its distinct
//! losses can exceed `un(n)`, proving (Lemma 1) it cannot be the maximum;
//! tracking a global per-element loss counter lets the filter discard such
//! elements early and terminate sooner.
//!
//! The round rules live once, in the [`FilterRounds`] engine; its drivers
//! ([`filter_candidates`], `crowd_experiments::par_filter`,
//! `crowd_platform::batched`) differ only in how comparisons get answered.

use crate::element::ElementId;
use crate::model::WorkerClass;
use crate::oracle::{
    ComparisonCounts, ComparisonOracle, CountsRegression, FuseOracle, OracleError,
};
use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::ops::Range;

/// Configuration for the Phase-1 filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// The parameter `un(n)`: (an upper bound on) the number of elements
    /// naïve-indistinguishable from the maximum, including the maximum
    /// itself. Overestimating costs money but never correctness;
    /// underestimating can evict the maximum (Section 5.2).
    pub un: usize,
    /// Enables the Appendix A global-loss-counter optimization.
    pub track_global_losses: bool,
}

impl FilterConfig {
    /// Plain Algorithm 2 with the given `un(n)` and no optimizations.
    pub fn new(un: usize) -> Self {
        FilterConfig {
            un,
            track_global_losses: false,
        }
    }

    /// Enables the global-loss-counter optimization.
    pub fn with_global_losses(mut self) -> Self {
        self.track_global_losses = true;
        self
    }
}

/// The result of running the Phase-1 filter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterOutcome {
    /// The candidate set `S` (contains `M` whenever workers follow the
    /// threshold model and `un` was not underestimated).
    pub survivors: Vec<ElementId>,
    /// Number of filtering rounds (iterations of the outer loop).
    pub rounds: usize,
    /// Survivor-set size after each round, starting from `n`.
    pub sizes: Vec<usize>,
    /// Naïve comparisons performed by the filter (from oracle snapshots).
    pub comparisons: ComparisonCounts,
}

/// Algorithm 2's round engine: every rule of a round, and the state one
/// round hands to the next (surviving input positions, capped Appendix A
/// loss sets, size trace, round count). A driver answers the played groups
/// through [`play`](Self::play) and closes each round with
/// [`end_round`](Self::end_round):
///
/// ```
/// use crowd_core::prelude::*;
/// use crowd_core::algorithms::FilterRounds;
///
/// let instance = Instance::new((0..200).map(|i| i as f64).collect());
/// let (ids, config) = (instance.ids(), FilterConfig::new(4));
/// let mut oracle = PerfectOracle::new(instance.clone());
/// let mut rounds = FilterRounds::new(&ids, &config);
/// while rounds.is_running() {
///     let result = rounds.play(0..rounds.played_groups(), |_, pairs, answers| {
///         oracle.compare_batch(WorkerClass::Naive, pairs, answers)
///     });
///     rounds.end_round([result]);
/// }
/// let out = rounds.finish(oracle.counts());
/// let mut reference = PerfectOracle::new(instance.clone());
/// assert_eq!(out, filter_candidates(&mut reference, &ids, &config));
/// ```
#[derive(Debug)]
pub struct FilterRounds<'a> {
    ids: &'a [ElementId],
    un: usize,
    /// `losses[i]`: the distinct opponents position `i` has lost to
    /// (Appendix A), capped at `un + 1` entries because the pruning
    /// predicate `|losses| <= un` cannot change after that. `None` unless
    /// [`FilterConfig::track_global_losses`] is set.
    losses: Option<Vec<Vec<u32>>>,
    survivors: Vec<u32>,
    sizes: Vec<usize>,
    rounds: usize,
}

/// What some of a round's played groups produced, in group order: made by
/// [`FilterRounds::play`], consumed by [`FilterRounds::end_round`].
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Positions that met their group's threshold.
    winners: Vec<u32>,
    /// Each played group's champion.
    champions: Vec<u32>,
    /// `(loser, winner)` for each game lost by a member that can survive
    /// the round; empty unless global losses are tracked.
    losses: Vec<(u32, u32)>,
}

impl<'a> FilterRounds<'a> {
    /// Starts Algorithm 2 over `elements`, all of which survive round 0.
    ///
    /// # Panics
    ///
    /// Panics if `config.un == 0` (the maximum is always indistinguishable
    /// from itself, so `un(n) >= 1`); debug builds also panic if
    /// `elements` contains duplicates.
    pub fn new(elements: &'a [ElementId], config: &FilterConfig) -> Self {
        assert!(
            config.un >= 1,
            "un(n) >= 1: the maximum is indistinguishable from itself"
        );
        debug_assert!(
            elements.iter().collect::<HashSet<_>>().len() == elements.len(),
            "input elements must be distinct"
        );
        let n = elements.len();
        FilterRounds {
            ids: elements,
            un: config.un,
            losses: config.track_global_losses.then(|| vec![Vec::new(); n]),
            survivors: (0..n as u32).collect(),
            sizes: vec![n],
            rounds: 0,
        }
    }

    /// True while another round is due: at least `2·un` elements survive.
    pub fn is_running(&self) -> bool {
        self.survivors.len() >= 2 * self.un
    }

    /// The current round's index (the number of rounds completed).
    pub fn round(&self) -> u32 {
        self.rounds as u32
    }

    /// The size `4·un` of every group but a shorter last one.
    pub fn group_size(&self) -> usize {
        4 * self.un
    }

    /// The groups that play this round, indices `0..played_groups()`: all
    /// but a last group of at most `un` members, which is too small to
    /// certify losses and is kept whole.
    pub fn played_groups(&self) -> usize {
        self.tail_start().div_ceil(self.group_size())
    }

    /// Where the kept-whole tail starts in the survivor list (its length
    /// when every group plays).
    fn tail_start(&self) -> usize {
        let partial = self.survivors.len() % self.group_size();
        self.survivors.len() - if partial <= self.un { partial } else { 0 }
    }

    fn group(&self, index: usize) -> &[u32] {
        let g = self.group_size();
        &self.survivors[index * g..((index + 1) * g).min(self.survivors.len())]
    }

    /// Appends the `index`-th group's all-play-all pairs in canonical
    /// order: `(a, b)` for each member `a` and each later member `b`.
    pub fn push_pairs(&self, index: usize, pairs: &mut Vec<(ElementId, ElementId)>) {
        let group = self.group(index);
        for (a, &i) in group.iter().enumerate() {
            let a_id = self.ids[i as usize];
            pairs.extend(group[a + 1..].iter().map(|&j| (a_id, self.ids[j as usize])));
        }
    }

    /// Plays the played groups in `groups`: `answer(index, pairs, answers)`
    /// must push the winner of each of the group's
    /// [`push_pairs`](Self::push_pairs) pairs, in order, onto the empty
    /// `answers`. Each group keeps its members with at least `|G| − un`
    /// wins and its earliest most-winning member as champion.
    ///
    /// # Panics
    ///
    /// Panics if `answer` does not push one winner per pair.
    pub fn play<F>(&self, groups: Range<usize>, mut answer: F) -> RoundResult
    where
        F: FnMut(usize, &[(ElementId, ElementId)], &mut Vec<ElementId>),
    {
        let mut out = RoundResult::default();
        let (mut pairs, mut answers, mut wins) = (Vec::new(), Vec::new(), Vec::new());
        for gi in groups {
            pairs.clear();
            self.push_pairs(gi, &mut pairs);
            answers.clear();
            answer(gi, &pairs, &mut answers);
            assert_eq!(answers.len(), pairs.len(), "one answer per pair");
            self.score(self.group(gi), &answers, &mut wins, &mut out);
        }
        out
    }

    /// Scores one group from its answers: a pure function of the answers
    /// and the loss sets' on/off switch.
    fn score(
        &self,
        group: &[u32],
        answers: &[ElementId],
        wins: &mut Vec<u32>,
        out: &mut RoundResult,
    ) {
        let m = group.len();
        wins.clear();
        wins.resize(m, 0);
        // Tallying a 50/50 data-dependent winner with a branch mispredicts
        // constantly, so count both sides arithmetically over
        // bounds-check-free row slices (which also lets the compiler
        // vectorize the row compare).
        let mut rows = answers;
        for (a, &i) in group.iter().enumerate() {
            let a_id = self.ids[i as usize];
            let (row, rest) = rows.split_at(m - a - 1);
            rows = rest;
            let mut a_wins = 0u32;
            for (w, &winner) in wins[a + 1..].iter_mut().zip(row) {
                let a_won = u32::from(winner == a_id);
                a_wins += a_won;
                *w += 1 - a_won;
            }
            wins[a] += a_wins;
        }
        // A smaller last group is filtered with its own size: Lemma 3 needs
        // "at most un(n) losses within the group", i.e. at least |G| − un
        // wins, not g − un.
        let threshold = (m - self.un) as u32;
        let before = out.winners.len();
        out.winners
            .extend((0..m).filter(|&x| wins[x] >= threshold).map(|x| group[x]));
        debug_assert!(
            out.winners.len() - before < 2 * self.un,
            "Lemma 2 violated: {} winners with >= {threshold} wins among {m}",
            out.winners.len() - before,
        );
        let champion = (1..m).fold(0, |best, x| if wins[x] > wins[best] { x } else { best });
        out.champions.push(group[champion]);
        if self.losses.is_some() {
            // Appendix A: only a member that can survive the round (a
            // threshold winner, or the champion the fallback may keep)
            // ever has its loss set read again. Its losses are recorded in
            // game order, as a per-game loop would record them.
            for x in (0..m).filter(|&x| wins[x] >= threshold || x == champion) {
                let x_id = self.ids[group[x] as usize];
                for y in (0..m).filter(|&y| y != x) {
                    let (a, b) = (x.min(y), x.max(y));
                    if answers[a * m - a * (a + 1) / 2 + b - a - 1] != x_id {
                        out.losses.push((group[x], group[y]));
                    }
                }
            }
        }
    }

    /// Closes the round over its played groups' results, given in group
    /// order: the kept-whole tail joins the winners, Appendix A pruning
    /// applies, and if nothing is left each group's champion survives.
    /// Returns the round's [`TraceEvent::RoundStats`].
    ///
    /// # Panics
    ///
    /// Panics if the round failed to shrink the survivor set, which
    /// Lemma 2 rules out when every played group was scored.
    pub fn end_round(&mut self, results: impl IntoIterator<Item = RoundResult>) -> TraceEvent {
        let (un, round) = (self.un, self.round());
        let groups = self.survivors.len().div_ceil(self.group_size()) as u32;
        let mut next = Vec::with_capacity(self.survivors.len() / 2 + un);
        let mut champions = Vec::new();
        for result in results {
            next.extend_from_slice(&result.winners);
            champions.extend_from_slice(&result.champions);
            if let Some(losses) = &mut self.losses {
                for (loser, winner) in result.losses {
                    let set = &mut losses[loser as usize];
                    if set.len() <= un && !set.contains(&winner) {
                        set.push(winner);
                    }
                }
            }
        }
        let tail = &self.survivors[self.tail_start()..];
        next.extend_from_slice(tail);
        champions.extend_from_slice(tail);
        if let Some(losses) = &self.losses {
            // Lemma 1: an element with more than `un` distinct losses cannot
            // be the maximum in a global all-play-all tournament.
            next.retain(|&i| losses[i as usize].len() <= un);
        }
        if next.is_empty() {
            // Only possible when un(n) was underestimated: no element of any
            // group reached its threshold (or global-loss pruning removed
            // them all). The M ∈ S guarantee is already forfeit in this
            // regime, so degrade gracefully — keep each group's champion
            // instead of returning an empty candidate set. Section 5.2
            // studies exactly this regime.
            next = champions;
        }
        assert!(
            next.len() < self.survivors.len(),
            "filter round failed to shrink the survivor set (Lemma 2 violated)"
        );
        self.survivors = next;
        self.sizes.push(self.survivors.len());
        self.rounds += 1;
        TraceEvent::RoundStats {
            round,
            groups,
            survivors: self.survivors.len() as u64,
        }
    }

    /// The outcome so far, with the driver's comparison tally.
    pub fn finish(self, comparisons: ComparisonCounts) -> FilterOutcome {
        let ids = self.ids;
        FilterOutcome {
            survivors: self.survivors.iter().map(|&i| ids[i as usize]).collect(),
            rounds: self.rounds,
            sizes: self.sizes,
            comparisons,
        }
    }
}

/// Runs Algorithm 2 over `elements` using naïve workers from `oracle`.
///
/// Returns the candidate set and statistics. If `|elements| < 2·un` the
/// while-loop never runs and all elements survive (the set is already small
/// enough for the expert phase).
///
/// ```
/// use crowd_core::prelude::*;
///
/// let instance = Instance::new((0..200).map(|i| i as f64).collect());
/// let mut oracle = PerfectOracle::new(instance.clone());
/// let out = filter_candidates(&mut oracle, &instance.ids(), &FilterConfig::new(4));
/// assert!(out.survivors.contains(&instance.max_element()));
/// assert!(out.survivors.len() <= 2 * 4 - 1);              // Lemma 3 size bound
/// assert!(out.comparisons.naive <= 4 * 200 * 4);          // Lemma 3 cost bound
/// ```
///
/// # Panics
///
/// Panics if `config.un == 0` (the maximum is always indistinguishable from
/// itself, so `un(n) >= 1`) or if `elements` contains duplicates.
pub fn filter_candidates<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> FilterOutcome {
    filter_candidates_checked(oracle, elements, config).unwrap_or_else(|e| panic!("{e}"))
}

/// The sequential driver behind [`filter_candidates`] and
/// [`try_filter_candidates`]: one `compare` per pair, in canonical order. A
/// [`CountsRegression`] is returned instead of unwound, so fallible job
/// drivers can report it.
pub(crate) fn filter_candidates_checked<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, CountsRegression> {
    let mut rounds = FilterRounds::new(elements, config);
    let start = oracle.counts();
    while rounds.is_running() {
        let round = rounds.round();
        oracle.observe(TraceEvent::RoundStart(round));
        let result = rounds.play(0..rounds.played_groups(), |_, pairs, answers| {
            answers.extend(
                pairs
                    .iter()
                    .map(|&(a, b)| oracle.compare(WorkerClass::Naive, a, b)),
            );
        });
        oracle.observe(rounds.end_round([result]));
        oracle.observe(TraceEvent::RoundEnd(round));
    }
    let comparisons = oracle.counts().delta_since(start)?;
    Ok(rounds.finish(comparisons))
}

/// Fallible twin of [`filter_candidates`]: surfaces the first
/// [`OracleError`] the oracle reports instead of fabricating answers.
///
/// Internally the run proceeds behind a [`FuseOracle`]; once the fuse
/// blows, remaining comparisons are answered from a consistent fabricated
/// total order (free of charge), which keeps Lemma 2's termination
/// argument intact — the filter always finishes, and the fabricated
/// outcome is then discarded in favour of the error.
///
/// # Errors
///
/// Returns the first error the oracle's
/// [`try_compare`](ComparisonOracle::try_compare) reported, or
/// [`OracleError::CountsRegressed`] if the stack's tally went backwards
/// mid-run (a broken decorator — reported, not unwound).
pub fn try_filter_candidates<O: ComparisonOracle>(
    oracle: &mut O,
    elements: &[ElementId],
    config: &FilterConfig,
) -> Result<FilterOutcome, OracleError> {
    let mut fuse = FuseOracle::new(oracle);
    let out = filter_candidates_checked(&mut fuse, elements, config);
    match (fuse.take_error(), out) {
        (Some(err), _) => Err(err),
        (None, Err(regression)) => Err(OracleError::CountsRegressed(regression)),
        (None, Ok(out)) => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Instance;
    use crate::model::{ExpertModel, TiePolicy};
    use crate::oracle::{PerfectOracle, SimulatedOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_instance(n: usize, seed: u64) -> Instance {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new((0..n).map(|_| rng.gen_range(0.0..1000.0)).collect())
    }

    #[test]
    fn perfect_workers_small_un() {
        let inst = uniform_instance(200, 1);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        assert!(out.survivors.len() < 2 * 3);
        assert!(out.survivors.contains(&inst.max_element()));
        assert!(out.comparisons.naive <= 4 * 200 * 3);
        assert_eq!(out.comparisons.expert, 0);
    }

    #[test]
    fn contains_max_under_threshold_model() {
        for seed in 0..10 {
            let inst = uniform_instance(300, seed);
            let delta_n = 20.0;
            let un = inst.indistinguishable_from_max(delta_n);
            let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::UniformRandom);
            let mut o =
                SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(seed + 100));
            let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
            assert!(
                out.survivors.contains(&inst.max_element()),
                "seed {seed}: M evicted with true un = {un}"
            );
            assert!(out.survivors.len() <= 2 * un.max(1), "|S| too large");
        }
    }

    #[test]
    fn contains_max_under_adversarial_ties() {
        // FavorLower is the worst case: indistinguishable elements always
        // beat M. M still survives because it loses at most un - 1 games
        // per round.
        let inst = uniform_instance(400, 7);
        let delta_n = 30.0;
        let un = inst.indistinguishable_from_max(delta_n);
        let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::FavorLower);
        let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(8));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
        assert!(out.survivors.contains(&inst.max_element()));
    }

    #[test]
    fn small_input_passes_through() {
        let inst = uniform_instance(5, 2);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(10));
        assert_eq!(out.survivors, inst.ids());
        assert_eq!(out.rounds, 0);
        assert_eq!(out.comparisons.total(), 0);
    }

    #[test]
    fn short_final_group_threshold_scales_to_group_size() {
        // n = 20, un = 3 → g = 12: the last group holds only 8 elements.
        // Lemma 3 requires "at most un(n) losses within the group", so the
        // survival threshold there is |G| − un = 5 wins. A threshold built
        // from the full group size (g − un = 9) is unreachable in an
        // 8-element group and would evict the champion planted at id 15.
        let mut values: Vec<f64> = (0..20).map(f64::from).collect();
        values[15] = 1000.0;
        let inst = Instance::new(values);
        assert_eq!(inst.max_element(), ElementId(15));
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        assert!(
            out.survivors.contains(&ElementId(15)),
            "champion in the short final group was evicted: {:?}",
            out.survivors
        );
        assert!(out.survivors.len() < 2 * 3);
    }

    #[test]
    fn comparison_bound_lemma_3() {
        for (n, un) in [(100, 2), (500, 5), (1000, 10), (2000, 25)] {
            let inst = uniform_instance(n, n as u64);
            let mut o = PerfectOracle::new(inst.clone());
            let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(un));
            assert!(
                out.comparisons.naive <= (4 * n * un) as u64,
                "n={n}, un={un}: {} comparisons",
                out.comparisons.naive
            );
        }
    }

    #[test]
    fn sizes_are_recorded_and_decreasing() {
        let inst = uniform_instance(1000, 3);
        let mut o = PerfectOracle::new(inst.clone());
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(5));
        assert_eq!(out.sizes[0], 1000);
        assert_eq!(*out.sizes.last().unwrap(), out.survivors.len());
        for w in out.sizes.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(out.rounds, out.sizes.len() - 1);
    }

    #[test]
    #[should_panic(expected = "un(n) >= 1")]
    fn zero_un_panics() {
        let inst = uniform_instance(10, 4);
        let mut o = PerfectOracle::new(inst.clone());
        filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(0));
    }

    #[test]
    fn global_losses_never_evict_max_and_never_cost_more() {
        for seed in 0..8 {
            let inst = uniform_instance(600, seed + 50);
            let delta_n = 15.0;
            let un = inst.indistinguishable_from_max(delta_n);
            let mk_oracle = |s| {
                let model = ExpertModel::exact(delta_n, 1.0, TiePolicy::Persistent);
                SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(s))
            };

            let mut plain_o = mk_oracle(seed);
            let plain = filter_candidates(&mut plain_o, &inst.ids(), &FilterConfig::new(un));

            let mut opt_o = mk_oracle(seed);
            let opt = filter_candidates(
                &mut opt_o,
                &inst.ids(),
                &FilterConfig::new(un).with_global_losses(),
            );

            assert!(opt.survivors.contains(&inst.max_element()), "seed {seed}");
            assert!(plain.survivors.contains(&inst.max_element()), "seed {seed}");
            // Lemma 3's size bound holds with or without the optimization.
            assert!(opt.survivors.len() <= 2 * un.max(1), "seed {seed}");
        }
    }

    #[test]
    fn cyclic_outcomes_under_underestimation_fall_back_to_champions() {
        // With un = 1 (severe underestimation) a cyclic group can leave no
        // element with g - un = 3 wins; the filter must not return an empty
        // set — it keeps the group champion instead.
        use crate::oracle::FnOracle;
        let beats = |a: u32, b: u32| -> bool {
            // Cycle 0>1>2>3>0 plus diagonals 0>2 and 3>1: max wins = 2 < 3.
            matches!((a, b), (0, 1) | (1, 2) | (2, 3) | (3, 0) | (0, 2) | (3, 1))
        };
        let mut o = FnOracle::new(
            move |_, k: ElementId, j: ElementId| {
                if beats(k.0, j.0) {
                    k
                } else {
                    j
                }
            },
        );
        let ids: Vec<ElementId> = (0..4).map(ElementId).collect();
        let out = filter_candidates(&mut o, &ids, &FilterConfig::new(1));
        assert_eq!(
            out.survivors,
            vec![ElementId(0)],
            "champion fallback expected"
        );
    }

    #[test]
    fn global_loss_pruning_can_force_the_champion_fallback() {
        // Appendix A pruning removes elements with more than `un` distinct
        // cumulative losses; this construction makes it remove *every*
        // threshold winner of round 2, so the fallback must keep the round
        // champion rather than return an empty set.
        //
        // n = 24, un = 3, g = 12: round 1 plays {0..11} and {12..23} with
        // threshold 9; exactly {0, 1, 2} and {12, 13, 14} reach 9 wins,
        // carrying 2 distinct losses each (0: {1,2}, 1: {2,3}, 2: {3,4},
        // mirrored +12). Round 2 plays the 6 survivors with threshold 3;
        // the answers below give wins (0,1,12,13) = 3 and (2,14) = (2,1),
        // and hand each 3-win element exactly 2 *new* distinct losses —
        // cumulative 4 > un, so pruning empties the winner set.
        use crate::oracle::FnOracle;
        use std::collections::HashSet;

        // Round 1, within one group (local ids, a < b): winner of (a, b).
        fn round1(a: u32, b: u32) -> u32 {
            match (a, b) {
                (0, 1) => 1,
                (0, 2) | (1, 2) => 2,
                (0, _) => 0,
                (1, 3) => 3,
                (1, _) => 1,
                (2, 3) => 3,
                (2, 4) => 4,
                (2, _) => 2,
                // Among the rest, the higher id wins (so none reaches 9).
                (_, b) => b,
            }
        }

        // Round 2, on the survivor set (global ids, a < b): winner of (a, b).
        fn round2(a: u32, b: u32) -> u32 {
            match (a, b) {
                (0, 1) | (0, 2) | (0, 14) => 0,
                (0, 12) | (12, 13) | (12, 14) => 12,
                (0, 13) | (1, 13) | (13, 14) => 13,
                (1, 2) | (1, 12) | (1, 14) => 1,
                (2, 12) | (2, 13) => 2,
                (2, 14) => 14,
                other => panic!("unexpected round-2 pair {other:?}"),
            }
        }

        let survivors_r1 = [0u32, 1, 2, 12, 13, 14];
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut oracle = FnOracle::new(move |_, k: ElementId, j: ElementId| {
            let (a, b) = (k.0.min(j.0), k.0.max(j.0));
            let repeat = !seen.insert((a, b));
            let both_survive = survivors_r1.contains(&a) && survivors_r1.contains(&b);
            let cross_group = (a < 12) != (b < 12);
            let winner = if both_survive && (cross_group || repeat) {
                round2(a, b)
            } else {
                let base = if a >= 12 { 12 } else { 0 };
                base + round1(a - base, b - base)
            };
            if winner == k.0 {
                k
            } else {
                j
            }
        });

        let ids: Vec<ElementId> = (0..24).map(ElementId).collect();
        let out = filter_candidates(
            &mut oracle,
            &ids,
            &FilterConfig::new(3).with_global_losses(),
        );
        assert_eq!(out.rounds, 2);
        assert_eq!(out.sizes, vec![24, 6, 1]);
        assert_eq!(
            out.survivors,
            vec![ElementId(0)],
            "pruning emptied round 2; the fallback must keep its champion"
        );

        // The same answers without pruning keep all four threshold winners
        // — the fallback never fires on the plain path here.
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut plain_oracle = FnOracle::new(move |_, k: ElementId, j: ElementId| {
            let (a, b) = (k.0.min(j.0), k.0.max(j.0));
            let repeat = !seen.insert((a, b));
            let both_survive = survivors_r1.contains(&a) && survivors_r1.contains(&b);
            let cross_group = (a < 12) != (b < 12);
            let winner = if both_survive && (cross_group || repeat) {
                round2(a, b)
            } else {
                let base = if a >= 12 { 12 } else { 0 };
                base + round1(a - base, b - base)
            };
            if winner == k.0 {
                k
            } else {
                j
            }
        });
        let plain = filter_candidates(&mut plain_oracle, &ids, &FilterConfig::new(3));
        assert_eq!(plain.rounds, 2);
        assert_eq!(
            plain.survivors,
            vec![ElementId(0), ElementId(1), ElementId(12), ElementId(13)]
        );
    }

    #[test]
    fn try_filter_matches_infallible_run_when_nothing_fails() {
        let inst = uniform_instance(200, 11);
        let mut o = PerfectOracle::new(inst.clone());
        let plain = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(3));
        let mut o2 = PerfectOracle::new(inst.clone());
        let fallible = try_filter_candidates(&mut o2, &inst.ids(), &FilterConfig::new(3)).unwrap();
        assert_eq!(plain, fallible);
    }

    #[test]
    fn try_filter_surfaces_a_mid_run_outage_and_terminates() {
        use crate::oracle::{OracleError, TryFnOracle};
        // The oracle dies after 100 honest answers; the run must neither
        // panic nor livelock, and the error must surface.
        let inst = uniform_instance(300, 12);
        let mut inner = PerfectOracle::new(inst.clone());
        let mut left = 100u32;
        let mut flaky = TryFnOracle::new(move |class, k, j| {
            if left == 0 {
                return Err(OracleError::WorkforceDepleted { class });
            }
            left -= 1;
            Ok(inner.compare(class, k, j))
        });
        let err =
            try_filter_candidates(&mut flaky, &inst.ids(), &FilterConfig::new(3)).unwrap_err();
        assert!(matches!(err, OracleError::WorkforceDepleted { .. }));
    }

    #[test]
    fn underestimated_un_may_evict_max_but_still_terminates() {
        // With un = 1 and many indistinguishable elements, M can be evicted
        // — the Section 5.2 phenomenon. The run must still terminate with a
        // small survivor set.
        let values: Vec<f64> = (0..100).map(|i| 1000.0 - (i as f64) * 0.01).collect();
        let inst = Instance::new(values);
        let model = ExpertModel::exact(50.0, 0.0, TiePolicy::FavorLower);
        let mut o = SimulatedOracle::new(inst.clone(), model, StdRng::seed_from_u64(5));
        let out = filter_candidates(&mut o, &inst.ids(), &FilterConfig::new(1));
        assert!(out.survivors.len() <= 1);
    }
}
