//! Deterministic fault injection: dropout, abandonment, latency, and
//! transient no-answer faults.
//!
//! The paper's CrowdFlower campaigns lived with unreliable workers; this
//! module gives the simulator the same messy reality under full control.
//! A [`FaultPlan`] decides every fault *statelessly*: each decision is a
//! pure hash of `(plan seed, decision salt, worker id, sequence number)`,
//! never a draw from the platform's RNG. Two consequences:
//!
//! * **Zero-fault invisibility** — with all rates at zero the plan makes
//!   no decisions at all, the platform's RNG stream is untouched, and
//!   every output byte matches a build without the fault layer.
//! * **Replayability** — the same `FaultPlan` seed replays the same
//!   dropouts, abandonments, and latencies regardless of thread count or
//!   job interleaving, so fault sweeps stay byte-identical at any
//!   `--jobs` value.

use crate::worker::WorkerId;
use serde::{Deserialize, Serialize};

/// Per-judgment latency model, in physical steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every judgment lands in the step it was assigned (the pre-fault
    /// behaviour).
    Instant,
    /// Geometric latency: each step the answer fails to arrive with
    /// probability `1 - p`, capped at `cap` extra steps. `p = 1` degrades
    /// to [`LatencyModel::Instant`].
    Geometric {
        /// Per-step arrival probability, in `(0, 1]`.
        p: f64,
        /// Upper bound on the extra steps a judgment may take.
        cap: u64,
    },
}

impl LatencyModel {
    fn validate(&self) {
        if let LatencyModel::Geometric { p, cap: _ } = self {
            assert!(
                *p > 0.0 && *p <= 1.0,
                "geometric arrival probability must be in (0, 1], got {p}"
            );
        }
    }

    /// True if the model can never delay a judgment.
    pub fn is_instant(&self) -> bool {
        match self {
            LatencyModel::Instant => true,
            LatencyModel::Geometric { p, cap } => *p >= 1.0 || *cap == 0,
        }
    }
}

/// Fault rates and knobs for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a worker drops out of the campaign entirely
    /// before judging anything.
    pub dropout: f64,
    /// Per-judgment probability that the assigned worker abandons the
    /// job mid-flight (no answer, and the worker walks away from the
    /// rest of her batch too).
    pub abandon: f64,
    /// Per-judgment probability of a transient no-answer fault (the
    /// worker stays; only this judgment is lost).
    pub no_answer: f64,
    /// Latency distribution for judgments that do arrive.
    pub latency: LatencyModel,
    /// Judgments arriving more than this many physical steps late are
    /// written off as timed out. `u64::MAX` disables timeouts.
    pub timeout_steps: u64,
}

impl FaultConfig {
    /// No faults at all — the exact pre-fault-layer behaviour.
    pub fn none() -> Self {
        FaultConfig {
            dropout: 0.0,
            abandon: 0.0,
            no_answer: 0.0,
            latency: LatencyModel::Instant,
            timeout_steps: u64::MAX,
        }
    }

    /// Sets the per-worker dropout probability.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout = p;
        self
    }

    /// Sets the per-judgment abandonment probability.
    pub fn with_abandon(mut self, p: f64) -> Self {
        self.abandon = p;
        self
    }

    /// Sets the per-judgment transient no-answer probability.
    pub fn with_no_answer(mut self, p: f64) -> Self {
        self.no_answer = p;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the timeout, in physical steps.
    pub fn with_timeout_steps(mut self, steps: u64) -> Self {
        self.timeout_steps = steps;
        self
    }

    /// True if no knob can ever produce a fault or delay.
    pub fn is_none(&self) -> bool {
        self.dropout == 0.0
            && self.abandon == 0.0
            && self.no_answer == 0.0
            && self.latency.is_instant()
    }

    fn validate(&self) {
        for (name, p) in [
            ("dropout", self.dropout),
            ("abandon", self.abandon),
            ("no_answer", self.no_answer),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} rate must be a probability, got {p}"
            );
        }
        self.latency.validate();
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the fault plan decides for one assigned judgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JudgeFate {
    /// The worker answers, `latency` physical steps late.
    Answer {
        /// Extra physical steps before the answer lands.
        latency: u64,
    },
    /// The worker abandons the judgment (and the rest of her batch).
    Abandon,
    /// A transient fault eats this one judgment; the worker stays.
    NoAnswer,
}

/// A seeded, stateless oracle over every fault decision of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
}

// Decision salts: distinct streams per decision kind.
const SALT_DROPOUT: u64 = 0xD0;
const SALT_ABANDON: u64 = 0xAB;
const SALT_NO_ANSWER: u64 = 0x07;
const SALT_LATENCY: u64 = 0x1A;

impl FaultPlan {
    /// Builds a plan over `config`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any rate in `config` is not a probability.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        config.validate();
        FaultPlan { config, seed }
    }

    /// A plan that injects nothing (any seed would do).
    pub fn none() -> Self {
        FaultPlan::new(FaultConfig::none(), 0)
    }

    /// The plan's fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True if this plan can never produce a fault or delay.
    pub fn is_none(&self) -> bool {
        self.config.is_none()
    }

    /// Decides, once and forever, whether `worker` drops out of the
    /// campaign before judging anything.
    pub fn dropped_out(&self, worker: WorkerId) -> bool {
        self.config.dropout > 0.0
            && self.unit_f64(SALT_DROPOUT, u64::from(worker.0), 0) < self.config.dropout
    }

    /// Decides the fate of the `seq`-th judgment the campaign hands to
    /// `worker`. `seq` must be a per-campaign monotone counter so repeats
    /// of the same logical pair get independent fates.
    pub fn fate(&self, worker: WorkerId, seq: u64) -> JudgeFate {
        let w = u64::from(worker.0);
        if self.config.abandon > 0.0 && self.unit_f64(SALT_ABANDON, w, seq) < self.config.abandon {
            return JudgeFate::Abandon;
        }
        if self.config.no_answer > 0.0
            && self.unit_f64(SALT_NO_ANSWER, w, seq) < self.config.no_answer
        {
            return JudgeFate::NoAnswer;
        }
        JudgeFate::Answer {
            latency: self.latency(w, seq),
        }
    }

    fn latency(&self, worker: u64, seq: u64) -> u64 {
        match self.config.latency {
            LatencyModel::Instant => 0,
            LatencyModel::Geometric { p, cap } => {
                if p >= 1.0 || cap == 0 {
                    return 0;
                }
                // Inverse-transform sampling of the geometric distribution
                // of failures before the first success.
                let u = self.unit_f64(SALT_LATENCY, worker, seq);
                let steps = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                if steps.is_finite() && steps >= 0.0 {
                    (steps as u64).min(cap)
                } else {
                    cap
                }
            }
        }
    }

    /// A uniform draw in `[0, 1)` from the `(salt, worker, seq)` stream.
    fn unit_f64(&self, salt: u64, worker: u64, seq: u64) -> f64 {
        let mut x = self.seed;
        for word in [salt, worker, seq] {
            x = mix(x ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // 53 mantissa bits → uniform in [0, 1).
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: avalanche a 64-bit word. Shared by every
/// stateless decision stream in the platform — fault fates here, breaker
/// cooldown jitter and per-judgment RNG seeds in [`crate::serve`], and the
/// parallel Phase-1 filter's per-group seeds (`crowd_experiments::group_seed`)
/// — so "seeded and stateless" means one function everywhere.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_fault_free() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for w in 0..100 {
            assert!(!plan.dropped_out(WorkerId(w)));
            for seq in 0..20 {
                assert_eq!(
                    plan.fate(WorkerId(w), seq),
                    JudgeFate::Answer { latency: 0 }
                );
            }
        }
    }

    #[test]
    fn decisions_are_replayable_and_seed_dependent() {
        let config = FaultConfig::none()
            .with_dropout(0.3)
            .with_abandon(0.2)
            .with_no_answer(0.2)
            .with_latency(LatencyModel::Geometric { p: 0.5, cap: 8 });
        let a = FaultPlan::new(config, 42);
        let b = FaultPlan::new(config, 42);
        let c = FaultPlan::new(config, 43);
        let mut diverged = false;
        for w in 0..50 {
            assert_eq!(a.dropped_out(WorkerId(w)), b.dropped_out(WorkerId(w)));
            for seq in 0..10 {
                assert_eq!(a.fate(WorkerId(w), seq), b.fate(WorkerId(w), seq));
                diverged |= a.fate(WorkerId(w), seq) != c.fate(WorkerId(w), seq);
            }
        }
        assert!(diverged, "different seeds must give different plans");
    }

    #[test]
    fn dropout_rate_is_roughly_respected() {
        let plan = FaultPlan::new(FaultConfig::none().with_dropout(0.25), 7);
        let dropped = (0..10_000)
            .filter(|w| plan.dropped_out(WorkerId(*w)))
            .count();
        assert!(
            (2_000..3_000).contains(&dropped),
            "25% of 10k workers expected to drop, got {dropped}"
        );
    }

    #[test]
    fn fate_rates_are_roughly_respected() {
        let plan = FaultPlan::new(
            FaultConfig::none().with_abandon(0.1).with_no_answer(0.1),
            11,
        );
        let mut abandons = 0usize;
        let mut no_answers = 0usize;
        for w in 0..100 {
            for seq in 0..100 {
                match plan.fate(WorkerId(w), seq) {
                    JudgeFate::Abandon => abandons += 1,
                    JudgeFate::NoAnswer => no_answers += 1,
                    JudgeFate::Answer { latency } => assert_eq!(latency, 0),
                }
            }
        }
        assert!((700..1_300).contains(&abandons), "{abandons}");
        // no-answer is checked after abandon, so its effective rate is
        // 0.1 · 0.9 = 9%.
        assert!((600..1_200).contains(&no_answers), "{no_answers}");
    }

    #[test]
    fn geometric_latency_is_capped_and_varied() {
        let plan = FaultPlan::new(
            FaultConfig::none().with_latency(LatencyModel::Geometric { p: 0.4, cap: 6 }),
            3,
        );
        let mut seen = std::collections::HashSet::new();
        for w in 0..50 {
            for seq in 0..50 {
                match plan.fate(WorkerId(w), seq) {
                    JudgeFate::Answer { latency } => {
                        assert!(latency <= 6);
                        seen.insert(latency);
                    }
                    other => panic!("latency-only plan produced {other:?}"),
                }
            }
        }
        assert!(seen.len() > 3, "latencies should vary, saw {seen:?}");
        assert!(seen.contains(&0), "zero latency must be possible");
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_rate_panics() {
        FaultPlan::new(FaultConfig::none().with_dropout(1.5), 0);
    }

    #[test]
    fn config_serializes() {
        let config = FaultConfig::none()
            .with_dropout(0.1)
            .with_latency(LatencyModel::Geometric { p: 0.5, cap: 4 });
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("dropout"), "{json}");
        assert!(json.contains("Geometric"), "{json}");
    }
}
