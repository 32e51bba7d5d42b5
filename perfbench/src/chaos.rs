//! `platform_chaos`: Algorithm 1 (`try_expert_max_find`) at n = 5·10³
//! through `JournaledOracle(Platform)` with faults and retries, killed at
//! a seeded mid-batch point about halfway through and resumed with
//! `resume_job`.

use crate::measure::{median, percentile, repeat_for, timed, SetupClock, Tracer};
use crate::offline::{compare_many_ns, first_round_pairs, plant, Planted};
use crate::{put_peak_rss, ratio, Outcome, RunConfig};
use crowd_core::algorithms::{try_expert_max_find, ExpertMaxConfig, ExpertMaxOutcome};
use crowd_core::element::Instance;
use crowd_core::oracle::{ComparisonCounts, ComparisonOracle, OracleError, SimulatedOracle};
use crowd_core::trace::InstrumentedOracle;
use crowd_experiments::fault_sweep::fault_config;
use crowd_obs::{install_recorder, ObservedOracle, Recorder};
use crowd_platform::journal::fnv1a64;
use crowd_platform::{
    recover, resume_job, ChaosPlan, CheckpointPolicy, InjectionPoint, Journal, JournaledOracle,
    Platform, PlatformConfig, PlatformOracle, RetryPolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Naïve workers hired.
const NAIVE_WORKERS: usize = 25;
/// Expert workers hired.
const EXPERT_WORKERS: usize = 4;
/// Fault rate fed to `fault_config`.
const FAULT_RATE: f64 = 0.02;
/// Retries per unit.
const RETRIES: u32 = 8;
/// Completed batches per checkpoint.
const CADENCE: u64 = 4;
/// The job label journaled.
const JOB: &str = "perfbench";

/// The generated inputs: the planted instance, from which every platform
/// is built identically.
struct Inputs {
    planted: Planted,
    seed: u64,
}

impl Inputs {
    fn platform(&self) -> Platform<StdRng> {
        let mut pool = WorkerPool::new();
        pool.hire_naive_crowd(NAIVE_WORKERS, self.planted.delta_n, 0.0);
        pool.hire_expert_panel(EXPERT_WORKERS, self.planted.delta_e, 0.0);
        let config = PlatformConfig::paper_default()
            .without_gold()
            .with_faults(fault_config(FAULT_RATE), self.seed ^ 0xFA117)
            .with_retry(RetryPolicy::paper_default().with_max_retries(RETRIES))
            .with_expert_fallback(3);
        Platform::new(
            self.planted.instance.clone(),
            pool,
            config,
            StdRng::seed_from_u64(self.seed),
        )
    }

    fn journaled(&self) -> JournaledOracle<StdRng> {
        JournaledOracle::new(
            self.platform(),
            JOB,
            self.seed,
            CheckpointPolicy::every(CADENCE),
        )
    }

    fn drive<O: ComparisonOracle>(&self, oracle: &mut O) -> Result<ExpertMaxOutcome, OracleError> {
        let ids = self.planted.instance.ids();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        try_expert_max_find(
            oracle,
            &ids,
            &ExpertMaxConfig::new(self.planted.un),
            &mut rng,
        )
    }
}

fn setup(n: usize, seed: u64) -> Inputs {
    let inputs = Inputs {
        planted: plant(n, seed),
        seed,
    };
    drop(inputs.platform());
    inputs
}

/// Everything an uninterrupted or resumed leg leaves behind, compared
/// byte for byte.
#[derive(Debug, PartialEq)]
struct Leg {
    outcome: Result<ExpertMaxOutcome, OracleError>,
    counts: ComparisonCounts,
    spent: f64,
    fault_seq: u64,
    journal_len: usize,
    journal_digest: u64,
}

impl Leg {
    fn of(
        outcome: Result<ExpertMaxOutcome, OracleError>,
        journal: &Journal,
        p: &Platform<StdRng>,
    ) -> Self {
        Leg {
            outcome,
            counts: p.counts(),
            spent: p.ledger().total(),
            fault_seq: p.fault_seq(),
            journal_len: journal.durable().len(),
            journal_digest: fnv1a64(journal.durable()),
        }
    }
}

/// The uninterrupted leg, with its batch count, final platform and journal.
fn uninterrupted(inputs: &Inputs) -> (Leg, u64, Platform<StdRng>, Journal) {
    let mut oracle = inputs.journaled();
    let outcome = inputs.drive(&mut oracle);
    oracle.finish();
    let batches = oracle.batches();
    let (journal, platform) = oracle.into_parts();
    (
        Leg::of(outcome, &journal, &platform),
        batches,
        platform,
        journal,
    )
}

/// The seeded kill point: a mid-batch crash within ±5% of the middle.
fn kill_batch(batches: u64, seed: u64) -> u64 {
    let spread = (batches / 10).max(1);
    let jitter = StdRng::seed_from_u64(seed ^ 0xC4A05).gen_range(0..spread);
    (batches / 2 + jitter).saturating_sub(spread / 2).max(1)
}

/// The killed leg: its durable bytes and the comparisons it had bought.
fn doomed(inputs: &Inputs, batch: u64) -> (Vec<u8>, u64, bool) {
    let mut oracle = inputs
        .journaled()
        .with_chaos(ChaosPlan::at(InjectionPoint::MidBatch { batch }));
    // The run dies at the kill point; only its durable bytes matter.
    let _ = inputs.drive(&mut oracle);
    let crashed = oracle.crashed();
    let (journal, platform) = oracle.into_parts();
    (
        journal.durable().to_vec(),
        platform.counts().total(),
        crashed,
    )
}

/// The resumed leg, and the comparisons restored from the journal.
fn resumed(inputs: &Inputs, bytes: &[u8]) -> (Leg, u64) {
    let mut oracle = resume_job(
        bytes,
        inputs.platform(),
        JOB,
        inputs.seed,
        CheckpointPolicy::every(CADENCE),
    )
    .expect("the durable journal resumes");
    let outcome = inputs.drive(&mut oracle);
    let replayed = oracle.replayed_comparisons();
    let diverged = oracle.diverged().map(str::to_string);
    let mut inner = oracle.into_inner();
    inner.finish();
    let (journal, platform) = inner.into_parts();
    let leg = Leg::of(outcome, &journal, &platform);
    assert!(diverged.is_none(), "replay diverged: {diverged:?}");
    (leg, replayed)
}

fn check_leg(out: &mut Outcome, inputs: &Inputs, leg: &Leg) {
    match &leg.outcome {
        Ok(o) => crate::offline::check_outcome(out, &inputs.planted, o),
        Err(e) => out.check(false, || format!("the run returned {e}")),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, mut setup_clock) =
        SetupClock::start(|| setup(cfg.scale.chaos_n, cfg.seed), cfg.scale.setup_reps);

    if cfg.trace {
        traced(&mut out, &inputs);
        return out;
    }

    // Timed phase: the uninterrupted run, then the resume from the bytes
    // the kill left behind. The kill is deterministic, so it runs once.
    let mut run_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut base: Option<(Leg, Platform<StdRng>)> = None;
    let mut killed: Option<Vec<u8>> = None;
    let started = std::time::Instant::now();
    while run_s.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let ((leg, batches, platform, _), secs) = timed(|| uninterrupted(&inputs));
        run_s.push(secs);
        setup_clock.after_pass(secs);
        if base.is_none() {
            put_peak_rss(&mut out);
        }
        let bytes = killed.get_or_insert_with(|| {
            let (bytes, _, crashed) = doomed(&inputs, kill_batch(batches, inputs.seed));
            out.check(crashed, || "the kill point was never reached".into());
            bytes
        });
        let ((again, _), secs) = timed(|| resumed(&inputs, bytes));
        recover_s.push(secs);
        setup_clock.after_pass(secs);
        out.check(again == leg, || {
            "the resumed run differs from the uninterrupted one".into()
        });
        match &base {
            Some((b, _)) => out.check(*b == leg, || "repeated runs differ".into()),
            None => base = Some((leg, platform)),
        }
    }
    let (leg, platform) = base.expect("ran at least once");
    check_leg(&mut out, &inputs, &leg);
    out.attempted = run_s.len() as u64;
    let secs = median(&run_s);
    let clock = platform.physical_clock() as f64;
    out.put("setup_s", setup_clock.median_s());
    out.put_median("maxfind_s", &run_s);
    out.put_median("recover_s", &recover_s);
    out.put("cmp_per_s", leg.counts.total() as f64 / secs);
    out.put("jobs_per_s", 1.0 / secs);
    out.put_percentile("latency_ticks_p50", percentile(&[clock], 50.0));
    out.put_percentile("latency_ticks_p99", percentile(&[clock], 99.0));
    out.put("ok_frac", out.ok_frac());
    out.put("naive_cmp_per_job", leg.counts.naive as f64);
    out
}

/// Nanoseconds per algorithm comparison of one ladder rung: Algorithm 1
/// on the workload's input through `oracle`, repeated for `budget_s`.
fn rung<O: ComparisonOracle>(inputs: &Inputs, budget_s: f64, mut make: impl FnMut() -> O) -> f64 {
    let runs = repeat_for(budget_s, 1, || {
        let mut oracle = make();
        inputs.drive(&mut oracle).expect("the rung completes")
    });
    let cmps = runs[0].0.total_comparisons.total() as f64;
    median(&runs.iter().map(|(_, s)| *s).collect::<Vec<_>>()) * 1e9 / cmps
}

/// What [`platform_layers`] leaves for the workload-level metrics.
struct PlatformTrace {
    leg: Leg,
    untraced_s: f64,
    traced_s: f64,
    events: usize,
    spans: usize,
}

/// Records the `platform_chaos` per-layer metrics for the planted `tier_for(n)`
/// input of `seed`: the decorator ladder, the platform and journal
/// counters, and each recovery step timed on its own (see
/// [`crate::offline::trace_layers`]).
pub fn trace_platform_layers(out: &mut Outcome, tracer: &mut Tracer, n: usize, seed: u64) {
    platform_layers(out, tracer, &setup(n, seed));
}

fn platform_layers(out: &mut Outcome, tracer: &mut Tracer, inputs: &Inputs) -> PlatformTrace {
    let p = &inputs.planted;
    let bare = || -> SimulatedOracle<StdRng, &Instance> {
        SimulatedOracle::new(
            &p.instance,
            p.model.clone(),
            StdRng::seed_from_u64(inputs.seed),
        )
    };
    let rec = Arc::new(Recorder::new());
    let ladder = {
        let _guard = install_recorder(rec.clone());
        let t = &mut *tracer;
        [
            (
                "ladder.bare.ns_per_cmp",
                t.span("core.oracle/bare", |_| rung(inputs, 0.3, bare)).0,
            ),
            (
                "ladder.trace.ns_per_cmp",
                t.span("core.trace/InstrumentedOracle", |_| {
                    rung(inputs, 0.3, || InstrumentedOracle::new(bare()))
                })
                .0,
            ),
            (
                "ladder.obs.ns_per_cmp",
                t.span("obs.bridge/ObservedOracle", |_| {
                    rung(inputs, 0.3, || {
                        ObservedOracle::new(InstrumentedOracle::new(bare()))
                    })
                })
                .0,
            ),
            (
                "ladder.platform.ns_per_cmp",
                t.span("platform/PlatformOracle", |_| {
                    rung(inputs, 0.0, || {
                        ObservedOracle::new(InstrumentedOracle::new(PlatformOracle::new(
                            inputs.platform(),
                        )))
                    })
                })
                .0,
            ),
            (
                "ladder.journal.ns_per_cmp",
                t.span("journal/JournaledOracle", |_| {
                    rung(inputs, 0.0, || {
                        ObservedOracle::new(InstrumentedOracle::new(inputs.journaled()))
                    })
                })
                .0,
            ),
        ]
    };
    drop(rec);

    // The uninterrupted leg, untraced and then under a recorder.
    let ((leg, batches, platform, journal), untraced_s) =
        tracer.span("journal/uninterrupted", |_| uninterrupted(inputs));
    check_leg(out, inputs, &leg);
    let rec = Arc::new(Recorder::new());
    let ((observed, _, _, _), traced_s) = tracer.span("obs.recorder/uninterrupted", |_| {
        let _guard = install_recorder(rec.clone());
        uninterrupted(inputs)
    });
    out.check(observed == leg, || "the recorded run differs".into());

    // Recovery, step by step.
    let batch = kill_batch(batches, inputs.seed);
    let ((bytes, bought, crashed), _) = tracer.span("chaos/doomed", |_| doomed(inputs, batch));
    out.check(crashed, || "the kill point was never reached".into());
    let decode = repeat_for(0.2, 3, || recover(&bytes).expect("the journal decodes"));
    let decode_s = median(&decode.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let setup = repeat_for(0.2, 3, || {
        let platform = inputs.platform();
        timed(|| {
            resume_job(
                &bytes,
                platform,
                JOB,
                inputs.seed,
                CheckpointPolicy::every(CADENCE),
            )
            .expect("the journal resumes")
        })
        .1
    });
    let resume_setup_s = median(&setup.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    let ((again, replayed), _) = tracer.span("recover/resume_job", |_| resumed(inputs, &bytes));
    out.check(again == leg, || "the resumed run differs".into());
    let faults = platform.fault_counts();
    let tally = faults.naive + faults.expert;
    let failed_attempts = tally.dropouts + tally.abandons + tally.no_answers + tally.timeouts;
    let answers = leg.counts.total();
    let frames = Journal::decode_json(journal.durable()).frames.len();
    for (name, ns) in ladder {
        out.put(name, ns);
    }
    out.put("platform.batches", batches as f64);
    out.put("platform.retries", tally.retries as f64);
    out.put("platform.dead_letters", tally.dead_letters as f64);
    out.put("platform.faults", failed_attempts as f64);
    out.put(
        "platform.attempts_per_answer",
        ratio((answers + failed_attempts) as f64, answers as f64),
    );
    out.put("journal.bytes", leg.journal_len as f64);
    out.put("journal.frames", frames as f64);
    out.put(
        "journal.bytes_per_cmp",
        ratio(leg.journal_len as f64, answers as f64),
    );
    out.put("recover.decode_s", decode_s);
    out.put("recover.resume_setup_s", resume_setup_s);
    out.put("recover.replayed_cmp", replayed as f64);
    out.put(
        "recover.rebought_cmp",
        bought.saturating_sub(replayed) as f64,
    );
    out.put("recover.bytes_at_kill", bytes.len() as f64);
    PlatformTrace {
        leg,
        untraced_s,
        traced_s,
        events: rec.events().len(),
        spans: rec.spans().len(),
    }
}

/// The traced run: the platform layers, the kernel on the same input, and
/// the recorder's overhead on the uninterrupted run.
fn traced(out: &mut Outcome, inputs: &Inputs) {
    let mut tracer = Tracer::new();
    let trace = platform_layers(out, &mut tracer, inputs);
    // The uninterrupted, recorded and resumed legs.
    out.attempted = 3;
    let p = &inputs.planted;
    out.put(
        "model.compare_many.ns_per_cmp",
        tracer
            .span("core.model/compare_many", |_| {
                compare_many_ns(p, &first_round_pairs(p), 0.3)
            })
            .0,
    );
    out.put("latency_ticks.n", 1.0);
    out.put("expert_cmp_per_job", trace.leg.counts.expert as f64);
    let exact = trace
        .leg
        .outcome
        .as_ref()
        .is_ok_and(|o| o.winner == p.instance.max_element());
    out.put("exact_frac", f64::from(u8::from(exact)));
    out.put("obs.overhead", trace.traced_s / trace.untraced_s - 1.0);
    out.put("obs.events", trace.events as f64);
    out.put("obs.spans", trace.spans as f64);
    out.spans_jsonl = tracer.to_jsonl();
}
