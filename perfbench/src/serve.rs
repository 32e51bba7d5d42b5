//! `serve_steady` and `serve_overload_hot`: crowd-serve on threshold-model
//! shards, one run timed through `CrowdServe::run`, then killed at the
//! middle tick and resumed through `CrowdServe::resume`.

use crate::measure::{median, percentile, tick_percentile, timed, SetupClock, Tracer};
use crate::{put_peak_rss, ratio, Outcome, RunConfig};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_obs::{install_recorder, names, Event, Recorder, SampleValue, SpanLog, Stage};
use crowd_platform::journal::fnv1a64;
use crowd_platform::serve::{
    Admission, ArrivalPlan, CrowdServe, JobSpec, JudgmentCache, ServeConfig, ServeKill,
    ServeReport, ShardSpec, TenantId, TenantPolicy, WorkerShard, SHARD_TIE_POLICY,
};
use std::sync::Arc;

/// Which load the service faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// About one job per tick, under capacity, 0% catalog overlap.
    Steady,
    /// Far beyond admission capacity, 90% overlap on a 32-item universe.
    OverloadHot,
}

/// Naïve shards: `δ` on the 0–1000 value scale, and `ε`.
const NAIVE_MODEL: (f64, f64) = (5.0, 0.05);
/// The expert shard's `δ` and `ε`.
const EXPERT_MODEL: (f64, f64) = (0.5, 0.01);
/// Shared item universe of the hot workload's overlapping catalogs.
const HOT_UNIVERSE: u32 = 32;

/// A workload's generated inputs.
struct Inputs {
    config: ServeConfig,
    plan: ArrivalPlan,
    /// Every job the plan offers, in submission order: job `i` is
    /// `specs[i]`, which is how winners are checked against the truth.
    specs: Vec<JobSpec>,
    max_ticks: u64,
}

/// The service: `serve_load`'s benchmark config (two tenants, two naïve
/// shards of which one is faulty, one expert shard), with threshold-model
/// shards, windows wide enough for a job per tick, and buckets sized per
/// load.
fn config(load: Load) -> ServeConfig {
    let base = crowd_bench::serve_load::bench_config();
    let shards = base
        .shards
        .iter()
        .map(|s| {
            let (delta, epsilon) = match s.class {
                WorkerClass::Naive => NAIVE_MODEL,
                WorkerClass::Expert => EXPERT_MODEL,
            };
            ShardSpec {
                window: s.window * 4,
                ..*s
            }
            .with_model(delta, epsilon)
        })
        .collect();
    let (capacity, refill) = match load {
        // A 64-item job reserves 63 pairs × 5 votes × 4 attempts = 1260
        // tokens; each tenant gets half the jobs, so this never sheds.
        Load::Steady => (40_000, 2_000),
        Load::OverloadHot => (2_000, 100),
    };
    base.with_shards(shards).with_tenants(vec![
        TenantPolicy::new(TenantId(0), capacity, refill),
        TenantPolicy::new(TenantId(1), capacity, refill),
    ])
}

fn setup(load: Load, jobs: u64, seed: u64) -> Inputs {
    let plan = match load {
        Load::Steady => ArrivalPlan::new(seed, 1, 1, jobs, 2),
        Load::OverloadHot => ArrivalPlan::new(seed, 6, 1, jobs, 2).with_overlap(90, HOT_UNIVERSE),
    }
    .with_catalog(16, 64)
    .with_deadline(96);
    let specs = (0..jobs).map(|i| plan.spec(i)).collect();
    Inputs {
        config: config(load),
        plan,
        specs,
        max_ticks: 4 * jobs + 1_000,
    }
}

fn service(inputs: &Inputs, seed: u64) -> CrowdServe {
    CrowdServe::new(inputs.config.clone(), seed).expect("the benchmark config is valid")
}

/// Totals over tenants: (offered, completed ok, completed degraded).
fn totals(report: &ServeReport) -> (u64, u64, u64) {
    report.tenants.iter().fold((0, 0, 0), |acc, t| {
        (
            acc.0 + t.offered,
            acc.1 + t.completed_ok,
            acc.2 + t.degraded,
        )
    })
}

/// The accounting identities every report must satisfy.
fn check_accounting(out: &mut Outcome, report: &ServeReport) {
    for t in &report.tenants {
        out.check(t.offered == t.admitted + t.shed, || {
            format!("tenant {}: offered != admitted + shed", t.tenant)
        });
        out.check(t.admitted == t.completed_ok + t.degraded, || {
            format!("tenant {}: admitted != ok + degraded", t.tenant)
        });
    }
}

/// The durable journal bytes of a copy of the run killed after the middle
/// tick's WAL flush.
fn killed_bytes(inputs: &Inputs, seed: u64, ticks: u64) -> Vec<u8> {
    let mut doomed = service(inputs, seed).with_chaos(ServeKill::MidTick(ticks / 2));
    let crashed = doomed.run(&inputs.plan, inputs.max_ticks);
    assert!(
        crashed.is_err() && doomed.crashed(),
        "the kill point lies inside the run"
    );
    doomed.journal().durable().to_vec()
}

/// Resumes from `bytes`; returns the report, the digest of the final
/// journal, and the wall seconds from restart to the final result.
fn resume(inputs: &Inputs, seed: u64, bytes: &[u8]) -> (ServeReport, u64, f64) {
    let ((report, resumed), secs) = timed(|| {
        CrowdServe::resume(
            inputs.config.clone(),
            seed,
            &inputs.plan,
            bytes,
            inputs.max_ticks,
        )
        .expect("the durable journal resumes")
    });
    (report, fnv1a64(resumed.journal().durable()), secs)
}

/// Answers by worker class — `crowd_latency_steps` observes one sample per
/// usable answer — and fault attempts, from a recorder's metrics.
fn answers_by_class(rec: &Recorder) -> (u64, u64, u64) {
    let (mut naive, mut expert, mut faults) = (0, 0, 0);
    for s in rec.metrics().snapshot() {
        let class = s.labels.iter().find(|l| l.name == "class");
        match (s.name.as_str(), &s.value) {
            (n, SampleValue::Histogram { count, .. }) if n == names::LATENCY_STEPS => {
                match class.map(|l| l.value.as_str()) {
                    Some("expert") => expert += count,
                    _ => naive += count,
                }
            }
            (n, SampleValue::Counter { value }) if n == names::FAULTS_TOTAL => faults += value,
            _ => {}
        }
    }
    (naive, expert, faults)
}

/// Share of completed jobs whose winner is the catalog's true maximum.
fn exact_frac(inputs: &Inputs, report: &ServeReport) -> f64 {
    let exact = report
        .jobs
        .iter()
        .filter(|j| {
            let values = &inputs.specs[j.job.0 as usize].values;
            let best = (0..values.len())
                .max_by(|&a, &b| values[a].total_cmp(&values[b]))
                .expect("catalogs are non-empty");
            j.winner == ElementId(best as u32)
        })
        .count();
    ratio(exact as f64, report.jobs.len() as f64)
}

/// Checks the recorder's span log and returns per-stage tick totals.
fn span_shares(out: &mut Outcome, rec: &Recorder) -> Vec<(Stage, f64)> {
    let log: SpanLog = rec.span_log();
    if let Err(bad) = log.reconcile() {
        out.check(false, || format!("span log does not reconcile: {bad:?}"));
    }
    let mut ticks = [0u64; 8];
    for s in rec.spans() {
        let i = Stage::ALL
            .iter()
            .position(|st| *st == s.stage)
            .expect("known stage");
        ticks[i] += s.ticks;
    }
    let total: u64 = ticks.iter().sum();
    Stage::ALL
        .iter()
        .zip(ticks)
        .map(|(st, t)| (*st, ratio(t as f64, total as f64)))
        .collect()
}

/// Runs the workload.
pub fn run(load: Load, cfg: &RunConfig) -> Outcome {
    let jobs = match load {
        Load::Steady => cfg.scale.steady_jobs,
        Load::OverloadHot => cfg.scale.overload_jobs,
    };
    let mut out = Outcome::default();
    let (inputs, mut setup_clock) = SetupClock::start(
        || {
            let inputs = setup(load, jobs, cfg.seed);
            drop(service(&inputs, cfg.seed));
            inputs
        },
        cfg.scale.setup_reps,
    );
    let seed = cfg.seed;
    out.attempted = jobs;

    if cfg.trace {
        traced(&mut out, load, &inputs, cfg);
        return out;
    }

    // Timed phase: the whole service run, then the resume from the bytes
    // the kill left behind. The kill is deterministic, so it runs once.
    let mut run_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut first: Option<(ServeReport, u64)> = None;
    let mut killed: Option<Vec<u8>> = None;
    let started = std::time::Instant::now();
    while run_s.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let (report, journal) = {
            let mut svc = service(&inputs, seed);
            let (report, secs) = timed(|| svc.run(&inputs.plan, inputs.max_ticks));
            run_s.push(secs);
            setup_clock.after_pass(secs);
            let report = report.expect("no chaos plan: the run cannot crash");
            (report, fnv1a64(svc.journal().durable()))
        };
        if first.is_none() {
            put_peak_rss(&mut out);
        }
        let bytes = killed.get_or_insert_with(|| killed_bytes(&inputs, seed, report.ticks));
        let (resumed, resumed_journal, secs) = resume(&inputs, seed, bytes);
        recover_s.push(secs);
        setup_clock.after_pass(secs);
        out.check(resumed == report, || "resumed report differs".into());
        out.check(resumed_journal == journal, || {
            "resumed journal differs".into()
        });
        match &first {
            Some(f) => out.check(*f == (report, journal), || "repeated runs differ".into()),
            None => first = Some((report, journal)),
        }
    }
    let (report, _) = first.expect("ran at least once");
    check_accounting(&mut out, &report);

    // The class split comes from a recorder, so it is counted on a rerun
    // after the timed phase; the rerun's report must equal the timed one.
    let rec = Arc::new(Recorder::new());
    let counted = {
        let _guard = install_recorder(rec.clone());
        service(&inputs, seed)
            .run(&inputs.plan, inputs.max_ticks)
            .expect("no chaos plan: the run cannot crash")
    };
    out.check(counted == report, || "recorded rerun differs".into());
    span_shares(&mut out, &rec);
    let (naive, expert, _) = answers_by_class(&rec);
    out.check(naive + expert == report.comparisons, || {
        format!(
            "answers by class {naive} + {expert} != charged {}",
            report.comparisons
        )
    });

    let (offered, ok, degraded) = totals(&report);
    out.check(offered == jobs, || {
        format!("offered {offered} of {jobs} jobs")
    });
    let completed = (ok + degraded) as f64;
    let run_med = median(&run_s);
    let latencies: Vec<u64> = report.jobs.iter().map(|j| j.latency_ticks()).collect();
    out.put("setup_s", setup_clock.median_s());
    out.put_median("maxfind_s", &run_s);
    out.put_median("recover_s", &recover_s);
    out.put("cmp_per_s", report.comparisons as f64 / run_med);
    out.put("jobs_per_s", completed / run_med);
    out.put_percentile("latency_ticks_p50", tick_percentile(&latencies, 50.0));
    out.put_percentile("latency_ticks_p99", tick_percentile(&latencies, 99.0));
    out.put("ok_frac", ratio(ok as f64, offered as f64));
    out.put("naive_cmp_per_job", ratio(naive as f64, completed));
    out
}

/// The traced run: the same service driven tick by tick under a recorder,
/// plus standalone timings of the cache and a shard; on `serve_steady`,
/// also the layers of the ungated workloads ([`crate::offline::trace_layers`]).
fn traced(out: &mut Outcome, load: Load, inputs: &Inputs, cfg: &RunConfig) {
    let seed = cfg.seed;
    let mut tracer = Tracer::new();
    if load == Load::Steady {
        // First, so that the serve WAL's `recover.bytes_at_kill`, recorded
        // below, replaces the platform job's.
        crate::offline::trace_layers(out, &mut tracer, &cfg.scale, seed);
    }
    // The untraced reference run, for the report and the overhead.
    let (reference, untraced_s) = tracer.span("serve.service/run", |_| {
        let mut svc = service(inputs, seed);
        let report = svc
            .run(&inputs.plan, inputs.max_ticks)
            .expect("no chaos plan");
        (report, svc.journal().durable().len())
    });
    let (reference, wal_bytes) = reference;
    check_accounting(out, &reference);

    let rec = Arc::new(Recorder::new());
    let guard = install_recorder(rec.clone());
    let mut submit_ns = Vec::new();
    let mut step_us = Vec::new();
    let (mut admitted, mut queued, mut shed) = (0u64, 0u64, 0u64);
    let (svc, traced_s) = tracer.span("serve.service/submit+step", |tracer| {
        let mut svc = service(inputs, seed);
        while svc.tick() < reference.ticks {
            for spec in inputs.plan.arrivals_at(svc.tick()) {
                let (admission, secs) = timed(|| svc.submit(spec));
                submit_ns.push(secs * 1e9);
                match admission.expect("plan specs are well formed") {
                    Admission::Admitted(_) => admitted += 1,
                    Admission::Queued(_) => queued += 1,
                    Admission::Rejected { .. } => shed += 1,
                }
            }
            let (stepped, secs) = tracer.span("serve.service/step", |_| svc.step());
            stepped.expect("no chaos plan");
            step_us.push(secs * 1e6);
        }
        svc
    });
    let report = svc.report();
    out.check(report == reference, || {
        "tick-by-tick report differs from run".into()
    });
    let (naive, expert, faults) = answers_by_class(&rec);
    let shares = span_shares(out, &rec);
    let events = rec.events().len();
    let spans = rec.spans().len();
    let cache = svc.cache_stats();
    drop(guard);

    // Kill and resume under a recorder, for the replay counter.
    let resume_rec = Arc::new(Recorder::new());
    let bytes = tracer
        .span("serve.service/run+kill", |_| {
            killed_bytes(inputs, seed, reference.ticks)
        })
        .0;
    let (resumed, _, _) = {
        let _guard = install_recorder(resume_rec.clone());
        tracer
            .span("serve.service/resume", |_| resume(inputs, seed, &bytes))
            .0
    };
    out.check(resumed == reference, || "resumed report differs".into());
    let replayed = resume_rec
        .events()
        .iter()
        .find_map(|e| match e {
            Event::RecoveryCompleted {
                replayed_comparisons,
                ..
            } => Some(*replayed_comparisons),
            _ => None,
        })
        .unwrap_or(0);

    let values: Vec<f64> = inputs.specs.iter().flat_map(|s| s.values.clone()).collect();
    let (insert_ns, lookup_ns) = tracer
        .span("serve.cache/insert+lookup", |_| {
            cache_timings(inputs, &values)
        })
        .0;
    let pair_ns = tracer
        .span("serve.shard/execute_pair", |_| {
            shard_timing(inputs, &values, seed)
        })
        .0;

    let submit_p50 = percentile(&submit_ns, 50.0);
    let step_p50 = percentile(&step_us, 50.0);
    out.put_percentile("serve.submit.ns_p50", submit_p50);
    out.put_percentile("serve.submit.ns_p99", percentile(&submit_ns, 99.0));
    out.put("serve.submit.n", submit_p50.samples as f64);
    out.put_percentile("serve.step.us_p50", step_p50);
    out.put_percentile("serve.step.us_p99", percentile(&step_us, 99.0));
    out.put("serve.step.n", step_p50.samples as f64);
    out.put("serve.ticks", report.ticks as f64);
    out.put("serve.admitted", admitted as f64);
    out.put("serve.queued", queued as f64);
    out.put("serve.shed", shed as f64);
    out.put(
        "serve.wal.bytes_per_cmp",
        ratio(wal_bytes as f64, report.comparisons as f64),
    );
    out.put("serve.resume.replayed_cmp", replayed as f64);
    out.put("recover.bytes_at_kill", bytes.len() as f64);
    out.put("cache.lookups", cache.lookups as f64);
    out.put("cache.hits", cache.hits as f64);
    out.put(
        "cache.hit_ratio",
        ratio(cache.hits as f64, cache.lookups as f64),
    );
    out.put("cache.insertions", cache.insertions as f64);
    out.put("cache.evictions", cache.evictions as f64);
    out.put("cache.saved_cmp", cache.saved_comparisons as f64);
    out.put("cache.insert.ns", insert_ns);
    out.put("cache.lookup.ns", lookup_ns);
    out.put("shard.execute_pair.ns", pair_ns);
    out.put("shard.breaker_trips", report.breaker_trips as f64);
    out.put("shard.dead_letters", report.dead_letters as f64);
    out.put(
        "shard.attempts_per_answer",
        ratio((naive + expert + faults) as f64, (naive + expert) as f64),
    );
    for (stage, share) in shares {
        let name = match stage {
            Stage::QueueWait => "span.queue_wait.share",
            Stage::DispatchWait => "span.dispatch_wait.share",
            Stage::CacheLookup => "span.cache_lookup.share",
            Stage::ShardExec => "span.shard_exec.share",
            Stage::Retry => "span.retry.share",
            Stage::BreakerQuarantine => "span.quarantine.share",
            Stage::Admission | Stage::Completion => continue,
        };
        out.put(name, share);
    }
    out.put("latency_ticks.n", report.jobs.len() as f64);
    out.put(
        "expert_cmp_per_job",
        ratio(expert as f64, report.jobs.len() as f64),
    );
    out.put("exact_frac", exact_frac(inputs, &report));
    out.put("obs.overhead", traced_s / untraced_s - 1.0);
    out.put("obs.events", events as f64);
    out.put("obs.spans", spans as f64);
    out.spans_jsonl = tracer.to_jsonl();
}

/// Nanoseconds per `JudgmentCache::insert` at capacity (so each new key
/// evicts) and per `lookup` that hits, on a standalone cache with the
/// service's policy, keyed by the workload's catalog values in order.
fn cache_timings(inputs: &Inputs, values: &[f64]) -> (f64, f64) {
    let policy = inputs.config.cache;
    let mut cache = JudgmentCache::new(policy);
    let pairs: Vec<(f64, f64)> = values
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .collect();
    let mut next = pairs.iter().cycle();
    let mut tick = 0;
    while cache.len() < policy.capacity && tick < pairs.len() as u64 {
        let (a, b) = next.next().expect("cycle is endless");
        cache.insert(*a, *b, WorkerClass::Naive, SHARD_TIE_POLICY, true, 3, tick);
        tick += 1;
    }
    let inserts = 4_000;
    let ((), insert_s) = timed(|| {
        for _ in 0..inserts {
            let (a, b) = next.next().expect("cycle is endless");
            cache.insert(*a, *b, WorkerClass::Naive, SHARD_TIE_POLICY, true, 3, tick);
            tick += 1;
        }
    });
    // The most recent inserts are still stored: look them up.
    let recent: Vec<(f64, f64)> = (0..inserts)
        .map(|_| *next.next().expect("cycle is endless"))
        .collect();
    for (a, b) in &recent {
        cache.insert(*a, *b, WorkerClass::Naive, SHARD_TIE_POLICY, true, 3, tick);
    }
    let rounds = 50;
    let (hits, lookup_s) = timed(|| {
        let mut hits = 0u64;
        for _ in 0..rounds {
            for (a, b) in &recent {
                hits += u64::from(
                    cache
                        .lookup(*a, *b, WorkerClass::Naive, SHARD_TIE_POLICY, 3, tick)
                        .is_some(),
                );
            }
        }
        hits
    });
    assert!(hits > 0, "recent inserts are found");
    (
        insert_s * 1e9 / f64::from(inserts),
        lookup_s * 1e9 / (rounds * recent.len()) as f64,
    )
}

/// Nanoseconds per `WorkerShard::execute_pair` on a standalone shard built
/// from the workload's first (faulty) naïve `ShardSpec`, three votes per
/// pair, 32 pairs per tick.
fn shard_timing(inputs: &Inputs, values: &[f64], seed: u64) -> f64 {
    let spec = inputs
        .config
        .shards
        .iter()
        .find(|s| s.class == WorkerClass::Naive)
        .copied()
        .expect("a naive shard");
    let mut shard = WorkerShard::new(0, spec, seed);
    let retries = inputs.config.retry.max_retries;
    let breaker = inputs.config.breaker;
    let pairs = values.len().min(40_000) / 2;
    let ((), secs) = timed(|| {
        for i in 0..pairs {
            let tick = (i / 32) as u64;
            if i % 32 == 0 {
                shard.begin_tick();
            }
            std::hint::black_box(shard.execute_pair(
                tick,
                ElementId(0),
                values[2 * i],
                ElementId(1),
                values[2 * i + 1],
                3,
                retries,
                &breaker,
            ));
        }
    });
    secs * 1e9 / pairs.max(1) as f64
}
