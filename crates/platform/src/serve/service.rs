//! The crowd-serve service loop: admission, dispatch, execution,
//! journaling, and reporting.
//!
//! [`CrowdServe`] multiplexes concurrent max-finding jobs over sharded
//! worker pools on a logical clock. Each tick:
//!
//! 1. **Deadline sweep** — jobs past their deadline force-complete with
//!    [`DegradedReason::DeadlineLapsed`].
//! 2. **Admission** — the bounded FIFO queue drains head-of-line while
//!    tenant token buckets can fund each job's worst-case reservation.
//! 3. **Dispatch** — deficit-round-robin over active jobs hands pairs to
//!    shards, gated by per-shard windows (backpressure) and per-job
//!    reservations (budget).
//! 4. **WAL** — the tick's dispatch list is journaled and flushed
//!    *before* execution, so a crash can lose at most one tick of work.
//! 5. **Execution** — each dispatched pair runs on its shard; answers are
//!    charged to the owning tenant.
//! 6. **Completion** — finished jobs refund unused reservation and emit
//!    [`Event::JobCompleted`]; the tick's outcome record is journaled at
//!    the checkpoint cadence.
//!
//! Every decision is a pure function of `(config, arrival plan, seed,
//! logical clock)`: reruns are byte-identical, and
//! [`CrowdServe::resume`] re-runs a crashed run under the journal's
//! resume audit (see [`crate::journal`]) — it must re-append the crashed
//! journal frame for frame — while rebuilding the exact same final state.

use crate::fault::mix;
use crate::journal::{fnv1a64, CheckpointPolicy, Journal, JOURNAL_VERSION};
use crate::retry::RetryPolicy;
use crate::serve::arrival::ArrivalPlan;
use crate::serve::breaker::BreakerPolicy;
use crate::serve::cache::{CachePolicy, CacheStats, JudgmentCache};
use crate::serve::job::{ActiveJob, JobId, JobSpec};
use crate::serve::shard::{ShardSpec, WorkerShard, SHARD_TIE_POLICY};
use crate::serve::slo::{SloMonitor, SloPolicy, SloTransition};
use crate::serve::tenant::{TenantId, TenantPolicy, TokenBucket};
use crowd_core::element::ElementId;
use crowd_core::model::WorkerClass;
use crowd_core::trace::{DegradedReason, FaultKind};
use crowd_obs::{
    counter_add, emit, emit_span, gauge_set, names, observe, stage_label, Event, Stage,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Full configuration of a [`CrowdServe`] instance. Serialized into the
/// journal header as a digest so resume refuses mismatched configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// The worker shards jobs dispatch onto.
    pub shards: Vec<ShardSpec>,
    /// The tenants allowed to submit, with their token buckets.
    pub tenants: Vec<TenantPolicy>,
    /// Bound on the admission queue; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Deficit-round-robin quantum, in judgments per job per tick.
    pub drr_quantum: u64,
    /// Retry allowance per pair (faults re-assign to fresh workers).
    pub retry: RetryPolicy,
    /// Circuit-breaker posture for every shard.
    pub breaker: BreakerPolicy,
    /// How often completed-tick records are made durable.
    pub checkpoint: CheckpointPolicy,
    /// Phase-1 survivor target (jobs this small skip straight to Phase 2).
    pub finalists: usize,
    /// Vote boost when the expert phase falls back to the crowd.
    pub fallback_votes: u32,
    /// Percentage of a job's worst-case cost reserved at admission.
    /// `100` makes the budget gate unreachable (full prepayment);
    /// below 100 admits optimistically and jobs that outrun their
    /// reservation force-complete with [`DegradedReason::BudgetExhausted`].
    pub reserve_factor_percent: u64,
    /// The cross-job judgment cache posture: when a cached verdict may
    /// substitute for fresh judgments, and how much the store retains.
    pub cache: CachePolicy,
    /// Per-tenant SLO: sliding window, latency objective, error budget.
    pub slo: SloPolicy,
}

impl ServeConfig {
    /// A small two-shard (crowd + expert) service with one generous
    /// tenant — the starting point tests and experiments tune from.
    pub fn basic() -> Self {
        ServeConfig {
            shards: vec![
                ShardSpec::honest(WorkerClass::Naive, 16, 48),
                ShardSpec::honest(WorkerClass::Expert, 4, 12),
            ],
            tenants: vec![TenantPolicy::new(TenantId(0), 100_000, 1_000)],
            queue_cap: 32,
            drr_quantum: 6,
            retry: RetryPolicy::paper_default(),
            breaker: BreakerPolicy::default_on(),
            checkpoint: CheckpointPolicy::every_batch(),
            finalists: 2,
            fallback_votes: 5,
            reserve_factor_percent: 100,
            cache: CachePolicy::default_on(),
            slo: SloPolicy::default_on(),
        }
    }

    /// Replaces the tenant set.
    pub fn with_tenants(mut self, tenants: Vec<TenantPolicy>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Replaces the shard set.
    pub fn with_shards(mut self, shards: Vec<ShardSpec>) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the breaker posture.
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the admission reservation factor (clamped to ≥ 1).
    pub fn with_reserve_factor_percent(mut self, percent: u64) -> Self {
        self.reserve_factor_percent = percent.max(1);
        self
    }

    /// Sets the judgment-cache posture.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-tenant SLO posture.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// The config digest stamped into the journal header.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("config serializes");
        fnv1a64(json.as_bytes())
    }
}

/// How a submission was received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted immediately; the tournament starts this tick.
    Admitted(JobId),
    /// Parked in the bounded admission queue.
    Queued(JobId),
    /// Shed. `retry_after` estimates the ticks until the tenant's bucket
    /// could fund the job (`u64::MAX`: the job can never fit the budget).
    Rejected {
        /// The id assigned to the shed submission.
        job: JobId,
        /// Earliest retry distance, in ticks.
        retry_after: u64,
    },
}

/// Why a resume attempt refused a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The journal has no intact `Started` header.
    MissingHeader,
    /// The journal was written by a different code version.
    VersionMismatch {
        /// Version found in the header.
        journal: u32,
        /// Version this code writes.
        code: u32,
    },
    /// The journal's config digest does not match the offered config.
    ConfigMismatch,
    /// The journal's seed does not match the offered seed.
    SeedMismatch {
        /// Seed found in the header.
        journal: u64,
        /// Seed offered to resume.
        code: u64,
    },
    /// The resumed run did not re-append the crashed journal frame for
    /// frame — the journal lies or the environment changed.
    Diverged {
        /// The tick at which the divergence was found: the first tick
        /// whose recomputed record mismatched, or the final tick when the
        /// run ended with journaled records it never reproduced.
        tick: u64,
    },
}

/// Typed service errors. The service degrades rather than panics; these
/// are the conditions it cannot degrade through.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A submission named a tenant the service has no bucket for.
    UnknownTenant(TenantId),
    /// A submission carried no elements.
    EmptyCatalog,
    /// A submission's catalog holds a NaN or infinite value at this
    /// position — no max is defined over it.
    NonFiniteValue(usize),
    /// The config has no shards to dispatch onto.
    NoShards,
    /// The config lists the same tenant twice.
    DuplicateTenant(TenantId),
    /// A chaos kill fired; the durable journal is the recovery state.
    Crashed,
    /// A resume attempt failed validation.
    Resume(ResumeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::EmptyCatalog => write!(f, "job carries no elements"),
            ServeError::NonFiniteValue(i) => write!(f, "catalog value {i} is not finite"),
            ServeError::NoShards => write!(f, "service configured with no shards"),
            ServeError::DuplicateTenant(t) => write!(f, "tenant {t} configured twice"),
            ServeError::Crashed => write!(f, "service crashed (chaos kill); journal is durable"),
            ServeError::Resume(e) => write!(f, "resume refused: {e:?}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One dispatched pair, as journaled in the tick's WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchRecord {
    /// The job the pair belongs to.
    pub job: u64,
    /// The shard it ran on.
    pub shard: u32,
    /// First element.
    pub k: u32,
    /// Second element.
    pub j: u32,
    /// Votes requested.
    pub votes: u32,
}

/// One pair served from the judgment cache instead of a shard, as
/// journaled in the tick's `TickCached` audit record. Cached pairs
/// consume no window slot and charge no tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheHitRecord {
    /// The job the pair belongs to.
    pub job: u64,
    /// First element.
    pub k: u32,
    /// Second element.
    pub j: u32,
    /// Votes the cached verdict substituted for (the saving).
    pub votes: u32,
    /// The element the cached verdict advanced.
    pub winner: u32,
}

/// A finished job, as reported and journaled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedJob {
    /// The job id.
    pub job: JobId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// The winner the service returned.
    pub winner: ElementId,
    /// `None` for a full-protocol result.
    pub degraded: Option<DegradedReason>,
    /// Comparisons charged to the tenant.
    pub comparisons: u64,
    /// Tick the job was submitted.
    pub submitted: u64,
    /// Tick the job completed.
    pub completed: u64,
}

impl CompletedJob {
    /// Submission-to-completion latency in ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completed.saturating_sub(self.submitted)
    }
}

/// The service journal's record vocabulary, framed through
/// [`Journal::append_json`] so it shares the WAL torn-tail story.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ServeRecord {
    /// The journal header.
    Started {
        version: u32,
        seed: u64,
        config_digest: u64,
    },
    /// The write-ahead half: what this tick is about to execute.
    TickScheduled {
        tick: u64,
        dispatches: Vec<DispatchRecord>,
    },
    /// Pairs this tick resolved from the judgment cache — an audit
    /// record (cache state is recomputed on replay, never read back),
    /// written only on ticks with at least one hit so cache-off and
    /// zero-overlap runs journal identical bytes.
    TickCached {
        tick: u64,
        hits: Vec<CacheHitRecord>,
    },
    /// The tick's outcome: shard stream positions, answers purchased,
    /// cumulative per-tenant charges, and completed jobs.
    TickCompleted {
        tick: u64,
        shard_seqs: Vec<u64>,
        answers: u64,
        charged: Vec<(u32, u64)>,
        completed: Vec<CompletedJob>,
    },
}

/// How a serialized [`ServeRecord::TickCompleted`] frame starts — resume
/// counts the completed ticks it recovers without parsing the records.
const TICK_COMPLETED_TAG: &str = "{\"TickCompleted\":";

/// Deterministic kill points for chaos tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKill {
    /// Die before tick `t` does anything.
    BeforeTick(u64),
    /// Die after tick `t`'s WAL flush, before execution — the dangling-
    /// schedule case.
    MidTick(u64),
    /// Die mid-write of tick `t`'s completion record: half the frame
    /// reaches durable storage (a torn tail).
    TornCompleted(u64),
}

/// Per-tenant accounting, aggregated into the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs submitted (admitted + queued + shed).
    pub offered: u64,
    /// Jobs admitted into execution.
    pub admitted: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs completed without degradation.
    pub completed_ok: u64,
    /// Jobs completed degraded, total.
    pub degraded: u64,
    /// Degradations by deadline lapse.
    pub degraded_deadline: u64,
    /// Degradations by expert exhaustion (crowd fallback).
    pub degraded_expert: u64,
    /// Degradations by reservation exhaustion.
    pub degraded_budget: u64,
    /// Degradations by dead-lettered pairs.
    pub degraded_dead_letters: u64,
    /// Comparisons charged to the tenant.
    pub comparisons: u64,
    /// Tokens the tenant's bucket ever dispensed.
    pub tokens_granted: u64,
    /// Tokens returned unused.
    pub tokens_refunded: u64,
    /// p99 completed-job latency, in ticks (0 when nothing completed).
    pub p99_latency_ticks: u64,
    /// Worst completed-job latency, in ticks.
    pub max_latency_ticks: u64,
    /// Healthy→breached SLO transitions over the run.
    pub slo_breaches: u64,
    /// Completions that violated the SLO (degraded, or over the latency
    /// objective), cumulative.
    pub slo_bad_jobs: u64,
    /// Worst sliding-window bad-completion rate seen, in basis points —
    /// the tenant's error-budget burn high watermark.
    pub slo_burn_max_bps: u32,
    /// True when the run ended with the SLO still breached.
    pub slo_breached_at_end: bool,
}

/// The final run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Ticks the service ran.
    pub ticks: u64,
    /// Per-tenant accounting, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Every completed job, in completion order.
    pub jobs: Vec<CompletedJob>,
    /// Circuit-breaker trips across all shards.
    pub breaker_trips: u64,
    /// Dead-lettered pairs across all jobs.
    pub dead_letters: u64,
    /// Jobs shed across all tenants.
    pub shed: u64,
    /// Comparisons charged across all tenants.
    pub comparisons: u64,
    /// Pairs served from the judgment cache instead of a shard.
    ///
    /// Only *hit-side* cache fields live in the report: zero at zero
    /// catalog overlap, so a cache-on zero-overlap report compares equal
    /// to a cache-off one (misses and evictions stay in
    /// [`CrowdServe::cache_stats`] and the obs counters).
    pub cache_hits: u64,
    /// Comparisons (votes) those hits avoided buying.
    pub cache_saved_comparisons: u64,
}

/// Which shard a dispatch attempt landed on, or why none could take it.
enum ShardPick {
    Ready(usize),
    NoHealthy,
    NoCapacity,
}

/// The overload-robust multi-tenant job service.
#[derive(Debug)]
pub struct CrowdServe {
    config: ServeConfig,
    seed: u64,
    tick: u64,
    next_job: u64,
    shards: Vec<WorkerShard>,
    cache: JudgmentCache,
    buckets: BTreeMap<TenantId, TokenBucket>,
    slo: BTreeMap<TenantId, SloMonitor>,
    queue: VecDeque<(JobId, JobSpec, u64)>,
    active: BTreeMap<JobId, ActiveJob>,
    drr: VecDeque<JobId>,
    journal: Journal,
    unflushed: u64,
    completed: Vec<CompletedJob>,
    charged_total: BTreeMap<TenantId, u64>,
    offered: BTreeMap<TenantId, u64>,
    shed_count: BTreeMap<TenantId, u64>,
    admitted_count: BTreeMap<TenantId, u64>,
    dead_letters: u64,
    queue_depth_max: usize,
    chaos: Option<ServeKill>,
    crashed: bool,
}

impl CrowdServe {
    /// Builds a service at tick 0 and journals the `Started` header.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoShards`] on an empty shard set,
    /// [`ServeError::DuplicateTenant`] when a tenant is configured twice.
    pub fn new(config: ServeConfig, seed: u64) -> Result<Self, ServeError> {
        CrowdServe::with_journal(config, seed, Journal::new())
    }

    /// [`new`](Self::new) over a given (possibly
    /// [`resuming`](Journal::resuming)) journal.
    fn with_journal(
        config: ServeConfig,
        seed: u64,
        mut journal: Journal,
    ) -> Result<Self, ServeError> {
        if config.shards.is_empty() {
            return Err(ServeError::NoShards);
        }
        let mut buckets = BTreeMap::new();
        let mut slo = BTreeMap::new();
        for policy in &config.tenants {
            if buckets
                .insert(policy.tenant, TokenBucket::new(*policy))
                .is_some()
            {
                return Err(ServeError::DuplicateTenant(policy.tenant));
            }
            slo.insert(policy.tenant, SloMonitor::new());
        }
        let shards = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, spec)| WorkerShard::new(i as u32, *spec, mix(seed ^ 0x5E)))
            .collect();
        let header = ServeRecord::Started {
            version: JOURNAL_VERSION,
            seed,
            config_digest: config.digest(),
        };
        journal.append_json(&serde_json::to_string(&header).expect("record serializes"));
        journal.flush();
        let cache = JudgmentCache::new(config.cache);
        Ok(CrowdServe {
            config,
            seed,
            tick: 0,
            next_job: 0,
            shards,
            cache,
            buckets,
            slo,
            queue: VecDeque::new(),
            active: BTreeMap::new(),
            drr: VecDeque::new(),
            journal,
            unflushed: 0,
            completed: Vec::new(),
            charged_total: BTreeMap::new(),
            offered: BTreeMap::new(),
            shed_count: BTreeMap::new(),
            admitted_count: BTreeMap::new(),
            dead_letters: 0,
            queue_depth_max: 0,
            chaos: None,
            crashed: false,
        })
    }

    /// Arms a deterministic kill point.
    pub fn with_chaos(mut self, kill: ServeKill) -> Self {
        self.chaos = Some(kill);
        self
    }

    /// The current logical clock.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The seed the service was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The service journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// True once a chaos kill fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The judgment cache's full counter set — including the miss and
    /// eviction counters deliberately kept out of [`ServeReport`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A tenant's worst-case reservation for `spec` under this config.
    fn reservation(&self, spec: &JobSpec) -> u64 {
        let worst = spec.worst_cost(self.config.fallback_votes, self.config.retry.max_retries);
        worst.saturating_mul(self.config.reserve_factor_percent) / 100
    }

    /// Submits a job at the current tick.
    ///
    /// Shed submissions leave **no residue**: no journal bytes, no bucket
    /// movement, no active state — only the [`Event::JobShed`] event and
    /// shed counter, so a retried submission replays identically.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] / [`ServeError::EmptyCatalog`] /
    /// [`ServeError::NonFiniteValue`] on malformed submissions,
    /// [`ServeError::Crashed`] after a chaos kill.
    pub fn submit(&mut self, spec: JobSpec) -> Result<Admission, ServeError> {
        if self.crashed {
            return Err(ServeError::Crashed);
        }
        if spec.values.is_empty() {
            return Err(ServeError::EmptyCatalog);
        }
        if let Some(i) = spec.values.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteValue(i));
        }
        if !self.buckets.contains_key(&spec.tenant) {
            return Err(ServeError::UnknownTenant(spec.tenant));
        }
        let job = JobId(self.next_job);
        self.next_job += 1;
        let tenant = spec.tenant;
        *self.offered.entry(tenant).or_insert(0) += 1;
        let reserved = self.reservation(&spec);
        let tick = self.tick;
        let bucket = self.buckets.get_mut(&tenant).expect("tenant checked");

        if reserved > bucket.policy().capacity {
            return Ok(self.shed(job, tenant, u64::MAX));
        }
        if self.queue.is_empty() && bucket.try_reserve(reserved, tick) {
            self.admit(job, spec, tick, reserved, 0);
            return Ok(Admission::Admitted(job));
        }
        if self.queue.len() < self.config.queue_cap {
            self.queue.push_back((job, spec, tick));
            self.queue_depth_max = self.queue_depth_max.max(self.queue.len());
            gauge_set(names::SERVE_QUEUE_DEPTH_MAX, &[], self.queue.len() as i64);
            return Ok(Admission::Queued(job));
        }
        let retry_after = bucket.ticks_until(reserved, tick).max(1);
        Ok(self.shed(job, tenant, retry_after))
    }

    fn shed(&mut self, job: JobId, tenant: TenantId, retry_after: u64) -> Admission {
        *self.shed_count.entry(tenant).or_insert(0) += 1;
        emit(Event::JobShed {
            tenant: tenant.0,
            job: job.0,
            retry_after,
        });
        counter_add(
            names::SERVE_SHED_TOTAL,
            &[("tenant", &tenant.to_string())],
            1,
        );
        Admission::Rejected { job, retry_after }
    }

    fn admit(&mut self, job: JobId, spec: JobSpec, submitted: u64, reserved: u64, waited: u64) {
        let tenant = spec.tenant;
        *self.admitted_count.entry(tenant).or_insert(0) += 1;
        emit(Event::JobAdmitted {
            tenant: tenant.0,
            job: job.0,
            waited_ticks: waited,
        });
        let active = ActiveJob::new(
            job,
            spec,
            submitted,
            self.tick,
            reserved,
            self.config.finalists,
            self.config.fallback_votes,
        );
        self.active.insert(job, active);
        self.drr.push_back(job);
    }

    /// Advances the service one tick.
    ///
    /// # Errors
    ///
    /// [`ServeError::Crashed`] when a chaos kill fires (now or earlier).
    pub fn step(&mut self) -> Result<(), ServeError> {
        if self.crashed {
            return Err(ServeError::Crashed);
        }
        let tick = self.tick;
        if self.chaos == Some(ServeKill::BeforeTick(tick)) {
            self.crashed = true;
            return Err(ServeError::Crashed);
        }

        // 1. Deadline sweep. Jobs force-finish between rounds only: a
        // pair dispatched in an earlier tick has already resolved (ticks
        // execute synchronously), so no outcome can land after Done.
        for job in self.active.values_mut() {
            if !job.is_done() && tick >= job.deadline {
                job.force_finish(DegradedReason::DeadlineLapsed);
            }
        }

        // 2. Head-of-line admission: drain the queue while buckets allow.
        while let Some((job, spec, submitted)) = self.queue.front().cloned() {
            let reserved = self.reservation(&spec);
            let bucket = self
                .buckets
                .get_mut(&spec.tenant)
                .expect("tenant checked at submit");
            if !bucket.try_reserve(reserved, tick) {
                break;
            }
            self.queue.pop_front();
            self.admit(job, spec, submitted, reserved, tick - submitted);
        }

        // 3. Dispatch. Cache lookups happen inside the dispatch pass,
        // before any shard is picked: a hit resolves its pair on the spot
        // and never consumes a window slot or a token.
        for shard in &mut self.shards {
            shard.begin_tick();
        }
        let cache_before = self.cache.stats();
        let (dispatches, cache_hits, quarantined) = self.dispatch_tick();

        // 4. WAL: the dispatch list is durable before any worker is
        // asked. Cache hits are journaled alongside it (audit only: a
        // replay recomputes them; it never reads them back) — but only on
        // ticks that had one, so a run that never hits journals exactly
        // the bytes a cache-off run does.
        let wal_appended = !cache_hits.is_empty() || !dispatches.is_empty();
        if !cache_hits.is_empty() {
            let record = ServeRecord::TickCached {
                tick,
                hits: cache_hits.clone(),
            };
            self.journal
                .append_json(&serde_json::to_string(&record).expect("record serializes"));
        }
        if !dispatches.is_empty() {
            let record = ServeRecord::TickScheduled {
                tick,
                dispatches: dispatches.clone(),
            };
            self.journal
                .append_json(&serde_json::to_string(&record).expect("record serializes"));
        }
        if wal_appended {
            if self.journal.diverged().is_some() {
                // A resumed run about to execute other work than the
                // crashed run journaled: refuse before anything is bought.
                return Err(ServeError::Resume(ResumeError::Diverged { tick }));
            }
            self.journal.flush();
            self.unflushed = 0;
            if self.chaos == Some(ServeKill::MidTick(tick)) {
                self.crashed = true;
                return Err(ServeError::Crashed);
            }
        }

        // 5. Execute, in dispatch order. `executed` tracks, per job, how
        // many pairs ran and whether any needed the retry layer — the
        // facts span attribution classifies the tick by.
        let mut tick_answers = 0u64;
        let mut executed: BTreeMap<JobId, bool> = BTreeMap::new();
        for d in &dispatches {
            let job = self
                .active
                .get_mut(&JobId(d.job))
                .expect("dispatched job is active");
            let (vk, vj) = (job.values[d.k as usize], job.values[d.j as usize]);
            let tenant = job.tenant;
            let shard = &mut self.shards[d.shard as usize];
            let out = shard.execute_pair(
                tick,
                ElementId(d.k),
                vk,
                ElementId(d.j),
                vj,
                d.votes,
                self.config.retry.max_retries,
                &self.config.breaker,
            );
            // A clean, fully-voted verdict becomes a cache asset for
            // every later job that compares the same two values.
            if out.dead.is_none() && out.answers >= d.votes {
                if let Some(w) = out.winner {
                    self.cache.insert(
                        vk,
                        vj,
                        self.shards[d.shard as usize].class(),
                        SHARD_TIE_POLICY,
                        w == ElementId(d.k),
                        d.votes,
                        tick,
                    );
                }
            }
            let job = self
                .active
                .get_mut(&JobId(d.job))
                .expect("dispatched job is active");
            job.charged += u64::from(out.answers);
            tick_answers += u64::from(out.answers);
            let retried = executed.entry(JobId(d.job)).or_insert(false);
            *retried |= out.dead.is_some() || out.attempts > d.votes;
            *self.charged_total.entry(tenant).or_insert(0) += u64::from(out.answers);
            counter_add(
                names::SERVE_COMPARISONS_TOTAL,
                &[("tenant", &tenant.to_string())],
                u64::from(out.answers),
            );
            if let Some(reason) = out.dead {
                self.dead_letters += 1;
                let class = self.shards[d.shard as usize].class();
                emit(Event::DeadLettered {
                    class,
                    attempts: out.attempts,
                    reason,
                });
                counter_add(
                    names::DEAD_LETTERS_TOTAL,
                    &[
                        ("class", crowd_obs::class_label(class)),
                        ("reason", crowd_obs::reason_label(reason)),
                    ],
                    1,
                );
            }
            self.active
                .get_mut(&JobId(d.job))
                .expect("dispatched job is active")
                .feed((ElementId(d.k), ElementId(d.j)), out.winner);
        }

        // Cache observability: one delta per tick keeps counter traffic
        // bounded, and guarding on nonzero deltas keeps a cache that
        // never moves invisible in the metrics exposition.
        let cache_after = self.cache.stats();
        let deltas = [
            (
                names::SERVE_CACHE_HITS_TOTAL,
                cache_after.hits - cache_before.hits,
            ),
            (
                names::SERVE_CACHE_MISSES_TOTAL,
                cache_after.misses - cache_before.misses,
            ),
            (
                names::SERVE_CACHE_EVICTIONS_TOTAL,
                cache_after.evictions - cache_before.evictions,
            ),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                counter_add(name, &[], delta);
            }
        }

        // 6. Completion: budget stalls finish degraded, done jobs leave.
        let mut completions = Vec::new();
        let done: Vec<JobId> = self
            .active
            .iter_mut()
            .filter_map(|(id, job)| {
                if job.budget_stalled && !job.is_done() {
                    job.force_finish(DegradedReason::BudgetExhausted);
                }
                job.is_done().then_some(*id)
            })
            .collect();
        for id in done {
            let job = self.active.remove(&id).expect("listed as done");
            self.drr.retain(|j| *j != id);
            let refund = job.reserved.saturating_sub(job.charged);
            self.buckets
                .get_mut(&job.tenant)
                .expect("tenant checked at submit")
                .refund(refund, tick);
            let winner = job.winner.expect("done jobs carry a winner");
            let record = CompletedJob {
                job: id,
                tenant: job.tenant,
                winner,
                degraded: job.degraded,
                comparisons: job.charged,
                submitted: job.submitted,
                completed: tick,
            };
            emit(Event::JobCompleted {
                tenant: job.tenant.0,
                job: id.0,
                latency_ticks: record.latency_ticks(),
                comparisons: job.charged,
                degraded: job.degraded,
            });
            let outcome = if job.degraded.is_some() {
                "degraded"
            } else {
                "ok"
            };
            counter_add(
                names::SERVE_JOBS_TOTAL,
                &[("tenant", &job.tenant.to_string()), ("outcome", outcome)],
                1,
            );
            observe(
                names::SERVE_JOB_LATENCY_TICKS,
                &[("tenant", &job.tenant.to_string())],
                record.latency_ticks(),
            );
            // Close the job's span tree. The accumulator recorded exactly
            // one stage per tick the job survived, so the spans partition
            // the latency — the accounting invariant `serve_trace` audits.
            let spans = job
                .stages
                .job_spans(job.tenant.0, id.0, job.submitted, job.admitted, tick);
            debug_assert_eq!(
                spans.iter().map(|s| s.ticks).sum::<u64>(),
                record.latency_ticks(),
                "stage spans must partition job {id} latency"
            );
            for span in &spans {
                emit_span(*span);
                if span.ticks > 0 {
                    observe(
                        names::SERVE_STAGE_TICKS,
                        &[
                            ("tenant", &job.tenant.to_string()),
                            ("stage", stage_label(span.stage)),
                        ],
                        span.ticks,
                    );
                }
            }
            if self.config.slo.enabled {
                let bad = record.degraded.is_some()
                    || record.latency_ticks() > self.config.slo.latency_objective_ticks;
                if let Some(monitor) = self.slo.get_mut(&job.tenant) {
                    monitor.record(tick, bad);
                }
            }
            self.completed.push(record.clone());
            completions.push(record);
        }

        // Span attribution: each surviving job charges this tick to
        // exactly one active stage. Jobs that completed above are gone —
        // their completion tick is, by definition, not part of their
        // latency. Priority: execution facts beat cache hits beat
        // quarantine stalls; a tick with none of those is dispatch wait
        // (deficit, window backpressure, or reservation gates).
        let cache_hit_jobs: BTreeSet<JobId> = cache_hits.iter().map(|h| JobId(h.job)).collect();
        for (id, job) in self.active.iter_mut() {
            let stage = match executed.get(id) {
                Some(true) => Stage::Retry,
                Some(false) => Stage::ShardExec,
                None if cache_hit_jobs.contains(id) => Stage::CacheLookup,
                None if quarantined.contains(id) => Stage::BreakerQuarantine,
                None => Stage::DispatchWait,
            };
            job.stages.record(stage, tick);
        }

        // SLO evaluation runs every tick — recovery can arrive on a
        // quiet tick purely by bad completions aging out of the window.
        if self.config.slo.enabled {
            for (tenant, monitor) in &mut self.slo {
                match monitor.evaluate(tick, &self.config.slo) {
                    Some(SloTransition::Breached {
                        window_jobs,
                        bad_jobs,
                        bad_bps,
                    }) => {
                        emit(Event::SloBreached {
                            tenant: tenant.0,
                            tick,
                            window_jobs,
                            bad_jobs,
                            bad_bps,
                        });
                        counter_add(
                            names::SERVE_SLO_BREACHES_TOTAL,
                            &[("tenant", &tenant.to_string())],
                            1,
                        );
                    }
                    Some(SloTransition::Recovered {
                        window_jobs,
                        bad_bps,
                    }) => {
                        emit(Event::SloRecovered {
                            tenant: tenant.0,
                            tick,
                            window_jobs,
                            bad_bps,
                        });
                    }
                    None => {}
                }
            }
        }

        // 7. Journal the tick outcome at the checkpoint cadence.
        if !dispatches.is_empty() || !completions.is_empty() {
            let record = ServeRecord::TickCompleted {
                tick,
                shard_seqs: self.shards.iter().map(|s| s.seq()).collect(),
                answers: tick_answers,
                charged: self.charged_total.iter().map(|(t, c)| (t.0, *c)).collect(),
                completed: completions,
            };
            let json = serde_json::to_string(&record).expect("record serializes");
            self.journal.append_restoring(&json, 1, tick_answers);
            if self.journal.diverged().is_some() {
                return Err(ServeError::Resume(ResumeError::Diverged { tick }));
            }
            if self.chaos == Some(ServeKill::TornCompleted(tick)) {
                let torn = self.journal.pending_len() / 2;
                self.journal.flush_torn(torn);
                self.crashed = true;
                return Err(ServeError::Crashed);
            }
            self.unflushed += 1;
            if self.unflushed >= self.config.checkpoint.every_batches {
                let bytes = self.journal.flush();
                emit(Event::CheckpointWritten {
                    batches: tick + 1,
                    bytes,
                });
                counter_add(names::JOURNAL_BYTES, &[], bytes);
                self.unflushed = 0;
            }
        }

        self.tick += 1;
        Ok(())
    }

    /// One deficit-round-robin pass over the active jobs. Returns the
    /// pairs handed to shards, the pairs the judgment cache resolved
    /// without one, and the jobs whose tick stalled because every worker
    /// of the needed class was quarantined (span attribution:
    /// [`Stage::BreakerQuarantine`]).
    fn dispatch_tick(&mut self) -> (Vec<DispatchRecord>, Vec<CacheHitRecord>, BTreeSet<JobId>) {
        let tick = self.tick;
        let quantum = self.config.drr_quantum.max(1);
        let max_retries = self.config.retry.max_retries;
        let mut out = Vec::new();
        let mut hits = Vec::new();
        let mut quarantined = BTreeSet::new();
        for _ in 0..self.drr.len() {
            let Some(id) = self.drr.pop_front() else {
                break;
            };
            let Some(job) = self.active.get_mut(&id) else {
                continue; // completed earlier; dropped from rotation
            };
            self.drr.push_back(id);
            if job.is_done() || job.budget_stalled {
                continue;
            }
            // Cap banked deficit so an idle job cannot burst unboundedly.
            job.deficit = (job.deficit + quantum).min(quantum.saturating_mul(4));
            loop {
                if job.is_done() || !job.has_ready_pair() {
                    break;
                }
                let (class, votes) = job.class_and_votes();
                // Cache first: a hit resolves the pair right here —
                // before the deficit, reservation, and window gates,
                // because a cached verdict consumes none of the three.
                // Nothing is charged, committed, or reserved for it.
                if let Some((pk, pj)) = job.peek_pair() {
                    let (vk, vj) = (job.values[pk.0 as usize], job.values[pj.0 as usize]);
                    if let Some(k_wins) =
                        self.cache
                            .lookup(vk, vj, class, SHARD_TIE_POLICY, votes, tick)
                    {
                        let (k, j) = job.next_pair().expect("peeked pair is ready");
                        let winner = if k_wins { k } else { j };
                        hits.push(CacheHitRecord {
                            job: id.0,
                            k: k.0,
                            j: j.0,
                            votes,
                            winner: winner.0,
                        });
                        job.feed((k, j), Some(winner));
                        continue;
                    }
                }
                if job.deficit < u64::from(votes) {
                    break;
                }
                let pair_worst = u64::from(votes) * u64::from(1 + max_retries);
                if job.reserved.saturating_sub(job.committed) < pair_worst {
                    // The reservation cannot fund another worst-case
                    // pair: stop dispatching, finish degraded at the end
                    // of the tick. This gate is what keeps per-tenant
                    // charges provably within the bucket's dispensed
                    // tokens — charges follow dispatches, never lead.
                    job.budget_stalled = true;
                    break;
                }
                match Self::pick_shard(&self.shards, class, votes, tick) {
                    ShardPick::Ready(sidx) => {
                        let (k, j) = job.next_pair().expect("ready pair checked");
                        self.shards[sidx].reserve_window(votes);
                        job.committed += pair_worst;
                        job.deficit -= u64::from(votes);
                        out.push(DispatchRecord {
                            job: id.0,
                            shard: sidx as u32,
                            k: k.0,
                            j: j.0,
                            votes,
                        });
                    }
                    ShardPick::NoHealthy => {
                        if class == WorkerClass::Expert {
                            // Graceful degradation: the expert pool is
                            // quarantined/dropped out, so finish the job
                            // on the crowd with boosted votes instead of
                            // hanging until the deadline.
                            job.mark_degraded(DegradedReason::ExpertExhausted);
                            emit(Event::FaultObserved {
                                class,
                                kind: FaultKind::ExpertFallback,
                            });
                            counter_add(
                                names::FAULTS_TOTAL,
                                &[
                                    ("class", crowd_obs::class_label(class)),
                                    ("kind", crowd_obs::kind_label(FaultKind::ExpertFallback)),
                                ],
                                1,
                            );
                            continue;
                        }
                        // Crowd quarantine storm: the pair waits for a
                        // half-open probe to reopen capacity (or the
                        // deadline to lapse). Explicit, bounded waiting.
                        quarantined.insert(id);
                        break;
                    }
                    ShardPick::NoCapacity => break, // backpressure: next tick
                }
            }
        }
        (out, hits, quarantined)
    }

    /// Routes a pair to the least-loaded shard of `class` with healthy
    /// workers and window room (ties: lowest shard id).
    fn pick_shard(shards: &[WorkerShard], class: WorkerClass, votes: u32, tick: u64) -> ShardPick {
        let mut any_healthy = false;
        let mut best: Option<(u32, usize)> = None;
        for (i, shard) in shards.iter().enumerate() {
            if shard.class() != class || shard.healthy_workers(tick) == 0 {
                continue;
            }
            any_healthy = true;
            let window = shard.remaining_window();
            if window < votes {
                continue;
            }
            if best.is_none_or(|(w, _)| window > w) {
                best = Some((window, i));
            }
        }
        match best {
            Some((_, i)) => ShardPick::Ready(i),
            None if any_healthy => ShardPick::NoCapacity,
            None => ShardPick::NoHealthy,
        }
    }

    /// Drives the service over an arrival plan until the offered load is
    /// fully resolved, or `max_ticks` is reached (any stragglers then
    /// force-finish degraded and the remaining queue is shed).
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError::Crashed`] from chaos kills and submission
    /// errors from malformed arrival plans.
    pub fn run(&mut self, plan: &ArrivalPlan, max_ticks: u64) -> Result<ServeReport, ServeError> {
        loop {
            let t = self.tick;
            for spec in plan.arrivals_at(t) {
                self.submit(spec)?;
            }
            self.step()?;
            if plan.exhausted(t) && self.active.is_empty() && self.queue.is_empty() {
                break;
            }
            if self.tick >= max_ticks {
                // Safety drain: never hang. Stragglers complete degraded,
                // queued jobs shed.
                for job in self.active.values_mut() {
                    if !job.is_done() {
                        job.force_finish(DegradedReason::DeadlineLapsed);
                    }
                }
                while let Some((job, spec, _)) = self.queue.pop_front() {
                    self.shed(job, spec.tenant, u64::MAX);
                }
                self.step()?;
                break;
            }
        }
        let bytes = self.journal.flush();
        if bytes > 0 {
            emit(Event::CheckpointWritten {
                batches: self.tick,
                bytes,
            });
            counter_add(names::JOURNAL_BYTES, &[], bytes);
        }
        let report = self.report();
        // Flow the report's latency tails and SLO burn into the metrics
        // exposition as per-tenant high watermarks — skipping tenants
        // with no completions, matching the report's zero semantics.
        for t in &report.tenants {
            if t.completed_ok + t.degraded == 0 {
                continue;
            }
            let tenant = t.tenant.to_string();
            gauge_set(
                names::SERVE_P99_LATENCY_TICKS,
                &[("tenant", &tenant)],
                t.p99_latency_ticks as i64,
            );
            gauge_set(
                names::SERVE_MAX_LATENCY_TICKS,
                &[("tenant", &tenant)],
                t.max_latency_ticks as i64,
            );
            if self.config.slo.enabled {
                gauge_set(
                    names::SERVE_SLO_BURN_BPS,
                    &[("tenant", &tenant)],
                    i64::from(t.slo_burn_max_bps),
                );
            }
        }
        Ok(report)
    }

    /// The report over everything completed so far.
    pub fn report(&self) -> ServeReport {
        let mut tenants = Vec::new();
        for (tenant, bucket) in &self.buckets {
            let jobs: Vec<&CompletedJob> = self
                .completed
                .iter()
                .filter(|j| j.tenant == *tenant)
                .collect();
            let mut latencies: Vec<u64> = jobs.iter().map(|j| j.latency_ticks()).collect();
            latencies.sort_unstable();
            let p99 = if latencies.is_empty() {
                0
            } else {
                latencies[(latencies.len() - 1) * 99 / 100]
            };
            let count_degraded = |reason: DegradedReason| {
                jobs.iter().filter(|j| j.degraded == Some(reason)).count() as u64
            };
            tenants.push(TenantReport {
                tenant: *tenant,
                offered: self.offered.get(tenant).copied().unwrap_or(0),
                admitted: self.admitted_count.get(tenant).copied().unwrap_or(0),
                shed: self.shed_count.get(tenant).copied().unwrap_or(0),
                completed_ok: jobs.iter().filter(|j| j.degraded.is_none()).count() as u64,
                degraded: jobs.iter().filter(|j| j.degraded.is_some()).count() as u64,
                degraded_deadline: count_degraded(DegradedReason::DeadlineLapsed),
                degraded_expert: count_degraded(DegradedReason::ExpertExhausted),
                degraded_budget: count_degraded(DegradedReason::BudgetExhausted),
                degraded_dead_letters: count_degraded(DegradedReason::DeadLetters),
                comparisons: self.charged_total.get(tenant).copied().unwrap_or(0),
                tokens_granted: bucket.granted(),
                tokens_refunded: bucket.refunded(),
                p99_latency_ticks: p99,
                max_latency_ticks: latencies.last().copied().unwrap_or(0),
                slo_breaches: self.slo.get(tenant).map_or(0, SloMonitor::breaches),
                slo_bad_jobs: self.slo.get(tenant).map_or(0, SloMonitor::bad_total),
                slo_burn_max_bps: self.slo.get(tenant).map_or(0, SloMonitor::burn_max_bps),
                slo_breached_at_end: self.slo.get(tenant).is_some_and(SloMonitor::breached),
            });
        }
        ServeReport {
            ticks: self.tick,
            tenants,
            jobs: self.completed.clone(),
            breaker_trips: self.shards.iter().map(|s| s.trips()).sum(),
            dead_letters: self.dead_letters,
            shed: self.shed_count.values().sum(),
            comparisons: self.charged_total.values().sum(),
            cache_hits: self.cache.stats().hits,
            cache_saved_comparisons: self.cache.stats().saved_comparisons,
        }
    }

    /// Resumes a crashed run from its durable journal bytes: validates
    /// the header, then re-runs the whole plan from tick 0 — every
    /// decision is deterministic, so the new journal re-appends the
    /// crashed one's intact frames byte for byte (the resume audit of
    /// [`crate::journal`], erroring with [`ResumeError::Diverged`] at the
    /// first frame it does not reproduce, or when the run ends with
    /// recovered frames unreproduced) and ends byte-identical to an
    /// uninterrupted run's.
    ///
    /// Returns the report plus the finished service, whose journal's
    /// durable bytes callers can compare against an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`ServeError::Resume`] on validation or audit failure; the same
    /// errors as [`CrowdServe::run`] afterwards.
    pub fn resume(
        config: ServeConfig,
        seed: u64,
        plan: &ArrivalPlan,
        bytes: &[u8],
        max_ticks: u64,
    ) -> Result<(ServeReport, CrowdServe), ServeError> {
        let decoded = Journal::decode_json(bytes);
        let header = decoded
            .frames
            .first()
            .and_then(|(json, _)| serde_json::from_str::<ServeRecord>(json).ok());
        let Some(ServeRecord::Started {
            version,
            seed: jseed,
            config_digest,
        }) = header
        else {
            return Err(ServeError::Resume(ResumeError::MissingHeader));
        };
        if version != JOURNAL_VERSION {
            return Err(ServeError::Resume(ResumeError::VersionMismatch {
                journal: version,
                code: JOURNAL_VERSION,
            }));
        }
        if jseed != seed {
            return Err(ServeError::Resume(ResumeError::SeedMismatch {
                journal: jseed,
                code: seed,
            }));
        }
        if config_digest != config.digest() {
            return Err(ServeError::Resume(ResumeError::ConfigMismatch));
        }
        let completed_ticks = decoded
            .frames
            .iter()
            .filter(|(json, _)| json.starts_with(TICK_COMPLETED_TAG))
            .count() as u64;
        let journal = Journal::resuming(
            &bytes[..decoded.valid_bytes],
            completed_ticks,
            decoded.torn_tail,
        );
        let mut service = CrowdServe::with_journal(config, seed, journal)?;
        let report = service.run(plan, max_ticks)?;
        service.journal.end_replay(true);
        if service.journal.diverged().is_some() {
            return Err(ServeError::Resume(ResumeError::Diverged {
                tick: service.tick,
            }));
        }
        Ok((report, service))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_completed_frames_start_with_the_counted_tag() {
        let record = ServeRecord::TickCompleted {
            tick: 3,
            shard_seqs: vec![1],
            answers: 2,
            charged: vec![(0, 2)],
            completed: Vec::new(),
        };
        let json = serde_json::to_string(&record).expect("record serializes");
        assert!(json.starts_with(TICK_COMPLETED_TAG), "{json}");
        let other = ServeRecord::TickScheduled {
            tick: 3,
            dispatches: Vec::new(),
        };
        let json = serde_json::to_string(&other).expect("record serializes");
        assert!(!json.starts_with(TICK_COMPLETED_TAG), "{json}");
    }
}
