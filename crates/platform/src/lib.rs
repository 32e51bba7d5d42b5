//! # crowd-platform
//!
//! A crowdsourcing-platform simulator standing in for CrowdFlower in the
//! reproduction of *"The Importance of Being Expert"* (SIGMOD 2015).
//!
//! The paper's experiments ran on CrowdFlower, a paid platform providing
//! worker channels, per-judgment billing, and gold-question quality control
//! (workers below 70% gold accuracy are ignored). This crate implements
//! that machinery over the simulated worker behaviours of `crowd-core`:
//!
//! * [`worker`] — individual workers: honest threshold/probabilistic
//!   behaviour or spam strategies.
//! * [`pool`] — the workforce `W`, partitioned into naïve and expert
//!   classes and hired per channel.
//! * [`task`] — jobs, pairwise-comparison units, gold units, judgments.
//! * [`scheduler`] — logical steps expanded into physical steps
//!   (`⌈judgments / workers⌉`), with distinct workers per unit.
//! * [`quality`] — gold-based trust tracking and the 70% exclusion rule.
//! * [`billing`] — the per-judgment payment ledger.
//! * [`platform`] — the facade, plus [`platform::PlatformOracle`] adapting
//!   it to `crowd-core`'s `ComparisonOracle` so the paper's algorithms run
//!   unmodified on the full simulator.
//! * [`batched`] — batched execution: one job per logical step, realizing
//!   the `⌈|B_s|/|W|⌉` physical-step parallelism of the paper's time
//!   model.
//! * [`report`] — the requester-facing campaign dashboard.
//! * [`fault`] — seedable fault injection: worker dropout, mid-batch
//!   abandonment, transient no-answers, and latency distributions.
//! * [`retry`] — timeout recovery: capped exponential backoff,
//!   re-assignment to fresh workers, and dead-letter records.
//! * [`journal`] — write-ahead, length-prefixed + checksummed journaling
//!   of every batch, with batch-aligned checkpoint cadence, and the one
//!   resume audit every journal shares: a resumed run must re-append the
//!   crashed journal's intact frames byte for byte and in order.
//! * [`mod@recover`] — crash recovery: validate a journal, re-run the job
//!   on a fresh platform under that audit, then continue live.
//! * [`chaos`] — deterministic, seeded crash injection (mid-batch,
//!   between rounds, at the phase transition, torn journal writes) for
//!   proving resume-equals-uninterrupted.
//! * [`serve`] — crowd-serve: an overload-robust multi-tenant job
//!   service multiplexing concurrent max-finding jobs over sharded
//!   worker pools, with token-bucket admission control, bounded-queue
//!   load shedding, deficit-round-robin dispatch, per-worker circuit
//!   breakers, graceful degradation, and WAL-journaled crash recovery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batched;
pub mod billing;
pub mod chaos;
pub mod fault;
pub mod journal;
pub mod platform;
pub mod pool;
pub mod quality;
pub mod recover;
pub mod report;
pub mod retry;
pub mod scheduler;
pub mod serve;
pub mod task;
pub mod worker;

pub use batched::batched_filter;
pub use billing::Ledger;
pub use chaos::{ChaosPlan, InjectionPoint};
pub use fault::{FaultConfig, FaultPlan, JudgeFate, LatencyModel};
pub use journal::{
    CheckpointPolicy, DecodedJournal, Journal, JournalRecord, JournaledOracle, JOURNAL_VERSION,
};
pub use platform::{JobResult, Platform, PlatformConfig, PlatformError, PlatformOracle};
pub use pool::WorkerPool;
pub use quality::{GoldRecord, TrustTracker};
pub use recover::{recover, resume_job, RecoverError, Recovered, ResumeOracle};
pub use report::{CampaignReport, WorkerLine};
pub use retry::{DeadLetter, DeadLetterReason, RetryPolicy};
pub use scheduler::{physical_steps, reassign, schedule, Assignment, Schedule, ScheduleError};
pub use serve::{
    Admission, ArrivalPlan, BreakerPolicy, CircuitBreaker, CompletedJob, CrowdServe, JobId,
    JobSpec, ServeConfig, ServeError, ServeKill, ServeReport, ShardSpec, TenantId, TenantPolicy,
    TenantReport,
};
pub use task::{Job, Judgment, Unit, UnitId};
pub use worker::{Behavior, SpamStrategy, Worker, WorkerId, WorkerProfile};
