//! `rskip-serve`: a long-running fault-injection **campaign service**.
//!
//! The one-shot CLI driver answers one question per process: run N
//! trials of one (bench, scheme, fault-model) cell and print the
//! aggregate. This crate turns that into a service: a TCP server that
//! accepts campaign jobs over newline-delimited JSON, shards each job
//! into trial chunks across a worker pool, and **streams** the running
//! aggregate — with Wilson 95% intervals — after every chunk, so a
//! client watching the stream can stop reading (or cancel) the moment
//! the estimate is tight enough. An optional server-side early-stopping
//! rule does the same thing without the round trip: the job finishes
//! once the watched rate's interval half-width drops below the client's
//! threshold, and the terminal frame reports the honest savings
//! (`executed < requested`).
//!
//! With a state directory the service is **crash-safe**: job specs and
//! per-chunk progress are fsynced to per-tenant journals, a restarted
//! server resumes unfinished jobs at their next chunk boundary (final
//! aggregates byte-identical to an uninterrupted run), completed
//! results are cached by content-hash key and answered without
//! re-executing a trial (`Done { cached: true }`), and the client side
//! retries with capped jittered backoff, reconnecting safely because
//! in-flight dedup and suspended-progress resume make resubmission
//! idempotent.
//!
//! Three properties carry the design:
//!
//! * **Determinism survives sharding.** Trial seeds are a pure function
//!   of `(campaign seed, trial index)` (the harness's split-seed
//!   ChaCha8 scheme) and [`CampaignStats`] is a commutative monoid, so
//!   a job's final aggregate is byte-identical to the one-shot driver
//!   regardless of chunk size, worker count, or how tenants interleave.
//! * **No new dependencies.** The server is `std::net::TcpListener` +
//!   `std::thread`; the wire format reuses the vendored `serde_json`.
//! * **Layering.** This crate sits *below* the harness: it knows how to
//!   queue, schedule, stream and stop, but executes trials only through
//!   the [`CampaignRunner`] trait. The harness implements that trait
//!   (per-tenant warm-started engines) and hosts the `rskip-eval serve`
//!   / `submit` subcommands, which keeps the dependency graph acyclic.
//!
//! [`CampaignStats`]: rskip_core::stats::CampaignStats

pub mod client;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod runner;
pub mod server;

pub use client::{Client, JobOutcome, RetryPolicy, ServerInfo};
pub use journal::{JobJournal, JournalEvent, Recovery, ResumableJob};
pub use protocol::{
    decode, encode, valid_tenant, DoneFrame, ErrorKind, JobSpec, ProgressFrame, Request, Response,
    DEFAULT_TENANT, PROTOCOL_VERSION,
};
pub use queue::{JobQueue, PushError};
pub use runner::{CampaignRunner, ChunkOutput};
pub use server::{
    backoff_hint_ms, job_key, RecoveryReport, Server, ServerConfig, BACKOFF_CAP_MS,
    RESULT_CACHE_CAP,
};
