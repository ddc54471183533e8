//! The campaign-service wire format.
//!
//! Frames are newline-delimited JSON: one [`Request`] or [`Response`]
//! per line, externally tagged by variant name (the vendored serde's —
//! and serde_json's — default enum encoding). A session is one TCP
//! connection: the server greets with [`Response::Hello`], the client
//! submits jobs and cancellations, and the server interleaves each
//! job's [`Response::Progress`] stream with the others' until every
//! job reaches a terminal frame ([`Response::Done`],
//! [`Response::Cancelled`] or [`Response::Rejected`]).
//!
//! Everything statistical on the wire reuses
//! [`rskip_core::stats`]: partial aggregates are [`CampaignStats`] —
//! the *same* type the one-shot CLI driver folds — so a streamed job's
//! final aggregate being byte-identical to the CLI run is a property
//! of one shared representation, not a convention between two.

use serde::{Content, DeError, Deserialize, Serialize};

use rskip_core::stats::{CampaignStats, EarlyStop, WilsonCi};

/// Wire protocol version, sent in [`Response::Hello`]. Bump on any
/// incompatible frame change.
///
/// **Version 2** (current) adds [`Request::Hello`] (a client's version
/// declaration), the `cached` field on [`DoneFrame`], and
/// [`ErrorKind::DuplicateInFlight`]. All three are compatible with
/// version-1 peers by construction:
///
/// * a v2 client only sends `Request::Hello` after the server's
///   greeting already declared `protocol >= 2`;
/// * `cached` decodes as `false` when absent (v1 server), and a v1
///   client's decoder ignores unknown fields, so a v2 server's `Done`
///   frames parse unchanged;
/// * the server answers sessions that never declared v2 with
///   [`ErrorKind::QueueFull`] (same retry semantics) instead of the
///   variant their decoder would reject.
pub const PROTOCOL_VERSION: u32 = 2;

/// The tenant namespace used when a job does not name one.
pub const DEFAULT_TENANT: &str = "public";

/// One campaign job as submitted over the wire. Identification fields
/// are strings — the service validates them against the harness
/// registry and answers with a typed [`Reject`] on anything unknown,
/// so a stale client never crashes the server. Decoding ignores fields
/// it does not know, such as the `tier` older clients sent: the engine
/// picks the execution tier, which cannot change a result.
///
/// [`Reject`]: Response::Rejected
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Tenant namespace: lowercase `[a-z0-9_-]`, at most 64 bytes.
    /// Empty means [`DEFAULT_TENANT`]. Each tenant warm-starts from its
    /// own model-store root.
    pub tenant: String,
    /// Benchmark name (`conv1d`, `kde`, ...).
    pub bench: String,
    /// Scheme label: `unsafe`, `swift-r`, `arN`, `arN-di`.
    pub scheme: String,
    /// Fault model label: `seu`, `skip`, `burst:N`.
    pub fault_model: String,
    /// Requested trial count.
    pub trials: u32,
    /// Trials per chunk (streaming / early-stop / cancellation
    /// granularity); 0 means the server default.
    pub chunk: u32,
    /// Optional early-stopping rule; the job finishes once the watched
    /// rate's Wilson interval is at least this tight, even with trials
    /// left.
    pub stop: Option<EarlyStop>,
    /// Stream per-trial outcome codes (one char per trial, see
    /// [`rskip_core::stats::OutcomeClass::code`]) in each progress
    /// frame.
    pub want_outcomes: bool,
}

impl JobSpec {
    /// A spec with the given bench/scheme/model/trials and every other
    /// field at its wire default.
    pub fn new(bench: &str, scheme: &str, fault_model: &str, trials: u32) -> JobSpec {
        JobSpec {
            tenant: String::new(),
            bench: bench.to_string(),
            scheme: scheme.to_string(),
            fault_model: fault_model.to_string(),
            trials,
            chunk: 0,
            stop: None,
            want_outcomes: false,
        }
    }

    /// The effective tenant namespace.
    pub fn tenant_or_default(&self) -> &str {
        if self.tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            &self.tenant
        }
    }
}

/// Client → server frames.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Declares the client's protocol version, unlocking version-2
    /// error kinds for this session. Optional — a session that never
    /// sends it is served with version-1 frames only. A v2 client
    /// sends it only after the server's greeting declared `>= 2`, so
    /// a v1 server never sees the (to it, malformed) variant.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Submit a campaign job.
    Submit(JobSpec),
    /// Cancel a job previously accepted **on this connection**.
    Cancel {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Ask the server to shut down once in-flight chunks finish.
    /// (Loopback tooling; a production deployment would gate this.)
    Shutdown,
}

/// Why a frame or job was refused — every error path answers with one
/// of these instead of dropping the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line was not a well-formed request frame.
    MalformedFrame,
    /// Tenant name failed the namespace rules.
    BadTenant,
    /// No benchmark registered under that name.
    UnknownBench,
    /// Unparseable scheme label.
    UnknownScheme,
    /// Unparseable fault-model label.
    UnknownFaultModel,
    /// Zero trials, or more than the server's per-job cap.
    OversizedTrials,
    /// The bounded job queue is full — retry after the hinted delay.
    QueueFull,
    /// Cancel for a job this connection never submitted, or one that
    /// already reached a terminal frame.
    UnknownJob,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// (v2) A byte-identical job is already queued or running — retry
    /// after the hinted delay and the resubmission will attach to its
    /// result (cache hit or suspended-progress resume). Sessions that
    /// never declared v2 receive [`ErrorKind::QueueFull`] instead,
    /// which carries the same retry semantics.
    DuplicateInFlight,
}

/// One streamed progress frame: the running aggregate after a chunk.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressFrame {
    /// Job id.
    pub job: u64,
    /// Zero-based index of the chunk that just finished.
    pub chunk: u32,
    /// Trials executed so far (`stats.counts.total()`).
    pub executed: u32,
    /// Trials originally requested.
    pub requested: u32,
    /// Running aggregate over every executed trial.
    pub stats: CampaignStats,
    /// Wilson 95% interval for the correct rate at `executed` trials.
    pub correct_ci: WilsonCi,
    /// Wilson 95% interval for the SDC rate at `executed` trials.
    pub sdc_ci: WilsonCi,
    /// Per-trial outcome codes for this chunk, when requested.
    pub outcomes: Option<String>,
    /// Wall-clock nanoseconds this chunk took on its worker.
    pub chunk_nanos: u64,
}

/// The terminal frame of a completed job.
///
/// `Deserialize` is hand-written (not derived) so that `cached` —
/// which version-1 servers do not emit — defaults to `false` instead
/// of failing the frame; every other field stays required.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DoneFrame {
    /// Job id.
    pub job: u64,
    /// Trials actually executed (`< requested` exactly when
    /// `early_stopped`).
    pub executed: u32,
    /// Trials originally requested.
    pub requested: u32,
    /// Whether the early-stopping rule fired before the last chunk.
    pub early_stopped: bool,
    /// Final aggregate — byte-identical to the one-shot CLI driver over
    /// the same `executed` trials.
    pub stats: CampaignStats,
    /// Wilson 95% interval for the correct rate.
    pub correct_ci: WilsonCi,
    /// Wilson 95% interval for the SDC rate.
    pub sdc_ci: WilsonCi,
    /// Wall-clock nanoseconds from first chunk start to last chunk end
    /// (queue wait excluded). For a resumed job, only the chunks run
    /// since the restart are billed — the pre-crash time is gone and
    /// the service does not pretend otherwise.
    pub total_nanos: u64,
    /// (v2) `true` when the frame was answered from the result cache —
    /// zero trials executed for this submission. Absent on the wire
    /// from v1 servers; decodes as `false` then.
    pub cached: bool,
}

impl Deserialize for DoneFrame {
    fn from_content(v: &Content) -> Result<Self, DeError> {
        let Content::Map(_) = v else {
            return Err(DeError::expected("object for DoneFrame", v));
        };
        let field = |name: &str| v.get(name).unwrap_or(&Content::Null);
        Ok(DoneFrame {
            job: Deserialize::from_content(field("job"))?,
            executed: Deserialize::from_content(field("executed"))?,
            requested: Deserialize::from_content(field("requested"))?,
            early_stopped: Deserialize::from_content(field("early_stopped"))?,
            stats: Deserialize::from_content(field("stats"))?,
            correct_ci: Deserialize::from_content(field("correct_ci"))?,
            sdc_ci: Deserialize::from_content(field("sdc_ci"))?,
            total_nanos: Deserialize::from_content(field("total_nanos"))?,
            cached: match v.get("cached") {
                None | Some(Content::Null) => false,
                Some(c) => Deserialize::from_content(c)?,
            },
        })
    }
}

/// Server → client frames.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Greeting, first frame of every session.
    Hello {
        /// [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Worker threads serving the queue.
        workers: usize,
        /// Bounded queue capacity (jobs).
        queue_capacity: usize,
    },
    /// The job was validated and enqueued.
    Accepted {
        /// Server-assigned job id, unique per server lifetime.
        job: u64,
        /// Trials that will run absent early stop / cancel.
        trials: u32,
        /// Effective chunk size after applying server defaults/caps.
        chunk: u32,
    },
    /// The job was refused before entering the queue.
    Rejected {
        /// Typed reason.
        error: ErrorKind,
        /// Human-readable detail.
        detail: String,
        /// For [`ErrorKind::QueueFull`]: suggested client backoff.
        retry_after_ms: Option<u64>,
    },
    /// A chunk finished; running aggregate attached.
    Progress(ProgressFrame),
    /// The job finished (all trials, or early stop).
    Done(DoneFrame),
    /// The job was cancelled; the partial aggregate up to the last
    /// completed chunk is attached.
    Cancelled {
        /// Job id.
        job: u64,
        /// Trials executed before the cancel took effect.
        executed: u32,
        /// Partial aggregate over those trials.
        stats: CampaignStats,
    },
    /// A request-level error that is not tied to an accepted job
    /// (malformed line, unknown cancel target).
    Error {
        /// Typed reason.
        error: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

/// Whether `tenant` is an acceptable namespace: non-empty, at most 64
/// bytes, characters drawn from `[a-z0-9_-]`. The same rule the store
/// layer enforces (`Store::namespace`) — checked here too so a bad
/// tenant is refused with a typed frame at admission instead of
/// surfacing as a store error mid-job. Rejecting `.`/`/`/`\` by
/// construction means a tenant name can never traverse out of the
/// store root.
#[must_use]
pub fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// Serializes one frame to its wire line (no trailing newline).
///
/// # Panics
///
/// Never for these types; the vendored emitter is infallible.
pub fn encode<T: Serialize>(frame: &T) -> String {
    serde_json::to_string(frame).expect("wire frames serialize infallibly")
}

/// Parses one wire line into a frame.
///
/// # Errors
///
/// A human-readable parse/shape error (the caller maps it to
/// [`ErrorKind::MalformedFrame`]).
pub fn decode<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_core::stats::StopMetric;

    #[test]
    fn request_frames_roundtrip() {
        let mut spec = JobSpec::new("conv1d", "ar20", "burst:4", 500);
        spec.tenant = "alpha".into();
        spec.chunk = 100;
        spec.stop = Some(EarlyStop {
            metric: StopMetric::Sdc,
            half_width: 0.02,
        });
        spec.want_outcomes = true;
        for req in [
            Request::Hello {
                protocol: PROTOCOL_VERSION,
            },
            Request::Submit(spec),
            Request::Cancel { job: 17 },
            Request::Shutdown,
        ] {
            let line = encode(&req);
            assert!(!line.contains('\n'), "frames must be single lines");
            let back: Request = decode(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let stats = CampaignStats::default();
        for resp in [
            Response::Hello {
                protocol: PROTOCOL_VERSION,
                workers: 2,
                queue_capacity: 8,
            },
            Response::Accepted {
                job: 1,
                trials: 500,
                chunk: 100,
            },
            Response::Rejected {
                error: ErrorKind::QueueFull,
                detail: "queue at capacity (8 jobs)".into(),
                retry_after_ms: Some(250),
            },
            Response::Progress(ProgressFrame {
                job: 1,
                chunk: 0,
                executed: 100,
                requested: 500,
                stats,
                correct_ci: rskip_core::stats::wilson_ci(71, 100),
                sdc_ci: rskip_core::stats::wilson_ci(2, 100),
                outcomes: Some("CCSC".into()),
                chunk_nanos: 12_345,
            }),
            Response::Done(DoneFrame {
                job: 1,
                executed: 300,
                requested: 500,
                early_stopped: true,
                stats,
                correct_ci: rskip_core::stats::wilson_ci(280, 300),
                sdc_ci: rskip_core::stats::wilson_ci(0, 300),
                total_nanos: 99,
                cached: true,
            }),
            Response::Cancelled {
                job: 2,
                executed: 100,
                stats,
            },
            Response::Error {
                error: ErrorKind::UnknownJob,
                detail: "job 9 was never submitted on this connection".into(),
            },
        ] {
            let back: Response = decode(&encode(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn v1_done_frame_without_cached_decodes_as_uncached() {
        // Exactly what a version-1 server emits: no `cached` field.
        let mut done = DoneFrame {
            job: 4,
            executed: 120,
            requested: 120,
            early_stopped: false,
            stats: CampaignStats::default(),
            correct_ci: rskip_core::stats::wilson_ci(100, 120),
            sdc_ci: rskip_core::stats::wilson_ci(1, 120),
            total_nanos: 777,
            cached: true,
        };
        let line = encode(&Response::Done(done.clone()));
        let v1_line = line.replace(",\"cached\":true", "");
        assert_ne!(v1_line, line, "cached field must have been stripped");
        let back: Response = decode(&v1_line).unwrap();
        done.cached = false;
        assert_eq!(back, Response::Done(done));
    }

    #[test]
    fn duplicate_in_flight_roundtrips() {
        let resp = Response::Rejected {
            error: ErrorKind::DuplicateInFlight,
            detail: "job key 0xabc already running as job 7".into(),
            retry_after_ms: Some(180),
        };
        let back: Response = decode(&encode(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(decode::<Request>("").is_err());
        assert!(decode::<Request>("{").is_err());
        assert!(decode::<Request>("{\"Subvert\":{}}").is_err());
        assert!(decode::<Request>("42").is_err());
    }

    #[test]
    fn tenant_rules() {
        for ok in ["public", "alpha", "a", "t-1_x", &"a".repeat(64)] {
            assert!(valid_tenant(ok), "{ok:?} should be accepted");
        }
        for bad in [
            "",
            "..",
            "a/b",
            "a\\b",
            "UPPER",
            "with space",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_tenant(bad), "{bad:?} should be refused");
        }
    }

    #[test]
    fn tenant_default() {
        assert_eq!(
            JobSpec::new("conv1d", "unsafe", "seu", 1).tenant_or_default(),
            DEFAULT_TENANT
        );
    }
}
