//! End-to-end tests of the campaign service over loopback, using mock
//! runners. The harness-backed runner gets its own integration test in
//! `rskip-harness`; here the trials are synthetic so the scheduler's
//! properties — chunking determinism, streaming, early stopping,
//! backpressure, cancellation, typed error paths — are tested in
//! isolation and in milliseconds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rskip_core::stats::{CampaignStats, EarlyStop, OutcomeClass, StopMetric, TrialOutcome};
use rskip_serve::{
    decode, encode, CampaignRunner, ChunkOutput, Client, ErrorKind, JobJournal, JobOutcome,
    JobSpec, Request, Response, RetryPolicy, Server, ServerConfig, RESULT_CACHE_CAP,
};

fn temp_state_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("rskip-serve-test-{tag}-{}-{n}", std::process::id()))
}

/// Deterministic synthetic outcome for trial `t` of `spec` — a pure
/// function of (bench, trial index), mimicking the harness's split-seed
/// property: no dependence on chunk boundaries or scheduling.
fn synthetic_class(spec: &JobSpec, t: u32) -> OutcomeClass {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(t).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    for b in spec.bench.bytes() {
        x = x.rotate_left(7) ^ u64::from(b);
    }
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    match x % 12 {
        0 => OutcomeClass::Sdc,
        1 => OutcomeClass::Segfault,
        2 => OutcomeClass::Hang,
        _ => OutcomeClass::Correct,
    }
}

fn synthetic_chunk(spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
    let mut stats = CampaignStats::default();
    let mut codes = String::new();
    for t in range {
        let class = synthetic_class(spec, t);
        stats.record(TrialOutcome {
            class,
            recovered: false,
            fired: true,
            pruned: false,
        });
        codes.push(class.code());
    }
    ChunkOutput {
        stats,
        outcomes: spec.want_outcomes.then_some(codes),
    }
}

fn validate_mock(spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
    if spec.bench != "mock" {
        return Err((
            ErrorKind::UnknownBench,
            format!("no bench {:?}", spec.bench),
        ));
    }
    if spec.scheme != "s" {
        return Err((
            ErrorKind::UnknownScheme,
            format!("no scheme {:?}", spec.scheme),
        ));
    }
    if spec.fault_model != "m" {
        return Err((
            ErrorKind::UnknownFaultModel,
            format!("no fault model {:?}", spec.fault_model),
        ));
    }
    Ok(())
}

/// Instant deterministic runner.
struct MockRunner;

impl CampaignRunner for MockRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        validate_mock(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        synthetic_chunk(spec, range)
    }
}

/// Runner that sleeps per chunk, for cancellation timing.
struct SlowRunner(Duration);

impl CampaignRunner for SlowRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        validate_mock(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        std::thread::sleep(self.0);
        synthetic_chunk(spec, range)
    }
}

/// Runner that signals chunk start and then blocks until released, for
/// deterministic backpressure tests.
struct GateRunner {
    started: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl CampaignRunner for GateRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        validate_mock(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        self.started.lock().unwrap().send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        synthetic_chunk(spec, range)
    }
}

/// Instant runner that records every executed trial range — the probe
/// for "a cache hit / resume executed exactly these trials".
#[derive(Default)]
struct RecordingRunner {
    ranges: Mutex<Vec<Range<u32>>>,
}

impl CampaignRunner for RecordingRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        validate_mock(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        self.ranges.lock().unwrap().push(range.clone());
        synthetic_chunk(spec, range)
    }
}

fn spec(trials: u32, chunk: u32) -> JobSpec {
    let mut s = JobSpec::new("mock", "s", "m", trials);
    s.chunk = chunk;
    s
}

#[test]
fn streamed_aggregate_is_byte_identical_to_one_shot() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.info().protocol, rskip_serve::PROTOCOL_VERSION);

    let mut job_spec = spec(500, 100);
    job_spec.want_outcomes = true;
    let job = client.submit_accepted(&job_spec).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");

    // Five chunks of 100, all executed.
    assert_eq!(outcome.progress.len(), 5);
    assert_eq!(outcome.done.executed, 500);
    assert_eq!(outcome.done.requested, 500);
    assert!(!outcome.done.early_stopped);

    // The one-shot reference: the same runner over 0..500 in one call.
    let one_shot = synthetic_chunk(&job_spec, 0..500);
    assert_eq!(outcome.done.stats, one_shot.stats);
    // Byte-identical on the wire, not just structurally equal.
    assert_eq!(encode(&outcome.done.stats), encode(&one_shot.stats));
    // Streamed per-trial codes concatenate to the one-shot string.
    let streamed: String = outcome
        .progress
        .iter()
        .map(|p| p.outcomes.clone().expect("asked for outcomes"))
        .collect();
    assert_eq!(Some(streamed), one_shot.outcomes);

    server.shutdown();
}

#[test]
fn chunk_size_does_not_change_the_aggregate() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut finals = Vec::new();
    for chunk in [1, 7, 100, 500] {
        let mut client = Client::connect(server.addr()).expect("connect");
        let job = client.submit_accepted(&spec(500, chunk)).expect("accept");
        let outcome = client.stream_job(job, |_| {}).expect("stream");
        finals.push(encode(&outcome.done.stats));
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "aggregate must be chunking-invariant: {finals:?}"
    );
    server.shutdown();
}

#[test]
fn progress_cis_narrow_and_early_stop_reports_savings() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut job_spec = spec(100_000, 200);
    job_spec.stop = Some(EarlyStop {
        metric: StopMetric::Sdc,
        half_width: 0.01,
    });
    let job = client.submit_accepted(&job_spec).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");

    // Executed counts strictly increase; for frames with an unchanged
    // SDC count the Wilson half-width strictly shrinks (the monotone
    // regime — across frames where the count moved, width may grow).
    for pair in outcome.progress.windows(2) {
        assert!(pair[1].executed > pair[0].executed);
        if pair[1].stats.counts.sdc == pair[0].stats.counts.sdc {
            assert!(pair[1].sdc_ci.half_width() < pair[0].sdc_ci.half_width());
        }
    }
    let first = outcome.progress.first().expect("at least one chunk");
    let last = outcome.progress.last().expect("at least one chunk");
    assert!(last.sdc_ci.half_width() <= first.sdc_ci.half_width());

    // The rule fired with trials to spare, and honestly reported so.
    assert!(outcome.done.early_stopped);
    assert!(
        outcome.done.executed < outcome.done.requested,
        "early stop must save trials: {} vs {}",
        outcome.done.executed,
        outcome.done.requested
    );
    assert!(outcome.done.sdc_ci.half_width() <= 0.01);

    server.shutdown();
}

#[test]
fn error_paths_leave_the_server_serving() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Malformed line → typed error frame, connection stays up.
    client.send_raw("{definitely not json").expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::MalformedFrame),
        other => panic!("expected MalformedFrame error, got {other:?}"),
    }

    // Unknown identifiers and bounds → typed rejections.
    let cases: Vec<(JobSpec, ErrorKind)> = vec![
        (JobSpec::new("nope", "s", "m", 10), ErrorKind::UnknownBench),
        (
            JobSpec::new("mock", "nope", "m", 10),
            ErrorKind::UnknownScheme,
        ),
        (
            JobSpec::new("mock", "s", "nope", 10),
            ErrorKind::UnknownFaultModel,
        ),
        (
            JobSpec::new("mock", "s", "m", 0),
            ErrorKind::OversizedTrials,
        ),
        (
            JobSpec::new("mock", "s", "m", u32::MAX),
            ErrorKind::OversizedTrials,
        ),
        (
            {
                let mut s = JobSpec::new("mock", "s", "m", 10);
                s.tenant = "../escape".into();
                s
            },
            ErrorKind::BadTenant,
        ),
    ];
    for (bad, want) in cases {
        match client.submit(&bad).expect("frame") {
            Response::Rejected { error, .. } => assert_eq!(error, want, "for {bad:?}"),
            other => panic!("expected rejection of {bad:?}, got {other:?}"),
        }
    }

    // Cancel of a job that was never submitted → typed error.
    client.cancel(10_000).expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob error, got {other:?}"),
    }

    // After all of the above, a valid job still runs to completion.
    let job = client.submit_accepted(&spec(50, 10)).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    assert_eq!(outcome.done.executed, 50);

    // Cancel of a *finished* job → UnknownJob too.
    client.cancel(job).expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob error, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn deeply_nested_line_is_malformed_not_fatal() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A parser that recurses once per nesting level with no bound
    // overflows the connection thread's stack on this line, which
    // aborts the whole server process.
    client.send_raw(&"[".repeat(200_000)).expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::MalformedFrame),
        other => panic!("expected MalformedFrame error, got {other:?}"),
    }

    let job = client.submit_accepted(&spec(50, 10)).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    assert_eq!(outcome.done.executed, 50);

    server.shutdown();
}

#[test]
fn queue_full_rejects_with_backoff_hint() {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let runner = GateRunner {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    };
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(runner), config).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Distinct trial counts keep the three jobs' content keys apart —
    // this test is about backpressure, not the in-flight dedup (which
    // has its own test).
    // Job A: the single worker pops it and blocks inside its chunk.
    let job_a = client.submit_accepted(&spec(1, 1)).expect("accept A");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker started job A");
    // Job B fills the one queue slot.
    let job_b = client.submit_accepted(&spec(2, 2)).expect("accept B");
    // Job C finds the queue full: typed rejection with a backoff hint.
    match client.submit(&spec(3, 3)).expect("frame") {
        Response::Rejected {
            error,
            retry_after_ms,
            ..
        } => {
            assert_eq!(error, ErrorKind::QueueFull);
            let hint = retry_after_ms.expect("QueueFull must hint a backoff");
            assert!(
                (50..=rskip_serve::BACKOFF_CAP_MS * 5 / 4).contains(&hint),
                "hint {hint} outside the documented bounds"
            );
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Release both chunks; A then B complete normally.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    let done_a = client.stream_job(job_a, |_| {}).expect("A finishes");
    assert_eq!(done_a.done.executed, 1);
    let done_b = client.stream_job(job_b, |_| {}).expect("B finishes");
    assert_eq!(done_b.done.executed, 2);

    server.shutdown();
}

#[test]
fn cancel_mid_flight_reports_partial_aggregate() {
    let runner = SlowRunner(Duration::from_millis(25));
    let server = Server::bind("127.0.0.1:0", Arc::new(runner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = client.submit_accepted(&spec(10_000, 5)).expect("accept");
    // Wait for the first progress frame, then cancel.
    let mut executed_at_cancel = match client.recv().expect("frame") {
        Response::Progress(p) if p.job == job => {
            client.cancel(job).expect("send cancel");
            p.executed
        }
        other => panic!("expected a progress frame first, got {other:?}"),
    };
    // Drain until the terminal Cancelled frame.
    loop {
        match client.recv().expect("frame") {
            Response::Progress(p) if p.job == job => executed_at_cancel = p.executed,
            Response::Cancelled {
                job: cancelled,
                executed,
                stats,
            } => {
                assert_eq!(cancelled, job);
                assert_eq!(executed, executed_at_cancel);
                assert!(executed > 0 && executed < 10_000);
                // The partial aggregate covers exactly the completed
                // chunks — chunk-boundary atomic, never mid-chunk.
                let reference = synthetic_chunk(&spec(10_000, 5), 0..executed);
                assert_eq!(stats, reference.stats);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    server.shutdown();
}

#[test]
fn shutdown_frame_drains_and_refuses_new_work() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");

    let mut first = Client::connect(server.addr()).expect("connect");
    first.shutdown_server().expect("send shutdown");

    // A fresh connection either fails outright (listener gone) or gets
    // a typed ShuttingDown rejection — never a hang or a crash.
    if let Ok(mut second) = Client::connect(server.addr()) {
        match second.submit(&spec(10, 5)) {
            Ok(Response::Rejected { error, .. }) => assert_eq!(error, ErrorKind::ShuttingDown),
            Ok(other) => panic!("expected ShuttingDown, got {other:?}"),
            Err(_) => {} // connection torn down mid-drain: acceptable
        }
    }

    server.shutdown();
}

#[test]
fn cached_resubmission_executes_zero_trials() {
    let runner = Arc::new(RecordingRunner::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), ServerConfig::default())
        .expect("bind loopback");
    let job_spec = spec(50, 10);

    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client.submit_accepted(&job_spec).expect("accept");
    let first = client.stream_job(job, |_| {}).expect("stream");
    assert!(!first.done.cached, "a fresh run is not a cache hit");
    assert_eq!(first.done.executed, 50);
    let chunks_after_first = runner.ranges.lock().unwrap().len();
    assert_eq!(chunks_after_first, 5);

    // Same spec from a new session: answered from the result cache —
    // an immediate Done, honestly flagged, with zero trials executed.
    let mut retry = Client::connect(server.addr()).expect("reconnect");
    let job2 = retry.submit_accepted(&job_spec).expect("accept cached");
    assert_ne!(job2, job, "cached answers still get fresh job ids");
    let second = retry.stream_job(job2, |_| {}).expect("stream cached");
    assert!(second.done.cached, "resubmission must be served from cache");
    assert!(second.progress.is_empty(), "no trials, no progress frames");
    assert_eq!(
        runner.ranges.lock().unwrap().len(),
        chunks_after_first,
        "a cache hit must execute zero chunks"
    );
    assert_eq!(second.done.executed, 50);
    assert_eq!(encode(&second.done.stats), encode(&first.done.stats));

    server.shutdown();
}

#[test]
fn duplicate_in_flight_is_refused_with_hint_and_mapped_for_v1() {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let runner = GateRunner {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    };
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(runner), config).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = client.submit_accepted(&spec(1, 1)).expect("accept");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker started the job");

    // This session declared protocol 2, so the duplicate gets the
    // typed v2 rejection plus a retry hint.
    match client.submit(&spec(1, 1)).expect("frame") {
        Response::Rejected {
            error,
            detail,
            retry_after_ms,
        } => {
            assert_eq!(error, ErrorKind::DuplicateInFlight);
            assert!(retry_after_ms.is_some(), "duplicates must hint a backoff");
            assert!(detail.contains(&format!("job {job}")), "detail: {detail}");
        }
        other => panic!("expected DuplicateInFlight, got {other:?}"),
    }

    // A session that never sent a client Hello is treated as a v1
    // peer: the same condition maps to the nearest v1 error kind.
    {
        let stream = TcpStream::connect(server.addr()).expect("raw connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("server hello");
        let mut frame = encode(&Request::Submit(spec(1, 1)));
        frame.push('\n');
        let mut writer = stream;
        writer.write_all(frame.as_bytes()).expect("send");
        line.clear();
        reader.read_line(&mut line).expect("response");
        match decode::<Response>(&line).expect("decode") {
            Response::Rejected {
                error,
                retry_after_ms,
                ..
            } => {
                assert_eq!(
                    error,
                    ErrorKind::QueueFull,
                    "v1 sessions must see a v1 error kind"
                );
                assert!(retry_after_ms.is_some());
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    release_tx.send(()).unwrap();
    let done = client.stream_job(job, |_| {}).expect("finishes");
    assert_eq!(done.done.executed, 1);

    server.shutdown();
}

/// Gate + range recording: deterministic suspension tests need both.
struct GateRecordingRunner {
    started: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
    ranges: Mutex<Vec<Range<u32>>>,
}

impl CampaignRunner for GateRecordingRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        validate_mock(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        self.started.lock().unwrap().send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        self.ranges.lock().unwrap().push(range.clone());
        synthetic_chunk(spec, range)
    }
}

#[test]
fn eof_suspends_progress_and_resilient_resubmit_resumes_it() {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let runner = Arc::new(GateRecordingRunner {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
        ranges: Mutex::new(Vec::new()),
    });
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config).expect("bind loopback");
    let job_spec = spec(4, 2);

    {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.submit_accepted(&job_spec).expect("accept");
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker entered the first chunk");
        // The client vanishes mid-chunk (scope drop = EOF, no Cancel).
    }
    // Let the reader thread observe the EOF and raise the suspend
    // flag, then release the gated first chunk.
    std::thread::sleep(Duration::from_millis(200));
    release_tx.send(()).unwrap();
    // The worker parks at the chunk boundary instead of starting the
    // second chunk: no new gate entry.
    assert!(
        started_rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a suspended job must not start another chunk"
    );

    // A retrying client resubmits the identical spec and attaches to
    // the parked progress: only the missing trials run.
    release_tx.send(()).unwrap(); // pre-release the one remaining chunk
    let mut frames = Vec::new();
    let policy = RetryPolicy {
        max_attempts: 50,
        base_ms: 5,
        cap_ms: 50,
    };
    let done = Client::submit_resilient(server.addr(), &job_spec, policy, |p| {
        frames.push(p.clone());
    })
    .expect("resilient resubmit");
    assert!(!done.cached, "the resumed run actually executed trials");
    assert_eq!(done.executed, 4);
    assert!(
        frames.iter().all(|p| p.executed > 2),
        "resume must not re-stream finished trials: {frames:?}"
    );
    assert_eq!(
        *runner.ranges.lock().unwrap(),
        vec![0..2, 2..4],
        "exactly the missing trials run — no overlap, no gap"
    );
    let one_shot = synthetic_chunk(&job_spec, 0..4);
    assert_eq!(encode(&done.stats), encode(&one_shot.stats));

    server.shutdown();
}

/// A resubmission that would resume parked progress but finds the queue
/// full must put that progress back: a later resubmission still runs
/// only the missing trials.
#[test]
fn queue_full_resubmission_keeps_parked_progress() {
    let (started_tx, started_rx) = channel();
    let (release_tx, release_rx) = channel();
    let runner = Arc::new(GateRecordingRunner {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
        ranges: Mutex::new(Vec::new()),
    });
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config).expect("bind loopback");
    let wait_started = || {
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker entered a chunk");
    };
    let job_spec = spec(4, 2);

    // Park the job after its first chunk: the client vanishes mid-chunk.
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.submit_accepted(&job_spec).expect("accept");
        wait_started();
    }
    std::thread::sleep(Duration::from_millis(200));
    release_tx.send(()).unwrap();
    assert!(
        started_rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a suspended job must not start another chunk"
    );

    // Fill the server: A occupies the one worker, B the one queue slot.
    // Distinct trial counts keep their content keys apart.
    let mut client = Client::connect(server.addr()).expect("connect");
    let job_a = client.submit_accepted(&spec(1, 1)).expect("accept A");
    wait_started();
    let job_b = client.submit_accepted(&spec(3, 3)).expect("accept B");

    // The resubmission that would resume the parked job is refused.
    match client.submit(&job_spec).expect("frame") {
        Response::Rejected { error, .. } => assert_eq!(error, ErrorKind::QueueFull),
        other => panic!("expected QueueFull, got {other:?}"),
    }

    release_tx.send(()).unwrap();
    assert_eq!(
        client.stream_job(job_a, |_| {}).expect("A").done.executed,
        1
    );
    wait_started();
    release_tx.send(()).unwrap();
    assert_eq!(
        client.stream_job(job_b, |_| {}).expect("B").done.executed,
        3
    );

    // A later resubmission still finds the parked progress. Release two
    // chunks up front: a resume needs one, and a rerun from trial 0
    // (progress lost) then fails the range check below instead of
    // blocking on the gate.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    let job = client.submit_accepted(&job_spec).expect("accept resume");
    let mut executed = Vec::new();
    let done = client
        .stream_job(job, |p| executed.push(p.executed))
        .expect("resumed job finishes");
    assert!(
        !done.done.cached,
        "the resumed run actually executed trials"
    );
    assert_eq!(done.done.executed, 4);
    assert!(
        executed.iter().all(|&e| e > 2),
        "resume must not re-stream finished trials: {executed:?}"
    );
    assert_eq!(
        *runner.ranges.lock().unwrap(),
        vec![0..2, 0..1, 0..3, 2..4],
        "the resumed job runs only its missing trials"
    );
    let one_shot = synthetic_chunk(&job_spec, 0..4);
    assert_eq!(encode(&done.done.stats), encode(&one_shot.stats));

    server.shutdown();
}

#[test]
fn drain_shutdown_journals_clean_completion() {
    let dir = temp_state_dir("drain");
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), config).expect("bind loopback");
    assert_eq!(server.recovery().results_cached, 0);

    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client.submit_accepted(&spec(50, 10)).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    client.shutdown_server().expect("send shutdown");
    drop(client);
    server.join();

    // The drained job is terminally journaled: a restart would seed
    // the cache and owe no work.
    let (_, recovery) = JobJournal::open(&dir).expect("reopen journal");
    assert!(
        recovery.resumable.is_empty(),
        "drain shutdown must leave no resumable jobs"
    );
    assert_eq!(recovery.completed.len(), 1);
    let done = recovery.completed.values().next().expect("one result");
    assert_eq!(encode(&done.stats), encode(&outcome.done.stats));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_resumes_suspended_job_and_caches_its_result() {
    let dir = temp_state_dir("restart");
    let job_spec = spec(4, 2);
    let one_shot = synthetic_chunk(&job_spec, 0..4);

    // Phase 1: a durable server runs half the job, the client
    // vanishes (EOF mid-chunk), and shutdown leaves the journal with
    // no terminal record for the job.
    {
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel();
        let runner = GateRunner {
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
        };
        let config = ServerConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::new(runner), config).expect("bind");
        {
            let mut client = Client::connect(server.addr()).expect("connect");
            client.submit_accepted(&job_spec).expect("accept");
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("worker entered the first chunk");
        }
        std::thread::sleep(Duration::from_millis(200));
        release_tx.send(()).unwrap();
        assert!(
            started_rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "a suspended job must not start another chunk"
        );
        server.shutdown();
    }
    // The journal holds the acceptance and one chunk checkpoint —
    // resumable at trial 2. (Opening is safe: the server is down.)
    {
        let (_, recovery) = JobJournal::open(&dir).expect("inspect journal");
        assert_eq!(recovery.resumable.len(), 1);
        assert_eq!(recovery.resumable[0].executed, 2);
        assert!(recovery.completed.is_empty());
    }

    // Phase 2: a restarted server replays the journal, finishes the
    // orphan with no client attached, and a resubmission is answered
    // from the cache — having executed only the missing trials.
    let runner = Arc::new(RecordingRunner::default());
    let config = ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config).expect("rebind");
    let recovery = server.recovery();
    assert_eq!(recovery.jobs_resumed, 1);
    assert_eq!(recovery.results_cached, 0);

    let mut saw_progress = false;
    let policy = RetryPolicy {
        max_attempts: 100,
        base_ms: 5,
        cap_ms: 50,
    };
    let done = Client::submit_resilient(server.addr(), &job_spec, policy, |_| {
        saw_progress = true;
    })
    .expect("resilient submit after restart");
    assert!(
        done.cached,
        "the replayed orphan's result answers from cache"
    );
    assert!(!saw_progress, "a cache hit streams no progress");
    assert_eq!(done.executed, 4);
    assert_eq!(encode(&done.stats), encode(&one_shot.stats));
    assert_eq!(
        *runner.ranges.lock().unwrap(),
        vec![2..4],
        "restart must resume at the next chunk boundary, not from zero"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn endless_request_line_is_refused_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");

    // 2 MiB with no newline, written from its own thread: the server
    // stops reading at its 1 MiB cap, so this write may end in a reset.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut flood = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..32 {
            if flood.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut frames = BufReader::new(stream).lines();
    let mut next = || {
        let line = frames
            .next()
            .expect("a frame before the connection closes")
            .expect("a frame within the read timeout");
        decode::<Response>(&line).expect("response frame")
    };
    assert!(matches!(next(), Response::Hello { .. }));
    match next() {
        Response::Error { error, detail } => {
            assert_eq!(error, ErrorKind::MalformedFrame);
            assert!(detail.contains("1048576"), "detail names the cap: {detail}");
        }
        other => panic!("expected MalformedFrame error, got {other:?}"),
    }
    writer.join().expect("writer thread");

    // A second connection is served as usual.
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = client.submit_accepted(&spec(50, 10)).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    assert_eq!(outcome.done.executed, 50);

    server.shutdown();
}

/// Submits `job_spec` on `client` and streams it to `Done`.
fn run_job(client: &mut Client, job_spec: &JobSpec) -> JobOutcome {
    let job = client.submit_accepted(job_spec).expect("accept");
    client.stream_job(job, |_| {}).expect("stream")
}

#[test]
fn small_frames_are_not_held_for_the_delayed_ack() {
    let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Distinct keys, three chunks each: every job streams Accepted,
    // three Progress frames and Done, and the runner takes no time, so
    // a job's latency is the framing alone.
    let mut millis: Vec<f64> = (0..32)
        .map(|i| {
            let trials = 30 + i;
            let submitted = Instant::now();
            let outcome = run_job(&mut client, &spec(trials, trials.div_ceil(3)));
            assert_eq!(outcome.progress.len(), 3);
            submitted.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    // Half of Linux's 40 ms minimum delayed ACK: a frame held for the
    // client's ACK puts every job above it.
    assert!(
        median < 20.0,
        "median submit-to-Done {median:.1} ms: frames wait for delayed ACKs"
    );
    server.shutdown();
}

#[test]
fn result_cache_evicts_the_oldest_result_first() {
    let runner = Arc::new(RecordingRunner::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    // One more distinct key than the cache holds, one chunk each.
    let cap = u32::try_from(RESULT_CACHE_CAP).expect("cap fits u32");
    let specs: Vec<JobSpec> = (1..=cap + 1).map(|t| spec(t, t)).collect();
    let firsts: Vec<JobOutcome> = specs.iter().map(|s| run_job(&mut client, s)).collect();
    assert!(firsts.iter().all(|o| !o.done.cached));
    let chunks = runner.ranges.lock().unwrap().len();

    // The newest result is still cached ...
    let newest = run_job(&mut client, &specs[specs.len() - 1]);
    assert!(newest.done.cached, "the newest result must stay cached");
    assert_eq!(runner.ranges.lock().unwrap().len(), chunks);

    // ... and the oldest was evicted: it re-executes, honestly flagged,
    // to the same aggregate.
    let oldest = run_job(&mut client, &specs[0]);
    assert!(!oldest.done.cached, "an evicted key re-executes");
    assert_eq!(runner.ranges.lock().unwrap()[chunks..].to_vec(), vec![0..1]);
    assert_eq!(encode(&oldest.done.stats), encode(&firsts[0].done.stats));
    assert_eq!(oldest.done.executed, firsts[0].done.executed);
    server.shutdown();
}

#[test]
fn restart_seeds_only_the_newest_results() {
    let dir = temp_state_dir("cache-cap");
    let config = || ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let cap = u32::try_from(RESULT_CACHE_CAP).expect("cap fits u32");
    let specs: Vec<JobSpec> = (1..=cap + 2).map(|t| spec(t, t)).collect();
    let firsts: Vec<JobOutcome> = {
        let server = Server::bind("127.0.0.1:0", Arc::new(MockRunner), config()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let firsts = specs.iter().map(|s| run_job(&mut client, s)).collect();
        server.shutdown();
        firsts
    };
    let (_, journaled) = JobJournal::open(&dir).expect("inspect journal");
    assert_eq!(journaled.completed.len(), specs.len());

    let runner = Arc::new(RecordingRunner::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config()).expect("rebind");
    assert_eq!(server.recovery().results_cached, RESULT_CACHE_CAP);
    let mut client = Client::connect(server.addr()).expect("connect");
    // The newest cap results answer from the seeded cache ...
    for i in [2, specs.len() - 1] {
        let again = run_job(&mut client, &specs[i]);
        assert!(again.done.cached, "job {i} is among the newest");
        assert_eq!(encode(&again.done.stats), encode(&firsts[i].done.stats));
    }
    assert!(runner.ranges.lock().unwrap().is_empty());
    // ... and the two oldest re-execute.
    for i in [0, 1] {
        let again = run_job(&mut client, &specs[i]);
        assert!(!again.done.cached, "job {i} was not seeded");
        assert_eq!(encode(&again.done.stats), encode(&firsts[i].done.stats));
    }
    assert_eq!(*runner.ranges.lock().unwrap(), vec![0..1, 0..2]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
