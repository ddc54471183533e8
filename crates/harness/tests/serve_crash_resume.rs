//! Crash-safety acceptance tests for the durable campaign service,
//! driven end to end through the real `rskip-eval serve` binary: a
//! server process is killed mid-campaign — via the
//! `RSKIP_SERVE_CRASH_AFTER_CHUNKS` abort hook at several chunk
//! boundaries and chunk sizes (including a job still waiting in the
//! queue), and once via a genuine `SIGKILL` — then restarted against
//! the same state directory. The restarted server must resume each
//! unfinished job at its next chunk boundary and produce a final
//! aggregate **byte-identical** to the one-shot CLI driver, and a
//! resubmission of the finished job must be answered from the result
//! cache with zero trials executed.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use rskip_exec::FaultModel;
use rskip_harness::experiment::{run_campaign_cell_model, SchemeVariant};
use rskip_harness::{Engine, EvalOptions};
use rskip_serve::{encode, Client, JobSpec, Response, RetryPolicy};
use rskip_workloads::SizeProfile;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rskip-crash-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The one-shot CLI reference for a cell, at exactly the options the
/// `serve` subcommand uses for `--size tiny`.
fn cli_reference(scheme: &str, runs: u32) -> rskip_core::stats::CampaignStats {
    let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
    let setup = engine.setup("conv1d");
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let variant = SchemeVariant::parse(scheme).expect("known scheme");
    run_campaign_cell_model(
        &setup,
        variant,
        FaultModel::SingleBitSeu,
        &input,
        &golden,
        runs,
    )
}

/// Spawns `rskip-eval serve --state-dir <dir>` on an ephemeral port,
/// with the crash hook armed when `crash_after` is set, and waits for
/// the listening line. Stderr goes to a file in the state dir so the
/// child can never block on a full pipe.
#[allow(clippy::zombie_processes)] // every caller waits on the child
fn spawn_server(state_dir: &Path, crash_after: Option<u64>) -> (Child, SocketAddr) {
    let log_path = state_dir.join(format!(
        "server-{}.log",
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let log = std::fs::File::create(&log_path).expect("create server log");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rskip-eval"));
    cmd.args([
        "serve",
        "--size",
        "tiny",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue",
        "8",
        "--state-dir",
    ])
    .arg(state_dir)
    .stdout(Stdio::null())
    .stderr(log)
    .env_remove("RSKIP_SERVE_CRASH_AFTER_CHUNKS");
    if let Some(n) = crash_after {
        cmd.env("RSKIP_SERVE_CRASH_AFTER_CHUNKS", n.to_string());
    }
    let child = cmd.spawn().expect("spawn rskip-eval serve");

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(&log_path) {
            if let Some(rest) = text.split("listening on ").nth(1) {
                // Only parse once the line is complete: the poll can
                // observe a partially flushed address token.
                if let Some(end) = rest.find(char::is_whitespace) {
                    let addr: SocketAddr = rest[..end].parse().expect("parse listen addr");
                    return (child, addr);
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never reported a listen address; log: {:?}",
            std::fs::read_to_string(&log_path)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spec_for(scheme: &str, trials: u32, chunk: u32) -> JobSpec {
    let mut spec = JobSpec::new("conv1d", scheme, "seu", trials);
    spec.chunk = chunk;
    spec
}

/// Generous retry budget: the restarted server must finish replaying
/// and re-running the orphaned job (including benchmark preparation)
/// while we knock.
fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 500,
        base_ms: 100,
        cap_ms: 1_000,
    }
}

/// Drives one crash × restart cycle for `spec` and asserts the
/// acceptance criteria: the resumed aggregate is byte-identical to
/// `reference`, and the resubmission is a cache hit with no trials.
fn assert_crash_resume_cycle(state_dir: &Path, spec: &JobSpec, reference_json: &str) {
    // Restarted server: resumes the journaled job with no client.
    let (mut child, addr) = spawn_server(state_dir, None);

    let mut saw_progress = false;
    let done = Client::submit_resilient(addr, spec, patient_policy(), |_| saw_progress = true)
        .expect("resilient resubmission after restart");
    assert_eq!(done.executed, spec.trials);
    assert!(
        done.cached,
        "resubmission must be answered from the journal-seeded cache"
    );
    assert!(!saw_progress, "a cache hit must stream no progress frames");
    assert_eq!(
        encode(&done.stats),
        reference_json,
        "resumed aggregate must be byte-identical to the one-shot CLI driver"
    );

    // Belt and braces: a second resubmission over a plain client is
    // also cached and frame-exact.
    let mut client = Client::connect(addr).expect("connect for recheck");
    let job = client.submit_accepted(spec).expect("recheck accepted");
    let outcome = client.stream_job(job, |_| {}).expect("recheck done");
    assert!(outcome.done.cached);
    assert!(outcome.progress.is_empty());
    assert_eq!(encode(&outcome.done.stats), reference_json);

    client.shutdown_server().expect("request shutdown");
    drop(client);
    let status = child.wait().expect("server exits after shutdown");
    assert!(status.success(), "clean shutdown should exit 0: {status:?}");
}

#[test]
fn abort_at_chunk_boundaries_resumes_byte_identically() {
    let reference = encode(&cli_reference("ar20", 100));
    // (chunk size, crash after N journaled chunks): first chunk
    // boundary, a later boundary, and a chunk size above the trial
    // count (single giant chunk — the crash lands between the final
    // checkpoint and the Done record).
    for (chunk, crash_after) in [(33u32, 1u64), (33, 2), (250, 1)] {
        let dir = temp_dir(&format!("abort-{chunk}-{crash_after}"));
        let spec = spec_for("ar20", 100, chunk);

        let (mut child, addr) = spawn_server(&dir, Some(crash_after));
        let mut client = Client::connect(addr).expect("connect");
        let job = client.submit_accepted(&spec).expect("accepted");
        let err = client
            .stream_job(job, |_| {})
            .expect_err("the armed server must die mid-stream");
        assert!(
            err.kind() != std::io::ErrorKind::InvalidData,
            "expected a transport failure, got protocol error: {err}"
        );
        let status = child.wait().expect("crashed server exits");
        assert!(!status.success(), "abort() must not exit cleanly");

        assert_crash_resume_cycle(&dir, &spec, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn abort_with_job_still_queued_resumes_both_jobs() {
    let dir = temp_dir("mid-queue");
    // Chunks of 40 trials take ~10 ms each on this runner, so job B's
    // Accepted record is journaled long before the crash counter (two
    // chunks of A) fires.
    let spec_a = spec_for("ar20", 100, 40);
    let spec_b = spec_for("unsafe", 100, 40);
    let reference_a = encode(&cli_reference("ar20", 100));
    let reference_b = encode(&cli_reference("unsafe", 100));

    // One worker: job A runs, job B waits in the queue; the crash
    // takes both down with B at zero executed trials.
    let (mut child, addr) = spawn_server(&dir, Some(2));
    let mut client = Client::connect(addr).expect("connect");
    client.submit_accepted(&spec_a).expect("accept A");
    client.submit_accepted(&spec_b).expect("accept B");
    while client.recv().is_ok() {} // drain until the server aborts
    let status = child.wait().expect("crashed server exits");
    assert!(!status.success());

    assert_crash_resume_cycle(&dir, &spec_a, &reference_a);
    // The queued job was journaled too: a second restart cycle (the
    // first one's shutdown drained it to completion) answers it from
    // the cache, byte-identical.
    assert_crash_resume_cycle(&dir, &spec_b, &reference_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_campaign_resumes_byte_identically() {
    let dir = temp_dir("sigkill");
    // A deliberately long campaign (~0.5 s at Tiny throughput) so the
    // kill lands mid-flight rather than racing a finished job.
    let spec = spec_for("ar20", 2_000, 50);
    let reference = encode(&cli_reference("ar20", 2_000));

    let (mut child, addr) = spawn_server(&dir, None);
    let mut client = Client::connect(addr).expect("connect");
    let job = client.submit_accepted(&spec).expect("accepted");
    // Wait for two journaled chunks, then kill -9 the server.
    let mut progress_seen = 0u32;
    loop {
        match client.recv() {
            Ok(Response::Progress(p)) if p.job == job => {
                progress_seen += 1;
                if progress_seen == 2 {
                    child.kill().expect("SIGKILL the server");
                }
            }
            Ok(Response::Done(_)) => panic!("job finished before the kill landed"),
            Ok(_) => {}
            Err(_) => break, // connection died with the server
        }
    }
    assert!(progress_seen >= 2, "need at least two chunks before kill");
    let status = child.wait().expect("killed server exits");
    assert!(!status.success(), "SIGKILL must not exit cleanly");

    assert_crash_resume_cycle(&dir, &spec, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}
