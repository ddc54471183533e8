//! The serve-mixed workload: the campaign service under a closed loop.
//!
//! An in-process `Server` with two workers and a fresh state directory
//! (every chunk is journaled and fsynced) serves two client connections.
//! Each client submits a job, streams it to `Done`, then submits the
//! next. Jobs are kde and conv1d AR20 `seu` at `Tiny`, three chunks
//! each, spread over eight tenants. Every fresh job has a (tenant,
//! bench, trial count) no earlier job had, so its content key is new;
//! every fourth submission of a client repeats that client's latest
//! fresh job exactly and must be answered from the result cache.
//!
//! The clients speak the wire protocol over their own sockets, with a
//! read timeout, and take a job's frames in any order. A timing
//! `CampaignRunner` wraps `HarnessRunner`; it records each `run_chunk`
//! only while tracing is on.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rskip_exec::FaultModel;
use rskip_harness::campaign::CampaignStats;
use rskip_harness::experiment::run_campaign_cell_model;
use rskip_harness::{Engine, EvalOptions, HarnessRunner, SchemeVariant};
use rskip_passes::Scheme;
use rskip_serve::{
    decode, encode, CampaignRunner, ChunkOutput, ErrorKind, JobSpec, Request, Response, Server,
    ServerConfig, PROTOCOL_VERSION,
};
use rskip_workloads::SizeProfile;

use crate::layers::SetupLayers;
use crate::report::{median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::{mix_seed, Args};

const BENCHES: [&str; 2] = ["kde", "conv1d"];
const SCHEME: &str = "ar20";
const MODEL: &str = "seu";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Tenants multiply the fresh keys; a job's result does not depend on
/// its tenant, so one reference serves all of them.
const TENANTS: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
/// Trial counts of fresh jobs.
const FRESH_TRIALS: Range<u32> = 12..140;
const CHUNKS_PER_JOB: u32 = 3;
/// Warm-up jobs use a trial count below every fresh one.
const WARMUP_TRIALS: u32 = 8;
/// Every `REPEAT_EVERY`-th submission of a client is a repeat.
const REPEAT_EVERY: u64 = 4;

fn spec(tenant: &str, bench: &str, trials: u32) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        chunk: trials.div_ceil(CHUNKS_PER_JOB),
        ..JobSpec::new(bench, SCHEME, MODEL, trials)
    }
}

/// One `run_chunk` call as the timing runner saw it.
struct ChunkRec {
    tenant: String,
    bench: String,
    trials: u32,
    end: u32,
    start: Instant,
    done: Instant,
}

/// Delegates to [`HarnessRunner`], recording chunk times while `on`.
struct TimingRunner {
    inner: HarnessRunner,
    on: AtomicBool,
    chunks: Mutex<Vec<ChunkRec>>,
}

impl CampaignRunner for TimingRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        self.inner.validate(spec)
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.run_chunk(spec, range);
        }
        let start = Instant::now();
        let end = range.end;
        let out = self.inner.run_chunk(spec, range);
        let done = Instant::now();
        self.chunks.lock().expect("chunk log lock").push(ChunkRec {
            tenant: spec.tenant.clone(),
            bench: spec.bench.clone(),
            trials: spec.trials,
            end,
            start,
            done,
        });
        out
    }

    fn fingerprint(&self, spec: &JobSpec) -> u64 {
        self.inner.fingerprint(spec)
    }
}

/// One submission as a client saw it.
struct JobLog {
    spec: JobSpec,
    repeat: bool,
    submitted: Instant,
    /// Job id and arrival of `Accepted`.
    accepted: Option<(u64, Instant)>,
    /// `(executed, arrival, chunk_nanos)` per progress frame.
    progress: Vec<(u32, Instant, u64)>,
    done: Option<(Instant, bool, CampaignStats)>,
    frames: u64,
}

/// The fresh jobs in a seeded order, and the in-process reference
/// aggregate of every (bench, trial count) the jobs use.
struct Plan {
    fresh: Vec<JobSpec>,
    refs: BTreeMap<(String, u32), CampaignStats>,
    next: AtomicUsize,
}

impl Plan {
    fn new(options: &EvalOptions, seed: u64) -> Plan {
        let mut fresh = Vec::new();
        for tenant in TENANTS {
            for bench in BENCHES {
                fresh.extend(FRESH_TRIALS.map(|n| spec(tenant, bench, n)));
            }
        }
        let mut state = seed;
        for i in (1..fresh.len()).rev() {
            state = mix_seed(state);
            fresh.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let engine = Engine::new(options.clone());
        let mut refs = BTreeMap::new();
        for bench in BENCHES {
            let setup = engine.setup(bench);
            let input = setup.test_input();
            let golden = setup.bench.golden(setup.options.size, &input);
            let variant = SchemeVariant::parse(SCHEME).expect("known scheme");
            let model = FaultModel::parse(MODEL).expect("known fault model");
            for n in FRESH_TRIALS.chain([WARMUP_TRIALS]) {
                let stats = run_campaign_cell_model(&setup, variant, model, &input, &golden, n);
                refs.insert((bench.to_string(), n), stats);
            }
        }
        Plan {
            fresh,
            refs,
            next: AtomicUsize::new(0),
        }
    }

    fn expected(&self, spec: &JobSpec) -> Option<&CampaignStats> {
        self.refs.get(&(spec.bench.clone(), spec.trials))
    }
}

/// How long a client waits for a frame before it counts the job as
/// failed.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection. The benchmark speaks the wire protocol itself
/// so a lost frame ends in a read timeout, not a hang.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects, consumes the server's `Hello` and declares this
    /// client's protocol version, as `Client::connect` does.
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        let mut conn = Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        };
        match conn.recv()? {
            Response::Hello { protocol, .. } if protocol >= 2 => {
                conn.send(&Request::Hello {
                    protocol: PROTOCOL_VERSION,
                })?;
            }
            Response::Hello { .. } => {}
            other => return Err(bad_frame(format!("expected Hello, got {other:?}"))),
        }
        Ok(conn)
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut line = encode(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        decode(&line).map_err(bad_frame)
    }

    /// Submits `spec` and reads its frames until both `Accepted` and
    /// `Done` have come. A connection has one job in flight, so every
    /// frame is that job's, whatever order they come in; their job ids
    /// must agree.
    fn run_job(&mut self, spec: &JobSpec, repeat: bool) -> io::Result<JobLog> {
        let mut log = JobLog {
            spec: spec.clone(),
            repeat,
            submitted: Instant::now(),
            accepted: None,
            progress: Vec::new(),
            done: None,
            frames: 0,
        };
        self.send(&Request::Submit(spec.clone()))?;
        let mut ids = Vec::new();
        while log.accepted.is_none() || log.done.is_none() {
            let frame = self.recv()?;
            let now = Instant::now();
            log.frames += 1;
            match frame {
                Response::Accepted { job, .. } => {
                    ids.push(job);
                    log.accepted = Some((job, now));
                }
                Response::Progress(p) => {
                    ids.push(p.job);
                    log.progress.push((p.executed, now, p.chunk_nanos));
                }
                Response::Done(d) => {
                    ids.push(d.job);
                    log.done = Some((now, d.cached, d.stats));
                }
                other => return Err(bad_frame(format!("job answered with {other:?}"))),
            }
        }
        if ids.iter().any(|&id| id != ids[0]) {
            return Err(bad_frame(format!(
                "frames of one job carry job ids {ids:?}"
            )));
        }
        Ok(log)
    }
}

fn bad_frame(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// A server with a fresh state directory, warmed with one job per
/// (tenant, bench). Returns the server, its runner, the warm-up jobs
/// and the bind-plus-warm-up time.
fn start(
    options: &EvalOptions,
    dir: &Path,
) -> io::Result<(Server, Arc<TimingRunner>, Vec<JobLog>, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let runner = Arc::new(TimingRunner {
        inner: HarnessRunner::new(options.clone(), None),
        on: AtomicBool::new(false),
        chunks: Mutex::new(Vec::new()),
    });
    let config = ServerConfig {
        workers: WORKERS,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config)?;
    let warm = (|| {
        let mut conn = Conn::connect(server.addr())?;
        let mut logs = Vec::new();
        for tenant in TENANTS {
            for bench in BENCHES {
                logs.push(conn.run_job(&spec(tenant, bench, WARMUP_TRIALS), false)?);
            }
        }
        Ok(logs)
    })();
    match warm {
        Ok(logs) => Ok((server, runner, logs, t.elapsed().as_secs_f64())),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

fn options(seed: u64) -> EvalOptions {
    EvalOptions {
        test_seed: 2000 + seed % 1_000_000,
        ..EvalOptions::at_size(SizeProfile::Tiny)
    }
}

/// Times one set-up in a fresh process; see `crate::setup::Setups`.
pub fn setup_only(args: &Args) -> Result<f64, String> {
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("serve-setup-{}", std::process::id()));
    let secs = start(&options(args.seed), &dir).map(|(server, _, _, secs)| {
        server.shutdown();
        secs
    });
    let _ = std::fs::remove_dir_all(&dir);
    secs.map_err(|e| e.to_string())
}

/// One client's closed loop until `deadline` or the plan runs out.
fn client_loop(addr: SocketAddr, plan: &Plan, deadline: Instant) -> io::Result<Vec<JobLog>> {
    let mut conn = Conn::connect(addr)?;
    let mut logs = Vec::new();
    let mut latest_fresh: Option<JobSpec> = None;
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let (spec, repeat) = match (&latest_fresh, n.is_multiple_of(REPEAT_EVERY)) {
            (Some(spec), true) => (spec.clone(), true),
            _ => {
                let i = plan.next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = plan.fresh.get(i) else { break };
                latest_fresh = Some(spec.clone());
                (spec.clone(), false)
            }
        };
        logs.push(conn.run_job(&spec, repeat)?);
    }
    Ok(logs)
}

/// Runs every client until `deadline`; returns the logs and the window
/// from start to the last `Done`.
fn drive(addr: SocketAddr, plan: &Plan, seconds: f64, out: &mut Outcome) -> (Vec<JobLog>, f64) {
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<io::Result<Vec<JobLog>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client_loop(addr, plan, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut logs = Vec::new();
    for r in results {
        match r {
            Ok(l) => logs.extend(l),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("client connection failed: {e}"));
            }
        }
    }
    if plan.next.load(Ordering::Relaxed) >= plan.fresh.len() {
        println!("note: the fresh-job plan ran out before the window ended");
    }
    let last = logs
        .iter()
        .filter_map(|l| l.done.map(|d| d.0))
        .max()
        .unwrap_or(started);
    (logs, last.duration_since(started).as_secs_f64())
}

/// Checks every job against its reference and counts the repeats.
fn check(logs: &[JobLog], plan: &Plan, out: &mut Outcome) {
    let mut repeats = 0;
    let mut cached = 0;
    for log in logs {
        out.attempted += 1;
        let Some((_, was_cached, stats)) = log.done else {
            out.fail(format!(
                "{} {}: no Done frame",
                log.spec.bench, log.spec.trials
            ));
            continue;
        };
        repeats += u64::from(log.repeat);
        cached += u64::from(was_cached);
        if plan.expected(&log.spec) != Some(&stats) || was_cached != log.repeat {
            out.fail(format!(
                "{} {} {}: Done (cached {was_cached}) differs from the in-process campaign",
                log.spec.tenant, log.spec.bench, log.spec.trials
            ));
        }
    }
    out.check(cached == repeats, || {
        format!("{cached} cached Done frames for {repeats} repeats")
    });
    println!(
        "jobs {} · repeats {repeats} · cached Done frames {cached}",
        logs.len()
    );
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e.duration_since(s).as_secs_f64();
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = current {
        total += e.duration_since(s).as_secs_f64();
    }
    total
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Joins client logs with the runner's chunk records into the serve
/// layer metrics and spans.
fn report_layers(
    logs: &[JobLog],
    chunks: &[ChunkRec],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> f64 {
    let (mut admit, mut queue_wait, mut chunk_exec, mut chunk_gap, mut done_gap, mut cached_done) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut covered, mut total) = (0.0, 0.0);
    let mut frames = 0;
    for log in logs {
        frames += log.frames;
        let (Some((request, acc)), Some((done, was_cached, _))) = (log.accepted, log.done) else {
            continue;
        };
        let job = tracer.span(
            "job",
            (log.submitted, done),
            None,
            request,
            vec![("trials", f64::from(log.spec.trials))],
        );
        let mut parts = vec![(log.submitted, acc)];
        tracer.span(
            "admit",
            (log.submitted, acc),
            Some(job),
            request,
            Vec::new(),
        );
        admit.push(ms(log.submitted, acc));
        if was_cached {
            cached_done.push(ms(acc, done));
            tracer.span(
                "cached_accept_to_done",
                (acc, done),
                Some(job),
                request,
                Vec::new(),
            );
            parts.push((acc, done));
        } else {
            let mine: Vec<&ChunkRec> = chunks
                .iter()
                .filter(|c| {
                    c.tenant == log.spec.tenant
                        && c.bench == log.spec.bench
                        && c.trials == log.spec.trials
                })
                .collect();
            if let Some(first) = mine.iter().map(|c| c.start).min() {
                queue_wait.push(ms(acc, first));
                tracer.span("queue_wait", (acc, first), Some(job), request, Vec::new());
                parts.push((acc, first));
            }
            for c in &mine {
                chunk_exec.push(ms(c.start, c.done));
                let id = tracer.span(
                    "chunk",
                    (c.start, c.done),
                    Some(job),
                    request,
                    vec![("end", f64::from(c.end))],
                );
                parts.push((c.start, c.done));
                if let Some(&(_, arrived, _)) = log.progress.iter().find(|p| p.0 == c.end) {
                    chunk_gap.push(ms(c.done, arrived));
                    tracer.span(
                        "chunk_gap",
                        (c.done, arrived),
                        Some(id),
                        request,
                        Vec::new(),
                    );
                    parts.push((c.done, arrived));
                }
            }
            if let Some(&(_, last, _)) = log.progress.last() {
                done_gap.push(ms(last, done));
                tracer.span("done_gap", (last, done), Some(job), request, Vec::new());
                parts.push((last, done));
            }
        }
        covered += union_len(parts);
        total += done.duration_since(log.submitted).as_secs_f64();
    }
    out.metric("serve.admit_ms", median(&admit), "ms");
    out.metric("serve.queue_wait_ms", median(&queue_wait), "ms");
    out.metric("serve.chunk_exec_ms", median(&chunk_exec), "ms");
    out.metric("serve.chunk_gap_ms", median(&chunk_gap), "ms");
    out.metric("serve.done_gap_ms", median(&done_gap), "ms");
    out.metric("serve.cached_accept_to_done_ms", median(&cached_done), "ms");
    let n = logs.len() as f64;
    out.metric(
        "serve.cache_hit_frac",
        ratio(cached_done.len() as f64, n),
        "ratio",
    );
    out.metric("serve.frames_per_job", ratio(frames as f64, n), "count");
    println!(
        "serve layers (median ms): admit {:.3} · queue_wait {:.3} · chunk_exec {:.3} · chunk_gap {:.3} · done_gap {:.3} · cached accept→done {:.3}",
        median(&admit),
        median(&queue_wait),
        median(&chunk_exec),
        median(&chunk_gap),
        median(&done_gap),
        median(&cached_done)
    );
    ratio(covered, total)
}

/// Executed trials per second over `window`.
fn trials_per_s(logs: &[JobLog], window: f64) -> f64 {
    let executed: u64 = logs
        .iter()
        .filter(|l| matches!(l.done, Some((_, false, _))))
        .map(|l| u64::from(l.spec.trials))
        .sum();
    ratio(executed as f64, window)
}

/// Runs the serve-mixed workload and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    let options = options(args.seed);
    let mut out = Outcome::default();
    let state = PathBuf::from(crate::OUT_DIR).join(format!("serve-state-{}", std::process::id()));

    if args.trace {
        let benches: Vec<(&str, &[Scheme])> =
            BENCHES.iter().map(|&b| (b, &[Scheme::RSkip][..])).collect();
        SetupLayers::measure(&benches, &options).report(&mut out);
    }

    // In-process references, computed before any timing.
    let plan = Plan::new(&options, args.seed);

    let (server, runner) = match start(&options, &state) {
        Ok((server, runner, warm, _)) => {
            for log in &warm {
                out.check(
                    matches!(log.done, Some((_, false, s)) if plan.expected(&log.spec) == Some(&s)),
                    || {
                        format!(
                            "warm-up {} {}: Done differs from the in-process campaign",
                            log.spec.tenant, log.spec.bench
                        )
                    },
                );
            }
            (server, runner)
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("server set-up failed: {e}"));
            let _ = std::fs::remove_dir_all(&state);
            return out;
        }
    };
    let addr = server.addr();

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (logs, elapsed) = drive(addr, &plan, window, &mut out);
    check(&logs, &plan, &mut out);
    let untraced_tps = trials_per_s(&logs, elapsed);

    if args.trace {
        let mut tracer = Tracer::new();
        runner.on.store(true, Ordering::Relaxed);
        let (traced, traced_elapsed) = drive(addr, &plan, args.seconds / 2.0, &mut out);
        runner.on.store(false, Ordering::Relaxed);
        check(&traced, &plan, &mut out);
        let chunks = std::mem::take(&mut *runner.chunks.lock().expect("chunk log lock"));
        let coverage = report_layers(&traced, &chunks, &mut out, &mut tracer);
        out.metric("trace.coverage", coverage, "ratio");
        out.metric(
            "trace.overhead_frac",
            1.0 - ratio(trials_per_s(&traced, traced_elapsed), untraced_tps),
            "ratio",
        );
        server.shutdown();
        out.metric("store.journal_bytes", dir_bytes(&state) as f64, "bytes");
        let replay = Server::bind(
            "127.0.0.1:0",
            Arc::new(HarnessRunner::new(options.clone(), None)),
            ServerConfig {
                workers: WORKERS,
                state_dir: Some(state.clone()),
                ..ServerConfig::default()
            },
        );
        match replay {
            Ok(s) => {
                out.metric(
                    "store.replay_ms",
                    s.recovery().replay_nanos as f64 / 1e6,
                    "ms",
                );
                s.shutdown();
            }
            Err(e) => out.fail(format!("rebinding the state directory failed: {e}")),
        }
        let path = Path::new(crate::OUT_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    } else {
        server.shutdown();
        let job_ms: Vec<f64> = logs
            .iter()
            .filter_map(|l| l.done.map(|(t, _, _)| ms(l.submitted, t)))
            .collect();
        let cached_ms: Vec<f64> = logs
            .iter()
            .filter_map(|l| match l.done {
                Some((t, true, _)) => Some(ms(l.submitted, t)),
                _ => None,
            })
            .collect();
        // A trial's latency here is what a client waits per trial: a
        // fresh job's submit → `Done` time over its trials. The chunks'
        // own run times are too short to time steadily on two cores
        // shared with the clients; see `serve.chunk_exec_ms`.
        let trial_us: Vec<f64> = logs
            .iter()
            .filter_map(|l| match l.done {
                Some((t, false, _)) => Some(ms(l.submitted, t) * 1e3 / f64::from(l.spec.trials)),
                _ => None,
            })
            .collect();
        out.metric("trials_per_s", untraced_tps, "trials/s");
        out.metric("trial_p50_us", median(&trial_us), "us");
        out.metric("trial_p99_us", percentile(&trial_us, 0.99), "us");
        out.metric("jobs_per_s", ratio(job_ms.len() as f64, elapsed), "jobs/s");
        out.metric("job_p50_ms", median(&job_ms), "ms");
        out.metric("job_p95_ms", percentile(&job_ms, 0.95), "ms");
        out.metric("cached_job_p50_ms", median(&cached_ms), "ms");
        println!(
            "samples: {} jobs, {} cached jobs, {} executed jobs",
            job_ms.len(),
            cached_ms.len(),
            trial_us.len(),
        );
    }
    let _ = std::fs::remove_dir_all(&state);
    out
}
