//! The campaign server: accept loop, per-connection sessions, the
//! worker pool — and, with a state directory, crash-safe durability.
//!
//! Thread structure (all `std::thread`, no runtime):
//!
//! ```text
//! accept loop ──► per-connection reader ──► bounded JobQueue ──► worker pool
//!                        │                                          │
//!                        └───────► per-connection writer ◄──────────┘
//!                                   (mpsc, owns the socket)
//! ```
//!
//! Each connection gets a **reader** thread (parses request frames,
//! validates, admits into the queue) and a **writer** thread (the only
//! thing that writes the socket, fed by an `mpsc` channel — so a
//! worker streaming job A's chunks and the reader rejecting job B
//! never interleave bytes mid-frame). Workers are shared across
//! connections and pop jobs FIFO; *within* a job, chunks run
//! sequentially on one worker, which is what makes the early-stopping
//! decision point — and therefore the exact executed-trial set —
//! deterministic for a fixed chunk size. Parallelism comes from the
//! pool multiplexing jobs, and from each chunk's trials fanning out
//! over the harness's deterministic `parallel_map` below us.
//!
//! **Durability.** With [`ServerConfig::state_dir`] set, every job's
//! identity, spec, per-chunk progress and terminal outcome is fsynced
//! to a per-tenant [`JobJournal`] before the next chunk runs, and a
//! restarted server replays the journals: finished jobs seed the
//! result cache (the newest [`RESULT_CACHE_CAP`] of them), unfinished
//! ones re-enter the queue at their next chunk boundary. Because each
//! trial is a pure function of `(campaign seed, trial index)` and the
//! aggregate is a commutative monoid, the resumed job's final
//! aggregate is byte-identical to an uninterrupted run — `SIGKILL` at
//! any chunk boundary included (the crash-injection hook
//! `RSKIP_SERVE_CRASH_AFTER_CHUNKS=N`, which aborts the process after
//! the N-th journaled chunk, exists to prove exactly that).
//!
//! **Job identity.** Every non-`want_outcomes` job gets a content-hash
//! key ([`job_key`]) over the runner's fingerprint (bench module
//! content) and the result-relevant spec fields. The key drives three
//! behaviors: completed results are cached (a resubmission streams a
//! `Done` with `cached: true` and executes zero trials; the cache keeps
//! the [`RESULT_CACHE_CAP`] newest results, and an evicted key simply
//! re-executes), identical in-flight submissions are refused with
//! [`ErrorKind::DuplicateInFlight`] + a retry hint (so a reconnecting
//! client never double-runs a campaign), and a job whose connection
//! died mid-run parks its progress under the key — the retried
//! submission resumes from the last completed chunk instead of
//! starting over.
//!
//! Terminal semantics are deliberately asymmetric: an explicit
//! `Cancel` frame is journaled terminal (a restart must not resurrect
//! cancelled work), while a client EOF merely *suspends* — the journal
//! keeps the job resumable and the in-memory progress survives for the
//! retry. Cancellation and suspension are both chunk-atomic: flags are
//! checked between chunks, never mid-chunk.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rskip_core::digest::Fnv1a64;
use rskip_core::stats::CampaignStats;

use crate::journal::{JobJournal, JournalEvent};
use crate::protocol::{
    decode, encode, valid_tenant, DoneFrame, ErrorKind, JobSpec, ProgressFrame, Request, Response,
    PROTOCOL_VERSION,
};
use crate::queue::{JobQueue, PushError};
use crate::runner::CampaignRunner;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads popping the job queue.
    pub workers: usize,
    /// Bounded queue capacity (jobs waiting beyond the ones in flight).
    pub queue_capacity: usize,
    /// Chunk size used when a job submits `chunk: 0`.
    pub default_chunk: u32,
    /// Per-job trial cap; requests above it are rejected as oversized.
    pub max_trials: u32,
    /// Directory for the per-tenant job journals. `None` disables
    /// durability (the result cache and resume-on-reconnect still work
    /// in memory; nothing survives the process).
    pub state_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            default_chunk: 64,
            max_trials: 1_000_000,
            state_dir: None,
        }
    }
}

/// What a restarted server recovered from its state directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Unfinished jobs re-enqueued at their next chunk boundary.
    pub jobs_resumed: usize,
    /// Completed results restored into the cache: the newest
    /// [`RESULT_CACHE_CAP`] by job id, however many the journals hold.
    pub results_cached: usize,
    /// Wall nanoseconds spent replaying journals (the resume overhead;
    /// perfbench serve-mixed reports it as `store.replay_ms`).
    pub replay_nanos: u64,
    /// Torn-tail bytes truncated (crash-mid-append residue).
    pub truncated_bytes: u64,
    /// Intact-but-undecodable records skipped.
    pub skipped_records: u64,
}

/// Ceiling for the queue-full backoff hint, before jitter.
pub const BACKOFF_CAP_MS: u64 = 2_000;

/// Completed results the server keeps for cache answers. Past it the
/// oldest result is evicted first; a resubmission of an evicted key
/// re-executes (same aggregate, `cached: false`) rather than failing.
pub const RESULT_CACHE_CAP: usize = 256;

/// Longest request line a connection buffers, far above any real frame
/// (a `JobSpec` encodes to a few hundred bytes). A client that streams
/// past it without a newline gets a `MalformedFrame` error and is
/// disconnected instead of growing the server's buffer without bound.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// The backpressure hint for a full queue: linear in the backlog,
/// capped at [`BACKOFF_CAP_MS`], plus up to 25% deterministic-in-
/// `jitter` spread so a herd of synchronized clients doesn't retry in
/// lockstep. Always in `50..=BACKOFF_CAP_MS * 5 / 4`.
#[must_use]
pub fn backoff_hint_ms(queued: usize, jitter: u64) -> u64 {
    let base = (50 + 100 * queued as u64).min(BACKOFF_CAP_MS);
    base + jitter % (base / 4 + 1)
}

/// The content-hash identity of one campaign job: the runner's
/// fingerprint (bench module content) folded with every spec field
/// that determines results. `chunk` participates only when an
/// early-stopping rule is set — the stop decision is evaluated at
/// chunk boundaries, so with `stop` the executed-trial set depends on
/// the chunk size, and without it results are chunking-invariant.
/// `want_outcomes` jobs have no key (per-trial code streams cannot be
/// replayed from an aggregate).
#[must_use]
pub fn job_key(fingerprint: u64, spec: &JobSpec, chunk: u32) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(&fingerprint.to_le_bytes());
    for text in [
        spec.tenant_or_default(),
        &spec.bench.to_ascii_lowercase(),
        &spec.scheme.to_ascii_lowercase(),
        &spec.fault_model.to_ascii_lowercase(),
        // The retired tier slot, always empty now: keys stay equal to
        // those of tierless specs journaled before the field went away.
        "",
    ] {
        h.update(text.as_bytes());
        h.update(&[0]);
    }
    h.update(&spec.trials.to_le_bytes());
    if let Some(stop) = spec.stop {
        h.update(&[1, stop.metric as u8]);
        h.update(&stop.half_width.to_bits().to_le_bytes());
        h.update(&chunk.to_le_bytes());
    } else {
        h.update(&[0]);
    }
    h.finish()
}

/// Per-job flags shared between a connection's reader and the worker
/// running the job. `cancel` (an explicit `Cancel` frame) is terminal
/// and journaled; `suspend` (client EOF) parks progress resumably.
/// Both take effect at the next chunk boundary.
#[derive(Clone, Default)]
struct JobFlags {
    cancel: Arc<AtomicBool>,
    suspend: Arc<AtomicBool>,
}

/// Per-connection flag registry. Membership doubles as the job's
/// liveness: a cancel for an id not present is `UnknownJob`, whether
/// it never existed or already finished.
type CancelRegistry = Arc<Mutex<HashMap<u64, JobFlags>>>;

/// One admitted job, as carried through the queue to a worker.
struct QueuedJob {
    id: u64,
    /// Content-hash identity; `None` for `want_outcomes` jobs, which
    /// bypass the cache, dedup and resume machinery entirely.
    key: Option<u64>,
    spec: JobSpec,
    chunk: u32,
    /// Resume point: trials already executed (0 for a fresh job) ...
    start_executed: u32,
    /// ... and their merged aggregate.
    start_stats: CampaignStats,
    flags: JobFlags,
    /// Frame sink; `None` for journal-recovered orphans, whose results
    /// land in the journal and cache only.
    out: Option<Sender<Response>>,
    registry: Option<CancelRegistry>,
}

impl QueuedJob {
    fn send(&self, frame: Response) {
        if let Some(out) = &self.out {
            let _ = out.send(frame);
        }
    }
}

/// Everything shared between sessions, workers, and restarts.
struct ServiceState {
    config: ServerConfig,
    next_id: AtomicU64,
    /// Completed results by job key, bounded.
    cache: Mutex<ResultCache>,
    /// Key → job id for every queued or running keyed job.
    inflight: Mutex<HashMap<u64, u64>>,
    /// Progress parked by client EOF, waiting for a resubmission.
    suspended: Mutex<HashMap<u64, SuspendedJob>>,
    journal: Option<JobJournal>,
    /// Journaled chunks completed, for the crash-injection hook.
    chunks_journaled: AtomicU64,
    /// `RSKIP_SERVE_CRASH_AFTER_CHUNKS`: abort the process (no
    /// cleanup, no final fsyncs — as close to SIGKILL as code can ask
    /// for) after this many journaled chunks.
    crash_after_chunks: Option<u64>,
    /// xorshift state feeding backoff jitter.
    jitter: Mutex<u64>,
}

/// Progress parked by a client EOF. The resubmission's own spec is
/// used on resume (keys match, so results are identical); only the
/// resume point and the original chunk size need to survive.
struct SuspendedJob {
    chunk: u32,
    executed: u32,
    stats: CampaignStats,
}

/// Completed results by job key, holding at most [`RESULT_CACHE_CAP`]
/// and evicting in insertion order. Oldest-first matters: a client that
/// repeats its latest job must still find it, which evicting an
/// arbitrary map key does not guarantee.
#[derive(Default)]
struct ResultCache {
    results: HashMap<u64, DoneFrame>,
    /// Keys of `results`, oldest insertion first.
    order: VecDeque<u64>,
}

impl ResultCache {
    fn insert(&mut self, key: u64, done: DoneFrame) {
        if self.results.insert(key, done).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.order.len() > RESULT_CACHE_CAP {
            if let Some(oldest) = self.order.pop_front() {
                self.results.remove(&oldest);
            }
        }
    }
}

impl ServiceState {
    fn next_jitter(&self) -> u64 {
        let mut s = self.jitter.lock().unwrap();
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    /// Appends `event` to `tenant`'s journal (no-op for keyless jobs
    /// and journal-less servers). A failed append costs durability,
    /// not the job — it is reported, not propagated.
    fn journal_event(&self, key: Option<u64>, tenant: &str, event: &JournalEvent) {
        if key.is_none() {
            return;
        }
        if let Some(journal) = &self.journal {
            if let Err(err) = journal.record(tenant, event) {
                eprintln!("rskip-serve: journal append failed for tenant {tenant}: {err:?}");
            }
        }
    }

    /// The crash-injection hook: called after each *journaled* chunk.
    fn crash_hook(&self) {
        let done = self.chunks_journaled.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(n) = self.crash_after_chunks {
            if done >= n {
                eprintln!("rskip-serve: RSKIP_SERVE_CRASH_AFTER_CHUNKS={n} reached, aborting");
                std::process::abort();
            }
        }
    }

    fn clear_inflight(&self, key: Option<u64>) {
        if let Some(k) = key {
            self.inflight.lock().unwrap().remove(&k);
        }
    }
}

/// A running campaign server. Dropping the handle does *not* stop the
/// server; call [`shutdown`](Server::shutdown) (or send a `Shutdown`
/// frame) to drain and join it.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue<QueuedJob>>,
    threads: Vec<JoinHandle<()>>,
    recovery: RecoveryReport,
}

impl Server {
    /// Binds `addr`, replays `config.state_dir`'s journals (resuming
    /// unfinished jobs and restoring cached results), spawns the
    /// accept loop and `config.workers` worker threads, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a state-directory that cannot
    /// be created/replayed.
    pub fn bind<A: ToSocketAddrs, R: CampaignRunner>(
        addr: A,
        runner: Arc<R>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(config.queue_capacity));

        let crash_after_chunks = std::env::var("RSKIP_SERVE_CRASH_AFTER_CHUNKS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());

        let replay_started = Instant::now();
        let mut recovery = RecoveryReport::default();
        let mut cache = ResultCache::default();
        let mut inflight = HashMap::new();
        let mut next_id = 1u64;
        let mut journal = None;
        let mut resumable = Vec::new();
        if let Some(dir) = &config.state_dir {
            let (jobj, rec) = JobJournal::open(dir)
                .map_err(|e| io::Error::other(format!("state dir {dir:?}: {e:?}")))?;
            journal = Some(jobj);
            next_id = rec.next_job_id;
            recovery.truncated_bytes = rec.truncated_bytes;
            recovery.skipped_records = rec.skipped_records;
            // Seed in completion order, so the cache keeps the newest
            // results, as it would have had the server never stopped.
            let mut completed: Vec<(u64, DoneFrame)> = rec.completed.into_iter().collect();
            completed.sort_unstable_by_key(|(_, done)| done.job);
            for (key, done) in completed {
                cache.insert(key, done);
            }
            recovery.results_cached = cache.results.len();
            resumable = rec.resumable;
        }

        let state = Arc::new(ServiceState {
            config,
            next_id: AtomicU64::new(next_id),
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashMap::new()),
            suspended: Mutex::new(HashMap::new()),
            journal,
            chunks_journaled: AtomicU64::new(0),
            crash_after_chunks,
            jitter: Mutex::new(
                0x9E37_79B9_7F4A_7C15
                    ^ u64::from(addr.port())
                    ^ u64::from(std::process::id()) << 17,
            ),
        });

        // Re-enqueue unfinished jobs before any worker starts: they
        // keep their original ids and chunk sizes (the executed-trial
        // set must match the uninterrupted run), run with no client
        // attached, and land in the journal + cache like any other
        // job. `restore` ignores the capacity bound — this work was
        // already accepted durably.
        recovery.jobs_resumed = resumable.len();
        for r in resumable {
            inflight.insert(r.key, r.job);
            let _ = queue.restore(QueuedJob {
                id: r.job,
                key: Some(r.key),
                spec: r.spec,
                chunk: r.chunk,
                start_executed: r.executed,
                start_stats: r.stats,
                flags: JobFlags::default(),
                out: None,
                registry: None,
            });
        }
        *state.inflight.lock().unwrap() = inflight;
        recovery.replay_nanos =
            u64::try_from(replay_started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let workers = state.config.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let runner = Arc::clone(&runner);
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                worker_loop(&*runner, &queue, &state);
            }));
        }
        {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &runner, &queue, &shutdown, &state);
            }));
        }
        Ok(Server {
            addr,
            shutdown,
            queue,
            threads,
            recovery,
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What this server recovered from its state directory at bind
    /// time (all zeros without one).
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Blocks until the server stops of its own accord — i.e. until a
    /// client sends a `Shutdown` frame. The `rskip-eval serve`
    /// subcommand's main loop.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown — already-admitted jobs finish, new
    /// submissions are refused — and joins every server thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        // The accept loop is parked in accept(); a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn accept_loop<R: CampaignRunner>(
    listener: &TcpListener,
    runner: &Arc<R>,
    queue: &Arc<JobQueue<QueuedJob>>,
    shutdown: &Arc<AtomicBool>,
    state: &Arc<ServiceState>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let runner = Arc::clone(runner);
        let queue = Arc::clone(queue);
        let shutdown = Arc::clone(shutdown);
        let state = Arc::clone(state);
        let addr = listener.local_addr().ok();
        // Connection threads are detached: they exit on client EOF, and
        // an in-shutdown server only has to outlive its workers.
        std::thread::spawn(move || {
            handle_connection(stream, &*runner, &queue, &shutdown, &state, addr);
        });
    }
}

/// Serializes every outbound frame for one connection. Sole owner of
/// the write half; exits when all `Sender` clones (reader + workers on
/// this connection's jobs) are gone, or on the first write error
/// (client vanished — frames drain into the void harmlessly). Each
/// wake-up sends every frame already queued in one write, so a burst of
/// frames costs one segment rather than one per frame.
fn writer_loop(mut stream: TcpStream, frames: &Receiver<Response>) {
    let mut lines = String::new();
    while let Ok(frame) = frames.recv() {
        lines.clear();
        for frame in std::iter::once(frame).chain(frames.try_iter()) {
            lines.push_str(&encode(&frame));
            lines.push('\n');
        }
        if stream.write_all(lines.as_bytes()).is_err() {
            return;
        }
    }
}

fn handle_connection<R: CampaignRunner>(
    stream: TcpStream,
    runner: &R,
    queue: &Arc<JobQueue<QueuedJob>>,
    shutdown: &Arc<AtomicBool>,
    state: &Arc<ServiceState>,
    addr: Option<SocketAddr>,
) {
    // Frames are small and each one is awaited: without this, Nagle
    // holds a frame until the client's delayed ACK (40 ms on Linux).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out, frames) = channel::<Response>();
    let writer = std::thread::spawn(move || writer_loop(write_half, &frames));

    let _ = out.send(Response::Hello {
        protocol: PROTOCOL_VERSION,
        workers: state.config.workers.max(1),
        queue_capacity: queue.capacity(),
    });

    // Until the client declares otherwise, assume a version-1 peer:
    // v2-only error kinds are mapped to their v1 equivalents.
    let mut session_protocol: u32 = 1;
    let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader)
            .take(MAX_REQUEST_LINE + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() != Some(&b'\n') && buf.len() as u64 > MAX_REQUEST_LINE {
            let _ = out.send(Response::Error {
                error: ErrorKind::MalformedFrame,
                detail: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            });
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match decode::<Request>(line) {
            Ok(r) => r,
            Err(detail) => {
                let _ = out.send(Response::Error {
                    error: ErrorKind::MalformedFrame,
                    detail,
                });
                continue;
            }
        };
        match request {
            Request::Hello { protocol } => {
                session_protocol = protocol.min(PROTOCOL_VERSION);
            }
            Request::Submit(spec) => {
                admit(
                    spec,
                    runner,
                    queue,
                    shutdown,
                    state,
                    &out,
                    &registry,
                    session_protocol,
                );
            }
            Request::Cancel { job } => {
                let flags = registry.lock().unwrap().get(&job).cloned();
                match flags {
                    Some(flags) => flags.cancel.store(true, Ordering::SeqCst),
                    None => {
                        let _ = out.send(Response::Error {
                            error: ErrorKind::UnknownJob,
                            detail: format!(
                                "job {job} was never submitted on this connection, or already finished"
                            ),
                        });
                    }
                }
            }
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                queue.close();
                if let Some(addr) = addr {
                    let _ = TcpStream::connect(addr);
                }
                break;
            }
        }
    }
    // Client gone (EOF, error, oversized line, or post-Shutdown):
    // *suspend* whatever it still had in flight — progress parks under
    // the job key and a resubmission (same client retrying, or a restart
    // replaying the journal) resumes at the next chunk boundary. Only an
    // explicit Cancel frame is terminal.
    for flags in registry.lock().unwrap().values() {
        flags.suspend.store(true, Ordering::SeqCst);
    }
    drop(out);
    let _ = writer.join();
}

/// Validates one submission and sends every resulting frame: a typed
/// rejection, a cached `Accepted` + `Done{cached}` pair, or an
/// `Accepted` after enqueueing (fresh or resuming parked progress).
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn admit<R: CampaignRunner>(
    spec: JobSpec,
    runner: &R,
    queue: &Arc<JobQueue<QueuedJob>>,
    shutdown: &Arc<AtomicBool>,
    state: &Arc<ServiceState>,
    out: &Sender<Response>,
    registry: &CancelRegistry,
    session_protocol: u32,
) {
    let reject = |error: ErrorKind, detail: String, retry_after_ms: Option<u64>| {
        let _ = out.send(Response::Rejected {
            error,
            detail,
            retry_after_ms,
        });
    };
    if shutdown.load(Ordering::SeqCst) {
        return reject(
            ErrorKind::ShuttingDown,
            "server is draining for shutdown".to_string(),
            None,
        );
    }
    if !valid_tenant(spec.tenant_or_default()) {
        return reject(
            ErrorKind::BadTenant,
            format!(
                "tenant {:?} (want non-empty [a-z0-9_-], at most 64 bytes)",
                spec.tenant
            ),
            None,
        );
    }
    if spec.trials == 0 || spec.trials > state.config.max_trials {
        return reject(
            ErrorKind::OversizedTrials,
            format!(
                "trials must be in 1..={} (got {})",
                state.config.max_trials, spec.trials
            ),
            None,
        );
    }
    if let Err((error, detail)) = runner.validate(&spec) {
        return reject(error, detail, None);
    }

    let chunk = if spec.chunk == 0 {
        state.config.default_chunk
    } else {
        spec.chunk
    }
    .min(spec.trials)
    .max(1);
    let trials = spec.trials;
    let key = if spec.want_outcomes {
        None
    } else {
        Some(job_key(runner.fingerprint(&spec), &spec, chunk))
    };

    if let Some(k) = key {
        // Result cache: answer without executing a trial. The frame
        // gets a fresh job id so the client's bookkeeping stays per-
        // submission, and honest accounting: `cached: true`.
        let hit = state.cache.lock().unwrap().results.get(&k).cloned();
        if let Some(mut done) = hit {
            let id = state.next_id.fetch_add(1, Ordering::SeqCst);
            done.job = id;
            done.cached = true;
            let _ = out.send(Response::Accepted {
                job: id,
                trials,
                chunk,
            });
            let _ = out.send(Response::Done(done));
            return;
        }
        // In-flight dedup: the same work is already queued or running
        // (possibly submitted by a client that lost its connection and
        // is retrying). Refuse with a hint; once the original finishes
        // the retry hits the cache, and if it was suspended by an EOF
        // the retry attaches to its parked progress below.
        {
            let mut inflight = state.inflight.lock().unwrap();
            if let Some(&running) = inflight.get(&k) {
                let hint = backoff_hint_ms(queue.len(), state.next_jitter());
                let error = if session_protocol >= 2 {
                    ErrorKind::DuplicateInFlight
                } else {
                    ErrorKind::QueueFull
                };
                return reject(
                    error,
                    format!("identical job already in flight as job {running}"),
                    Some(hint),
                );
            }
            // Reserve the key before releasing the lock: a racing
            // duplicate must see it.
            inflight.insert(k, 0);
        }
    }

    // Resume parked progress from a dropped connection, if any. The
    // suspended chunk size wins — the early-stop decision points (and
    // so the executed-trial set) must match the original run.
    let parked = key.and_then(|k| state.suspended.lock().unwrap().remove(&k));
    let (chunk, start_executed, start_stats) = match &parked {
        Some(s) => (s.chunk, s.executed, s.stats),
        None => (chunk, 0, CampaignStats::default()),
    };

    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    if let Some(k) = key {
        state.inflight.lock().unwrap().insert(k, id);
    }
    let flags = JobFlags::default();
    registry.lock().unwrap().insert(id, flags.clone());
    let tenant = spec.tenant_or_default().to_string();
    let job = QueuedJob {
        id,
        key,
        spec,
        chunk,
        start_executed,
        start_stats,
        flags,
        out: Some(out.clone()),
        registry: Some(Arc::clone(registry)),
    };

    // Journal the acceptance (and inherited progress) *before* the
    // push: once a worker can see the job, a crash must find it in the
    // journal. A failed push terminates the record right below.
    if let Some(k) = key {
        state.journal_event(
            key,
            &tenant,
            &JournalEvent::Accepted {
                job: id,
                key: k,
                spec: job.spec.clone(),
                chunk,
            },
        );
        if start_executed > 0 {
            state.journal_event(
                key,
                &tenant,
                &JournalEvent::Chunk {
                    job: id,
                    executed: start_executed,
                    stats: start_stats,
                },
            );
        }
    }

    // `Accepted` goes on the connection's channel before a worker can
    // pop the job, so the job's own frames always follow it.
    let accepted = || {
        let _ = out.send(Response::Accepted {
            job: id,
            trials,
            chunk,
        });
    };
    if let Err(err) = queue.try_push_then(job, accepted) {
        registry.lock().unwrap().remove(&id);
        state.clear_inflight(key);
        if let Some(s) = parked {
            // Progress must not be lost to a full queue.
            if let Some(k) = key {
                state.suspended.lock().unwrap().insert(k, s);
            }
        }
        // Terminate the journaled acceptance so a restart does not
        // resurrect a job the client was told to retry.
        state.journal_event(
            key,
            &tenant,
            &JournalEvent::Cancelled {
                job: id,
                executed: start_executed,
            },
        );
        match err {
            PushError::Full { queued } => reject(
                ErrorKind::QueueFull,
                format!("queue at capacity ({queued} jobs waiting)"),
                Some(backoff_hint_ms(queued, state.next_jitter())),
            ),
            PushError::Closed => reject(
                ErrorKind::ShuttingDown,
                "server is draining for shutdown".to_string(),
                None,
            ),
        }
    }
}

fn worker_loop<R: CampaignRunner>(
    runner: &R,
    queue: &JobQueue<QueuedJob>,
    state: &Arc<ServiceState>,
) {
    while let Some(job) = queue.pop() {
        run_job(runner, state, &job);
        if let Some(registry) = &job.registry {
            registry.lock().unwrap().remove(&job.id);
        }
    }
}

/// Executes one job chunk-by-chunk from its resume point, journaling
/// and streaming the running aggregate after each chunk and honoring
/// cancellation, suspension and early stopping between chunks.
fn run_job<R: CampaignRunner>(runner: &R, state: &Arc<ServiceState>, job: &QueuedJob) {
    let trials = job.spec.trials;
    let started = Instant::now();
    let mut aggregate = job.start_stats;
    let mut executed = job.start_executed;
    let mut chunk_index = executed / job.chunk;
    let mut early_stopped = false;

    // A crash can land between the chunk that satisfied the stop rule
    // and the Done record; re-evaluating on the resumed aggregate
    // reproduces the uninterrupted run's decision exactly.
    if let Some(stop) = job.spec.stop {
        if executed > 0 && executed < trials && stop.satisfied(&aggregate) {
            early_stopped = true;
        }
    }

    while !early_stopped && executed < trials {
        if job.flags.cancel.load(Ordering::SeqCst) {
            state.journal_event(
                job.key,
                job.spec.tenant_or_default(),
                &JournalEvent::Cancelled {
                    job: job.id,
                    executed,
                },
            );
            state.clear_inflight(job.key);
            job.send(Response::Cancelled {
                job: job.id,
                executed,
                stats: aggregate,
            });
            return;
        }
        if job.flags.suspend.load(Ordering::SeqCst) {
            // Client vanished: park progress resumably. No terminal
            // journal record — a restart re-enqueues this job; a
            // resubmission of the same spec attaches right here.
            if let Some(k) = job.key {
                state.suspended.lock().unwrap().insert(
                    k,
                    SuspendedJob {
                        chunk: job.chunk,
                        executed,
                        stats: aggregate,
                    },
                );
            }
            state.clear_inflight(job.key);
            return;
        }
        let end = (executed + job.chunk).min(trials);
        let chunk_started = Instant::now();
        let output = runner.run_chunk(&job.spec, executed..end);
        let chunk_nanos = u64::try_from(chunk_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        aggregate.merge(&output.stats);
        executed = end;
        state.journal_event(
            job.key,
            job.spec.tenant_or_default(),
            &JournalEvent::Chunk {
                job: job.id,
                executed,
                stats: aggregate,
            },
        );
        state.crash_hook();
        job.send(Response::Progress(ProgressFrame {
            job: job.id,
            chunk: chunk_index,
            executed,
            requested: trials,
            stats: aggregate,
            correct_ci: aggregate.correct_ci(),
            sdc_ci: aggregate.sdc_ci(),
            outcomes: output.outcomes,
            chunk_nanos,
        }));
        chunk_index += 1;
        if let Some(stop) = job.spec.stop {
            if executed < trials && stop.satisfied(&aggregate) {
                early_stopped = true;
            }
        }
    }

    let total_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let done = DoneFrame {
        job: job.id,
        executed,
        requested: trials,
        early_stopped,
        stats: aggregate,
        correct_ci: aggregate.correct_ci(),
        sdc_ci: aggregate.sdc_ci(),
        total_nanos,
        cached: false,
    };
    state.journal_event(
        job.key,
        job.spec.tenant_or_default(),
        &JournalEvent::Done {
            job: job.id,
            executed,
            early_stopped,
            stats: aggregate,
            total_nanos,
        },
    );
    if let Some(k) = job.key {
        state.cache.lock().unwrap().insert(k, done.clone());
    }
    state.clear_inflight(job.key);
    job.send(Response::Done(done));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_core::stats::{EarlyStop, StopMetric};

    #[test]
    fn backoff_hint_is_bounded_and_jittered() {
        for queued in [0usize, 1, 7, 19, 1_000, usize::MAX / 128] {
            let base = (50 + 100 * queued as u64).min(BACKOFF_CAP_MS);
            for jitter in [0u64, 1, 42, u64::MAX] {
                let hint = backoff_hint_ms(queued, jitter);
                assert!(hint >= base, "hint {hint} below base {base}");
                assert!(
                    hint <= base + base / 4,
                    "hint {hint} above base {base} + 25%"
                );
                assert!(hint <= BACKOFF_CAP_MS + BACKOFF_CAP_MS / 4);
            }
        }
        // The jitter actually spreads: a synchronized herd with
        // different states does not share one retry instant.
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|j| backoff_hint_ms(100, j * 977)).collect();
        assert!(spread.len() > 8, "jitter produced {} values", spread.len());
    }

    #[test]
    fn job_key_separates_results_not_cosmetics() {
        let spec = JobSpec::new("conv1d", "ar20", "seu", 500);
        let base = job_key(7, &spec, 64);
        // Literals from the format with a `tier` field: tierless keys
        // must not move, or journal-seeded caches stop hitting.
        assert_eq!(base, 0x9537_3992_8295_7249);
        // Same work, different chunking: same key (results are
        // chunking-invariant without a stop rule).
        assert_eq!(base, job_key(7, &spec, 128));
        // Case-insensitive labels.
        let mut loud = spec.clone();
        loud.scheme = "AR20".into();
        assert_eq!(base, job_key(7, &loud, 64));
        // Result-relevant differences split the key.
        let mut other = spec.clone();
        other.trials = 501;
        assert_ne!(base, job_key(7, &other, 64));
        let mut other = spec.clone();
        other.fault_model = "skip".into();
        assert_ne!(base, job_key(7, &other, 64));
        let mut other = spec.clone();
        other.tenant = "team-b".into();
        assert_ne!(base, job_key(7, &other, 64));
        assert_ne!(base, job_key(8, &spec, 64), "fingerprint participates");
        // With a stop rule the chunk size changes the decision points,
        // so it joins the key.
        let mut stopped = spec.clone();
        stopped.stop = Some(EarlyStop {
            metric: StopMetric::Sdc,
            half_width: 0.02,
        });
        assert_ne!(job_key(7, &stopped, 64), job_key(7, &stopped, 128));
        assert_ne!(job_key(7, &stopped, 64), base);
        assert_eq!(job_key(7, &stopped, 64), 0xac3c_778e_cb8a_d7a0);
    }
}
