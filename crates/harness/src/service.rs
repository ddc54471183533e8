//! The harness-backed [`CampaignRunner`] — what turns the generic
//! campaign service (`rskip-serve`) into *this* project's campaign
//! service.
//!
//! `rskip-serve` sits below the harness and executes trials only
//! through its [`CampaignRunner`] trait; this module is the production
//! implementation. Three caches make a long-running service cheap to
//! keep warm without compromising the determinism contract:
//!
//! * **per-tenant engines** — each tenant namespace gets its own
//!   [`Engine`] backed by its own slice of the model store
//!   ([`Store::namespace`]), so tenants warm-start independently and
//!   never read each other's artifacts;
//! * **per-bench data** — the test input and golden output are computed
//!   once per (tenant, bench), not once per chunk;
//! * **per-scheme sizing** — the clean sizing run ([`Campaign::new`])
//!   happens once per (tenant, bench, scheme); every subsequent chunk
//!   reconstructs the campaign via [`Campaign::with_sizing`], which is
//!   byte-identical because the sizing numbers are deterministic.
//!
//! The seed is [`campaign_seed`] — exactly the one-shot CLI driver's —
//! and each trial's randomness is a pure function of `(seed, trial
//! index)`, so a streamed job's final aggregate equals the CLI run of
//! the same cell regardless of chunking, worker count, or tenant
//! interleaving. The integration suite pins this byte-for-byte.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use serde::Serialize;

use rskip_exec::{ExecTier, FaultModel};
use rskip_ir::Value;
use rskip_serve::{CampaignRunner, ChunkOutput, ErrorKind, JobSpec};
use rskip_store::Store;
use rskip_workloads::InputSet;

use crate::build::{BenchSetup, EvalOptions};
use crate::campaign::{num_threads, Campaign, CampaignSizing, CampaignStats};
use crate::experiment::{campaign_seed, Engine, SchemeVariant};

/// Campaign execution for the service, backed by the real harness:
/// engine-prepared benchmarks, per-tenant store namespaces, and the
/// CLI driver's exact seeds.
pub struct HarnessRunner {
    options: EvalOptions,
    store: Option<Store>,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    /// Content fingerprint per bench name (see
    /// [`fingerprint`](CampaignRunner::fingerprint)), memoized because
    /// admission calls it on every submission.
    fingerprints: Mutex<BTreeMap<String, u64>>,
}

struct TenantState {
    engine: Engine,
    benches: Mutex<BTreeMap<String, Arc<BenchData>>>,
}

/// Everything chunk execution needs that is per (tenant, benchmark).
struct BenchData {
    setup: Arc<BenchSetup>,
    input: InputSet,
    golden: Vec<Value>,
    /// Sizing per scheme label — the clean run depends on the scheme's
    /// module and hooks, nothing else (not the fault model, tier, seed
    /// or trial count).
    sizings: Mutex<BTreeMap<String, CampaignSizing>>,
}

impl HarnessRunner {
    /// A runner preparing benchmarks with `options`, warm-starting each
    /// tenant from its namespace under `store` (when given).
    pub fn new(options: EvalOptions, store: Option<Store>) -> HarnessRunner {
        HarnessRunner {
            options,
            store,
            tenants: Mutex::new(BTreeMap::new()),
            fingerprints: Mutex::new(BTreeMap::new()),
        }
    }

    fn tenant_state(&self, tenant: &str) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(state) = tenants.get(tenant) {
            return Arc::clone(state);
        }
        let store = self.store.as_ref().and_then(|s| s.namespace(tenant));
        let state = Arc::new(TenantState {
            engine: Engine::with_store(self.options.clone(), store),
            benches: Mutex::new(BTreeMap::new()),
        });
        tenants.insert(tenant.to_string(), Arc::clone(&state));
        state
    }

    fn bench_data(&self, tenant: &str, bench: &str) -> Arc<BenchData> {
        let state = self.tenant_state(tenant);
        let mut benches = state.benches.lock().unwrap();
        if let Some(data) = benches.get(bench) {
            return Arc::clone(data);
        }
        let setup = state.engine.setup(bench);
        let input = setup.test_input();
        let golden = setup.bench.golden(setup.options.size, &input);
        let data = Arc::new(BenchData {
            setup,
            input,
            golden,
            sizings: Mutex::new(BTreeMap::new()),
        });
        benches.insert(bench.to_string(), Arc::clone(&data));
        data
    }
}

impl BenchData {
    fn sizing_for(&self, scheme: &str, measure: impl FnOnce() -> CampaignSizing) -> CampaignSizing {
        let mut sizings = self.sizings.lock().unwrap();
        if let Some(&sizing) = sizings.get(scheme) {
            return sizing;
        }
        let sizing = measure();
        sizings.insert(scheme.to_string(), sizing);
        sizing
    }
}

impl CampaignRunner for HarnessRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)> {
        if rskip_workloads::benchmark_by_name(&spec.bench).is_none() {
            return Err((
                ErrorKind::UnknownBench,
                format!("no benchmark named {:?}", spec.bench),
            ));
        }
        if SchemeVariant::parse(&spec.scheme).is_none() {
            return Err((
                ErrorKind::UnknownScheme,
                format!(
                    "no scheme {:?} (want unsafe, swift-r, arN or arN-di)",
                    spec.scheme
                ),
            ));
        }
        if FaultModel::parse(&spec.fault_model).is_none() {
            return Err((
                ErrorKind::UnknownFaultModel,
                format!(
                    "no fault model {:?} (want seu, skip, or burst:N)",
                    spec.fault_model
                ),
            ));
        }
        if !spec.tier.is_empty() && ExecTier::parse(&spec.tier).is_none() {
            return Err((
                ErrorKind::UnknownTier,
                format!("no execution tier {:?}", spec.tier),
            ));
        }
        Ok(())
    }

    /// The content half of the result-cache key: a hash of the bench's
    /// source module (as printed IR) and the experiment options that
    /// shape results (size profile, training seeds, pipeline). Cheap —
    /// it builds the unprotected module, never compiles, profiles or
    /// trains — so it is safe to call on the admission path, and
    /// memoized per bench on top of that. If the bench source or the
    /// options change across server restarts, the key changes and stale
    /// journal-cached results simply never match.
    fn fingerprint(&self, spec: &JobSpec) -> u64 {
        if let Some(&fp) = self.fingerprints.lock().unwrap().get(&spec.bench) {
            return fp;
        }
        let Some(bench) = rskip_workloads::benchmark_by_name(&spec.bench) else {
            return 0; // unreachable after validate(); harmless if not
        };
        let module = bench.build(self.options.size);
        let mut h = rskip_core::digest::Fnv1a64::new();
        h.update(rskip_ir::print_module(&module).as_bytes());
        h.update(format!("{:?}", self.options).as_bytes());
        let fp = h.finish();
        self.fingerprints
            .lock()
            .unwrap()
            .insert(spec.bench.clone(), fp);
        fp
    }

    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput {
        let data = self.bench_data(spec.tenant_or_default(), &spec.bench);
        let variant = SchemeVariant::parse(&spec.scheme).expect("validated at admission");
        let model = FaultModel::parse(&spec.fault_model).expect("validated at admission");
        let tier = if spec.tier.is_empty() {
            None
        } else {
            Some(ExecTier::parse(&spec.tier).expect("validated at admission"))
        };
        let seed0 = campaign_seed(&spec.bench, variant, model, spec.trials);
        let setup = &data.setup;
        let module = setup.module(variant);
        let make_hooks = || setup.hooks(variant);
        let output = setup.bench.output_global();
        let sizing = data.sizing_for(&spec.scheme.to_ascii_lowercase(), || {
            Campaign::new(
                module,
                &data.input,
                &data.golden,
                output,
                make_hooks,
                seed0,
                spec.trials,
            )
            .sizing()
        });
        let mut campaign = Campaign::with_sizing(
            module,
            &data.input,
            &data.golden,
            output,
            seed0,
            spec.trials,
            sizing,
        );
        campaign.set_fault_model(model);
        if let Some(tier) = tier {
            campaign.set_tier(tier);
        }
        let trials =
            campaign.trial_outcomes_on(num_threads(), range, make_hooks, BenchSetup::recoveries);
        let mut stats = CampaignStats::default();
        let mut codes = String::with_capacity(trials.len());
        for t in &trials {
            stats.record(*t);
            codes.push(t.class.code());
        }
        ChunkOutput {
            stats,
            outcomes: spec.want_outcomes.then_some(codes),
        }
    }
}

/// One measured configuration of the `serve-bench` report.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ServeBenchPoint {
    /// Worker threads the server ran with.
    pub workers: usize,
    /// Jobs submitted (all of the same cell).
    pub jobs: u32,
    /// Trials per job.
    pub trials_per_job: u32,
    /// Chunk size.
    pub chunk: u32,
    /// Wall-clock nanoseconds from first submission to last `Done`.
    pub wall_nanos: u64,
    /// Jobs completed per second of wall clock.
    pub jobs_per_sec: f64,
    /// Mean worker-side latency of one chunk, nanoseconds.
    pub mean_chunk_nanos: u64,
}

/// `rskip-eval serve-bench` output: service throughput at 1 vs N
/// workers, with the scaling caveat spelled out instead of implied.
#[derive(Clone, Debug, Serialize)]
pub struct ServeBenchReport {
    /// Benchmark every job ran.
    pub bench: String,
    /// Scheme label.
    pub scheme: String,
    /// Fault-model label.
    pub fault_model: String,
    /// One point per measured worker count.
    pub points: Vec<ServeBenchPoint>,
    /// Submit→`Done` latency of a job the server had never seen
    /// (trials actually execute), nanoseconds.
    pub cold_submit_nanos: u64,
    /// Submit→`Done` latency of resubmitting the identical job (served
    /// from the result cache, zero trials), nanoseconds.
    pub cached_submit_nanos: u64,
    /// Journal-replay time of a restart against the state directory
    /// the cold job journaled into — the resume overhead, nanoseconds.
    pub resume_replay_nanos: u64,
    /// Honest context for reading the numbers (host parallelism).
    pub note: String,
}

impl ServeBenchReport {
    /// Text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Campaign service throughput — {} / {} / {}\n\
             {:>8}  {:>6}  {:>10}  {:>10}  {:>14}\n",
            self.bench,
            self.scheme,
            self.fault_model,
            "workers",
            "jobs",
            "wall (ms)",
            "jobs/sec",
            "chunk lat (µs)"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8}  {:>6}  {:>10.1}  {:>10.2}  {:>14.1}\n",
                p.workers,
                p.jobs,
                p.wall_nanos as f64 / 1e6,
                p.jobs_per_sec,
                p.mean_chunk_nanos as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "durability: cold submit {:.1} ms, cached submit {:.3} ms, journal replay on \
             restart {:.3} ms\n",
            self.cold_submit_nanos as f64 / 1e6,
            self.cached_submit_nanos as f64 / 1e6,
            self.resume_replay_nanos as f64 / 1e6,
        ));
        out.push_str(&format!("note: {}\n", self.note));
        out
    }
}

/// Measures service throughput for each worker count in
/// `worker_counts`: submits `jobs` copies of `spec` per point and times
/// first-submit → last-done. One warm-up job runs before the first
/// point so benchmark preparation (compile, profile, train) is not
/// billed to the service. The throughput copies ask for per-trial
/// outcomes, which makes them keyless — otherwise the result cache and
/// in-flight dedup would (correctly) collapse N identical jobs into
/// one execution and the measurement would be of the cache, not the
/// service. The cache gets its own numbers: a cold submit, a cached
/// resubmission, and the journal-replay cost of a restart.
///
/// # Panics
///
/// Panics on bind/connect failures or a rejected job — this is a local
/// measurement harness, not a resilient client.
#[allow(clippy::too_many_lines)]
pub fn serve_bench(
    options: EvalOptions,
    spec: &JobSpec,
    jobs: u32,
    worker_counts: &[usize],
) -> ServeBenchReport {
    use rskip_serve::{Client, Response, Server, ServerConfig};

    let trials_per_job = spec.trials;
    let chunk = spec.chunk;
    let runner = Arc::new(HarnessRunner::new(options, None));

    // Warm-up: prepare the benchmark outside the timed region.
    {
        let mut warm = spec.clone();
        warm.trials = 1;
        warm.chunk = 1;
        let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), ServerConfig::default())
            .expect("bind warm-up server");
        let mut client = Client::connect(server.addr()).expect("connect warm-up");
        let job = client.submit_accepted(&warm).expect("warm-up accepted");
        client.stream_job(job, |_| {}).expect("warm-up done");
        drop(client);
        server.shutdown();
    }

    let mut points = Vec::new();
    for &workers in worker_counts {
        let config = ServerConfig {
            workers,
            queue_capacity: jobs as usize + 1,
            default_chunk: chunk.max(1),
            ..ServerConfig::default()
        };
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&runner), config).expect("bind bench server");
        let mut client = Client::connect(server.addr()).expect("connect bench");

        // Keyless copies: outcome streams bypass the cache and dedup,
        // so all N identical jobs genuinely execute.
        let mut run_spec = spec.clone();
        run_spec.want_outcomes = true;

        let started = std::time::Instant::now();
        for _ in 0..jobs {
            client.submit_accepted(&run_spec).expect("job accepted");
        }
        let mut done = 0u32;
        let mut chunk_nanos_total: u128 = 0;
        let mut chunks: u64 = 0;
        while done < jobs {
            match client.recv().expect("frame") {
                Response::Progress(p) => {
                    chunk_nanos_total += u128::from(p.chunk_nanos);
                    chunks += 1;
                }
                Response::Done(_) => done += 1,
                other => panic!("unexpected frame during bench: {other:?}"),
            }
        }
        let wall = started.elapsed();
        drop(client);
        server.shutdown();

        let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        points.push(ServeBenchPoint {
            workers,
            jobs,
            trials_per_job,
            chunk: chunk.max(1),
            wall_nanos,
            jobs_per_sec: f64::from(jobs) / (wall_nanos as f64 / 1e9),
            mean_chunk_nanos: u64::try_from(chunk_nanos_total / u128::from(chunks.max(1)))
                .unwrap_or(u64::MAX),
        });
    }

    // Durability numbers: one durable server answers the same job cold
    // (trials execute, every chunk fsynced) and then cached (zero
    // trials); a rebind against the same state directory measures the
    // journal-replay cost a restart pays.
    let state_dir = std::env::temp_dir().join(format!("rskip-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let (cold_submit_nanos, cached_submit_nanos, resume_replay_nanos) = {
        let config = ServerConfig {
            workers: 1,
            default_chunk: chunk.max(1),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        };
        let timed_submit = |server: &Server| {
            let mut client = Client::connect(server.addr()).expect("connect durability");
            let started = std::time::Instant::now();
            let job = client
                .submit_accepted(spec)
                .expect("durability job accepted");
            let outcome = client.stream_job(job, |_| {}).expect("durability job done");
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (nanos, outcome.done)
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&runner), config.clone())
            .expect("bind durable server");
        let (cold, first) = timed_submit(&server);
        assert!(!first.cached, "first durable submit must execute");
        let (cached, second) = timed_submit(&server);
        assert!(second.cached, "identical resubmission must hit the cache");
        server.shutdown();
        let restarted =
            Server::bind("127.0.0.1:0", Arc::clone(&runner), config).expect("rebind durable");
        let replay = restarted.recovery().replay_nanos;
        restarted.shutdown();
        (cold, cached, replay)
    };
    let _ = std::fs::remove_dir_all(&state_dir);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ServeBenchReport {
        bench: spec.bench.clone(),
        scheme: spec.scheme.clone(),
        fault_model: spec.fault_model.clone(),
        points,
        cold_submit_nanos,
        cached_submit_nanos,
        resume_replay_nanos,
        note: format!(
            "host reports {cores} available core(s); worker counts beyond that cannot scale \
             jobs/sec (each chunk's trials already fan out over the same cores), so on a \
             single-core container 1-vs-N worker throughput is expected to be flat — the N-worker \
             win here is job multiplexing latency, and real scaling needs a multi-core host"
        ),
    }
}
