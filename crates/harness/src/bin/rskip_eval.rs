//! `rskip-eval` — regenerate the paper's tables and figures.
//!
//! ```text
//! rskip-eval table1
//! rskip-eval fig2   [--size tiny|small|full]
//! rskip-eval fig7   [--size ...]
//! rskip-eval fig8a  [--size ...]
//! rskip-eval fig8b  [--size ...] [--inputs N]
//! rskip-eval fig9   [--size ...] [--runs N]
//! rskip-eval tradeoff [--size ...] [--runs N]
//! rskip-eval cost-ratio
//! rskip-eval all    [--size ...] [--runs N] [--out DIR] [--store DIR]
//! rskip-eval train  [--size ...] [--store DIR]
//! rskip-eval inspect [--store DIR]
//! rskip-eval verify  [--store DIR] [--json]
//! rskip-eval lint   [--size ...] [--json]
//! rskip-eval supervise [--size ...] [--runs N]
//! rskip-eval bench  [--size ...] [--runs N] [--bench NAME] [--tier match|threaded] [--json]
//! rskip-eval campaign [--size ...] [--runs N] [--bench NAME] [--fault-model seu|skip|burst:N[,..]] [--json]
//! rskip-eval vuln   [--size ...] [--runs N] [--bench NAME[,NAME..]] [--fault-model ...] [--json]
//!                   [--incremental] [--oracle-limit N] [--store DIR]
//! rskip-eval serve  [--addr HOST:PORT] [--workers N] [--queue N] [--chunk N] [--size ...] [--store DIR]
//!                   [--state-dir DIR] [--resume]
//! rskip-eval submit [--addr HOST:PORT] [--bench NAME] [--scheme unsafe|swift-r|arN|arN-di]
//!                   [--fault-model seu|skip|burst:N] [--tier ...] [--runs N] [--chunk N]
//!                   [--tenant NAME] [--stop-half-width F] [--stop-metric sdc|correct]
//!                   [--cancel-after N] [--expect-narrowing] [--outcomes] [--shutdown] [--json]
//!                   [--retry N]
//! rskip-eval serve-bench [--size ...] [--bench NAME] [--runs N] [--jobs N] [--chunk N] [--workers N] [--json]
//! ```
//!
//! With `--out DIR`, raw results are also written as JSON.
//!
//! `lint` protects every workload under every scheme and runs the
//! `rskip-lint` coverage verifier, printing per-scheme protected /
//! validated / unprotected counts; it exits 1 if any unprotected-window
//! diagnostic is found and 0 on a clean suite. `--json` swaps the table
//! for machine-readable output (same exit-code contract). `verify
//! --json` does the same for store integrity reports.
//!
//! `campaign` runs one benchmark's statistical fault-injection campaign
//! (UNSAFE, SWIFT-R, AR20) under a set of fault models. `--fault-model`
//! takes `seu`, `skip` or `burst:N` (N adjacent bits; plain `burst` is
//! `burst:4`), may repeat or hold a comma list, and defaults to all three
//! (`seu,skip,burst:4`). Model seeds are composition-independent: the
//! `seu` column is byte-identical to `fig9`'s conv1d numbers at equal
//! `--runs`, no matter which other models ran. `--json` prints the
//! machine-readable report; it exits 1 if any cell classifies the wrong
//! trial count or never fires its fault.
//!
//! `vuln` runs `rskip-vuln`: it partitions each build into injection
//! sections, prunes statically-benign fault sites, runs one small
//! site-universe campaign per section and composes the per-section
//! profiles into whole-program SDC/detection estimates with
//! conservative intervals. On small builds the skip-model cells are
//! cross-validated both ways against an exhaustive per-site oracle
//! (`--oracle-limit` caps the universe size, 0 disables).
//! `--incremental` persists per-section profiles in a content-hash
//! keyed cache under the store directory, so re-running after an edit
//! re-injects only changed sections (the JSON report carries per-cell
//! cache hit/miss counts). Exits 1 on any soundness or accounting
//! violation.
//!
//! `bench` measures serial fault-injection-campaign throughput per
//! execution tier (reference `match` interpreter vs the direct-threaded
//! tier) and prints trials/sec and decode-cache activity. Without
//! `--tier` it measures both tiers and exits 1 if the threaded tier is not faster than
//! `match`; `--tier` (or the `RSKIP_EXEC_TIER` environment variable)
//! narrows the measurement to one tier with no comparison gate.
//!
//! `supervise` replays a drifting-input workload with and without the
//! runtime supervisor and runs the runtime-state SEU campaign with
//! hardening off and on; it exits 1 if any built-in acceptance check
//! fails (breaker never opened under drift, breaker opened on the
//! stationary control, hardened metadata SDCs, SDC-free rate below the
//! always-predict baseline, or stationary skip retention under 50%).
//!
//! `serve` runs the streaming campaign service (`rskip-serve` backed by
//! the real harness): newline-delimited JSON jobs over TCP, a bounded
//! queue with typed backpressure, per-tenant model-store namespaces,
//! per-chunk Wilson-CI progress frames and server-side early stopping.
//! It blocks until a client sends a `Shutdown` frame. With
//! `--state-dir DIR` the service is crash-safe: jobs and per-chunk
//! progress are fsynced to per-tenant journals, completed results are
//! cached by content key, and a restarted server automatically resumes
//! unfinished jobs and re-serves finished ones from the cache
//! (`--resume` documents that intent and just requires `--state-dir`;
//! recovery always runs when a state directory is given). `submit` is
//! the matching client: it submits one job, streams its frames
//! (`--json` for raw wire frames), and exits 0 on completion.
//! `--retry N` makes it resilient: up to N attempts with capped
//! jittered backoff, honoring server `retry_after_ms` hints,
//! reconnecting on broken streams, and safely resuming or reusing
//! server-side progress (a cache answer is marked `(cached)`).
//! `--stop-half-width` adds an early-stopping rule; `--cancel-after N`
//! cancels the job after N progress frames; `--expect-narrowing` makes
//! the client verify that executed counts increase strictly and the
//! streamed SDC interval narrows (exit 1 on violation); `--shutdown`
//! just asks the server to drain and exit. `serve-bench` measures
//! service throughput at 1 vs `--workers` workers and prints jobs/sec
//! with per-chunk latency, plus cold-vs-cached submit latency and the
//! journal-replay cost a restart pays.
//!
//! The model-store commands persist the offline training phase:
//! `train` profiles and trains every benchmark and saves the artifacts;
//! a later `all --store DIR` warm-starts from them and performs zero
//! profiling/training executions (the footer reports hits and misses);
//! `verify` recomputes every checksum and exits nonzero on any
//! corruption; `inspect` lists each artifact's sections. `--store`
//! defaults to `results/store` for the store commands and is opt-in for
//! the figure commands.

use std::path::PathBuf;

use rskip_harness::build::EvalOptions;
use rskip_harness::Store;
use rskip_workloads::SizeProfile;

struct Args {
    command: String,
    size: SizeProfile,
    runs: u32,
    inputs: u32,
    out: Option<PathBuf>,
    store: Option<PathBuf>,
    json: bool,
    tier: Option<rskip_exec::ExecTier>,
    bench: String,
    fault_models: Vec<rskip_exec::FaultModel>,
    addr: String,
    workers: usize,
    queue: usize,
    chunk: u32,
    tenant: String,
    scheme: String,
    stop_half_width: Option<f64>,
    stop_metric: rskip_core::stats::StopMetric,
    cancel_after: Option<u32>,
    expect_narrowing: bool,
    outcomes: bool,
    shutdown: bool,
    jobs: u32,
    incremental: bool,
    oracle_limit: u64,
    state_dir: Option<PathBuf>,
    resume: bool,
    retry: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        command,
        size: SizeProfile::Small,
        runs: 200,
        inputs: 20,
        out: None,
        store: None,
        json: false,
        tier: None,
        bench: "conv1d".to_string(),
        fault_models: Vec::new(),
        addr: "127.0.0.1:4590".to_string(),
        workers: 2,
        queue: 16,
        chunk: 0,
        tenant: String::new(),
        scheme: "ar20".to_string(),
        stop_half_width: None,
        stop_metric: rskip_core::stats::StopMetric::Sdc,
        cancel_after: None,
        expect_narrowing: false,
        outcomes: false,
        shutdown: false,
        jobs: 4,
        incremental: false,
        oracle_limit: 4096,
        state_dir: None,
        resume: false,
        retry: 0,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--size" => {
                parsed.size = match value()?.as_str() {
                    "tiny" => SizeProfile::Tiny,
                    "small" => SizeProfile::Small,
                    "full" => SizeProfile::Full,
                    other => return Err(format!("unknown size `{other}`")),
                }
            }
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|e| format!("bad --runs: {e}"))?;
            }
            "--inputs" => {
                parsed.inputs = value()?.parse().map_err(|e| format!("bad --inputs: {e}"))?;
            }
            "--tier" => {
                let v = value()?;
                parsed.tier = Some(
                    rskip_exec::ExecTier::parse(&v)
                        .ok_or(format!("unknown tier `{v}` (match | threaded)"))?,
                );
            }
            "--bench" => parsed.bench = value()?,
            "--fault-model" => {
                for part in value()?.split(',') {
                    let m = rskip_exec::FaultModel::parse(part).ok_or(format!(
                        "unknown fault model `{part}` (seu | skip | burst:N, N in 1..=64)"
                    ))?;
                    parsed.fault_models.push(m);
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--store" => parsed.store = Some(PathBuf::from(value()?)),
            "--json" => parsed.json = true,
            "--addr" => parsed.addr = value()?,
            "--workers" => {
                parsed.workers = value()?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--queue" => {
                parsed.queue = value()?.parse().map_err(|e| format!("bad --queue: {e}"))?;
            }
            "--chunk" => {
                parsed.chunk = value()?.parse().map_err(|e| format!("bad --chunk: {e}"))?;
            }
            "--jobs" => {
                parsed.jobs = value()?.parse().map_err(|e| format!("bad --jobs: {e}"))?;
            }
            "--tenant" => parsed.tenant = value()?,
            "--scheme" => parsed.scheme = value()?,
            "--stop-half-width" => {
                parsed.stop_half_width = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --stop-half-width: {e}"))?,
                );
            }
            "--stop-metric" => {
                parsed.stop_metric = match value()?.as_str() {
                    "sdc" => rskip_core::stats::StopMetric::Sdc,
                    "correct" => rskip_core::stats::StopMetric::Correct,
                    other => return Err(format!("unknown stop metric `{other}` (sdc | correct)")),
                }
            }
            "--cancel-after" => {
                parsed.cancel_after = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --cancel-after: {e}"))?,
                );
            }
            "--expect-narrowing" => parsed.expect_narrowing = true,
            "--incremental" => parsed.incremental = true,
            "--oracle-limit" => {
                parsed.oracle_limit = value()?
                    .parse()
                    .map_err(|e| format!("bad --oracle-limit: {e}"))?;
            }
            "--outcomes" => parsed.outcomes = true,
            "--shutdown" => parsed.shutdown = true,
            "--state-dir" => parsed.state_dir = Some(PathBuf::from(value()?)),
            "--resume" => parsed.resume = true,
            "--retry" => {
                parsed.retry = value()?.parse().map_err(|e| format!("bad --retry: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    "usage: rskip-eval <table1|fig2|fig7|fig8a|fig8b|fig9|tradeoff|cost-ratio|ablations|all\
     |supervise|lint|train|inspect|verify|bench|campaign|vuln|serve|submit|serve-bench> \
     [--size tiny|small|full] [--runs N] [--inputs N] [--out DIR] [--store DIR] [--json] \
     [--tier match|threaded] [--bench NAME] \
     [--fault-model seu|skip|burst:N[,...]] \
     [--addr HOST:PORT] [--workers N] [--queue N] [--chunk N] [--jobs N] [--tenant NAME] \
     [--scheme unsafe|swift-r|arN|arN-di] [--stop-half-width F] [--stop-metric sdc|correct] \
     [--cancel-after N] [--expect-narrowing] [--outcomes] [--shutdown] \
     [--incremental] [--oracle-limit N] [--state-dir DIR] [--resume] [--retry N]"
        .to_string()
}

/// The store for the dedicated store commands: `--store` or the default
/// location.
fn store_or_default(args: &Args) -> Store {
    Store::open(
        args.store
            .clone()
            .unwrap_or_else(|| PathBuf::from("results/store")),
    )
}

fn save_json(out: &Option<PathBuf>, name: &str, value: &impl serde::Serialize) {
    let Some(dir) = out else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let options = EvalOptions::at_size(args.size);

    // The store commands never run figures; dispatch them first.
    match args.command.as_str() {
        "train" => {
            let store = store_or_default(&args);
            eprintln!("training into {}", store.dir().display());
            let engine = rskip_harness::Engine::with_store(options, Some(store));
            engine.warm(&rskip_harness::experiment::all_bench_names());
            println!("{}", engine.store_stats().render_footer());
            return;
        }
        "inspect" => {
            let store = store_or_default(&args);
            print!("{}", store.describe());
            return;
        }
        "verify" => {
            let store = store_or_default(&args);
            let reports = store.verify();
            let bad = reports.iter().filter(|r| !r.errors.is_empty()).count();
            if args.json {
                #[derive(serde::Serialize)]
                struct FileJson {
                    path: String,
                    errors: Vec<String>,
                }
                #[derive(serde::Serialize)]
                struct VerifyJson {
                    store: String,
                    artifacts: usize,
                    corrupt: usize,
                    reports: Vec<FileJson>,
                }
                let json = VerifyJson {
                    store: store.dir().display().to_string(),
                    artifacts: reports.len(),
                    corrupt: bad,
                    reports: reports
                        .iter()
                        .map(|r| FileJson {
                            path: r.path.display().to_string(),
                            errors: r.errors.iter().map(|e| e.to_string()).collect(),
                        })
                        .collect(),
                };
                match serde_json::to_string_pretty(&json) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else if reports.is_empty() {
                println!("{}: no artifacts", store.dir().display());
            } else {
                for report in &reports {
                    if report.errors.is_empty() {
                        println!("ok   {}", report.path.display());
                    } else {
                        println!("FAIL {}", report.path.display());
                        for e in &report.errors {
                            println!("     {e}");
                        }
                    }
                }
                println!("{} artifacts, {} corrupt", reports.len(), bad);
            }
            if bad > 0 {
                std::process::exit(1);
            }
            return;
        }
        "lint" => {
            let report = rskip_harness::lint::run(args.size);
            if args.json {
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => println!("{json}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                print!("{}", report.render());
            }
            save_json(&args.out, "lint", &report);
            if !report.is_clean() {
                eprintln!(
                    "rskip-eval lint: {} unprotected-window diagnostics",
                    report.diagnostics()
                );
                std::process::exit(1);
            }
            return;
        }
        "serve" => {
            if args.resume && args.state_dir.is_none() {
                eprintln!("rskip-eval serve: --resume requires --state-dir DIR");
                std::process::exit(2);
            }
            let store = args.store.clone().map(Store::open);
            let runner = std::sync::Arc::new(rskip_harness::HarnessRunner::new(options, store));
            let config = rskip_serve::ServerConfig {
                workers: args.workers.max(1),
                queue_capacity: args.queue.max(1),
                default_chunk: if args.chunk == 0 { 64 } else { args.chunk },
                state_dir: args.state_dir.clone(),
                ..rskip_serve::ServerConfig::default()
            };
            let server = match rskip_serve::Server::bind(args.addr.as_str(), runner, config.clone())
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rskip-eval serve: cannot bind {}: {e}", args.addr);
                    std::process::exit(2);
                }
            };
            if let Some(dir) = &args.state_dir {
                let rec = server.recovery();
                eprintln!(
                    "rskip-eval serve: state dir {}: resumed {} job(s), {} cached result(s), \
                     journal replay {:.3} ms ({} torn byte(s) truncated, {} foreign record(s) \
                     skipped)",
                    dir.display(),
                    rec.jobs_resumed,
                    rec.results_cached,
                    rec.replay_nanos as f64 / 1e6,
                    rec.truncated_bytes,
                    rec.skipped_records,
                );
            }
            eprintln!(
                "rskip-eval serve: listening on {} ({} workers, queue {}, default chunk {}); \
                 send a Shutdown frame (rskip-eval submit --shutdown) to stop",
                server.addr(),
                config.workers,
                config.queue_capacity,
                config.default_chunk,
            );
            server.join();
            return;
        }
        "submit" => {
            std::process::exit(run_submit(&args));
        }
        "serve-bench" => {
            let model = args
                .fault_models
                .first()
                .copied()
                .unwrap_or(rskip_exec::FaultModel::SingleBitSeu);
            let worker_counts = [1, args.workers.max(2)];
            let mut spec =
                rskip_serve::JobSpec::new(&args.bench, &args.scheme, &model.label(), args.runs);
            spec.chunk = if args.chunk == 0 { 20 } else { args.chunk };
            let report =
                rskip_harness::service::serve_bench(options, &spec, args.jobs, &worker_counts);
            if args.json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                print!("{}", report.render());
            }
            save_json(&args.out, "BENCH_serve", &report);
            return;
        }
        _ => {}
    }

    // One engine per invocation: every figure shares the prepared
    // setups, so `all` compiles/trains each benchmark exactly once.
    // With `--store`, the engine warm-starts from saved artifacts.
    let engine =
        rskip_harness::Engine::with_store(options.clone(), args.store.clone().map(Store::open));

    match args.command.as_str() {
        "table1" => print!("{}", rskip_harness::table1::render_with(&engine)),
        "fig2" => {
            let fig = rskip_harness::fig2::run_with(&engine);
            save_json(&args.out, "fig2", &fig);
            print!("{}", fig.render());
        }
        "fig7" => {
            let fig = rskip_harness::fig7::run_with(&engine);
            save_json(&args.out, "fig7", &fig);
            print!("{}", fig.render());
        }
        "fig8a" => {
            let fig = rskip_harness::fig8::run_8a_with(&engine);
            save_json(&args.out, "fig8a", &fig);
            print!("{}", fig.render());
        }
        "fig8b" => {
            let fig = rskip_harness::fig8::run_8b_with(&engine, args.inputs);
            save_json(&args.out, "fig8b", &fig);
            print!("{}", fig.render());
        }
        "fig9" => {
            let fig = rskip_harness::fig9::run_with(&engine, args.runs);
            save_json(&args.out, "fig9", &fig);
            print!("{}", fig.render());
        }
        "tradeoff" => {
            let t = rskip_harness::tradeoff::run_with(&engine, args.runs);
            save_json(&args.out, "tradeoff", &t);
            print!("{}", t.render());
        }
        "ablations" => {
            let a = rskip_harness::ablations::run_with(&engine);
            save_json(&args.out, "ablations", &a);
            print!("{}", a.render());
        }
        "supervise" => {
            let s = rskip_harness::supervisor_exp::run_with(&engine, args.runs);
            save_json(&args.out, "supervise", &s);
            print!("{}", s.render());
            let violations = s.check();
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("rskip-eval supervise: FAIL {v}");
                }
                std::process::exit(1);
            }
        }
        "bench" => {
            let setup = engine.setup(&args.bench);
            let ar = rskip_harness::ArSetting { percent: 20 };
            // `--tier` (or an explicit RSKIP_EXEC_TIER) narrows to one
            // tier; otherwise measure both tiers and gate on the speedup.
            let single = args.tier.or_else(|| {
                std::env::var("RSKIP_EXEC_TIER")
                    .ok()
                    .map(|_| rskip_exec::ExecTier::from_env())
            });
            let report = match single {
                Some(t) => rskip_harness::throughput::measure_tier_subset(
                    &setup,
                    ar,
                    args.runs,
                    0xC0FF_EE00,
                    5,
                    &[t],
                ),
                None => {
                    rskip_harness::throughput::measure_tiers(&setup, ar, args.runs, 0xC0FF_EE00, 5)
                }
            };
            if args.json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                print!("{}", report.render());
            }
            save_json(&args.out, "bench", &report);
            if single.is_none() {
                let speedup = rskip_harness::throughput::threaded_speedup(&report);
                if speedup < 1.0 {
                    eprintln!(
                        "rskip-eval bench: FAIL threaded tier slower than match ({speedup:.2}x)"
                    );
                    std::process::exit(1);
                }
            }
        }
        "vuln" => {
            let models = if args.fault_models.is_empty() {
                rskip_harness::fault_models::default_models()
            } else {
                args.fault_models.clone()
            };
            let benches: Vec<String> = args
                .bench
                .split(',')
                .filter(|b| !b.is_empty())
                .map(str::to_string)
                .collect();
            let opts = rskip_harness::vuln::VulnOptions {
                runs: args.runs,
                oracle_limit: args.oracle_limit,
                cache_dir: args.incremental.then(|| {
                    args.store
                        .clone()
                        .unwrap_or_else(|| PathBuf::from("results/store"))
                        .join("vuln-profiles")
                }),
                tier: args.tier,
            };
            let report = rskip_harness::vuln::run_with(&engine, benches, &models, &opts);
            if args.json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                print!("{}", report.render());
            }
            save_json(&args.out, "vuln", &report);
            let violations = report.check();
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("rskip-eval vuln: FAIL {v}");
                }
                std::process::exit(1);
            }
        }
        "campaign" => {
            let models = if args.fault_models.is_empty() {
                rskip_harness::fault_models::default_models()
            } else {
                args.fault_models.clone()
            };
            let report = rskip_harness::fault_models::run_with(
                &engine,
                vec![args.bench.clone()],
                args.runs,
                &models,
            );
            if args.json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        std::process::exit(2);
                    }
                }
            } else {
                print!("{}", report.render());
            }
            save_json(&args.out, "fault_models", &report);
            let violations = report.check();
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("rskip-eval campaign: FAIL {v}");
                }
                std::process::exit(1);
            }
        }
        "cost-ratio" => {
            let c = rskip_harness::cost_ratio::run(&options);
            save_json(&args.out, "cost_ratio", &c);
            print!("{}", c.render());
        }
        "all" => {
            print!("{}", rskip_harness::table1::render_with(&engine));
            println!();
            let fig2 = rskip_harness::fig2::run_with(&engine);
            save_json(&args.out, "fig2", &fig2);
            print!("{}", fig2.render());
            println!();
            let fig7 = rskip_harness::fig7::run_with(&engine);
            save_json(&args.out, "fig7", &fig7);
            print!("{}", fig7.render());
            let fig8a = rskip_harness::fig8::run_8a_with(&engine);
            save_json(&args.out, "fig8a", &fig8a);
            print!("{}", fig8a.render());
            println!();
            let fig8b = rskip_harness::fig8::run_8b_with(&engine, args.inputs);
            save_json(&args.out, "fig8b", &fig8b);
            print!("{}", fig8b.render());
            println!();
            let fig9 = rskip_harness::fig9::run_with(&engine, args.runs);
            save_json(&args.out, "fig9", &fig9);
            print!("{}", fig9.render());
            println!();
            let t = rskip_harness::tradeoff::join(&fig7, &fig9);
            save_json(&args.out, "tradeoff", &t);
            print!("{}", t.render());
            println!();
            let c = rskip_harness::cost_ratio::run(&options);
            save_json(&args.out, "cost_ratio", &c);
            print!("{}", c.render());
            println!();
            let a = rskip_harness::ablations::run_with(&engine);
            save_json(&args.out, "ablations", &a);
            print!("{}", a.render());
            if engine.store().is_some() {
                println!();
                println!("{}", engine.store_stats().render_footer());
            }
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn percent_ci(ci: rskip_core::stats::WilsonCi) -> String {
    format!("[{:.1}%, {:.1}%]", ci.lo * 100.0, ci.hi * 100.0)
}

/// One human-readable progress line.
fn progress_line(p: &rskip_serve::ProgressFrame) -> String {
    format!(
        "chunk {:>3}: {:>6}/{} trials · correct {:>5.1}% {} · sdc {:>5.1}% {} · {:.1} ms",
        p.chunk,
        p.executed,
        p.requested,
        p.stats.counts.protection_rate() * 100.0,
        percent_ci(p.correct_ci),
        p.stats.counts.rate(p.stats.counts.sdc) * 100.0,
        percent_ci(p.sdc_ci),
        p.chunk_nanos as f64 / 1e6,
    )
}

/// One human-readable terminal line for a completed job.
fn done_lines(d: &rskip_serve::DoneFrame) -> String {
    let mut out = format!(
        "done: {}/{} trials{}{} · correct {:.1}% {} · sdc {:.1}% {} · {:.1} ms",
        d.executed,
        d.requested,
        if d.early_stopped { " (early stop)" } else { "" },
        if d.cached { " (cached)" } else { "" },
        d.stats.counts.protection_rate() * 100.0,
        percent_ci(d.correct_ci),
        d.stats.counts.rate(d.stats.counts.sdc) * 100.0,
        percent_ci(d.sdc_ci),
        d.total_nanos as f64 / 1e6,
    );
    if d.early_stopped {
        out.push_str(&format!(
            "\nearly stopping saved {} of {} requested trials",
            d.requested - d.executed,
            d.requested
        ));
    }
    out
}

/// The `submit` subcommand: one job, one connection, streamed to the
/// terminal. Returns the process exit code.
#[allow(clippy::too_many_lines)]
fn run_submit(args: &Args) -> i32 {
    use rskip_core::stats::EarlyStop;
    use rskip_serve::{encode, Client, JobSpec, Response, RetryPolicy};

    if args.shutdown {
        let mut client = match Client::connect(args.addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("rskip-eval submit: cannot connect to {}: {e}", args.addr);
                return 2;
            }
        };
        if let Err(e) = client.shutdown_server() {
            eprintln!("rskip-eval submit: shutdown request failed: {e}");
            return 2;
        }
        eprintln!("rskip-eval submit: shutdown requested");
        return 0;
    }

    let model = args
        .fault_models
        .first()
        .copied()
        .unwrap_or(rskip_exec::FaultModel::SingleBitSeu);
    let mut spec = JobSpec::new(&args.bench, &args.scheme, &model.label(), args.runs);
    spec.tenant = args.tenant.clone();
    spec.chunk = args.chunk;
    spec.tier = args.tier.map(|t| t.label().to_string()).unwrap_or_default();
    spec.want_outcomes = args.outcomes;
    if let Some(half_width) = args.stop_half_width {
        spec.stop = Some(EarlyStop {
            metric: args.stop_metric,
            half_width,
        });
    }

    // `--retry N`: the resilient client. Reconnects and resubmits on
    // transient failures; safe against a durable server because
    // resubmission is idempotent (cache, in-flight dedup, suspended-
    // progress resume). Cancellation needs the one-connection path.
    if args.retry > 0 {
        if args.cancel_after.is_some() {
            eprintln!("rskip-eval submit: --cancel-after is incompatible with --retry");
            return 2;
        }
        let policy = RetryPolicy {
            max_attempts: args.retry,
            ..RetryPolicy::default()
        };
        let json = args.json;
        let done = Client::submit_resilient(args.addr.as_str(), &spec, policy, |p| {
            if json {
                println!("{}", encode(&Response::Progress(p.clone())));
            } else {
                println!("{}", progress_line(p));
            }
        });
        return match done {
            Ok(d) => {
                if json {
                    println!("{}", encode(&Response::Done(d)));
                } else {
                    println!("{}", done_lines(&d));
                }
                0
            }
            Err(e) => {
                eprintln!(
                    "rskip-eval submit: {e} (after up to {} attempts)",
                    args.retry
                );
                1
            }
        };
    }

    let mut client = match Client::connect(args.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rskip-eval submit: cannot connect to {}: {e}", args.addr);
            return 2;
        }
    };
    let job = match client.submit(&spec) {
        Ok(Response::Accepted { job, trials, chunk }) => {
            eprintln!("job {job} accepted: {trials} trials in chunks of {chunk}");
            job
        }
        Ok(Response::Rejected {
            error,
            detail,
            retry_after_ms,
        }) => {
            eprintln!("rskip-eval submit: rejected ({error:?}): {detail}");
            if let Some(ms) = retry_after_ms {
                eprintln!("rskip-eval submit: retry after {ms} ms");
            }
            return 1;
        }
        Ok(other) => {
            eprintln!("rskip-eval submit: unexpected frame {other:?}");
            return 2;
        }
        Err(e) => {
            eprintln!("rskip-eval submit: {e}");
            return 2;
        }
    };

    // Stream frames; optionally verify narrowing and/or cancel.
    let mut narrowing_violations = 0u32;
    let mut last: Option<(u32, u64, f64)> = None; // (executed, sdc count, half-width)
    let mut first_half_width: Option<f64> = None;
    let mut progress_seen = 0u32;
    loop {
        let frame = match client.recv() {
            Ok(f) => f,
            Err(e) => {
                eprintln!("rskip-eval submit: {e}");
                return 2;
            }
        };
        if args.json {
            println!("{}", encode(&frame));
        }
        match frame {
            Response::Progress(p) if p.job == job => {
                let half_width = p.sdc_ci.half_width();
                if !args.json {
                    println!("{}", progress_line(&p));
                }
                if args.expect_narrowing {
                    if let Some((prev_executed, prev_sdc, prev_half_width)) = last {
                        if p.executed <= prev_executed {
                            eprintln!(
                                "narrowing violation: executed {} after {}",
                                p.executed, prev_executed
                            );
                            narrowing_violations += 1;
                        }
                        if p.stats.counts.sdc == prev_sdc && half_width >= prev_half_width {
                            eprintln!(
                                "narrowing violation: half-width {half_width:.6} after \
                                 {prev_half_width:.6} with unchanged SDC count"
                            );
                            narrowing_violations += 1;
                        }
                    }
                    first_half_width.get_or_insert(half_width);
                    last = Some((p.executed, p.stats.counts.sdc, half_width));
                }
                progress_seen += 1;
                if args.cancel_after == Some(progress_seen) {
                    if let Err(e) = client.cancel(job) {
                        eprintln!("rskip-eval submit: cancel failed: {e}");
                        return 2;
                    }
                    eprintln!("cancel requested after {progress_seen} chunks");
                }
            }
            Response::Done(d) if d.job == job => {
                if !args.json {
                    println!("{}", done_lines(&d));
                }
                if args.expect_narrowing {
                    if let (Some(first), Some((_, _, final_half_width))) = (first_half_width, last)
                    {
                        if final_half_width > first {
                            eprintln!(
                                "narrowing violation: final half-width {final_half_width:.6} \
                                 above first {first:.6}"
                            );
                            narrowing_violations += 1;
                        }
                    }
                    if narrowing_violations > 0 {
                        eprintln!("rskip-eval submit: {narrowing_violations} narrowing violations");
                        return 1;
                    }
                }
                return 0;
            }
            Response::Cancelled {
                job: cancelled,
                executed,
                stats,
            } if cancelled == job => {
                if !args.json {
                    println!(
                        "cancelled after {executed} trials · correct {:.1}% · sdc {:.1}%",
                        stats.counts.protection_rate() * 100.0,
                        stats.counts.rate(stats.counts.sdc) * 100.0,
                    );
                }
                // A cancel we asked for is a success; an unrequested one
                // is a server-side surprise.
                return i32::from(args.cancel_after.is_none());
            }
            Response::Error { error, detail } => {
                eprintln!("rskip-eval submit: server error ({error:?}): {detail}");
                return 1;
            }
            _ => {}
        }
    }
}
