//! Campaign throughput: fault-injection trials/sec, per execution tier.
//!
//! Runs Fig.-9-style campaigns (Tiny, AR20, 120 SEU trials) through
//! [`rskip_harness::throughput`]: each benchmark is measured serially
//! under every [`ExecTier`] (`match`, `threaded`),
//! with the tiers asserted trial-identical before any number is
//! published. The parallel worker-pool speedup and the persistent model
//! store's warm-start effectiveness are measured for the first benchmark
//! as before. Everything lands in `results/BENCH_campaign.json`:
//!
//! * `benchmarks[]` — per-tier secs/campaign, trials/sec and speedup vs
//!   `match`, plus the decoded-unit cache activity behind the threaded
//!   tier's numbers;
//! * `parallel` — serial vs worker-pool throughput (bounded by
//!   `hardware_threads`; on a single-core host they coincide);
//! * `model_store` — cold vs warm preparation through the store.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rskip_harness::build::{ArSetting, BenchSetup, EvalOptions};
use rskip_harness::campaign::{num_threads, Campaign};
use rskip_harness::throughput::{measure_tiers, threaded_speedup, BenchThroughput};
use rskip_harness::Store;
use rskip_workloads::SizeProfile;
use serde::Serialize;

/// The shape of `results/BENCH_campaign.json`.
#[derive(Serialize)]
struct CampaignJson {
    size: &'static str,
    scheme: &'static str,
    trials: u32,
    hardware_threads: usize,
    pool_threads: usize,
    benchmarks: Vec<BenchThroughput>,
    parallel: ParallelJson,
    model_store: StoreJson,
    note: &'static str,
}

#[derive(Serialize)]
struct ParallelJson {
    benchmark: &'static str,
    serial_secs: f64,
    serial_trials_per_sec: f64,
    parallel_secs: f64,
    parallel_trials_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct StoreJson {
    cold: String,
    warm: String,
    cold_prep_secs: f64,
    warm_prep_secs: f64,
}

const TRIALS: u32 = 120;
/// Timed repetitions per tier (interleaved best-of, after one warm-up).
const REPS: u32 = 5;
/// Campaign seed, shared by every benchmark's sweep.
const SEED0: u64 = 0xBEEF;
/// The benchmarks swept per tier: the paper's running example plus a
/// second, branch-heavier kernel so the tiers are compared on more than
/// one instruction mix.
const BENCHES: [&str; 2] = ["conv1d", "kde"];

fn timed_campaign(c: &Campaign<'_>, setup: &BenchSetup, threads: usize, reps: u32) -> f64 {
    let make = || setup.runtime(ArSetting { percent: 20 });
    // One warm-up pass, then the timed repetitions.
    black_box(c.run_on(threads, make, |h| h.total_faults_recovered()));
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(c.run_on(threads, make, |h| h.total_faults_recovered()));
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let opts = EvalOptions::at_size(SizeProfile::Tiny);
    let ar = ArSetting { percent: 20 };

    // Preparation of the first benchmark goes through the persistent
    // model store so the JSON also captures warm-start effectiveness:
    // the first prepare misses (profiles + trains + saves), the second
    // is served from disk.
    let store_dir = std::env::temp_dir().join(format!("rskip-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir);
    let bench_of = |name: &str| rskip_workloads::benchmark_by_name(name).expect("registry");
    let cold = BenchSetup::prepare_with_store(bench_of(BENCHES[0]), &opts, Some(&store));
    let setup = BenchSetup::prepare_with_store(bench_of(BENCHES[0]), &opts, Some(&store));
    let store_cold = format!("{:?}", cold.prep.store);
    let store_warm = format!("{:?}", setup.prep.store);
    let cold_prep_secs = cold.prep.prep_nanos as f64 / 1e9;
    let warm_prep_secs = setup.prep.prep_nanos as f64 / 1e9;
    drop(cold);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Per-tier serial throughput over every benchmark in the sweep. The
    // measurement asserts cross-tier trial equality internally.
    let mut reports = Vec::new();
    for name in BENCHES {
        let s = if name == BENCHES[0] {
            None
        } else {
            Some(BenchSetup::prepare(bench_of(name), &opts))
        };
        let s = s.as_ref().unwrap_or(&setup);
        let report = measure_tiers(s, ar, TRIALS, SEED0, REPS);
        print!("{}", report.render());
        assert!(
            threaded_speedup(&report) > 0.0,
            "threaded tier missing from report"
        );
        reports.push(report);
    }

    // Serial vs worker-pool on the first benchmark, as before.
    let input = setup.test_input();
    let golden = setup.bench.golden(opts.size, &input);
    let make = || setup.runtime(ar);
    let campaign = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        make,
        SEED0,
        TRIALS,
    );

    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = num_threads();

    c.bench_function("campaign/serial", |b| {
        b.iter(|| black_box(campaign.run_on(1, make, |h| h.total_faults_recovered())))
    });
    c.bench_function("campaign/parallel", |b| {
        b.iter(|| black_box(campaign.run_on(pool, make, |h| h.total_faults_recovered())))
    });

    // Determinism sanity: the numbers we are about to publish come from
    // identical experiments.
    let serial_stats = campaign.run_on(1, make, |h| h.total_faults_recovered());
    let parallel_stats = campaign.run_on(pool, make, |h| h.total_faults_recovered());
    assert_eq!(
        serial_stats, parallel_stats,
        "campaign not schedule-invariant"
    );

    let serial_secs = timed_campaign(&campaign, &setup, 1, REPS);
    let parallel_secs = timed_campaign(&campaign, &setup, pool, REPS);

    let threaded = threaded_speedup(&reports[0]);
    let json = CampaignJson {
        size: "Tiny",
        scheme: "AR20",
        trials: TRIALS,
        hardware_threads: hardware,
        pool_threads: pool,
        benchmarks: reports,
        parallel: ParallelJson {
            benchmark: BENCHES[0],
            serial_secs,
            serial_trials_per_sec: f64::from(TRIALS) / serial_secs,
            parallel_secs,
            parallel_trials_per_sec: f64::from(TRIALS) / parallel_secs,
            speedup: serial_secs / parallel_secs,
        },
        model_store: StoreJson {
            cold: store_cold,
            warm: store_warm,
            cold_prep_secs,
            warm_prep_secs,
        },
        note: "tier speedups are within-run ratios (same machine state); \
               parallel speedup is bounded by hardware_threads; wall-clock \
               trials/sec varies with host load",
    };
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_campaign.json"
    );
    std::fs::write(
        path,
        serde_json::to_string_pretty(&json).expect("serialize") + "\n",
    )
    .expect("write results/BENCH_campaign.json");
    println!(
        "[campaign] {TRIALS} trials: threaded {threaded:.2}x vs match ({}), parallel({pool}) {:.2}x vs serial (hw threads: {hardware}) -> {path}",
        BENCHES[0],
        serial_secs / parallel_secs,
    );
}

criterion_group!(benches, bench_campaign_throughput);
criterion_main!(benches);
