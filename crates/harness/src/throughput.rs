//! Campaign throughput measurement behind `rskip-eval bench`, the
//! command that writes `results/BENCH_campaign.json`.
//!
//! Each benchmark's statistical fault-injection campaign runs serially
//! under every [`ExecTier`]; the tiers must agree on the aggregated
//! statistics (a throughput number from a wrong interpreter is worse
//! than no number) before trials/sec per tier and the decode-cache
//! activity behind the measurement are reported. The first benchmark
//! also runs serially and on the worker pool, which must agree the same
//! way (schedule invariance), for the pool speedup.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use rskip_exec::{decode_cache_stats, ExecTier};

use crate::build::{ArSetting, BenchSetup};
use crate::campaign::{num_threads, Campaign, CampaignStats};

/// The tiers a throughput report covers, slowest first.
pub const TIERS: [ExecTier; 2] = [ExecTier::Match, ExecTier::Threaded];

/// One tier's serial measurement.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TierThroughput {
    /// Tier name (`match` | `threaded`).
    pub tier: &'static str,
    /// Seconds per campaign (best of the timed repetitions).
    pub secs: f64,
    /// Serial trials per second.
    pub trials_per_sec: f64,
    /// Speedup over the `match` reference tier.
    pub speedup_vs_match: f64,
}

/// Decode-cache counter deltas observed across one measurement.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DecodeCacheDelta {
    /// Cache hits during the measurement.
    pub hits: u64,
    /// Cache misses (actual decodes) during the measurement.
    pub misses: u64,
}

/// One benchmark's per-tier throughput report.
#[derive(Clone, Debug, Serialize)]
pub struct BenchThroughput {
    /// Benchmark name.
    pub benchmark: String,
    /// Protection scheme label (e.g. `AR20`).
    pub scheme: String,
    /// Trials per campaign.
    pub trials: u32,
    /// Per-tier serial measurements, slowest tier first.
    pub tiers: Vec<TierThroughput>,
    /// Decode-cache activity while measuring (the campaign, all tier
    /// switches and every trial share exactly one decode per module).
    pub decode_cache: DecodeCacheDelta,
}

/// Serial vs worker-pool throughput of one benchmark's campaign on the
/// threaded tier.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelThroughput {
    /// Benchmark name.
    pub benchmark: String,
    /// Seconds per serial campaign (best of the timed repetitions).
    pub serial_secs: f64,
    /// Serial trials per second.
    pub serial_trials_per_sec: f64,
    /// Seconds per campaign on the pool (best of the timed repetitions).
    pub parallel_secs: f64,
    /// Pool trials per second.
    pub parallel_trials_per_sec: f64,
    /// Serial over pool seconds.
    pub speedup: f64,
}

/// The report `rskip-eval bench` prints and `results/BENCH_campaign.json`
/// holds.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignThroughput {
    /// Size profile of every campaign (e.g. `Tiny`).
    pub size: String,
    /// Protection scheme label (e.g. `AR20`).
    pub scheme: String,
    /// Trials per campaign.
    pub trials: u32,
    /// Hardware threads of the host, which bound the pool speedup.
    pub hardware_threads: usize,
    /// Workers in the pool measurement.
    pub pool_threads: usize,
    /// Per-benchmark tier measurements, in the order asked for.
    pub benchmarks: Vec<BenchThroughput>,
    /// Serial vs pool on the first benchmark.
    pub parallel: ParallelThroughput,
    /// How to read the numbers.
    pub note: &'static str,
}

/// One campaign on `threads` workers, timed.
fn one_campaign(
    c: &Campaign<'_>,
    setup: &BenchSetup,
    ar: ArSetting,
    threads: usize,
) -> (f64, CampaignStats) {
    let make = || setup.runtime(ar);
    let observe = |h: &rskip_runtime::PredictionRuntime| h.total_faults_recovered();
    let t0 = Instant::now();
    let stats = c.run_on(threads, make, observe);
    (t0.elapsed().as_secs_f64(), stats)
}

/// Best seconds per campaign for each of `variants` (tiers, worker
/// counts), where `run` times one campaign under a variant.
///
/// One warm-up campaign per variant doubles as the equality check: every
/// variant must reproduce the first one's statistics.
///
/// The timed rounds interleave the variants: on a shared machine the
/// load drifts on a seconds scale, so measuring each variant's
/// repetitions back-to-back would let one stall poison one variant's
/// entire number. Round-robin spreads any stall across all variants,
/// and best-of (the campaign is deterministic, so the minimum is the
/// least-noise estimate) discards it entirely for the rounds it missed.
///
/// # Panics
///
/// Panics if two variants disagree on the campaign statistics.
fn best_secs<V: Copy + Display>(
    what: &str,
    variants: &[V],
    reps: u32,
    mut run: impl FnMut(V) -> (f64, CampaignStats),
) -> Vec<f64> {
    let reference = run(variants[0]).1;
    for &v in &variants[1..] {
        assert_eq!(
            reference,
            run(v).1,
            "{what} {v} disagrees with {what} {} on campaign outcomes",
            variants[0]
        );
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..reps.max(1) {
        for (b, &v) in best.iter_mut().zip(variants) {
            *b = b.min(run(v).0);
        }
    }
    best
}

/// `setup`'s campaign of `trials` trials from `seed0`, over `input` and
/// its `golden` output.
fn campaign<'a>(
    setup: &'a BenchSetup,
    input: &'a rskip_workloads::InputSet,
    golden: &'a [rskip_ir::Value],
    ar: ArSetting,
    seed0: u64,
    trials: u32,
) -> Campaign<'a> {
    Campaign::new(
        &setup.rskip.module,
        input,
        golden,
        setup.bench.output_global(),
        || setup.runtime(ar),
        seed0,
        trials,
    )
}

/// Measures one benchmark's campaign throughput under every tier in
/// [`TIERS`], slowest first, `reps` interleaved rounds after a warm-up.
///
/// # Panics
///
/// Panics if two tiers disagree on the campaign statistics.
fn measure_tiers(
    setup: &BenchSetup,
    ar: ArSetting,
    trials: u32,
    seed0: u64,
    reps: u32,
) -> BenchThroughput {
    let cache_before = decode_cache_stats();
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let mut c = campaign(setup, &input, &golden, ar, seed0, trials);
    let best = best_secs("tier", &TIERS, reps, |tier| {
        c.set_tier(tier);
        one_campaign(&c, setup, ar, 1)
    });
    let tiers = TIERS
        .iter()
        .zip(&best)
        .map(|(tier, &secs)| TierThroughput {
            tier: tier.label(),
            secs,
            trials_per_sec: f64::from(trials) / secs,
            speedup_vs_match: best[0] / secs,
        })
        .collect();

    let cache_after = decode_cache_stats();
    BenchThroughput {
        benchmark: setup.bench.meta().name.to_string(),
        scheme: ar.label(),
        trials,
        tiers,
        decode_cache: DecodeCacheDelta {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
        },
    }
}

/// Measures one benchmark's threaded-tier campaign serially and on
/// `pool` workers, `reps` interleaved rounds after a warm-up.
///
/// # Panics
///
/// Panics if the pool's campaign statistics differ from the serial ones.
fn measure_parallel(
    setup: &BenchSetup,
    ar: ArSetting,
    trials: u32,
    seed0: u64,
    reps: u32,
    pool: usize,
) -> ParallelThroughput {
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let c = campaign(setup, &input, &golden, ar, seed0, trials);
    let best = best_secs("workers", &[1, pool], reps, |threads| {
        one_campaign(&c, setup, ar, threads)
    });
    ParallelThroughput {
        benchmark: setup.bench.meta().name.to_string(),
        serial_secs: best[0],
        serial_trials_per_sec: f64::from(trials) / best[0],
        parallel_secs: best[1],
        parallel_trials_per_sec: f64::from(trials) / best[1],
        speedup: best[0] / best[1],
    }
}

/// Measures every benchmark in `setups` under every tier, plus serial
/// vs [`num_threads`] workers on the first one.
///
/// # Panics
///
/// Panics if `setups` is empty, or if tiers or worker counts disagree on
/// the campaign statistics.
pub fn measure(
    setups: &[Arc<BenchSetup>],
    ar: ArSetting,
    trials: u32,
    seed0: u64,
    reps: u32,
) -> CampaignThroughput {
    let first = setups.first().expect("no benchmark to measure");
    let pool = num_threads();
    CampaignThroughput {
        size: format!("{:?}", first.options.size),
        scheme: ar.label(),
        trials,
        hardware_threads: std::thread::available_parallelism().map_or(1, usize::from),
        pool_threads: pool,
        benchmarks: setups
            .iter()
            .map(|s| measure_tiers(s, ar, trials, seed0, reps))
            .collect(),
        parallel: measure_parallel(first, ar, trials, seed0, reps, pool),
        note: "tier speedups are within-run ratios (same machine state); \
               parallel speedup is bounded by hardware_threads; wall-clock \
               trials/sec varies with host load",
    }
}

impl BenchThroughput {
    /// Human-readable table for `rskip-eval bench`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign throughput: {} {} ({} trials/campaign, serial)",
            self.benchmark, self.scheme, self.trials
        );
        let _ = writeln!(
            s,
            "  {:<16} {:>14} {:>12} {:>9}",
            "tier", "secs/campaign", "trials/sec", "speedup"
        );
        for t in &self.tiers {
            let _ = writeln!(
                s,
                "  {:<16} {:>14.5} {:>12.1} {:>8.2}x",
                t.tier, t.secs, t.trials_per_sec, t.speedup_vs_match
            );
        }
        let _ = writeln!(
            s,
            "  decode cache: {} misses, {} hits",
            self.decode_cache.misses, self.decode_cache.hits
        );
        s
    }
}

impl CampaignThroughput {
    /// Human-readable report for `rskip-eval bench`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s: String = self
            .benchmarks
            .iter()
            .map(BenchThroughput::render)
            .collect();
        let p = &self.parallel;
        let _ = writeln!(
            s,
            "parallel: {} serial {:.1} trials/sec, {} workers {:.1} trials/sec \
             ({:.2}x, {} hardware threads)",
            p.benchmark,
            p.serial_trials_per_sec,
            self.pool_threads,
            p.parallel_trials_per_sec,
            p.speedup,
            self.hardware_threads
        );
        s
    }
}

/// The threaded-tier speedup over `match` in `report` (0.0 if absent —
/// callers treat that as failure).
#[must_use]
pub fn threaded_speedup(report: &BenchThroughput) -> f64 {
    report
        .tiers
        .iter()
        .find(|t| t.tier == ExecTier::Threaded.label())
        .map_or(0.0, |t| t.speedup_vs_match)
}
