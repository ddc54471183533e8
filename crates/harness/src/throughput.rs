//! Per-tier campaign throughput measurement.
//!
//! One implementation shared by the `BENCH_campaign` criterion bench and
//! the `rskip-eval bench` subcommand: run the same statistical
//! fault-injection campaign serially under every [`ExecTier`], assert the
//! tiers agree trial-for-trial (a throughput number from a wrong
//! interpreter is worse than no number), and report trials/sec per tier
//! plus the decode-cache activity behind the measurement.

use std::time::Instant;

use serde::Serialize;

use rskip_exec::{decode_cache_stats, ExecTier};

use crate::build::{ArSetting, BenchSetup};
use crate::campaign::{Campaign, CampaignStats};

/// The tiers a throughput report covers, slowest first.
pub const TIERS: [ExecTier; 2] = [ExecTier::Match, ExecTier::Threaded];

/// One tier's serial measurement.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TierThroughput {
    /// Tier name (`match` | `threaded`).
    pub tier: &'static str,
    /// Seconds per campaign (mean over the timed repetitions).
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

/// One serial campaign, timed.
fn one_campaign(c: &Campaign<'_>, setup: &BenchSetup, ar: ArSetting) -> (f64, CampaignStats) {
    let make = || setup.runtime(ar);
    let observe = |h: &rskip_runtime::PredictionRuntime| h.total_faults_recovered();
    let t0 = Instant::now();
    let stats = c.run_on(1, make, observe);
    (t0.elapsed().as_secs_f64(), stats)
}

/// Measures one benchmark's campaign throughput under every tier in
/// [`TIERS`], slowest first.
///
/// The campaign itself is identical across tiers; any disagreement in
/// the aggregated [`CampaignStats`] is a tier-equivalence violation and
/// panics rather than publishing a number for a wrong interpreter.
///
/// # Panics
///
/// Panics if two tiers disagree on the campaign statistics.
pub fn measure_tiers(
    setup: &BenchSetup,
    ar: ArSetting,
    trials: u32,
    seed0: u64,
    reps: u32,
) -> BenchThroughput {
    measure_tier_subset(setup, ar, trials, seed0, reps, &TIERS)
}

/// [`measure_tiers`] over an explicit tier list (`--tier` narrows the
/// measurement to one tier; `speedup_vs_match` is relative to the first
/// listed tier, 1.0 for it).
///
/// # Panics
///
/// Panics if two tiers disagree on the campaign statistics, or if
/// `tiers` is empty.
pub fn measure_tier_subset(
    setup: &BenchSetup,
    ar: ArSetting,
    trials: u32,
    seed0: u64,
    reps: u32,
    tiers: &[ExecTier],
) -> BenchThroughput {
    assert!(!tiers.is_empty(), "no tiers to measure");
    let cache_before = decode_cache_stats();
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);
    let mut campaign = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        make,
        seed0,
        trials,
    );

    // Warm-up pass per tier, which doubles as the cross-tier equality
    // check on the full campaign statistics.
    let mut reference: Option<CampaignStats> = None;
    for &tier in tiers {
        campaign.set_tier(tier);
        let (_, stats) = one_campaign(&campaign, setup, ar);
        match &reference {
            None => reference = Some(stats),
            Some(r) => assert_eq!(
                *r, stats,
                "tier {tier} disagrees with {} on campaign outcomes",
                tiers[0]
            ),
        }
    }

    // Timed rounds, tiers interleaved: on a shared machine the load
    // drifts on a seconds scale, so measuring each tier's repetitions
    // back-to-back would let one stall poison one tier's entire number.
    // Round-robin spreads any stall across all tiers, and best-of (the
    // campaign is deterministic, so the minimum is the least-noise
    // estimate) discards it entirely for the rounds it missed.
    let mut best = vec![f64::INFINITY; tiers.len()];
    for _ in 0..reps.max(1) {
        for (i, &tier) in tiers.iter().enumerate() {
            campaign.set_tier(tier);
            let (secs, _) = one_campaign(&campaign, setup, ar);
            best[i] = best[i].min(secs);
        }
    }
    let mut rows: Vec<TierThroughput> = Vec::with_capacity(tiers.len());
    for (i, &tier) in tiers.iter().enumerate() {
        rows.push(TierThroughput {
            tier: tier.label(),
            secs: best[i],
            trials_per_sec: f64::from(trials) / best[i],
            speedup_vs_match: rows.first().map_or(1.0, |m| m.secs / best[i]),
        });
    }

    let cache_after = decode_cache_stats();
    BenchThroughput {
        benchmark: setup.bench.meta().name.to_string(),
        scheme: ar.label(),
        trials,
        tiers: rows,
        decode_cache: DecodeCacheDelta {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
        },
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
