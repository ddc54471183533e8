//! Chunked-campaign determinism: splitting a campaign into chunks —
//! under any chunk size, any thread count, any execution tier, with the
//! campaign reconstructed per chunk from cached sizing the way the
//! service does — merges to an aggregate **byte-identical** to the
//! one-shot run. This is the property that lets the campaign service
//! shard jobs across a worker pool and still promise CLI-equal results.

use rskip_exec::ExecTier;
use rskip_harness::campaign::CampaignSizing;
use rskip_harness::{ArSetting, Campaign, CampaignStats, Engine, EvalOptions};
use rskip_serve::encode;
use rskip_workloads::SizeProfile;

fn tiny_engine() -> Engine {
    Engine::new(EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    })
}

const SEED: u64 = 0xDEC0_DE00;
const TRIALS: u32 = 500;

/// Runs the reference one-shot campaign and returns (stats, sizing).
fn one_shot(
    setup: &rskip_harness::BenchSetup,
    ar: ArSetting,
    tier: Option<ExecTier>,
    threads: usize,
) -> (CampaignStats, CampaignSizing) {
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);
    let mut campaign = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        make,
        SEED,
        TRIALS,
    );
    if let Some(tier) = tier {
        campaign.set_tier(tier);
    }
    let stats = campaign.run_on(threads, make, |h| h.total_faults_recovered());
    (stats, campaign.sizing())
}

/// Runs the same campaign in `chunk`-sized pieces, reconstructing the
/// campaign per chunk via `with_sizing` (the service's code path), and
/// merges the partial aggregates.
fn chunked(
    setup: &rskip_harness::BenchSetup,
    ar: ArSetting,
    tier: Option<ExecTier>,
    threads: usize,
    chunk: u32,
    sizing: CampaignSizing,
) -> CampaignStats {
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);
    let mut merged = CampaignStats::default();
    let mut start = 0;
    while start < TRIALS {
        let end = (start + chunk).min(TRIALS);
        let mut campaign = Campaign::with_sizing(
            &setup.rskip.module,
            &input,
            &golden,
            setup.bench.output_global(),
            SEED,
            TRIALS,
            sizing,
        );
        if let Some(tier) = tier {
            campaign.set_tier(tier);
        }
        let partial =
            campaign.run_range_on(threads, start..end, make, |h| h.total_faults_recovered());
        assert_eq!(
            partial.counts.total(),
            u64::from(end - start),
            "chunk {start}..{end} must classify every trial"
        );
        merged.merge(&partial);
        start = end;
    }
    merged
}

#[test]
fn chunked_equals_one_shot_across_chunkings_threads_and_tiers() {
    let engine = tiny_engine();
    let setup = engine.setup("conv1d");
    let ar = ArSetting { percent: 20 };

    // Reference: one-shot on the default tier at an arbitrary thread
    // count (thread count must not matter, and the suite proves it).
    let (reference, sizing) = one_shot(&setup, ar, None, 4);
    assert_eq!(reference.counts.total(), u64::from(TRIALS));
    let reference_wire = encode(&reference);

    // The issue's acceptance case first: chunked(5 × 100) ≡ one-shot(500).
    let five_by_hundred = chunked(&setup, ar, None, 4, 100, sizing);
    assert_eq!(
        encode(&five_by_hundred),
        reference_wire,
        "5×100 chunking must be byte-identical to the one-shot run"
    );

    // Then the full matrix: chunk sizes crossing trial-count divisors
    // and not (7 leaves a ragged tail), thread counts 1/2/8 (the
    // RAYON_NUM_THREADS axis — run_range_on takes the count directly,
    // which is what the env knob feeds), and every execution tier.
    for chunk in [33, 100, 250, TRIALS] {
        for threads in [1, 2, 8] {
            for tier in [None, Some(ExecTier::Match), Some(ExecTier::Threaded)] {
                let merged = chunked(&setup, ar, tier, threads, chunk, sizing);
                assert_eq!(
                    encode(&merged),
                    reference_wire,
                    "chunk={chunk} threads={threads} tier={tier:?} diverged from one-shot"
                );
            }
        }
    }

    // The one-shot itself is thread-count invariant too (both tiers of
    // the determinism claim, one test).
    let (single_threaded, _) = one_shot(&setup, ar, Some(ExecTier::Match), 1);
    assert_eq!(encode(&single_threaded), reference_wire);
}

#[test]
fn with_sizing_reconstruction_matches_fresh_measurement() {
    let engine = tiny_engine();
    let setup = engine.setup("kde");
    let ar = ArSetting { percent: 50 };
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);

    let fresh = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        make,
        7,
        16,
    );
    let sizing = fresh.sizing();
    let rebuilt = Campaign::with_sizing(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        7,
        16,
        sizing,
    );
    assert_eq!(rebuilt.sizing(), sizing);
    assert_eq!(rebuilt.region_budget(), fresh.region_budget());
    assert_eq!(
        rebuilt.config().step_limit,
        fresh.config().step_limit,
        "reconstruction must reuse the measured step limit"
    );
    // Same plans trial-for-trial: the injection stream is a function of
    // (seed, trial), not of how the campaign was constructed.
    for trial in [0, 1, 7, 15] {
        assert_eq!(rebuilt.plan(trial), fresh.plan(trial));
    }
}
