//! Decode-cache discipline of the experiment engine.
//!
//! A fig7-style grid (benchmarks × scheme variants) used to re-decode
//! the same module for every cell — each timed cell builds a fresh
//! [`Machine`], and `Machine::with_config` decodes internally. The
//! process-wide decoded-unit cache (content-hash keyed) makes that one
//! decode per distinct build: all RSkip AR columns share one protected
//! module, so a whole grid needs at most four decodes per benchmark
//! (unprotected baseline, UNSAFE, SWIFT-R, RSkip).
//!
//! Everything lives in one test function: the cache counters are
//! process-wide, so concurrently running tests in the same binary would
//! race the deltas.

use rskip_exec::{decode_cache_stats, Decoded, FaultModel};
use rskip_harness::{ArSetting, Engine, EvalOptions, SchemeVariant, Sweep};
use rskip_workloads::SizeProfile;

#[test]
fn fig7_grid_performs_one_decode_per_build() {
    let engine = Engine::new(EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    });
    let benches = vec!["conv1d".to_string()];
    let schemes = vec![
        SchemeVariant::Unsafe,
        SchemeVariant::SwiftR,
        SchemeVariant::RSkip(ArSetting { percent: 20 }),
        SchemeVariant::RSkip(ArSetting { percent: 50 }),
        SchemeVariant::RSkip(ArSetting { percent: 100 }),
    ];
    let sweep = Sweep::new(benches.clone(), schemes);

    // Preparation (profiling, training) decodes as a side effect; get it
    // out of the way, then pin every build the grid will touch into the
    // cache so the sweep below is measured in isolation.
    engine.warm(&benches);
    let setup = engine.setup("conv1d");
    for module in [
        &setup.unprotected,
        &setup.unsafe_build.module,
        &setup.swift_r.module,
        &setup.rskip.module,
    ] {
        let _ = Decoded::new(module);
    }

    // Phase 1: a timed fig7-style grid must not decode anything anew —
    // every cell's machine resolves its build from the cache.
    let before = decode_cache_stats();
    let rows = sweep.timed(&engine);
    let after = decode_cache_stats();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].cells.len(), 5);
    assert_eq!(
        after.misses, before.misses,
        "fig7 grid re-decoded an already-decoded build"
    );
    // Each cell decodes-via-cache at least once, plus one baseline run
    // per benchmark: the grid provably went through the cache.
    assert!(
        after.hits >= before.hits + 6,
        "expected at least 6 cache hits across the grid, got {}",
        after.hits - before.hits
    );

    // Phase 2: campaigns over the same grid (fig9-style cells) are also
    // decode-free, including every per-trial machine.
    let before = decode_cache_stats();
    let stats = sweep.model_campaigns(&engine, 8, &[FaultModel::SingleBitSeu]);
    let after = decode_cache_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(
        after.misses, before.misses,
        "campaign grid re-decoded an already-decoded build"
    );
    assert!(after.hits > before.hits);

    // Phase 3: an identical second sweep is fully served by the cache and
    // reproduces the first grid's numbers (the cache must be inert).
    let before = decode_cache_stats();
    let rows2 = sweep.timed(&engine);
    let after = decode_cache_stats();
    assert_eq!(after.misses, before.misses);
    for (r1, r2) in rows.iter().zip(&rows2) {
        for ((v1, m1), (v2, m2)) in r1.cells.iter().zip(&r2.cells) {
            assert_eq!(v1, v2);
            assert_eq!(
                (m1.norm_time, m1.norm_instr, m1.skip_rate),
                (m2.norm_time, m2.norm_instr, m2.skip_rate),
                "cached decode changed a measured cell"
            );
        }
    }
}
