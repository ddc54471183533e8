//! The set-up layers, timed call by call.
//!
//! `BenchSetup::prepare` runs build, protection, profiling and training
//! as one call. The traced run repeats those steps here through the
//! same public functions so each layer's share of `setup_s` has its own
//! number. This pass runs first in a traced process, so the decode
//! cache starts empty.

use std::time::Instant;

use rskip_exec::{decode_cache_stats, Decoded};
use rskip_harness::{EvalOptions, AR_SETTINGS};
use rskip_ir::Module;
use rskip_passes::{protect, Scheme};
use rskip_runtime::{profile_module_with, train_from_profiles, RegionProfile, TrainingConfig};

use crate::report::Outcome;

/// Summed set-up layer costs over a workload's benchmarks.
#[derive(Default)]
pub struct SetupLayers {
    build_ms: f64,
    protect_ms: f64,
    insts: [u64; 3],
    profile_ms: f64,
    train_ms: f64,
    decode_us: f64,
    decode_hits: u64,
    decode_misses: u64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Static IR size: instructions plus one terminator per block.
pub fn static_insts(module: &Module) -> u64 {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64 + 1)
        .sum()
}

impl SetupLayers {
    /// Times each set-up step for `benches`. `decoded` names, per
    /// bench, which schemes' modules the workload executes (their
    /// decode is timed).
    pub fn measure(benches: &[(&str, &[Scheme])], options: &EvalOptions) -> SetupLayers {
        let mut layers = SetupLayers::default();
        let cache_before = decode_cache_stats();
        for &(name, decoded) in benches {
            let bench = rskip_workloads::benchmark_by_name(name)
                .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));

            let t = Instant::now();
            let unprotected = bench.build(options.size);
            let input = bench.gen_input(options.size, options.test_seed);
            std::hint::black_box(bench.golden(options.size, &input));
            layers.build_ms += ms(t);

            let mut builds = Vec::new();
            for (slot, scheme) in [Scheme::Unsafe, Scheme::SwiftR, Scheme::RSkip]
                .into_iter()
                .enumerate()
            {
                let t = Instant::now();
                let protected = protect(&unprotected, scheme);
                layers.protect_ms += ms(t);
                layers.insts[slot] += static_insts(&protected.module);
                builds.push((scheme, protected));
            }

            for (scheme, protected) in &builds {
                if decoded.contains(scheme) {
                    let t = Instant::now();
                    std::hint::black_box(Decoded::new(&protected.module));
                    layers.decode_us += t.elapsed().as_secs_f64() * 1e6;
                }
            }

            let rskip = &builds[2].1;
            let t = Instant::now();
            let mut merged: Vec<RegionProfile> = Vec::new();
            for &seed in &options.train_seeds {
                let input = bench.gen_input(options.size, seed);
                let p = profile_module_with(&rskip.module, "main", &[], &input.arrays);
                if merged.is_empty() {
                    merged = p;
                } else {
                    for (a, b) in merged.iter_mut().zip(&p) {
                        a.merge(b);
                    }
                }
            }
            layers.profile_ms += ms(t);

            let memoizable: Vec<bool> = (0..rskip.module.num_regions)
                .map(|id| {
                    rskip
                        .regions
                        .iter()
                        .any(|r| r.region.0 == id && r.memoizable)
                })
                .collect();
            let t = Instant::now();
            for ar in AR_SETTINGS {
                let config = TrainingConfig {
                    acceptable_range: ar.fraction(),
                    ..TrainingConfig::default()
                };
                std::hint::black_box(train_from_profiles(&merged, &memoizable, &config));
            }
            layers.train_ms += ms(t);
        }
        let cache_after = decode_cache_stats();
        layers.decode_hits = cache_after.hits - cache_before.hits;
        layers.decode_misses = cache_after.misses - cache_before.misses;
        layers
    }

    /// Adds the set-up layer metrics to `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("workloads.build_ms", self.build_ms, "ms");
        out.metric("passes.protect_ms", self.protect_ms, "ms");
        out.metric("passes.insts.unsafe", self.insts[0] as f64, "count");
        out.metric("passes.insts.swift_r", self.insts[1] as f64, "count");
        out.metric("passes.insts.rskip", self.insts[2] as f64, "count");
        out.metric("runtime.profile_ms", self.profile_ms, "ms");
        out.metric("runtime.train_ms", self.train_ms, "ms");
        out.metric("exec.decode_us", self.decode_us, "us");
        out.metric("exec.decode_cache_hits", self.decode_hits as f64, "count");
        out.metric(
            "exec.decode_cache_misses",
            self.decode_misses as f64,
            "count",
        );
    }
}
