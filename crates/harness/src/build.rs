//! Shared experiment plumbing: compile each benchmark under every scheme,
//! train per acceptable-range models, run measured executions.

use std::collections::BTreeMap;
use std::time::Instant;

use rskip_exec::{ExecConfig, Machine, PipelineConfig, RunOutcome};
use rskip_ir::Module;
use rskip_passes::{protect, Protected, Scheme};
use rskip_runtime::{
    export_profiles, import_profiles, profile_module_with, train_from_profiles, PredictionRuntime,
    RegionInit, RegionProfile, RuntimeConfig, TrainedModel, TrainingConfig,
};
use rskip_store::{ArtifactMeta, CacheKey, LoadOutcome, ModelArtifact, Store, StoredModels};
use rskip_workloads::{Benchmark, InputSet, SizeProfile};

use crate::experiment::SchemeVariant;

/// One acceptable-range setting (the paper's AR20..AR100).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct ArSetting {
    /// Relative difference threshold in percent.
    pub percent: u32,
}

impl ArSetting {
    /// The threshold as a fraction.
    pub fn fraction(self) -> f64 {
        f64::from(self.percent) / 100.0
    }

    /// Label matching the paper (`AR20`).
    pub fn label(self) -> String {
        format!("AR{}", self.percent)
    }
}

/// Global experiment options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Workload size profile.
    pub size: SizeProfile,
    /// Training input seeds (never overlapping test seeds).
    pub train_seeds: Vec<u64>,
    /// Test input seed used by single-run measurements.
    pub test_seed: u64,
    /// Pipeline model for timed runs.
    pub pipeline: PipelineConfig,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            size: SizeProfile::Small,
            train_seeds: vec![1000, 1001, 1002, 1003],
            test_seed: 2000,
            pipeline: PipelineConfig::default(),
        }
    }
}

impl EvalOptions {
    /// Options at an explicit size.
    pub fn at_size(size: SizeProfile) -> Self {
        EvalOptions {
            size,
            ..Self::default()
        }
    }
}

/// How the persistent model store participated in one setup's
/// preparation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum StoreOutcome {
    /// No store configured — everything trained in-process.
    Disabled,
    /// No artifact for this cache key; trained and saved.
    Miss,
    /// Intact artifact; profiling and training were skipped entirely.
    Hit,
    /// Damaged artifact; intact sections warm-started, the rest was
    /// retrained (from stored profiles when those survived).
    Partial {
        /// Number of per-AR models that had to be retrained.
        retrained: usize,
    },
    /// Artifact could not be trusted at all (header corruption or cache-
    /// key mismatch); trained from scratch and re-saved.
    Rejected,
}

/// What preparing one setup cost — the report footer aggregates these.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct PrepStats {
    /// Store participation.
    pub store: StoreOutcome,
    /// Profiling executions this preparation performed (0 on a warm hit).
    pub profile_runs: u64,
    /// Per-AR training invocations this preparation performed.
    pub trained_ars: usize,
    /// Wall-clock nanoseconds spent profiling + training.
    pub prep_nanos: u64,
}

/// A benchmark compiled under all schemes, with per-AR trained models.
pub struct BenchSetup {
    /// The workload.
    pub bench: Box<dyn Benchmark>,
    /// The unprotected module.
    pub unprotected: Module,
    /// UNSAFE build (region markers only).
    pub unsafe_build: Protected,
    /// SWIFT-R build.
    pub swift_r: Protected,
    /// RSkip build.
    pub rskip: Protected,
    /// Region metadata for the runtime.
    pub inits: Vec<RegionInit>,
    /// Trained model per AR (training simulation uses the deployment AR).
    pub models: BTreeMap<ArSetting, TrainedModel>,
    /// Raw training profiles (fig2 reuses the sampled outputs).
    pub profiles: Vec<RegionProfile>,
    /// Options used to build this setup.
    pub options: EvalOptions,
    /// How this setup was obtained (store hit/miss, work performed).
    pub prep: PrepStats,
}

/// The content-hash cache key for one benchmark's training artifact:
/// printed module IR + protection-plan fingerprint + everything the
/// training result depends on (size, training seeds, AR settings, the
/// training hyper-parameters). Any change ⇒ different key ⇒ a stale
/// artifact can never load.
pub fn setup_cache_key(bench_name: &str, rskip: &Protected, options: &EvalOptions) -> CacheKey {
    let ar_labels: Vec<String> = crate::AR_SETTINGS.iter().map(|a| a.label()).collect();
    CacheKey::builder()
        .text("rskip-setup-v1")
        .text(bench_name)
        .text(&rskip_ir::print_module(&rskip.module))
        .text(&rskip.plan().fingerprint())
        .text(&format!("{:?}", options.size))
        .ints(&options.train_seeds)
        .text(&ar_labels.join(","))
        .text(&format!("{:?}", TrainingConfig::default()))
        .finish()
}

fn size_label(size: SizeProfile) -> String {
    format!("{size:?}").to_lowercase()
}

/// Converts pass-driver region specs into runtime init records (the
/// shared [`ProtectionPlan`](rskip_core::ProtectionPlan) regions).
pub fn region_inits(p: &Protected) -> Vec<RegionInit> {
    p.plan().regions
}

impl BenchSetup {
    /// Compiles, profiles and trains one benchmark with no store.
    ///
    /// # Panics
    ///
    /// Panics if any build fails verification or a training run traps —
    /// setup failures are fatal for the experiment.
    pub fn prepare(bench: Box<dyn Benchmark>, options: &EvalOptions) -> Self {
        Self::prepare_with_store(bench, options, None)
    }

    /// Compiles one benchmark, then consults the persistent model store
    /// before doing any training work. A clean hit skips profiling and
    /// training entirely; a damaged artifact warm-starts from its intact
    /// sections (retraining corrupt per-AR models from the stored
    /// profiles without re-profiling when possible); a miss trains from
    /// scratch and saves the artifact for the next process.
    ///
    /// # Panics
    ///
    /// Panics if any build fails verification or a training run traps —
    /// setup failures are fatal for the experiment. Store damage is never
    /// fatal: it falls back to retraining (with a warning on stderr).
    pub fn prepare_with_store(
        bench: Box<dyn Benchmark>,
        options: &EvalOptions,
        store: Option<&Store>,
    ) -> Self {
        let unprotected = bench.build(options.size);
        let unsafe_build = protect(&unprotected, Scheme::Unsafe);
        let swift_r = protect(&unprotected, Scheme::SwiftR);
        let rskip = protect(&unprotected, Scheme::RSkip);
        let inits = region_inits(&rskip);
        let name = bench.meta().name.to_string();
        let key = setup_cache_key(&name, &rskip, options);

        // --- Recover whatever the store has for this exact binary. ---
        #[derive(PartialEq)]
        enum LoadKind {
            Disabled,
            Miss,
            Rejected,
            Clean,
            Damaged,
        }
        let warn = |what: &str| eprintln!("warning: model store: {name}: {what}");
        let mut kind = LoadKind::Disabled;
        let mut profiles: Option<Vec<RegionProfile>> = None;
        let mut models: BTreeMap<ArSetting, TrainedModel> = BTreeMap::new();
        if let Some(store) = store {
            match store.load(&name, key) {
                LoadOutcome::Miss => kind = LoadKind::Miss,
                LoadOutcome::Rejected(errors) => {
                    kind = LoadKind::Rejected;
                    for e in &errors {
                        warn(&format!("artifact rejected: {e}"));
                    }
                }
                LoadOutcome::Hit(art) => {
                    kind = LoadKind::Clean;
                    profiles = Some(import_profiles(&art.profiles));
                    for ar in crate::AR_SETTINGS {
                        match art.models.get(&ar.label()).map(TrainedModel::try_from) {
                            Some(Ok(m)) => {
                                models.insert(ar, m);
                            }
                            Some(Err(e)) => {
                                kind = LoadKind::Damaged;
                                warn(&format!("{} model unusable: {e}", ar.label()));
                            }
                            None => kind = LoadKind::Damaged,
                        }
                    }
                }
                LoadOutcome::Partial(part) => {
                    kind = LoadKind::Damaged;
                    for e in &part.errors {
                        warn(&format!("artifact damaged: {e}"));
                    }
                    profiles = part.profiles.as_deref().map(import_profiles);
                    for ar in crate::AR_SETTINGS {
                        if let Some(stored) = part.models.get(&ar.label()) {
                            if let Ok(m) = TrainedModel::try_from(stored) {
                                models.insert(ar, m);
                            }
                        }
                    }
                }
            }
        }

        // --- Fill the gaps: profile if no usable profiles survived, and
        // train every AR the store could not provide (offline phase, §6).
        let work_started = Instant::now();
        let mut profile_runs = 0u64;
        let profiles = match profiles {
            Some(p) => p,
            None => {
                let mut merged: Vec<RegionProfile> = Vec::new();
                for &seed in &options.train_seeds {
                    let input = bench.gen_input(options.size, seed);
                    let p = profile_module_with(&rskip.module, "main", &[], &input.arrays);
                    profile_runs += 1;
                    if merged.is_empty() {
                        merged = p;
                    } else {
                        for (a, b) in merged.iter_mut().zip(&p) {
                            a.merge(b);
                        }
                    }
                }
                merged
            }
        };
        let memoizable: Vec<bool> = (0..rskip.module.num_regions)
            .map(|id| {
                rskip
                    .regions
                    .iter()
                    .find(|r| r.region.0 == id)
                    .map(|r| r.memoizable)
                    .unwrap_or(false)
            })
            .collect();
        let mut trained_ars = 0usize;
        for ar in crate::AR_SETTINGS {
            if models.contains_key(&ar) {
                continue;
            }
            // One trained model per AR: the TP sweep optimizes for the
            // deployment acceptable range.
            let config = TrainingConfig {
                acceptable_range: ar.fraction(),
                ..TrainingConfig::default()
            };
            models.insert(ar, train_from_profiles(&profiles, &memoizable, &config));
            trained_ars += 1;
        }
        let prep_nanos = work_started.elapsed().as_nanos() as u64;

        let outcome = match kind {
            LoadKind::Disabled => StoreOutcome::Disabled,
            LoadKind::Miss => StoreOutcome::Miss,
            LoadKind::Rejected => StoreOutcome::Rejected,
            LoadKind::Clean if trained_ars == 0 && profile_runs == 0 => StoreOutcome::Hit,
            LoadKind::Clean | LoadKind::Damaged => StoreOutcome::Partial {
                retrained: trained_ars,
            },
        };

        // --- Save back anything the store did not already hold. ---
        if let Some(store) = store {
            if outcome != StoreOutcome::Hit {
                let artifact = ModelArtifact {
                    meta: ArtifactMeta {
                        bench: name.clone(),
                        key: key.hex(),
                        size: size_label(options.size),
                        train_seeds: options.train_seeds.clone(),
                    },
                    profiles: export_profiles(&profiles),
                    models: models
                        .iter()
                        .map(|(ar, m)| (ar.label(), StoredModels::from(m)))
                        .collect(),
                };
                if let Err(e) = store.save(&artifact) {
                    warn(&format!("save failed: {e}"));
                }
            }
        }

        BenchSetup {
            bench,
            unprotected,
            unsafe_build,
            swift_r,
            rskip,
            inits,
            models,
            profiles,
            options: options.clone(),
            prep: PrepStats {
                store: outcome,
                profile_runs,
                trained_ars,
                prep_nanos,
            },
        }
    }

    /// Generates the default test input.
    pub fn test_input(&self) -> InputSet {
        self.bench
            .gen_input(self.options.size, self.options.test_seed)
    }

    /// A trained prediction runtime for the given AR.
    pub fn runtime(&self, ar: ArSetting) -> PredictionRuntime {
        let config = RuntimeConfig::with_ar(ar.fraction());
        PredictionRuntime::with_model(&self.inits, config, &self.models[&ar])
    }

    /// A trained runtime with memoization disabled (Fig. 8a's DI-only
    /// series).
    pub fn runtime_di_only(&self, ar: ArSetting) -> PredictionRuntime {
        let config = RuntimeConfig {
            enable_memo: false,
            ..RuntimeConfig::with_ar(ar.fraction())
        };
        PredictionRuntime::with_model(&self.inits, config, &self.models[&ar])
    }

    /// The build `variant` runs.
    pub fn module(&self, variant: SchemeVariant) -> &Module {
        match variant {
            SchemeVariant::Unsafe => &self.unsafe_build.module,
            SchemeVariant::SwiftR => &self.swift_r.module,
            SchemeVariant::RSkip(_) | SchemeVariant::RSkipDiOnly(_) => &self.rskip.module,
        }
    }

    /// Fresh hooks for one run of `variant`: its trained prediction
    /// runtime, or `None` (which acts as [`rskip_exec::NoopHooks`]) for
    /// the schemes without one.
    pub fn hooks(&self, variant: SchemeVariant) -> Option<PredictionRuntime> {
        match variant {
            SchemeVariant::Unsafe | SchemeVariant::SwiftR => None,
            SchemeVariant::RSkip(ar) => Some(self.runtime(ar)),
            SchemeVariant::RSkipDiOnly(ar) => Some(self.runtime_di_only(ar)),
        }
    }

    /// Faults the runtime of [`hooks`](Self::hooks) recovered in one run.
    /// Zero without a runtime: SWIFT-R votes in line, so its recoveries
    /// are not observable separately, and UNSAFE has no protection.
    pub fn recoveries(hooks: &Option<PredictionRuntime>) -> u64 {
        hooks
            .as_ref()
            .map_or(0, PredictionRuntime::total_faults_recovered)
    }

    /// Timed run of `variant`'s build with its hooks; returns the outcome
    /// and the measured skip rate (0 without a prediction runtime).
    pub fn run_timed(&self, variant: SchemeVariant, input: &InputSet) -> (RunOutcome, f64) {
        self.timed(self.module(variant), self.hooks(variant), input)
    }

    /// Timed run of a module with no prediction runtime.
    pub fn run_timed_plain(&self, module: &Module, input: &InputSet) -> RunOutcome {
        self.timed(module, None, input).0
    }

    fn timed(
        &self,
        module: &Module,
        hooks: Option<PredictionRuntime>,
        input: &InputSet,
    ) -> (RunOutcome, f64) {
        let mut machine = Machine::with_config(
            module,
            hooks,
            ExecConfig {
                timing: Some(self.options.pipeline),
                ..ExecConfig::default()
            },
        );
        input.apply(&mut machine);
        let out = machine.run("main", &[]);
        assert!(out.returned(), "timed run trapped: {:?}", out.termination);
        let skip = machine
            .hooks()
            .as_ref()
            .map_or(0.0, PredictionRuntime::total_skip_rate);
        (out, skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_run_one_benchmark() {
        let bench = rskip_workloads::benchmark_by_name("conv1d").unwrap();
        let options = EvalOptions {
            size: SizeProfile::Tiny,
            train_seeds: vec![1000, 1001],
            ..EvalOptions::default()
        };
        let setup = BenchSetup::prepare(bench, &options);
        assert_eq!(setup.models.len(), 4);
        let input = setup.test_input();
        let base = setup.run_timed_plain(&setup.unprotected, &input);
        let sr = setup.run_timed_plain(&setup.swift_r.module, &input);
        assert!(sr.counters.cycles > base.counters.cycles);
        let (pp, skip) = setup.run_timed(SchemeVariant::RSkip(ArSetting { percent: 100 }), &input);
        assert!(pp.counters.cycles > base.counters.cycles);
        assert!(skip > 0.0);
    }

    #[test]
    fn setup_cache_key_matches_stored_artifacts() {
        // Stored artifacts are addressed by this hex: a change to the
        // key's parts or their encoding orphans every existing store.
        let bench = rskip_workloads::benchmark_by_name("conv1d").unwrap();
        let options = EvalOptions::at_size(SizeProfile::Tiny);
        let rskip = protect(&bench.build(options.size), Scheme::RSkip);
        assert_eq!(
            setup_cache_key("conv1d", &rskip, &options).hex(),
            "153b75bcf3baddf2"
        );
    }
}
