//! The unified experiment engine.
//!
//! Every figure used to build its own [`BenchSetup`]s, so `rskip-eval
//! all` compiled, profiled and trained each benchmark once *per figure*.
//! The engine fixes that with two pieces:
//!
//! * [`Engine`] — a concurrent cache of prepared setups keyed by
//!   benchmark name. Each benchmark is built and trained at most once
//!   per engine, no matter how many figures share it.
//! * [`Sweep`] — a declarative experiment grid: benchmarks ×
//!   [`SchemeVariant`]s, run either as timed single executions
//!   ([`Sweep::timed`]) or as fault-injection campaigns
//!   ([`Sweep::model_campaigns`]). The figures are thin projections of
//!   sweep results into their historical shapes, so rendered output is
//!   unchanged.
//!
//! Determinism: a sweep's numbers depend only on the options and the
//! seeds (campaign seeds are derived per (benchmark, scheme, runs)
//! exactly as before), never on scheduling — the engine parallelizes
//! with the same deterministic worker pool the campaigns use.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde::Serialize;

use rskip_exec::{FaultModel, RunOutcome};
use rskip_store::Store;

use crate::build::{ArSetting, BenchSetup, EvalOptions, StoreOutcome};
use crate::campaign::{
    num_threads, parallel_map_indexed, parallel_map_into, Campaign, CampaignStats,
};
use crate::AR_SETTINGS;

/// Names of every registered benchmark, in registry order.
pub fn all_bench_names() -> Vec<String> {
    rskip_workloads::all_benchmarks()
        .iter()
        .map(|b| b.meta().name.to_string())
        .collect()
}

/// A shared cache of prepared benchmark setups.
///
/// Cloning an `Arc<BenchSetup>` out of the cache is cheap; preparation
/// (compile under every scheme, profile, train per AR) happens at most
/// once per benchmark for the engine's lifetime.
pub struct Engine {
    options: EvalOptions,
    store: Option<Store>,
    cache: Mutex<BTreeMap<String, Arc<BenchSetup>>>,
}

impl Engine {
    /// An engine with an empty cache and no persistent store.
    pub fn new(options: EvalOptions) -> Self {
        Self::with_store(options, None)
    }

    /// An engine that consults (and fills) a persistent model store:
    /// setups whose artifacts are intact skip profiling and training
    /// entirely.
    pub fn with_store(options: EvalOptions, store: Option<Store>) -> Self {
        Engine {
            options,
            store,
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The options every setup is prepared with.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The persistent store, when one is configured.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The prepared setup for `name`, preparing it on first use.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name.
    pub fn setup(&self, name: &str) -> Arc<BenchSetup> {
        if let Some(s) = self.lock().get(name) {
            return Arc::clone(s);
        }
        let bench = rskip_workloads::benchmark_by_name(name)
            .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
        let prepared = Arc::new(BenchSetup::prepare_with_store(
            bench,
            &self.options,
            self.store.as_ref(),
        ));
        Arc::clone(self.lock().entry(name.to_string()).or_insert(prepared))
    }

    /// Aggregated store/preparation statistics over every setup prepared
    /// so far (the `rskip-eval` report footer).
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for setup in self.lock().values() {
            let p = &setup.prep;
            match p.store {
                StoreOutcome::Disabled => stats.disabled += 1,
                StoreOutcome::Miss => stats.misses += 1,
                StoreOutcome::Hit => stats.hits += 1,
                StoreOutcome::Partial { retrained } => {
                    stats.partial += 1;
                    stats.retrained_models += retrained;
                }
                StoreOutcome::Rejected => stats.rejected += 1,
            }
            stats.profile_runs += p.profile_runs;
            stats.trained_ars += p.trained_ars;
            stats.prep_nanos += p.prep_nanos;
        }
        stats
    }

    /// Prepares every missing setup among `names` in parallel.
    pub fn warm(&self, names: &[String]) {
        let missing: Vec<String> = {
            let cache = self.lock();
            let mut seen = std::collections::BTreeSet::new();
            names
                .iter()
                .filter(|n| !cache.contains_key(*n) && seen.insert(n.as_str()))
                .cloned()
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let prepared = parallel_map_into(missing, num_threads(), |_, name| {
            let bench = rskip_workloads::benchmark_by_name(&name)
                .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
            let setup = Arc::new(BenchSetup::prepare_with_store(
                bench,
                &self.options,
                self.store.as_ref(),
            ));
            (name, setup)
        });
        let mut cache = self.lock();
        for (name, setup) in prepared {
            cache.entry(name).or_insert(setup);
        }
    }

    /// Warms `names`, then maps `f` over their setups in parallel,
    /// returning results in `names` order.
    pub fn over<T: Send>(&self, names: &[String], f: impl Fn(&BenchSetup) -> T + Sync) -> Vec<T> {
        self.warm(names);
        parallel_map_indexed(names.len(), num_threads(), |i| f(&self.setup(&names[i])))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<BenchSetup>>> {
        self.cache
            .lock()
            .unwrap_or_else(|_| panic!("engine cache poisoned by a panicking worker"))
    }
}

/// Aggregated persistent-store statistics for a whole engine run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct StoreStats {
    /// Setups served entirely from intact artifacts.
    pub hits: usize,
    /// Setups with no artifact (trained from scratch, then saved).
    pub misses: usize,
    /// Setups recovered from damaged artifacts.
    pub partial: usize,
    /// Setups whose artifact could not be trusted at all.
    pub rejected: usize,
    /// Setups prepared with no store configured.
    pub disabled: usize,
    /// Per-AR models retrained while recovering damaged artifacts.
    pub retrained_models: usize,
    /// Profiling executions actually performed.
    pub profile_runs: u64,
    /// Per-AR training invocations actually performed.
    pub trained_ars: usize,
    /// Wall-clock nanoseconds spent profiling + training.
    pub prep_nanos: u64,
}

impl StoreStats {
    /// The report footer line, e.g.
    /// `model store: 5 hits, 0 misses · 0 profiling runs, 0 models trained · train time 0.00s`.
    pub fn render_footer(&self) -> String {
        let mut head = format!("{} hits, {} misses", self.hits, self.misses);
        if self.partial > 0 {
            head.push_str(&format!(
                ", {} partial ({} models retrained)",
                self.partial, self.retrained_models
            ));
        }
        if self.rejected > 0 {
            head.push_str(&format!(", {} rejected", self.rejected));
        }
        if self.disabled > 0 {
            head.push_str(&format!(", {} without store", self.disabled));
        }
        format!(
            "model store: {head} · {} profiling runs, {} models trained · train time {:.2}s",
            self.profile_runs,
            self.trained_ars,
            self.prep_nanos as f64 / 1e9,
        )
    }
}

/// One column of an experiment grid: a protection scheme as deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SchemeVariant {
    /// UNSAFE build (region markers only, no protection).
    Unsafe,
    /// SWIFT-R build.
    SwiftR,
    /// RSkip with the full prediction cascade at the given AR.
    RSkip(ArSetting),
    /// RSkip with only the first-level predictor (Fig. 8a's DI-only
    /// series).
    RSkipDiOnly(ArSetting),
}

impl SchemeVariant {
    /// The RSkip variants for every paper AR setting.
    pub fn rskip_all_ars() -> Vec<SchemeVariant> {
        AR_SETTINGS
            .iter()
            .map(|&a| SchemeVariant::RSkip(a))
            .collect()
    }

    /// Column label: `UNSAFE`, `SWIFT-R`, `AR20`, `AR20-DI`, …
    pub fn label(self) -> String {
        match self {
            SchemeVariant::Unsafe => "UNSAFE".into(),
            SchemeVariant::SwiftR => "SWIFT-R".into(),
            SchemeVariant::RSkip(ar) => format!("AR{}", ar.percent),
            SchemeVariant::RSkipDiOnly(ar) => format!("AR{}-DI", ar.percent),
        }
    }

    /// Parses a scheme name as used by CLI flags and the campaign-service
    /// wire format: `unsafe`, `swift-r`, `arN` or `arN-di` (N a percent,
    /// case-insensitive). Inverse of [`label`](SchemeVariant::label).
    pub fn parse(s: &str) -> Option<SchemeVariant> {
        let s = s.to_ascii_lowercase();
        match s.as_str() {
            "unsafe" => Some(SchemeVariant::Unsafe),
            "swift-r" => Some(SchemeVariant::SwiftR),
            _ => {
                let rest = s.strip_prefix("ar")?;
                let (digits, di) = match rest.strip_suffix("-di") {
                    Some(d) => (d, true),
                    None => (rest, false),
                };
                let percent: u32 = digits.parse().ok()?;
                let ar = crate::build::ArSetting { percent };
                Some(if di {
                    SchemeVariant::RSkipDiOnly(ar)
                } else {
                    SchemeVariant::RSkip(ar)
                })
            }
        }
    }
}

/// Per-scheme normalized metrics of one timed run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SchemeMetrics {
    /// Execution time (cycles) / unprotected.
    pub norm_time: f64,
    /// Retired instructions / unprotected.
    pub norm_instr: f64,
    /// IPC / unprotected.
    pub norm_ipc: f64,
    /// Skip rate (0 for conventional schemes).
    pub skip_rate: f64,
}

/// Runs `variant` once on `input` and normalizes against `base`.
pub fn timed_cell(
    setup: &BenchSetup,
    variant: SchemeVariant,
    input: &rskip_workloads::InputSet,
    base: &RunOutcome,
) -> SchemeMetrics {
    let (out, skip) = setup.run_timed(variant, input);
    SchemeMetrics {
        norm_time: out.counters.cycles as f64 / base.counters.cycles as f64,
        norm_instr: out.counters.retired as f64 / base.counters.retired as f64,
        norm_ipc: out.counters.ipc() / base.counters.ipc(),
        skip_rate: skip,
    }
}

/// One benchmark's timed measurements across a sweep's schemes.
#[derive(Clone, Debug, Serialize)]
pub struct TimedRow {
    /// Benchmark name.
    pub bench: String,
    /// One cell per sweep scheme, in sweep order.
    pub cells: Vec<(SchemeVariant, SchemeMetrics)>,
}

/// One benchmark's campaign results across a schemes × fault-models grid.
#[derive(Clone, Debug, Serialize)]
pub struct ModelCampaignRow {
    /// Benchmark name.
    pub bench: String,
    /// One cell per (scheme, fault model) pair, in sweep-major order
    /// (every model for the first scheme, then the next scheme).
    pub cells: Vec<(SchemeVariant, FaultModel, CampaignStats)>,
}

/// A declarative experiment grid: benchmarks × schemes.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Benchmark names (rows).
    pub benches: Vec<String>,
    /// Scheme variants (columns).
    pub schemes: Vec<SchemeVariant>,
}

impl Sweep {
    /// A sweep over explicit benchmarks and schemes.
    pub fn new(benches: Vec<String>, schemes: Vec<SchemeVariant>) -> Self {
        Sweep { benches, schemes }
    }

    /// A sweep over every registered benchmark.
    pub fn all_benches(schemes: Vec<SchemeVariant>) -> Self {
        Sweep::new(all_bench_names(), schemes)
    }

    /// Runs each (benchmark, scheme) cell as one timed execution on the
    /// benchmark's default test input, normalized to the unprotected
    /// build. Benchmarks run in parallel; each benchmark's schemes run
    /// in sweep order.
    pub fn timed(&self, engine: &Engine) -> Vec<TimedRow> {
        engine.over(&self.benches, |setup| {
            let input = setup.test_input();
            let base = setup.run_timed_plain(&setup.unprotected, &input);
            TimedRow {
                bench: setup.bench.meta().name.to_string(),
                cells: self
                    .schemes
                    .iter()
                    .map(|&v| (v, timed_cell(setup, v, &input, &base)))
                    .collect(),
            }
        })
    }

    /// Runs each (benchmark, scheme, fault model) cell as a `runs`-trial
    /// fault-injection campaign (Fig. 9 is the `[SingleBitSeu]` grid).
    /// Seeds are derived per (benchmark, scheme, model, runs), so results
    /// are independent of scheduling and of which other cells the sweep
    /// contains; cells that differ only in fault model share trigger
    /// instants but draw model-appropriate effects.
    pub fn model_campaigns(
        &self,
        engine: &Engine,
        runs: u32,
        models: &[FaultModel],
    ) -> Vec<ModelCampaignRow> {
        engine.over(&self.benches, |setup| {
            let input = setup.test_input();
            let golden = setup.bench.golden(setup.options.size, &input);
            let name = setup.bench.meta().name;
            let mut cells = Vec::with_capacity(self.schemes.len() * models.len());
            for &v in &self.schemes {
                for &m in models {
                    cells.push((
                        v,
                        m,
                        run_campaign_cell_model(setup, v, m, &input, &golden, runs),
                    ));
                }
            }
            ModelCampaignRow {
                bench: name.to_string(),
                cells,
            }
        })
    }
}

/// Campaign seed component per scheme (stable across sweeps: the seed a
/// (benchmark, scheme) cell uses never depends on the sweep around it).
fn scheme_seed(v: SchemeVariant) -> u64 {
    match v {
        SchemeVariant::Unsafe => 1,
        SchemeVariant::SwiftR => 2,
        SchemeVariant::RSkip(ar) => 100 + u64::from(ar.percent),
        SchemeVariant::RSkipDiOnly(ar) => 300 + u64::from(ar.percent),
    }
}

/// Campaign seed component per benchmark name.
fn name_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// The deterministic campaign seed of one (benchmark, scheme, fault
/// model, runs) cell — a pure function of the cell, independent of which
/// other cells run around it. Exposed so the campaign service derives
/// exactly the seed the one-shot CLI driver uses; a streamed job and
/// `rskip-eval campaign` at the same parameters are therefore the same
/// experiment, trial for trial.
#[must_use]
pub fn campaign_seed(bench: &str, variant: SchemeVariant, model: FaultModel, runs: u32) -> u64 {
    0x51_F0 ^ (u64::from(runs)) << 32 ^ scheme_seed(variant) ^ name_seed(bench) ^ model.seed_tag()
}

/// Runs one (benchmark, scheme, fault model) campaign cell with the
/// cell's deterministic seed ([`campaign_seed`]). The seed folds in
/// [`FaultModel::seed_tag`], which is zero for the SEU model, so SEU
/// cells keep the seeds Fig. 9 has always used while skip/burst cells
/// get their own streams.
pub fn run_campaign_cell_model(
    setup: &BenchSetup,
    variant: SchemeVariant,
    model: FaultModel,
    input: &rskip_workloads::InputSet,
    golden: &[rskip_ir::Value],
    runs: u32,
) -> CampaignStats {
    let make = || setup.hooks(variant);
    let mut campaign = Campaign::new(
        setup.module(variant),
        input,
        golden,
        setup.bench.output_global(),
        make,
        campaign_seed(setup.bench.meta().name, variant, model, runs),
        runs,
    );
    campaign.set_fault_model(model);
    campaign.run(make, BenchSetup::recoveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_workloads::SizeProfile;

    fn tiny_engine() -> Engine {
        Engine::new(EvalOptions {
            size: SizeProfile::Tiny,
            train_seeds: vec![1000, 1001],
            ..EvalOptions::default()
        })
    }

    #[test]
    fn engine_caches_setups() {
        let engine = tiny_engine();
        let a = engine.setup("conv1d");
        let b = engine.setup("conv1d");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn timed_sweep_normalizes_against_unprotected() {
        let engine = tiny_engine();
        let sweep = Sweep::new(
            vec!["conv1d".into()],
            vec![
                SchemeVariant::SwiftR,
                SchemeVariant::RSkip(ArSetting { percent: 100 }),
            ],
        );
        let rows = sweep.timed(&engine);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.bench, "conv1d");
        let (v0, swift_r) = row.cells[0];
        assert_eq!(v0, SchemeVariant::SwiftR);
        assert!(swift_r.norm_time > 1.0, "SWIFT-R must cost something");
        assert_eq!(swift_r.skip_rate, 0.0);
        let (_, rskip) = row.cells[1];
        assert!(rskip.skip_rate > 0.0, "RSkip must skip something");
    }

    #[test]
    fn campaign_sweep_is_reproducible_and_sweep_independent() {
        let engine = tiny_engine();
        let wide = Sweep::new(
            vec!["conv1d".into()],
            vec![SchemeVariant::Unsafe, SchemeVariant::SwiftR],
        );
        let narrow = Sweep::new(vec!["conv1d".into()], vec![SchemeVariant::SwiftR]);
        let seu = [FaultModel::SingleBitSeu];
        let wide_rows = wide.model_campaigns(&engine, 12, &seu);
        let narrow_rows = narrow.model_campaigns(&engine, 12, &seu);
        // The SWIFT-R cell is identical whether or not UNSAFE ran too.
        assert_eq!(wide_rows[0].cells[1].2, narrow_rows[0].cells[0].2);
        assert_eq!(wide_rows[0].cells[1].2.counts.total(), 12);
    }

    #[test]
    fn model_grid_seu_column_matches_legacy_campaigns() {
        let engine = tiny_engine();
        let sweep = Sweep::new(vec!["conv1d".into()], vec![SchemeVariant::SwiftR]);
        let seu_only = sweep.model_campaigns(&engine, 10, &[FaultModel::SingleBitSeu]);
        let grid = sweep.model_campaigns(
            &engine,
            10,
            &[
                FaultModel::SingleBitSeu,
                FaultModel::InstructionSkip,
                FaultModel::MultiBitBurst { width: 4 },
            ],
        );
        let row = &grid[0];
        assert_eq!(row.cells.len(), 3);
        let (v, m, ref seu) = row.cells[0];
        assert_eq!(v, SchemeVariant::SwiftR);
        assert_eq!(m, FaultModel::SingleBitSeu);
        // The SEU column does not depend on which other models ran.
        assert_eq!(*seu, seu_only[0].cells[0].2);
        for (_, _, stats) in &row.cells {
            assert_eq!(stats.counts.total(), 10);
        }
        // A model-only change must not be a silent no-op: the grid is
        // deterministic, so re-running reproduces every cell.
        let again = sweep.model_campaigns(&engine, 10, &[FaultModel::InstructionSkip]);
        assert_eq!(again[0].cells[0].2, row.cells[1].2);
    }
}
