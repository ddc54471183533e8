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

use rskip_exec::FaultModel;
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
    /// module and hooks, nothing else (not the fault model, seed or
    /// trial count).
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
