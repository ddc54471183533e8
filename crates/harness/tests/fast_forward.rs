//! Checkpointed trials against from-`main` trials.
//!
//! A random trial starts from the last clean-run checkpoint below its
//! trigger instead of from `main`, with the hook state saved in the
//! checkpoint restored into its fresh hooks: none for UNSAFE and
//! SWIFT-R, a whole prediction runtime for RSkip. Up to the trigger the
//! trial is the clean run, hooks included, so nothing observable may
//! change. This suite holds that four ways:
//!
//! 1. every trial outcome of fast-forwarded campaigns — 1 and 3 workers,
//!    one range and service-style chunks — equals the same campaign
//!    pinned to the reference tier, which never resumes; on conv1d and
//!    kde for UNSAFE and SWIFT-R, and on conv1d and blackscholes for
//!    RSkip AR20, AR20-DI and a hardened AR20 runtime;
//! 2. single runs resumed at the edges of the grid (triggers 0,
//!    `budget - 1`, and a checkpoint's own `region_retired` and ±1)
//!    match from-`main` reference runs in outcome and memory;
//! 3. one campaign driven first with AR20 hooks and then with AR20-DI
//!    hooks equals two separate campaigns: the runtime refuses a state
//!    saved by a runtime built differently, and those trials run from
//!    `main`;
//! 4. the hooks factory runs exactly once per trial, and on conv1d
//!    UNSAFE under SEU checkpoints skip 35–55 % of the clean steps.

use std::sync::atomic::{AtomicUsize, Ordering};

use rskip_exec::{ExecConfig, ExecTier, FaultModel, InjectionPlan, Machine};
use rskip_harness::campaign::TrialOutcome;
use rskip_harness::{ArSetting, BenchSetup, Campaign, Engine, EvalOptions, SchemeVariant};
use rskip_ir::Module;
use rskip_runtime::{PredictionRuntime, RuntimeConfig};
use rskip_workloads::{InputSet, SizeProfile};

const TRIALS: u32 = 48;
const CHUNK: u32 = 16;
const MODELS: [FaultModel; 3] = [
    FaultModel::SingleBitSeu,
    FaultModel::InstructionSkip,
    FaultModel::MultiBitBurst { width: 4 },
];

fn tiny_engine() -> Engine {
    Engine::new(EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    })
}

const AR20: ArSetting = ArSetting { percent: 20 };

/// What a cell runs: a scheme as the harness builds it, or an AR20
/// runtime with its own metadata hardened.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Hooks {
    Scheme(SchemeVariant),
    HardenedAr20,
}

impl Hooks {
    fn label(self) -> String {
        match self {
            Hooks::Scheme(v) => v.label(),
            Hooks::HardenedAr20 => "AR20-hardened".to_string(),
        }
    }

    fn build(self, setup: &BenchSetup) -> Option<PredictionRuntime> {
        match self {
            Hooks::Scheme(v) => setup.hooks(v),
            Hooks::HardenedAr20 => {
                let config = RuntimeConfig {
                    harden: true,
                    ..RuntimeConfig::with_ar(AR20.fraction())
                };
                Some(PredictionRuntime::with_model(
                    &setup.inits,
                    config,
                    &setup.models[&AR20],
                ))
            }
        }
    }

    fn module(self, setup: &BenchSetup) -> &Module {
        match self {
            Hooks::Scheme(v) => setup.module(v),
            Hooks::HardenedAr20 => setup.module(SchemeVariant::RSkip(AR20)),
        }
    }
}

/// One campaign cell's fixed data.
struct Cell<'a> {
    setup: &'a BenchSetup,
    hooks: Hooks,
    model: FaultModel,
    input: InputSet,
    golden: Vec<rskip_ir::Value>,
}

impl Cell<'_> {
    fn label(&self) -> String {
        let bench = self.setup.bench.meta().name;
        format!("{bench}/{}/{}", self.hooks.label(), self.model.label())
    }

    fn seed(&self) -> u64 {
        0xFA57_F0D0
            ^ self.model.seed_tag()
            ^ u64::from(self.hooks == Hooks::Scheme(SchemeVariant::SwiftR))
    }

    fn module(&self) -> &Module {
        self.hooks.module(self.setup)
    }

    fn make(&self) -> Option<PredictionRuntime> {
        self.hooks.build(self.setup)
    }

    /// A fresh campaign (sized by its own clean run) on `tier`.
    fn campaign(&self, tier: ExecTier) -> Campaign<'_> {
        let mut c = Campaign::new(
            self.module(),
            &self.input,
            &self.golden,
            self.setup.bench.output_global(),
            || self.make(),
            self.seed(),
            TRIALS,
        );
        c.set_fault_model(self.model);
        c.set_tier(tier);
        c
    }

    /// Outcomes of `range` on `threads` workers, asserting one hooks
    /// construction per trial.
    fn outcomes(
        &self,
        campaign: &Campaign<'_>,
        threads: usize,
        range: std::ops::Range<u32>,
    ) -> Vec<TrialOutcome> {
        let made = AtomicUsize::new(0);
        let make = || {
            made.fetch_add(1, Ordering::Relaxed);
            self.make()
        };
        let n = range.len();
        let out = campaign.trial_outcomes_on(threads, range, make, BenchSetup::recoveries);
        assert_eq!(
            made.into_inner(),
            n,
            "{}: one hooks construction per trial",
            self.label()
        );
        out
    }
}

/// Every `hooks` × fault model cell of every setup.
fn cells<'a>(setups: &'a [std::sync::Arc<BenchSetup>], hooks: &[Hooks]) -> Vec<Cell<'a>> {
    let mut cells = Vec::new();
    for setup in setups {
        let input = setup.test_input();
        let golden = setup.bench.golden(setup.options.size, &input);
        for &hooks in hooks {
            for model in MODELS {
                cells.push(Cell {
                    setup,
                    hooks,
                    model,
                    input: input.clone(),
                    golden: golden.clone(),
                });
            }
        }
    }
    cells
}

const STATELESS: [Hooks; 2] = [
    Hooks::Scheme(SchemeVariant::Unsafe),
    Hooks::Scheme(SchemeVariant::SwiftR),
];

const RUNTIMES: [Hooks; 3] = [
    Hooks::Scheme(SchemeVariant::RSkip(AR20)),
    Hooks::Scheme(SchemeVariant::RSkipDiOnly(AR20)),
    Hooks::HardenedAr20,
];

/// Every trial of each cell, on 1 and 3 workers, as one range and as
/// fresh-campaign chunks, equals the campaign pinned to `Match`.
fn assert_trials_equal_the_reference_tier(cells: &[Cell<'_>]) {
    for cell in cells {
        let label = cell.label();
        let reference = cell.outcomes(&cell.campaign(ExecTier::Match), 1, 0..TRIALS);
        assert_eq!(
            cell.campaign(ExecTier::Match).fast_forward().resumed,
            0,
            "{label}: the reference tier never resumes"
        );
        for threads in [1, 3] {
            let whole = cell.campaign(ExecTier::Threaded);
            let got = cell.outcomes(&whole, threads, 0..TRIALS);
            assert_eq!(got, reference, "{label}: one range on {threads} workers");
            assert!(
                whole.fast_forward().resumed > 0,
                "{label}: no trial resumed from a checkpoint"
            );
            // The service's shape: a fresh campaign per chunk.
            let sizing = whole.sizing();
            let mut chunked = Vec::new();
            for start in (0..TRIALS).step_by(CHUNK as usize) {
                let mut c = Campaign::with_sizing(
                    cell.module(),
                    &cell.input,
                    &cell.golden,
                    cell.setup.bench.output_global(),
                    cell.seed(),
                    TRIALS,
                    sizing,
                );
                c.set_fault_model(cell.model);
                chunked.extend(cell.outcomes(&c, threads, start..(start + CHUNK).min(TRIALS)));
            }
            assert_eq!(chunked, reference, "{label}: chunks on {threads} workers");
        }
    }
}

#[test]
fn fast_forwarded_trials_equal_the_reference_tier() {
    let engine = tiny_engine();
    let setups = [engine.setup("conv1d"), engine.setup("kde")];
    assert_trials_equal_the_reference_tier(&cells(&setups, &STATELESS));
}

#[test]
fn resumed_runtime_trials_equal_the_reference_tier() {
    let engine = tiny_engine();
    let setups = [engine.setup("conv1d"), engine.setup("blackscholes")];
    assert_trials_equal_the_reference_tier(&cells(&setups, &RUNTIMES));
}

/// A campaign whose grid AR20 trials filled, then driven with AR20-DI
/// hooks: the DI-only runtime refuses every AR20 state, so its trials
/// run from `main` and equal those of a campaign of their own.
#[test]
fn a_campaign_driven_with_two_runtimes_equals_two_campaigns() {
    let engine = tiny_engine();
    let setups = [engine.setup("blackscholes")];
    let all = cells(&setups, &RUNTIMES[..2]);
    let (ar20, di_only) = all.split_at(MODELS.len());
    for (a, b) in ar20.iter().zip(di_only) {
        let label = format!("{} then {}", a.label(), b.label());
        // Both campaigns are sized by AR20's clean run, as `shared` is.
        let want_a = a.outcomes(&a.campaign(ExecTier::Threaded), 1, 0..TRIALS);
        let want_b = b.outcomes(&a.campaign(ExecTier::Threaded), 1, 0..TRIALS);
        assert_eq!(
            want_b,
            b.outcomes(&a.campaign(ExecTier::Match), 1, 0..TRIALS),
            "{label}: AR20-DI alone equals the reference tier"
        );
        let shared = a.campaign(ExecTier::Threaded);
        assert_eq!(a.outcomes(&shared, 1, 0..TRIALS), want_a, "{label}");
        let after_a = shared.fast_forward();
        assert!(after_a.resumed > 0, "{label}: AR20 trials resumed");
        assert_eq!(b.outcomes(&shared, 1, 0..TRIALS), want_b, "{label}");
        assert_eq!(
            shared.fast_forward(),
            after_a,
            "{label}: no AR20-DI trial resumed from an AR20 checkpoint"
        );
    }
}

/// Resumes at the grid's edges: the first and last triggers, and a
/// checkpoint's own `region_retired` and its neighbours, where the
/// fault is due one boundary before, at, or after the saved boundary.
/// A resumed runtime also ends with the from-`main` run's recoveries.
#[test]
fn runs_resumed_at_grid_edges_match_runs_from_main() {
    let engine = tiny_engine();
    let stateless = [engine.setup("conv1d"), engine.setup("kde")];
    let runtimes = [engine.setup("conv1d"), engine.setup("blackscholes")];
    let mut all = cells(&stateless, &STATELESS);
    all.extend(cells(&runtimes, &RUNTIMES));
    for cell in all {
        let label = cell.label();
        let campaign = cell.campaign(ExecTier::Threaded);
        let module = cell.module();
        let budget = campaign.region_budget();
        let step = budget.div_ceil(8);
        let machine = |tier| {
            let config = ExecConfig {
                tier,
                ..campaign.config().clone()
            };
            let mut m = Machine::with_config(module, cell.make(), config);
            cell.input.apply(&mut m);
            m
        };
        let marks: Vec<u64> = (1..8).map(|k| k * step).collect();
        let (_, grid) = machine(ExecTier::Threaded).run_recording("main", &[], &marks);
        assert_eq!(
            grid.len(),
            marks.len(),
            "{label}: a clean run saves every point"
        );
        let mid = grid[grid.len() / 2].counters().region_retired;
        for trigger in [0, budget - 1, mid - 1, mid, mid + 1] {
            let plan = InjectionPlan {
                trigger,
                seed: 0x5EED ^ trigger,
                model: cell.model,
            };
            let mut from_main = machine(ExecTier::Match);
            from_main.set_injection(plan);
            let want = from_main.run("main", &[]);
            let below = grid.partition_point(|cp| cp.counters().region_retired < trigger);
            let Some(cp) = below.checked_sub(1).map(|i| &grid[i]) else {
                assert_eq!(trigger, 0, "{label}: only trigger 0 precedes every point");
                continue;
            };
            let mut resumed = machine(ExecTier::Threaded);
            resumed.set_injection(plan);
            let (got, _) = resumed
                .resume(cp, &[])
                .expect("the grid's own hooks resume");
            assert_eq!(got, want, "{label}: trigger {trigger}");
            assert_eq!(
                resumed.memory(),
                from_main.memory(),
                "{label}: memory at trigger {trigger}"
            );
            assert_eq!(
                BenchSetup::recoveries(resumed.hooks()),
                BenchSetup::recoveries(from_main.hooks()),
                "{label}: recoveries at trigger {trigger}"
            );
        }
    }
}

/// The share of clean steps skipped: the checkpoints' retired counts
/// over `TRIALS` clean runs.
#[test]
fn checkpoints_skip_about_half_the_clean_steps() {
    let engine = tiny_engine();
    let setups = [engine.setup("conv1d")];
    let cell = cells(&setups, &STATELESS).swap_remove(0);
    assert_eq!(
        (cell.hooks, cell.model),
        (STATELESS[0], FaultModel::SingleBitSeu)
    );
    let campaign = cell.campaign(ExecTier::Threaded);
    let clean = {
        let mut m = Machine::with_config(cell.module(), cell.make(), campaign.config().clone());
        cell.input.apply(&mut m);
        m.run("main", &[]).counters.retired
    };
    cell.outcomes(&campaign, 1, 0..TRIALS);
    let ff = campaign.fast_forward();
    let share = ff.skipped_steps as f64 / (f64::from(TRIALS) * clean as f64);
    assert!(
        (0.35..=0.55).contains(&share),
        "skipped-step share {share:.3} ({} resumed trials)",
        ff.resumed
    );
}
