//! Checkpointed trials against from-`main` trials.
//!
//! A random trial whose hooks are stateless (UNSAFE and SWIFT-R run
//! none) starts from the last clean-run checkpoint below its trigger
//! instead of from `main`. Up to the trigger the trial is the clean run,
//! so nothing observable may change. This suite holds that three ways:
//!
//! 1. every trial outcome of fast-forwarded campaigns — 1 and 3 workers,
//!    one range and service-style chunks — equals the same campaign
//!    pinned to the reference tier, which never resumes;
//! 2. single runs resumed at the edges of the grid (triggers 0,
//!    `budget - 1`, and a checkpoint's own `region_retired` and ±1)
//!    match from-`main` reference runs in outcome and memory;
//! 3. the hooks factory runs exactly once per trial, and on conv1d
//!    UNSAFE under SEU checkpoints skip 35–55 % of the clean steps.

use std::sync::atomic::{AtomicUsize, Ordering};

use rskip_exec::{ExecConfig, ExecTier, FaultModel, InjectionPlan, Machine};
use rskip_harness::campaign::TrialOutcome;
use rskip_harness::{BenchSetup, Campaign, Engine, EvalOptions, SchemeVariant};
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

/// One campaign cell's fixed data.
struct Cell<'a> {
    setup: &'a BenchSetup,
    variant: SchemeVariant,
    model: FaultModel,
    input: InputSet,
    golden: Vec<rskip_ir::Value>,
}

impl Cell<'_> {
    fn label(&self) -> String {
        let bench = self.setup.bench.meta().name;
        format!("{bench}/{}/{}", self.variant.label(), self.model.label())
    }

    fn seed(&self) -> u64 {
        0xFA57_F0D0 ^ self.model.seed_tag() ^ u64::from(self.variant == SchemeVariant::SwiftR)
    }

    /// A fresh campaign (sized by its own clean run) on `tier`.
    fn campaign(&self, tier: ExecTier) -> Campaign<'_> {
        let mut c = Campaign::new(
            self.setup.module(self.variant),
            &self.input,
            &self.golden,
            self.setup.bench.output_global(),
            || self.setup.hooks(self.variant),
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
            self.setup.hooks(self.variant)
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

fn cells(setups: &[std::sync::Arc<BenchSetup>]) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for setup in setups {
        let input = setup.test_input();
        let golden = setup.bench.golden(setup.options.size, &input);
        for variant in [SchemeVariant::Unsafe, SchemeVariant::SwiftR] {
            for model in MODELS {
                cells.push(Cell {
                    setup,
                    variant,
                    model,
                    input: input.clone(),
                    golden: golden.clone(),
                });
            }
        }
    }
    cells
}

#[test]
fn fast_forwarded_trials_equal_the_reference_tier() {
    let engine = tiny_engine();
    let setups = [engine.setup("conv1d"), engine.setup("kde")];
    for cell in cells(&setups) {
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
                    cell.setup.module(cell.variant),
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

/// Resumes at the grid's edges: the first and last triggers, and a
/// checkpoint's own `region_retired` and its neighbours, where the
/// fault is due one boundary before, at, or after the saved boundary.
#[test]
fn runs_resumed_at_grid_edges_match_runs_from_main() {
    let engine = tiny_engine();
    let setups = [engine.setup("conv1d"), engine.setup("kde")];
    for cell in cells(&setups) {
        let label = cell.label();
        let campaign = cell.campaign(ExecTier::Threaded);
        let module = cell.setup.module(cell.variant);
        let budget = campaign.region_budget();
        let step = budget.div_ceil(8);
        let machine = |tier| {
            let config = ExecConfig {
                tier,
                ..campaign.config().clone()
            };
            let mut m = Machine::with_config(module, cell.setup.hooks(cell.variant), config);
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
            let (got, _) = resumed.resume(cp, &[]);
            assert_eq!(got, want, "{label}: trigger {trigger}");
            assert_eq!(
                resumed.memory(),
                from_main.memory(),
                "{label}: memory at trigger {trigger}"
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
    let cell = cells(&setups).swap_remove(0);
    assert_eq!(
        (cell.variant, cell.model),
        (SchemeVariant::Unsafe, FaultModel::SingleBitSeu)
    );
    let campaign = cell.campaign(ExecTier::Threaded);
    let clean = {
        let mut m = Machine::with_config(
            cell.setup.module(cell.variant),
            cell.setup.hooks(cell.variant),
            campaign.config().clone(),
        );
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
