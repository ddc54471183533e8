//! Parallel fault-injection campaigns.
//!
//! A [`Campaign`] is a fixed experiment: one protected module (decoded
//! once), one input, one golden output, `trials` fault-injection runs
//! drawn from one [`FaultModel`] (single-bit SEU by default). Trials fan
//! out across a scoped thread pool, and the result is **byte-identical
//! regardless of thread count or schedule**:
//!
//! * each trial's randomness comes from its own
//!   `ChaCha8Rng::seed_from_u64(trial_seed(seed0, trial))` — a SplitMix64
//!   hash of the campaign seed and the trial index, never a shared
//!   sequential stream;
//! * trial outcomes are collected by index and folded left-to-right into
//!   [`CampaignStats`], whose merge is commutative and associative
//!   (monoidal) anyway;
//! * a trial that resumes from a shared checkpoint of the clean run
//!   finishes exactly as its run from `main` would (see [`Campaign`]),
//!   so which trials happened to fill the checkpoint grid is invisible.
//!
//! Thread count comes from the `RAYON_NUM_THREADS` environment variable
//! when set (the conventional knob, honored even though the pool is
//! hand-rolled `std::thread::scope`), else from
//! `std::thread::available_parallelism`.
//!
//! The deterministic worker pool itself lives in
//! [`rskip_core::parallel`] so every layer shares one implementation;
//! the utilities are re-exported here for compatibility.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rskip_exec::{
    classify_outcome, Checkpoint, Counters, Decoded, ExactFault, ExactFaultKind, ExecConfig,
    ExecTier, FaultModel, InjectionPlan, Machine, RunOutcome, RuntimeHooks,
};
use rskip_ir::{Module, Value};
use rskip_workloads::InputSet;

pub use rskip_core::stats::{CampaignStats, ClassCounts, OutcomeClass, TrialOutcome};

/// SplitMix64 hash of `(seed0, trial)` — the per-trial RNG seed.
///
/// Splitting the seed by trial index (instead of drawing trials from one
/// sequential stream) is what makes campaigns schedule-independent: trial
/// 17 sees the same randomness whether it runs first on one thread or
/// last on eight.
#[must_use]
pub fn trial_seed(seed0: u64, trial: u32) -> u64 {
    let mut z = seed0
        ^ u64::from(trial)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub use rskip_core::parallel::{num_threads, parallel_map_indexed, parallel_map_into};

/// Checkpoints of the clean run a campaign keeps: one per
/// `region_budget / CHECKPOINTS` region instructions (rounded up).
const CHECKPOINTS: u64 = 8;

/// A statistical fault-injection campaign over one protected build.
///
/// Construction decodes the module once and performs one clean
/// (injection-free) run to measure the region-instruction budget — the
/// sampling space for injection instants — and the hang threshold. Every
/// trial then shares the decode, the input, the golden output and the
/// [`ExecConfig`]; each trial has its own machine, hooks and
/// split-seeded plan.
///
/// Trials also share a grid of [`Checkpoint`]s of the clean run, one
/// per `region_budget / 8` region instructions, each holding the hooks'
/// state too ([`RuntimeHooks::save_state`]). A random trial on the
/// threaded tier starts from the last grid checkpoint below its trigger
/// instead of from `main`, with the saved hook state restored into its
/// fresh hooks, and saves the missing grid points its own clean prefix
/// passes. Up to the trigger a trial is the clean run, hooks included,
/// so its outcome is the same either way ([`Checkpoint`] has the
/// argument); [`Campaign::fast_forward`] counts what it saved. Hooks
/// refuse a state that hooks built differently saved
/// ([`RuntimeHooks::restore_state`]), and such a trial runs from
/// `main`, so one campaign driven with two hooks factories stays exact.
pub struct Campaign<'m> {
    decoded: Decoded<'m>,
    input: &'m InputSet,
    golden: &'m [Value],
    output: &'m str,
    config: ExecConfig,
    region_budget: u64,
    seed0: u64,
    trials: u32,
    model: FaultModel,
    /// Grid point `k` is saved at region instruction
    /// `(k + 1) * checkpoint_step()`; the grid is contiguous from 0.
    checkpoints: Mutex<Vec<Arc<Checkpoint>>>,
    resumed: AtomicU64,
    skipped_steps: AtomicU64,
}

/// What checkpoints saved a campaign's trials so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastForward {
    /// Trials that resumed from a checkpoint instead of `main`.
    pub resumed: u64,
    /// Steps those trials did not execute: the sum of their
    /// checkpoints' retired instructions.
    pub skipped_steps: u64,
}

impl<'m> Campaign<'m> {
    /// Prepares a campaign: decodes `module`, runs it clean with
    /// `make_hooks()` to size the injection window and the step limit.
    ///
    /// # Panics
    ///
    /// Panics if the clean run never enters a protected region — the
    /// build has nothing to inject into, which is an experiment-setup
    /// bug.
    pub fn new<H: RuntimeHooks>(
        module: &'m Module,
        input: &'m InputSet,
        golden: &'m [Value],
        output_global: &'m str,
        make_hooks: impl Fn() -> H,
        seed0: u64,
        trials: u32,
    ) -> Self {
        let decoded = Decoded::new(module);
        let clean = {
            let mut machine = Machine::from_decoded(&decoded, make_hooks(), ExecConfig::default());
            input.apply(&mut machine);
            machine.run("main", &[]).counters
        };
        let sizing = CampaignSizing::from_clean(&clean);
        Self::sized(decoded, input, golden, output_global, seed0, trials, sizing)
    }

    /// Rebuilds a campaign from a previously measured [`sizing`] without
    /// re-running the clean sizing execution. Chunked/resumable drivers
    /// (the campaign service) size once, then reconstruct the campaign
    /// per chunk; because the sizing numbers and every per-trial seed are
    /// functions of the same inputs, the reconstruction is byte-identical
    /// to the original.
    ///
    /// [`sizing`]: Campaign::sizing
    pub fn with_sizing(
        module: &'m Module,
        input: &'m InputSet,
        golden: &'m [Value],
        output_global: &'m str,
        seed0: u64,
        trials: u32,
        sizing: CampaignSizing,
    ) -> Self {
        let decoded = Decoded::new(module);
        Self::sized(decoded, input, golden, output_global, seed0, trials, sizing)
    }

    fn sized(
        decoded: Decoded<'m>,
        input: &'m InputSet,
        golden: &'m [Value],
        output: &'m str,
        seed0: u64,
        trials: u32,
        sizing: CampaignSizing,
    ) -> Self {
        Campaign {
            decoded,
            input,
            golden,
            output,
            config: ExecConfig {
                step_limit: sizing.step_limit,
                ..ExecConfig::default()
            },
            region_budget: sizing.region_budget,
            seed0,
            trials,
            model: FaultModel::SingleBitSeu,
            checkpoints: Mutex::new(Vec::new()),
            resumed: AtomicU64::new(0),
            skipped_steps: AtomicU64::new(0),
        }
    }

    /// The measured sizing numbers (injection window and step limit) —
    /// everything [`Campaign::with_sizing`] needs to reconstruct this
    /// campaign without another clean run.
    #[must_use]
    pub fn sizing(&self) -> CampaignSizing {
        CampaignSizing {
            region_budget: self.region_budget,
            step_limit: self.config.step_limit,
        }
    }

    /// Selects the fault model every subsequent trial draws from
    /// (defaults to [`FaultModel::SingleBitSeu`], the paper's model).
    /// The trigger/seed stream is independent of the model, so two
    /// campaigns differing only here inject at identical instants.
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.model = model;
    }

    /// Selects the execution tier for every subsequent trial (the tiers
    /// are observationally identical, so this changes throughput only).
    /// Defaults to [`rskip_exec::ExecTier::Threaded`]; tests and the
    /// throughput bench pin [`rskip_exec::ExecTier::Match`] here. Trials
    /// on `Match` never resume from a checkpoint.
    pub fn set_tier(&mut self, tier: rskip_exec::ExecTier) {
        self.config.tier = tier;
    }

    /// Trial count.
    #[must_use]
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// The region-instruction budget injection instants are sampled from.
    #[must_use]
    pub fn region_budget(&self) -> u64 {
        self.region_budget
    }

    /// The step-limited execution config shared by every trial.
    #[must_use]
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The deterministic injection plan of one trial.
    #[must_use]
    pub fn plan(&self, trial: u32) -> InjectionPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(self.seed0, trial));
        InjectionPlan {
            trigger: rng.gen_range(0..self.region_budget),
            seed: rng.gen(),
            model: self.model,
        }
    }

    /// What checkpoints saved this campaign's trials so far.
    #[must_use]
    pub fn fast_forward(&self) -> FastForward {
        FastForward {
            resumed: self.resumed.load(Ordering::Relaxed),
            skipped_steps: self.skipped_steps.load(Ordering::Relaxed),
        }
    }

    /// Runs one trial and classifies it. `observe_recoveries` reads the
    /// scheme's recovery counter off the hooks after the run (return 0
    /// for schemes without explicit recovery). `make_hooks` is called
    /// once, and must return hooks in the state their build gives them.
    pub fn run_trial<H: RuntimeHooks>(
        &self,
        trial: u32,
        make_hooks: impl Fn() -> H,
        observe_recoveries: impl Fn(&H) -> u64,
    ) -> TrialOutcome {
        let plan = self.plan(trial);
        let hooks = make_hooks();
        if self.config.tier == ExecTier::Threaded {
            return self.trial(
                hooks,
                |m| self.run_from_checkpoint(m, plan),
                observe_recoveries,
            );
        }
        let run = |m: &mut Machine<'_, H>| {
            m.set_injection(plan);
            m.run("main", &[])
        };
        self.trial(hooks, run, observe_recoveries)
    }

    /// Region instructions between two grid checkpoints.
    fn checkpoint_step(&self) -> u64 {
        self.region_budget.div_ceil(CHECKPOINTS)
    }

    /// Runs `plan` from the last grid checkpoint below its trigger (or
    /// from `main`), saving the grid points missing below the trigger.
    /// A trial whose hooks refuse the checkpoint's hook state (hooks
    /// built differently from the ones that saved it) runs from `main`
    /// and saves nothing; so do hooks that cannot be resumed.
    fn run_from_checkpoint<H: RuntimeHooks>(
        &self,
        machine: &mut Machine<'_, H>,
        plan: InjectionPlan,
    ) -> RunOutcome {
        let (from, below, saved) = {
            let grid = self
                .checkpoints
                .lock()
                .expect("no trial panics holding the checkpoint grid");
            let below = grid.partition_point(|cp| cp.counters().region_retired < plan.trigger);
            let from = below.checked_sub(1).map(|i| Arc::clone(&grid[i]));
            (from, below, grid.len())
        };
        // A missing point is below the trigger only if every saved one
        // is; recording from the end keeps the grid contiguous.
        let step = self.checkpoint_step();
        let marks: Vec<u64> = if below == saved {
            (saved as u64 + 1..)
                .map(|k| k * step)
                .take_while(|&mark| mark < plan.trigger)
                .collect()
        } else {
            Vec::new()
        };
        machine.set_injection(plan);
        let (out, recorded) = match &from {
            Some(cp) => match machine.resume(cp, &marks) {
                Some(run) => {
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                    self.skipped_steps
                        .fetch_add(cp.counters().retired, Ordering::Relaxed);
                    run
                }
                None => return machine.run("main", &[]),
            },
            // With an empty grid, only hooks that can be resumed record.
            None if !marks.is_empty() && machine.hooks().save_state().is_some() => {
                machine.run_recording("main", &[], &marks)
            }
            None => return machine.run("main", &[]),
        };
        if !recorded.is_empty() {
            // Another trial may have appended some of the same points
            // meanwhile; they are the same clean states, and restores
            // check whose hooks saved them.
            let mut grid = self
                .checkpoints
                .lock()
                .expect("no trial panics holding the checkpoint grid");
            let have = grid.len() - saved;
            grid.extend(recorded.into_iter().skip(have).map(Arc::new));
        }
        out
    }

    /// Runs one *runtime-state* trial: the trial's [`plan`] trigger and
    /// seed arm a bit flip against the prediction runtime's own metadata
    /// ([`Machine::set_runtime_state_flip`]) instead of a program
    /// register. `fired` reports whether a live metadata bit was struck;
    /// `recovered` whether `observe_detections` read a positive count
    /// off the hooks after the run.
    ///
    /// [`plan`]: Campaign::plan
    pub(crate) fn run_state_trial<H: RuntimeHooks>(
        &self,
        trial: u32,
        make_hooks: impl Fn() -> H,
        observe_detections: impl Fn(&H) -> u64,
    ) -> TrialOutcome {
        let plan = self.plan(trial);
        let run = |m: &mut Machine<'_, H>| {
            m.set_runtime_state_flip(plan.trigger, plan.seed);
            m.run("main", &[])
        };
        self.trial(make_hooks(), run, observe_detections)
    }

    /// Runs one trial with `fault` armed exactly — one probe of the
    /// exhaustive enumeration's measure.
    pub(crate) fn run_exact_trial<H: RuntimeHooks>(
        &self,
        fault: ExactFault,
        make_hooks: impl Fn() -> H,
        observe_recoveries: impl Fn(&H) -> u64,
    ) -> TrialOutcome {
        let run = |m: &mut Machine<'_, H>| {
            m.set_exact_fault(fault);
            m.run("main", &[])
        };
        self.trial(make_hooks(), run, observe_recoveries)
    }

    /// The one trial path: a machine over the shared decode with the
    /// trial's hooks and the campaign's input, armed and `run` by `run`,
    /// and classified.
    fn trial<'s, H: RuntimeHooks>(
        &'s self,
        hooks: H,
        run: impl FnOnce(&mut Machine<'s, H>) -> RunOutcome,
        observe: impl Fn(&H) -> u64,
    ) -> TrialOutcome {
        let mut machine = Machine::from_decoded(&self.decoded, hooks, self.config.clone());
        self.input.apply(&mut machine);
        let out = run(&mut machine);
        TrialOutcome {
            class: classify_outcome(&out, machine.read_global(self.output), self.golden),
            recovered: observe(machine.hooks()) > 0,
            fired: out.injection.is_some() || out.state_injection.is_some(),
            pruned: false,
        }
    }

    /// Runs one *site-universe* trial: instead of a random trigger inside
    /// the region window ([`InjectionPlan`]), the trial draws a concrete
    /// fault site uniformly from `sites` (a census-derived universe, see
    /// [`FaultSite`]) plus the model's remaining free coordinate (bit for
    /// SEU, window start for burst), and arms an exact fault there. This
    /// is the measure the exhaustive enumerator covers, which is what
    /// makes per-section campaign estimates directly comparable to the
    /// `enumerate_faults` oracle.
    ///
    /// `seed0` replaces the campaign seed so per-section campaigns over
    /// the same build stay independent (callers fold the section hash
    /// in). `prune` is the static benignity filter: a pruned trial is
    /// recorded `Correct`/`fired`/`pruned` without executing — the
    /// pruning soundness the exec-level cross-validation tests check.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or a site's target shape does not match
    /// the campaign's fault model (register targets for SEU/burst, skip
    /// targets for instruction skip).
    pub fn run_site_trial<H: RuntimeHooks>(
        &self,
        seed0: u64,
        trial: u32,
        sites: &[FaultSite],
        prune: impl Fn(&FaultSite, &ExactFaultKind) -> bool,
        make_hooks: impl Fn() -> H,
        observe_recoveries: impl Fn(&H) -> u64,
    ) -> TrialOutcome {
        assert!(!sites.is_empty(), "site-universe trial with no sites");
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(seed0, trial));
        let site = &sites[rng.gen_range(0..sites.len())];
        let kind = match (self.model, site.target) {
            (FaultModel::SingleBitSeu, SiteTarget::Reg(reg)) => ExactFaultKind::BitFlip {
                reg,
                bit: rng.gen_range(0..64),
            },
            (FaultModel::MultiBitBurst { width }, SiteTarget::Reg(reg)) => {
                let w = width.clamp(1, 64);
                ExactFaultKind::Burst {
                    reg,
                    start: rng.gen_range(0..=(64 - w)),
                    width: w,
                }
            }
            (FaultModel::InstructionSkip, SiteTarget::Skip) => ExactFaultKind::Skip,
            (model, target) => panic!("site target {target:?} does not fit fault model {model:?}"),
        };
        if prune(site, &kind) {
            return TrialOutcome {
                class: OutcomeClass::Correct,
                recovered: false,
                fired: true,
                pruned: true,
            };
        }
        self.run_exact_trial(
            ExactFault { at: site.at, kind },
            make_hooks,
            observe_recoveries,
        )
    }

    /// Runs `trials` site-universe trials on `threads` workers and folds
    /// the outcomes in trial order — the site-mode sibling of
    /// [`Campaign::run_on`], with the same any-schedule byte-determinism.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sites_on<H: RuntimeHooks>(
        &self,
        threads: usize,
        seed0: u64,
        trials: u32,
        sites: &[FaultSite],
        prune: impl Fn(&FaultSite, &ExactFaultKind) -> bool + Sync,
        make_hooks: impl Fn() -> H + Sync,
        observe_recoveries: impl Fn(&H) -> u64 + Sync,
    ) -> CampaignStats {
        fold(parallel_map_indexed(trials as usize, threads, |i| {
            self.run_site_trial(
                seed0,
                i as u32,
                sites,
                &prune,
                &make_hooks,
                &observe_recoveries,
            )
        }))
    }

    /// Runs the whole campaign on [`num_threads`] workers.
    pub fn run<H: RuntimeHooks>(
        &self,
        make_hooks: impl Fn() -> H + Sync,
        observe_recoveries: impl Fn(&H) -> u64 + Sync,
    ) -> CampaignStats {
        self.run_on(num_threads(), make_hooks, observe_recoveries)
    }

    /// Runs the whole campaign on an explicit worker count. Results are
    /// identical for every `threads` value — see the module docs.
    pub fn run_on<H: RuntimeHooks>(
        &self,
        threads: usize,
        make_hooks: impl Fn() -> H + Sync,
        observe_recoveries: impl Fn(&H) -> u64 + Sync,
    ) -> CampaignStats {
        self.run_range_on(threads, 0..self.trials, make_hooks, observe_recoveries)
    }

    /// Runs one contiguous chunk of trials, `range` within
    /// `0..self.trials()`, and folds the chunk's outcomes in trial order.
    ///
    /// Because each trial's randomness is a pure function of
    /// `(seed0, trial index)` and [`CampaignStats::merge`] is commutative
    /// and associative, splitting a campaign into chunks and merging the
    /// partial aggregates is byte-identical to one full [`Campaign::run`]
    /// for **any** chunking, thread count or chunk interleaving — the
    /// property the chunked-determinism test pins and the campaign
    /// service relies on.
    pub fn run_range_on<H: RuntimeHooks>(
        &self,
        threads: usize,
        range: std::ops::Range<u32>,
        make_hooks: impl Fn() -> H + Sync,
        observe_recoveries: impl Fn(&H) -> u64 + Sync,
    ) -> CampaignStats {
        fold(self.trial_outcomes_on(threads, range, make_hooks, observe_recoveries))
    }

    /// The per-trial outcomes of one contiguous chunk, in trial order
    /// (independent of `threads`). The chunked drivers use this when the
    /// client asked for per-trial outcome streams.
    pub fn trial_outcomes_on<H: RuntimeHooks>(
        &self,
        threads: usize,
        range: std::ops::Range<u32>,
        make_hooks: impl Fn() -> H + Sync,
        observe_recoveries: impl Fn(&H) -> u64 + Sync,
    ) -> Vec<TrialOutcome> {
        assert!(
            range.start <= range.end && range.end <= self.trials,
            "chunk {range:?} out of 0..{}",
            self.trials
        );
        let start = range.start;
        parallel_map_indexed((range.end - range.start) as usize, threads, |i| {
            self.run_trial(start + i as u32, &make_hooks, &observe_recoveries)
        })
    }
}

/// Folds trial outcomes, in order, into one aggregate.
fn fold(outcomes: Vec<TrialOutcome>) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for t in outcomes {
        stats.record(t);
    }
    stats
}

/// One concrete fault site of a census-derived universe: a dynamic
/// instruction boundary plus the model's static target there. For
/// SEU/burst models the universe holds one site per
/// `(boundary, written register)` pair (the free bit/window coordinate
/// is drawn per trial); for instruction skip, one site per
/// non-intrinsic boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// Dynamic boundary index (position in the clean run's census).
    pub at: u64,
    /// Function index of the innermost frame at the boundary.
    pub func: u32,
    /// Block index of the next instruction.
    pub block: u32,
    /// Instruction index within the block (`== insts.len()` ⇒
    /// terminator).
    pub ip: u32,
    /// What the fault strikes.
    pub target: SiteTarget,
}

/// The target half of a [`FaultSite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteTarget {
    /// A written register of the innermost frame (SEU/burst models).
    Reg(rskip_ir::Reg),
    /// The next dynamic instruction itself (skip model).
    Skip,
}

/// The measured numbers one clean sizing run produces — see
/// [`Campaign::with_sizing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignSizing {
    /// Region-instruction budget (the injection-instant sample space).
    pub region_budget: u64,
    /// Step limit classifying hangs.
    pub step_limit: u64,
}

impl CampaignSizing {
    /// Sizes a campaign from a clean run's counters: the region
    /// instructions it retired are the injection window, and twenty
    /// times its instructions (at least one million) classify a hang.
    ///
    /// # Panics
    ///
    /// Panics if the clean run never entered a protected region — the
    /// build has nothing to inject into, which is an experiment-setup
    /// bug.
    #[must_use]
    pub fn from_clean(clean: &Counters) -> Self {
        assert!(clean.region_retired > 0, "clean run never entered a region");
        CampaignSizing {
            region_budget: clean.region_retired,
            step_limit: clean.retired.saturating_mul(20).max(1_000_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let a = trial_seed(7, 0);
        let b = trial_seed(7, 1);
        let c = trial_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trial_seed(7, 0));
    }

    #[test]
    fn stats_fold_matches_merge_of_partials() {
        let trials: Vec<TrialOutcome> = (0..10)
            .map(|i| TrialOutcome {
                class: if i % 3 == 0 {
                    OutcomeClass::Correct
                } else if i % 3 == 1 {
                    OutcomeClass::Sdc
                } else {
                    OutcomeClass::Hang
                },
                recovered: i % 4 == 0,
                fired: i % 5 != 0,
                pruned: i % 2 == 0,
            })
            .collect();
        let mut whole = CampaignStats::default();
        for &t in &trials {
            whole.record(t);
        }
        let (left, right) = trials.split_at(4);
        let mut a = CampaignStats::default();
        let mut b = CampaignStats::default();
        for &t in left {
            a.record(t);
        }
        for &t in right {
            b.record(t);
        }
        a.merge(&b);
        assert_eq!(a.counts.total(), whole.counts.total());
        assert_eq!(a.counts.sdc, whole.counts.sdc);
        assert_eq!(a.false_negatives.total(), whole.false_negatives.total());
        assert_eq!(a.recoveries, whole.recoveries);
        assert_eq!(a.not_fired, whole.not_fired);
        assert_eq!(a.pruned, whole.pruned);
        assert_eq!(whole.not_fired, 2, "trials 0 and 5 never fired");
        assert_eq!(whole.pruned, 5, "even trials were pruned");
    }
}
