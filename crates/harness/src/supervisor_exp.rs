//! The runtime-supervisor experiment (`rskip-eval supervise`).
//!
//! Two studies of the prediction runtime protecting *itself*:
//!
//! 1. **Drift replay** — the same trained `conv1d` build runs a
//!    piecewise workload (stationary → drifting → stationary → drifting
//!    → stationary, [`rskip_workloads::drift`]) twice: once with the
//!    always-predict baseline runtime and once with a
//!    [`SupervisorPolicy`] installed. The supervised runtime must open
//!    its circuit breaker during the drift bursts (protection back to
//!    re-compute-everything levels) and close it again in the
//!    stationary recoveries (skip rate back). Protection is measured by
//!    paired SEU campaigns over the drifting input against both
//!    runtimes (the metric is the SDC-free rate, see [`ProtectionRow`]);
//!    skip retention by comparing per-phase skip rates.
//!
//! 2. **Runtime-state SEU campaign** — instead of striking program
//!    registers, each trial flips one bit of the prediction runtime's
//!    *own* metadata ([`Machine::set_runtime_state_flip`]) in one of the
//!    four [`StateFaultTarget`] classes, with hardening off and on. The
//!    unhardened baseline must exhibit at least one SDC (a corrupted
//!    pending record replays a wrong re-computation over correct
//!    memory); the hardened runtime must exhibit none — its checksums,
//!    shadowed phase registers and counter clamps degrade every strike
//!    to a misprediction or a contained detection.
//!
//! [`SupervisorReport::check`] encodes the acceptance criteria; the CLI
//! exits nonzero if any fail, which is what the CI smoke job asserts.

use serde::Serialize;

use rskip_exec::{Machine, Termination};
use rskip_ir::Value;
use rskip_runtime::{PredictionRuntime, RuntimeConfig, StateFaultTarget, SupervisorPolicy};
use rskip_workloads::drift::{drift_replay, standard_schedule, stationary_schedule, DriftStep};
use rskip_workloads::InputSet;

use crate::build::{ArSetting, BenchSetup};
use crate::campaign::{num_threads, parallel_map_indexed, Campaign, ClassCounts};
use crate::report::{percent, TextTable};
use crate::Engine;

/// The deployment AR for the whole experiment: the paper's tightest
/// setting. A tight acceptable range is what makes drift *visible* —
/// jagged untrained inputs break interpolation phases (reject storms and
/// unseen context signatures), which are exactly the supervisor's
/// demotion signals. At AR100 fuzzy validation accepts nearly anything,
/// phases never break, and no health signal distinguishes the regimes.
const AR: ArSetting = ArSetting { percent: 20 };

/// Replay steps per schedule phase.
const STEPS_PER_PHASE: usize = 6;

/// A supervisor policy scaled to a region that observes `n` elements per
/// run: health windows of `n/8`, one run of cooldown, probes on every
/// 4th element.
fn policy_for(n: u32) -> SupervisorPolicy {
    SupervisorPolicy {
        window: (n / 8).max(16),
        max_reject_rate: 0.5,
        max_fault_rate: 0.25,
        drift_windows: 2,
        cooldown: n,
        probe_stride: 4,
        probe_window: (n / 8).max(16),
        min_probe_agreement: 0.7,
    }
}

/// Per-step replay measurement (deltas over the persistent runtime).
#[derive(Clone, Debug, Serialize)]
pub struct StepRow {
    /// Global step index.
    pub step: usize,
    /// Phase index in the schedule.
    pub phase: usize,
    /// `stationary` / `drifting`.
    pub regime: String,
    /// Elements observed during this step.
    pub elements: u64,
    /// Elements skipped during this step.
    pub skipped: u64,
    /// Supervisor breaker state after the step (`off` for the baseline).
    pub state: String,
}

/// Per-phase aggregation of both replays.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseRow {
    /// Phase index.
    pub phase: usize,
    /// `stationary` / `drifting`.
    pub regime: String,
    /// Steps in the phase.
    pub steps: usize,
    /// Baseline (no supervisor) skip rate over the phase.
    pub baseline_skip: f64,
    /// Supervised skip rate over the phase.
    pub supervised_skip: f64,
    /// Supervisor state after the phase's last step.
    pub end_state: String,
}

/// Supervisor time-in-state and transition totals, summed over regions.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct TimeInState {
    /// Elements gated while Predicting.
    pub predicting: u64,
    /// Elements gated while Degraded.
    pub degraded: u64,
    /// Elements gated while Probing.
    pub probing: u64,
    /// Demotions: window reject rate.
    pub demotions_reject: u64,
    /// Demotions: window fault rate.
    pub demotions_fault: u64,
    /// Demotions: signature drift streak.
    pub demotions_drift: u64,
    /// Demotions: failed probe.
    pub demotions_probe: u64,
    /// Promotions back to Predicting.
    pub promotions: u64,
}

/// One SEU-protection measurement over the drifting input.
///
/// The metric is the **SDC-free rate**: the fraction of trials that did
/// not end in silent data corruption. A crash (segfault, step-limit) is
/// a fail-stop outcome the platform detects; what the supervisor's
/// degraded mode buys is replay verification of every element, which
/// removes the *silent* failure mode — a drift-retuned chain fuzzily
/// accepting a corrupted value. Availability is scored separately by
/// the per-class counts.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ProtectionRow {
    /// SDC-free rate: `(trials - sdc) / trials`.
    pub protection: f64,
    /// Outcome classes.
    pub counts: ClassCounts,
}

/// The drift-replay half of the experiment.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayResult {
    /// Per-step rows for the supervised replay.
    pub supervised_steps: Vec<StepRow>,
    /// Per-step rows for the baseline replay.
    pub baseline_steps: Vec<StepRow>,
    /// Per-phase aggregation.
    pub phases: Vec<PhaseRow>,
    /// Supervisor accounting over the whole supervised replay.
    pub time_in_state: TimeInState,
    /// Regions ever demoted during the supervised standard replay.
    pub demoted_regions: usize,
    /// Regions ever demoted during the all-stationary control replay
    /// (must be zero).
    pub stationary_demoted_regions: usize,
    /// Supervisor accounting over the control replay.
    pub stationary_time_in_state: TimeInState,
    /// Supervised stationary skip ÷ baseline stationary skip.
    pub stationary_skip_retention: f64,
    /// SEU protection over the drifting input, baseline runtime.
    pub baseline_protection: ProtectionRow,
    /// SEU protection over the drifting input, supervised runtime
    /// (breaker open, as after an online demotion).
    pub supervised_protection: ProtectionRow,
}

/// One cell of the runtime-state SEU campaign.
#[derive(Clone, Debug, Serialize)]
pub struct StateCell {
    /// Target class label (`memo-table`, `di-phase`, ...).
    pub target: String,
    /// Benchmark the cell ran on.
    pub bench: String,
    /// Whether runtime hardening was on.
    pub hardened: bool,
    /// Trials attempted.
    pub trials: u32,
    /// Trials in which a live metadata bit was actually flipped.
    pub injected: u64,
    /// Outcome classes over all trials.
    pub counts: ClassCounts,
    /// Trials in which a hardening self-check fired.
    pub detections: u64,
}

/// The whole `supervise` experiment.
#[derive(Clone, Debug, Serialize)]
pub struct SupervisorReport {
    /// Drift replay + protection campaigns.
    pub replay: ReplayResult,
    /// Runtime-state SEU campaign, target × hardening.
    pub state_cells: Vec<StateCell>,
    /// Campaign trial count.
    pub runs: u32,
}

/// Replays `steps` on a persistent runtime, returning per-step deltas.
/// A fresh [`Machine`] is built per segment (memory is rewritten by each
/// step's input anyway); the runtime — and therefore chain, supervisor
/// and statistics state — carries across calls via `&mut`.
fn replay_segment(
    setup: &BenchSetup,
    rt: &mut PredictionRuntime,
    steps: &[DriftStep],
) -> Vec<StepRow> {
    let regions = setup.inits.len() as u32;
    let mut machine = Machine::new(&setup.rskip.module, rt);
    let mut rows = Vec::with_capacity(steps.len());
    let (mut prev_e, mut prev_s) = (0u64, 0u64);
    // Establish the pre-segment baseline for deltas.
    for r in 0..regions {
        let st = machine.hooks().stats(r);
        prev_e += st.elements;
        prev_s += st.total_skipped();
    }
    for step in steps {
        step.input.apply(&mut machine);
        let out = machine.run("main", &[]);
        assert!(
            matches!(out.termination, Termination::Returned(_)),
            "replay step {} trapped: {:?}",
            step.step,
            out.termination
        );
        let (mut e, mut s) = (0u64, 0u64);
        let mut state = "off";
        for r in 0..regions {
            let st = machine.hooks().stats(r);
            e += st.elements;
            s += st.total_skipped();
            if st.supervisor.is_some() {
                state = st.supervisor_state;
            }
        }
        rows.push(StepRow {
            step: step.step,
            phase: step.phase,
            regime: step.regime.label().to_string(),
            elements: e - prev_e,
            skipped: s - prev_s,
            state: state.to_string(),
        });
        prev_e = e;
        prev_s = s;
    }
    rows
}

/// Sums supervisor accounting over all regions of `rt`.
fn time_in_state(setup: &BenchSetup, rt: &PredictionRuntime) -> TimeInState {
    let mut t = TimeInState::default();
    for r in 0..setup.inits.len() as u32 {
        if let Some(s) = rt.stats(r).supervisor {
            t.predicting += s.elements_predicting;
            t.degraded += s.elements_degraded;
            t.probing += s.elements_probing;
            t.demotions_reject += s.demotions.reject_rate;
            t.demotions_fault += s.demotions.fault_rate;
            t.demotions_drift += s.demotions.drift;
            t.demotions_probe += s.demotions.failed_probe;
            t.promotions += s.promotions;
        }
    }
    t
}

fn skip_over(rows: &[StepRow], regime: Option<&str>) -> f64 {
    let (mut e, mut s) = (0u64, 0u64);
    for row in rows {
        if regime.is_none_or(|r| row.regime == r) {
            e += row.elements;
            s += row.skipped;
        }
    }
    if e == 0 {
        0.0
    } else {
        s as f64 / e as f64
    }
}

/// Runs a protection campaign over `input` with per-trial runtimes
/// cloned from `proto`.
fn protection_campaign(
    setup: &BenchSetup,
    input: &InputSet,
    golden: &[Value],
    proto: &PredictionRuntime,
    seed0: u64,
    trials: u32,
) -> ProtectionRow {
    let campaign = Campaign::new(
        &setup.rskip.module,
        input,
        golden,
        setup.bench.output_global(),
        || proto.clone(),
        seed0,
        trials,
    );
    let stats = campaign.run(|| proto.clone(), |rt| rt.total_faults_recovered());
    let total = stats.counts.total().max(1);
    ProtectionRow {
        protection: (total - stats.counts.sdc) as f64 / total as f64,
        counts: stats.counts,
    }
}

/// The drift replay and its protection campaigns.
fn run_replay(setup: &BenchSetup, runs: u32) -> ReplayResult {
    let steps = drift_replay(
        setup.options.size,
        &standard_schedule(STEPS_PER_PHASE),
        9000,
    );
    // Elements observed per run = output length of the first region.
    let golden0 = setup.bench.golden(setup.options.size, &steps[0].input);
    let n = golden0.len() as u32;
    let policy = policy_for(n);

    let base_config = RuntimeConfig::with_ar(AR.fraction());
    let sup_config = RuntimeConfig {
        supervisor: Some(policy),
        ..base_config
    };
    let model = &setup.models[&AR];
    let mut base_rt = PredictionRuntime::with_model(&setup.inits, base_config, model);
    let mut sup_rt = PredictionRuntime::with_model(&setup.inits, sup_config, model);

    // The SEU protection campaigns strike mid-drift, at the point where
    // the two schemes differ most: by the last step of the first drift
    // burst the always-predict chain has re-tuned itself to the drifted
    // distribution — fuzzy validation accepts a large fraction of
    // elements unverified again — while the supervisor still holds the
    // region demoted (or cautiously probing). Both runtimes are
    // snapshotted just before that step; the campaigns inject into
    // clones of the snapshots running that step's input.
    let first_drift_phase = steps
        .iter()
        .find(|s| s.regime.label() == "drifting")
        .expect("schedule has a drift phase")
        .phase;
    let campaign_step = steps
        .iter()
        .rposition(|s| s.phase == first_drift_phase)
        .expect("phase has steps");

    let mut baseline_steps = Vec::with_capacity(steps.len());
    let mut base_snapshot: Option<PredictionRuntime> = None;
    for (i, step) in steps.iter().enumerate() {
        if i == campaign_step {
            base_snapshot = Some(base_rt.clone());
        }
        baseline_steps.extend(replay_segment(
            setup,
            &mut base_rt,
            std::slice::from_ref(step),
        ));
    }
    let base_snapshot = base_snapshot.expect("campaign step within replay");

    let mut supervised_steps = Vec::with_capacity(steps.len());
    let mut sup_snapshot: Option<PredictionRuntime> = None;
    for (i, step) in steps.iter().enumerate() {
        if i == campaign_step {
            sup_snapshot = Some(sup_rt.clone());
        }
        supervised_steps.extend(replay_segment(
            setup,
            &mut sup_rt,
            std::slice::from_ref(step),
        ));
    }
    let sup_snapshot = sup_snapshot.expect("campaign step within replay");

    // All-stationary control: the breaker must never open.
    let control_steps = drift_replay(
        setup.options.size,
        &stationary_schedule(STEPS_PER_PHASE),
        9000,
    );
    let mut control_rt = PredictionRuntime::with_model(&setup.inits, sup_config, model);
    replay_segment(setup, &mut control_rt, &control_steps);

    // Per-phase aggregation.
    let phase_count = supervised_steps.iter().map(|r| r.phase).max().unwrap_or(0) + 1;
    let mut phases = Vec::with_capacity(phase_count);
    for p in 0..phase_count {
        let sup: Vec<&StepRow> = supervised_steps.iter().filter(|r| r.phase == p).collect();
        let base: Vec<&StepRow> = baseline_steps.iter().filter(|r| r.phase == p).collect();
        let agg = |rows: &[&StepRow]| {
            let e: u64 = rows.iter().map(|r| r.elements).sum();
            let s: u64 = rows.iter().map(|r| r.skipped).sum();
            if e == 0 {
                0.0
            } else {
                s as f64 / e as f64
            }
        };
        phases.push(PhaseRow {
            phase: p,
            regime: sup.first().map(|r| r.regime.clone()).unwrap_or_default(),
            steps: sup.len(),
            baseline_skip: agg(&base),
            supervised_skip: agg(&sup),
            end_state: sup.last().map(|r| r.state.clone()).unwrap_or_default(),
        });
    }

    let base_stationary = skip_over(&baseline_steps, Some("stationary"));
    let sup_stationary = skip_over(&supervised_steps, Some("stationary"));
    let retention = if base_stationary > 0.0 {
        sup_stationary / base_stationary
    } else {
        1.0
    };

    // Both campaigns share seed0, so trial k draws the same randomness
    // against both schemes — a paired comparison.
    let drift_input = &steps[campaign_step].input;
    let drift_golden = setup.bench.golden(setup.options.size, drift_input);
    let baseline_protection =
        protection_campaign(setup, drift_input, &drift_golden, &base_snapshot, 401, runs);
    let supervised_protection =
        protection_campaign(setup, drift_input, &drift_golden, &sup_snapshot, 401, runs);

    ReplayResult {
        time_in_state: time_in_state(setup, &sup_rt),
        demoted_regions: sup_rt.demoted_region_count(),
        stationary_demoted_regions: control_rt.demoted_region_count(),
        stationary_time_in_state: time_in_state(setup, &control_rt),
        supervised_steps,
        baseline_steps,
        phases,
        stationary_skip_retention: retention,
        baseline_protection,
        supervised_protection,
    }
}

/// One cell of the runtime-state SEU campaign: `trials` runs of
/// `setup`'s rskip build, each arming one bit flip against live
/// predictor metadata of class `target`, hardening per `hardened`.
fn run_state_cell(
    setup: &BenchSetup,
    target: StateFaultTarget,
    hardened: bool,
    seed0: u64,
    trials: u32,
) -> StateCell {
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let config = RuntimeConfig {
        harden: hardened,
        ..RuntimeConfig::with_ar(AR.fraction())
    };
    let mut proto = PredictionRuntime::with_model(&setup.inits, config, &setup.models[&AR]);
    proto.set_state_fault_target(Some(target));

    let campaign = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        || proto.clone(),
        seed0,
        trials,
    );
    let outcomes = parallel_map_indexed(trials as usize, num_threads(), |i| {
        campaign.run_state_trial(
            i as u32,
            || proto.clone(),
            PredictionRuntime::total_metadata_detections,
        )
    });

    let mut cell = StateCell {
        target: target.label().to_string(),
        bench: setup.bench.meta().name.to_string(),
        hardened,
        trials,
        injected: 0,
        counts: ClassCounts::default(),
        detections: 0,
    };
    for t in outcomes {
        cell.injected += u64::from(t.fired);
        cell.counts.add(t.class);
        cell.detections += u64::from(t.recovered);
    }
    cell
}

/// Runs the whole supervise experiment on an engine's prepared setups.
pub fn run_with(engine: &Engine, runs: u32) -> SupervisorReport {
    let conv = engine.setup("conv1d");
    let replay = run_replay(&conv, runs);

    let bs = engine.setup("blackscholes");
    SupervisorReport {
        replay,
        state_cells: state_cells(&conv, &bs, runs),
        runs,
    }
}

/// The runtime-state SEU campaign: every [`StateFaultTarget`] class with
/// hardening off and on. Memo tables only hold live state in a
/// memoizable region, so that class strikes `bs` (blackscholes); the
/// other three strike `conv`'s (conv1d's) interpolation runtime.
fn state_cells(conv: &BenchSetup, bs: &BenchSetup, runs: u32) -> Vec<StateCell> {
    let mut cells = Vec::new();
    for (i, target) in StateFaultTarget::ALL.into_iter().enumerate() {
        let setup = if target == StateFaultTarget::MemoTable {
            bs
        } else {
            conv
        };
        for hardened in [false, true] {
            let seed0 = 410 + (i as u64) * 2 + u64::from(hardened);
            cells.push(run_state_cell(setup, target, hardened, seed0, runs));
        }
    }
    cells
}

impl SupervisorReport {
    /// SDCs over the hardened half of the state campaign.
    fn hardened_sdc(&self) -> u64 {
        self.state_cells
            .iter()
            .filter(|c| c.hardened)
            .map(|c| c.counts.sdc)
            .sum()
    }

    /// SDCs over the unhardened half of the state campaign.
    fn unhardened_sdc(&self) -> u64 {
        self.state_cells
            .iter()
            .filter(|c| !c.hardened)
            .map(|c| c.counts.sdc)
            .sum()
    }

    /// Checks the experiment's acceptance criteria; returns one message
    /// per violated criterion (empty = all pass).
    pub fn check(&self) -> Vec<String> {
        let mut v = Vec::new();
        let r = &self.replay;
        if r.demoted_regions == 0 {
            v.push("no region was ever demoted under the drifting schedule".to_string());
        }
        if r.stationary_demoted_regions != 0 {
            v.push(format!(
                "{} region(s) demoted under the all-stationary control (expected 0)",
                r.stationary_demoted_regions
            ));
        }
        if r.supervised_protection.protection + 1e-9 < r.baseline_protection.protection {
            v.push(format!(
                "supervised SDC-free rate {} under drift is below the always-predict baseline {}",
                percent(r.supervised_protection.protection),
                percent(r.baseline_protection.protection)
            ));
        }
        if r.stationary_skip_retention < 0.5 {
            v.push(format!(
                "supervised runtime retains only {} of the stationary skip rate (need >= 50%)",
                percent(r.stationary_skip_retention)
            ));
        }
        if self.unhardened_sdc() == 0 {
            v.push(
                "unhardened runtime-state campaign produced no SDC — the fault model is \
                 not exercising live metadata"
                    .to_string(),
            );
        }
        if self.hardened_sdc() > 0 {
            v.push(format!(
                "hardened runtime-state campaign produced {} SDC(s) (expected 0)",
                self.hardened_sdc()
            ));
        }
        v
    }

    /// Renders every table plus the pass/fail check lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.replay;

        let mut t = TextTable::new(
            [
                "phase",
                "regime",
                "steps",
                "baseline skip",
                "supervised skip",
                "end state",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title(format!("Drift replay (conv1d, {})", AR.label()));
        for p in &r.phases {
            t.row(vec![
                p.phase.to_string(),
                p.regime.clone(),
                p.steps.to_string(),
                percent(p.baseline_skip),
                percent(p.supervised_skip),
                p.end_state.clone(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "stationary skip retention: {}   demoted regions: {} (control: {})\n",
            percent(r.stationary_skip_retention),
            r.demoted_regions,
            r.stationary_demoted_regions
        ));

        let ts = &r.time_in_state;
        let mut t = TextTable::new(
            [
                "predicting",
                "degraded",
                "probing",
                "demotions (rej/fault/drift/probe)",
                "promotions",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Supervisor time-in-state (elements)");
        t.row(vec![
            ts.predicting.to_string(),
            ts.degraded.to_string(),
            ts.probing.to_string(),
            format!(
                "{}/{}/{}/{}",
                ts.demotions_reject, ts.demotions_fault, ts.demotions_drift, ts.demotions_probe
            ),
            ts.promotions.to_string(),
        ]);
        out.push_str(&t.render());

        let mut t = TextTable::new(
            ["scheme", "SDC-free", "correct", "SDC", "crash", "detected"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("SEU protection under drifting input");
        for (label, p) in [
            ("always-predict", &r.baseline_protection),
            ("supervised", &r.supervised_protection),
        ] {
            t.row(vec![
                label.to_string(),
                percent(p.protection),
                p.counts.correct.to_string(),
                p.counts.sdc.to_string(),
                (p.counts.segfault + p.counts.core_dump + p.counts.hang).to_string(),
                p.counts.detected.to_string(),
            ]);
        }
        out.push_str(&t.render());

        let mut t = TextTable::new(
            [
                "target",
                "bench",
                "hardening",
                "trials",
                "hit",
                "correct",
                "SDC",
                "detected runs",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Runtime-state SEU campaign");
        for c in &self.state_cells {
            t.row(vec![
                c.target.clone(),
                c.bench.clone(),
                if c.hardened { "on" } else { "off" }.to_string(),
                c.trials.to_string(),
                c.injected.to_string(),
                c.counts.correct.to_string(),
                c.counts.sdc.to_string(),
                c.detections.to_string(),
            ]);
        }
        out.push_str(&t.render());

        let violations = self.check();
        if violations.is_empty() {
            out.push_str("checks: all pass\n");
        } else {
            for v in &violations {
                out.push_str(&format!("checks: FAIL {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::EvalOptions;
    use rskip_workloads::SizeProfile;

    #[test]
    fn supervise_experiment_passes_its_own_checks_at_tiny() {
        let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
        let report = run_with(&engine, 60);
        assert!(
            report.check().is_empty(),
            "violations: {:?}\n{}",
            report.check(),
            report.render()
        );
        // The drift bursts must actually open the breaker...
        let ts = &report.replay.time_in_state;
        assert!(ts.degraded > 0);
        assert!(
            ts.demotions_reject + ts.demotions_fault + ts.demotions_drift + ts.demotions_probe > 0
        );
        // ...and the recovery phases must close it again.
        assert!(ts.promotions > 0);
    }

    #[test]
    fn state_campaign_reports_live_hits_for_every_class() {
        let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
        let report = run_with(&engine, 40);
        for cell in &report.state_cells {
            assert!(
                cell.injected > 0,
                "no live {} metadata was ever struck ({} hardened={})",
                cell.target,
                cell.bench,
                cell.hardened
            );
        }
    }

    #[test]
    fn state_cells_at_tiny_are_pinned() {
        let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
        let cells = state_cells(&engine.setup("conv1d"), &engine.setup("blackscholes"), 40);
        // (target, hardened, correct, sdc, segfault, detections); every
        // cell runs 40 trials, strikes live metadata in all of them, and
        // has no other outcome class.
        let expected = [
            ("memo-table", false, 40, 0, 0, 0),
            ("memo-table", true, 40, 0, 0, 1),
            ("di-phase", false, 40, 0, 0, 0),
            ("di-phase", true, 40, 0, 0, 40),
            ("pending-queue", false, 0, 8, 32, 0),
            ("pending-queue", true, 40, 0, 0, 40),
            ("counters", false, 40, 0, 0, 0),
            ("counters", true, 40, 0, 0, 0),
        ];
        assert_eq!(cells.len(), expected.len());
        for (c, &(target, hardened, correct, sdc, segfault, detections)) in
            cells.iter().zip(&expected)
        {
            let bench = if target == "memo-table" {
                "blackscholes"
            } else {
                "conv1d"
            };
            let got = (
                c.target.as_str(),
                c.bench.as_str(),
                c.hardened,
                c.trials,
                c.injected,
            );
            assert_eq!(got, (target, bench, hardened, 40, 40));
            let k = &c.counts;
            assert_eq!(
                (k.correct, k.sdc, k.segfault, c.detections),
                (correct, sdc, segfault, detections),
                "{target} hardened={hardened}"
            );
            assert_eq!(k.total(), 40, "{target} hardened={hardened}");
        }
    }
}
