//! The campaign workloads: serial fault-injection trials, in process.
//!
//! A workload is a list of cells (bench × scheme × fault model). The
//! measured loop runs rounds. In round `k` every cell runs one campaign
//! of [`CAMPAIGN_TRIALS`] trials, seeded by the cell, the workload seed
//! and `k`, in the two shapes the program runs campaigns in:
//!
//! * a **job**, the one-shot driver's path: `Campaign::new` (decode
//!   lookup plus the clean sizing run), then every trial serially, as
//!   `Campaign::run_on(1, …)` runs them;
//! * **cached jobs**, the campaign service's path: one per chunk of
//!   `ServerConfig::default().default_chunk` trials, each
//!   `Campaign::with_sizing` from the sizing measured at set-up, then
//!   the chunk's trials serially, as `HarnessRunner::run_chunk` runs
//!   them on one thread.
//!
//! The chunks' merged aggregate must equal the job's. Every trial is
//! timed: the hooks factory stamps the time at which each trial starts.
//!
//! A traced run follows each job with a traced replay of it: its own
//! trial loop built from the same public calls (`Machine::from_decoded`, `InputSet::apply`,
//! `Machine::set_injection`, `Machine::run`, `classify_outcome`),
//! timing each, with [`TimedHooks`] around the scheme's hooks.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rskip_exec::{
    classify_outcome, Decoded, ExecTier, FaultModel, Machine, NoopHooks, RuntimeHooks,
};
use rskip_harness::campaign::{
    Campaign, CampaignSizing, CampaignStats, OutcomeClass, TrialOutcome,
};
use rskip_harness::experiment::campaign_seed;
use rskip_harness::{ArSetting, BenchSetup, Engine, EvalOptions, SchemeVariant};
use rskip_ir::{Intrinsic, Module, Value};
use rskip_passes::Scheme;
use rskip_runtime::PredictionRuntime;
use rskip_serve::ServerConfig;
use rskip_workloads::{InputSet, SizeProfile};

use crate::layers::SetupLayers;
use crate::report::{block_mean, block_median, percentile, ratio, Outcome};
use crate::setup::Setups;
use crate::trace::{intrinsic_label, HookTally, TimedHooks, Tracer, INTRINSICS};
use crate::{mix_seed, Args};

/// Trials per campaign: the default `--runs` of `rskip-eval campaign`.
const CAMPAIGN_TRIALS: u32 = 200;
/// Every trial of round 1 whose index is a multiple of this is rerun
/// on the reference tier.
const MATCH_EVERY: u32 = 16;
/// Set-ups timed before each round.
const SETUP_BATCH: usize = 5;

/// One campaign cell.
#[derive(Clone, Copy)]
pub struct CellSpec {
    bench: &'static str,
    variant: SchemeVariant,
    model: FaultModel,
}

impl CellSpec {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.bench,
            self.variant.label(),
            self.model.label()
        )
    }

    fn scheme(&self) -> Scheme {
        match self.variant {
            SchemeVariant::Unsafe => Scheme::Unsafe,
            SchemeVariant::SwiftR => Scheme::SwiftR,
            SchemeVariant::RSkip(_) | SchemeVariant::RSkipDiOnly(_) => Scheme::RSkip,
        }
    }
}

/// A campaign workload: its cells at `Small`.
pub struct Workload {
    cells: Vec<CellSpec>,
}

const AR20: ArSetting = ArSetting { percent: 20 };

/// conv1d and kde, UNSAFE and SWIFT-R, under SEU, skip and 4-bit burst.
/// The hooks are `NoopHooks`, so the time is the interpreter's.
pub fn dispatch() -> Workload {
    let mut cells = Vec::new();
    for bench in ["conv1d", "kde"] {
        for variant in [SchemeVariant::Unsafe, SchemeVariant::SwiftR] {
            for model in [
                FaultModel::SingleBitSeu,
                FaultModel::InstructionSkip,
                FaultModel::MultiBitBurst { width: 4 },
            ] {
                cells.push(CellSpec {
                    bench,
                    variant,
                    model,
                });
            }
        }
    }
    Workload { cells }
}

/// RSkip AR20 on conv1d and blackscholes under SEU and skip, plus
/// AR20-DI on blackscholes: the prediction runtime's hooks and its
/// per-trial construction.
pub fn predict() -> Workload {
    let mut cells = Vec::new();
    for bench in ["conv1d", "blackscholes"] {
        for model in [FaultModel::SingleBitSeu, FaultModel::InstructionSkip] {
            cells.push(CellSpec {
                bench,
                variant: SchemeVariant::RSkip(AR20),
                model,
            });
        }
    }
    cells.push(CellSpec {
        bench: "blackscholes",
        variant: SchemeVariant::RSkipDiOnly(AR20),
        model: FaultModel::SingleBitSeu,
    });
    Workload { cells }
}

/// Hooks factory of a cell, shareable as `Campaign::run_on` requires.
type Make<'f, H> = &'f (dyn Fn() -> H + Sync);
/// Recovery counter of a cell's hooks.
type Observe<'f, H> = &'f (dyn Fn(&H) -> u64 + Sync);

/// Something to do with a cell's module and hooks, generic over the
/// hooks type so every trial runs monomorphized code, as the harness
/// does.
trait Visit {
    type Out;
    fn visit<H: RuntimeHooks>(
        self,
        module: &Module,
        make: Make<H>,
        observe: Observe<H>,
    ) -> Self::Out;
}

/// The build `variant` runs.
fn module_of(setup: &BenchSetup, variant: SchemeVariant) -> &Module {
    match variant {
        SchemeVariant::Unsafe => &setup.unsafe_build.module,
        SchemeVariant::SwiftR => &setup.swift_r.module,
        SchemeVariant::RSkip(_) | SchemeVariant::RSkipDiOnly(_) => &setup.rskip.module,
    }
}

/// Calls `v` with the module and hooks of `variant`, exactly as
/// `run_campaign_cell_model` picks them.
fn with_hooks<V: Visit>(setup: &BenchSetup, variant: SchemeVariant, v: V) -> V::Out {
    let module = module_of(setup, variant);
    let recovered = |h: &PredictionRuntime| h.total_faults_recovered();
    match variant {
        SchemeVariant::Unsafe | SchemeVariant::SwiftR => v.visit(module, &|| NoopHooks, &|_| 0),
        SchemeVariant::RSkip(ar) => v.visit(module, &|| setup.runtime(ar), &recovered),
        SchemeVariant::RSkipDiOnly(ar) => {
            v.visit(module, &|| setup.runtime_di_only(ar), &recovered)
        }
    }
}

/// Per-bench prepared data.
struct Bench {
    setup: Arc<BenchSetup>,
    input: InputSet,
    golden: Vec<Value>,
}

/// A cell ready to run: its seed, measured sizing and decoded module.
struct Cell<'a> {
    spec: CellSpec,
    bench: &'a Bench,
    seed: u64,
    sizing: CampaignSizing,
    decoded: Decoded<'a>,
}

#[derive(Clone, Copy, PartialEq)]
enum JobKind {
    /// `Campaign::new`, as the one-shot driver builds a campaign.
    Cold,
    /// `Campaign::with_sizing`, as the service builds one per chunk.
    Cached,
}

impl Cell<'_> {
    fn output(&self) -> &'static str {
        self.bench.setup.bench.output_global()
    }

    /// Campaign seed of round `round`.
    fn seed0(&self, round: u32) -> u64 {
        self.seed ^ mix_seed(u64::from(round))
    }

    /// Round `round`'s campaign, built as `kind` says, with the cell's
    /// fault model.
    fn campaign<'s, H: RuntimeHooks>(
        &'s self,
        kind: JobKind,
        round: u32,
        module: &'s Module,
        make: Make<H>,
    ) -> Campaign<'s> {
        let (input, golden, output) = (&self.bench.input, &self.bench.golden, self.output());
        let seed0 = self.seed0(round);
        let mut campaign = match kind {
            JobKind::Cold => {
                Campaign::new(module, input, golden, output, make, seed0, CAMPAIGN_TRIALS)
            }
            JobKind::Cached => Campaign::with_sizing(
                module,
                input,
                golden,
                output,
                seed0,
                CAMPAIGN_TRIALS,
                self.sizing,
            ),
        };
        campaign.set_fault_model(self.spec.model);
        campaign
    }
}

/// Sizes one cell: the clean run inside `Campaign::new`.
struct Size<'a> {
    bench: &'a Bench,
    seed0: u64,
}

impl Visit for Size<'_> {
    type Out = CampaignSizing;
    fn visit<H: RuntimeHooks>(
        self,
        module: &Module,
        make: Make<H>,
        _: Observe<H>,
    ) -> CampaignSizing {
        let b = self.bench;
        Campaign::new(
            module,
            &b.input,
            &b.golden,
            b.setup.bench.output_global(),
            make,
            self.seed0,
            CAMPAIGN_TRIALS,
        )
        .sizing()
    }
}

fn options(seed: u64) -> EvalOptions {
    EvalOptions {
        test_seed: 2000 + seed % 1_000_000,
        ..EvalOptions::at_size(SizeProfile::Small)
    }
}

/// One set-up: engine preparation of every bench, then every cell's
/// sizing. Returns the benches, each cell's seed and sizing, and the
/// sizing time.
fn prepare(
    work: &Workload,
    options: &EvalOptions,
    seed: u64,
) -> (Vec<Bench>, Vec<(u64, CampaignSizing)>, f64) {
    let engine = Engine::new(options.clone());
    let mut benches: Vec<(&str, Bench)> = Vec::new();
    for spec in &work.cells {
        if benches.iter().all(|(n, _)| *n != spec.bench) {
            let setup = engine.setup(spec.bench);
            let input = setup.test_input();
            let golden = setup.bench.golden(options.size, &input);
            benches.push((
                spec.bench,
                Bench {
                    setup,
                    input,
                    golden,
                },
            ));
        }
    }
    let t = Instant::now();
    let sizings = work
        .cells
        .iter()
        .map(|spec| {
            let bench = &benches
                .iter()
                .find(|(n, _)| *n == spec.bench)
                .expect("prepared")
                .1;
            let seed0 = campaign_seed(spec.bench, spec.variant, spec.model, CAMPAIGN_TRIALS)
                ^ mix_seed(seed);
            (
                seed0,
                with_hooks(&bench.setup, spec.variant, Size { bench, seed0 }),
            )
        })
        .collect();
    let sizing_ms = t.elapsed().as_secs_f64() * 1e3;
    (
        benches.into_iter().map(|(_, b)| b).collect(),
        sizings,
        sizing_ms,
    )
}

/// Times one set-up in a fresh process; see [`Setups`].
pub fn setup_only(work: &Workload, args: &Args) -> f64 {
    let t = Instant::now();
    std::hint::black_box(prepare(work, &options(args.seed), args.seed));
    t.elapsed().as_secs_f64()
}

/// A job's result.
#[derive(Default)]
struct JobResult {
    stats: CampaignStats,
    outcomes: Vec<TrialOutcome>,
    trial_us: Vec<f64>,
    wall_ms: f64,
    failures: Vec<String>,
}

/// Runs `range` of round `round`'s campaign, built as `kind` says, one
/// trial after another as `Campaign::run_on(1, …)` does, and times each
/// trial from its hooks' construction to the next trial's.
#[allow(clippy::too_many_arguments)]
fn run_job<H: RuntimeHooks>(
    c: &Cell,
    kind: JobKind,
    round: u32,
    range: Range<u32>,
    module: &Module,
    make: Make<H>,
    observe: Observe<H>,
) -> JobResult {
    let mut res = JobResult::default();
    let starts = Mutex::new(Vec::with_capacity(range.len()));
    let stamped = || {
        starts.lock().expect("trial stamps").push(Instant::now());
        make()
    };
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let campaign = c.campaign(kind, round, module, make);
        let outcomes = campaign.trial_outcomes_on(1, range, stamped, observe);
        (outcomes, campaign.sizing())
    }));
    let done = Instant::now();
    res.wall_ms = done.duration_since(started).as_secs_f64() * 1e3;
    let (outcomes, sizing) = match run {
        Ok(r) => r,
        Err(_) => {
            res.failures
                .push(format!("{}: round {round} job panicked", c.spec.label()));
            return res;
        }
    };
    if sizing != c.sizing {
        res.failures.push(format!(
            "{}: round {round} sizing differs from set-up sizing",
            c.spec.label()
        ));
    }
    let starts = starts.into_inner().expect("trial stamps");
    let ends = starts.iter().skip(1).chain([&done]);
    res.trial_us = starts
        .iter()
        .zip(ends)
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e6)
        .collect();
    for &o in &outcomes {
        res.stats.record(o);
    }
    res.outcomes = outcomes;
    res
}

/// One cell's round: the job, then the same campaign as cached jobs of
/// `chunk` trials.
struct CellRound<'c, 'a> {
    cell: &'c Cell<'a>,
    round: u32,
    chunk: u32,
}

impl Visit for CellRound<'_, '_> {
    type Out = (JobResult, Vec<JobResult>);
    fn visit<H: RuntimeHooks>(
        self,
        module: &Module,
        make: Make<H>,
        observe: Observe<H>,
    ) -> Self::Out {
        let (c, round) = (self.cell, self.round);
        let job = run_job(
            c,
            JobKind::Cold,
            round,
            0..CAMPAIGN_TRIALS,
            module,
            make,
            observe,
        );
        let chunks = (0..CAMPAIGN_TRIALS)
            .step_by(self.chunk as usize)
            .map(|s| {
                let range = s..(s + self.chunk).min(CAMPAIGN_TRIALS);
                run_job(c, JobKind::Cached, round, range, module, make, observe)
            })
            .collect();
        (job, chunks)
    }
}

/// Reruns trials on the reference tier and returns the mismatches.
struct MatchCheck<'c, 'a> {
    cell: &'c Cell<'a>,
    round: u32,
    samples: &'c [(u32, TrialOutcome)],
}

impl Visit for MatchCheck<'_, '_> {
    type Out = Vec<String>;
    fn visit<H: RuntimeHooks>(
        self,
        module: &Module,
        make: Make<H>,
        observe: Observe<H>,
    ) -> Vec<String> {
        let c = self.cell;
        let mut campaign = c.campaign(JobKind::Cached, self.round, module, make);
        campaign.set_tier(ExecTier::Match);
        self.samples
            .iter()
            .filter_map(|&(t, expected)| {
                let got = catch_unwind(AssertUnwindSafe(|| campaign.run_trial(t, make, observe)));
                match got {
                    Ok(o) if o == expected => None,
                    Ok(o) => Some(format!(
                        "{}: trial {t} is {o:?} on match, {expected:?} on the default tier",
                        c.spec.label()
                    )),
                    Err(_) => Some(format!("{}: trial {t} panicked on match", c.spec.label())),
                }
            })
            .collect()
    }
}

/// The uninjected run must reproduce the golden output.
struct CleanCheck<'c, 'a> {
    cell: &'c Cell<'a>,
}

impl Visit for CleanCheck<'_, '_> {
    type Out = bool;
    fn visit<H: RuntimeHooks>(self, module: &Module, make: Make<H>, _: Observe<H>) -> bool {
        let c = self.cell;
        let campaign = c.campaign(JobKind::Cached, 0, module, make);
        let mut m = Machine::from_decoded(&c.decoded, make(), campaign.config().clone());
        c.bench.input.apply(&mut m);
        let out = m.run("main", &[]);
        classify_outcome(&out, m.read_global(c.output()), &c.bench.golden) == OutcomeClass::Correct
    }
}

/// Untraced latency samples of one cell.
#[derive(Default)]
struct Latencies {
    trial_us: Vec<f64>,
    job_ms: Vec<f64>,
    cached_ms: Vec<f64>,
}

/// The geometric mean over cells of `stat` of each cell's samples.
/// Cells differ several-fold in trial time, so a median pooled over all
/// cells would fall between their clusters and jump with small shifts
/// in the mix.
fn per_cell(
    lat: &[Latencies],
    f: fn(&Latencies) -> &Vec<f64>,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let logs: f64 = lat.iter().map(|l| stat(f(l)).ln()).sum();
    (logs / lat.len() as f64).exp()
}

/// Traced totals of one cell.
#[derive(Default, Clone)]
struct CellTrace {
    jobs: u64,
    prep_ns: u64,
    trials: u64,
    trial_ns: u64,
    construct_ns: u64,
    machine_ns: u64,
    arm_ns: u64,
    run_ns: u64,
    classify_ns: u64,
    hooks: HookTally,
    retired: u64,
    fired: u64,
    hangs: u64,
    hang_retired: u64,
    /// Round 1 only, so the counts repeat exactly for a seed.
    round1_trials: u64,
    round1_retired: u64,
    round1_calls: [u64; INTRINSICS],
}

impl CellTrace {
    fn add(&mut self, t: &CellTrace) {
        self.jobs += t.jobs;
        self.prep_ns += t.prep_ns;
        self.trials += t.trials;
        self.trial_ns += t.trial_ns;
        self.construct_ns += t.construct_ns;
        self.machine_ns += t.machine_ns;
        self.arm_ns += t.arm_ns;
        self.run_ns += t.run_ns;
        self.classify_ns += t.classify_ns;
        self.hooks.add(&t.hooks);
        self.retired += t.retired;
        self.fired += t.fired;
        self.hangs += t.hangs;
        self.hang_retired += t.hang_retired;
        self.round1_trials += t.round1_trials;
        self.round1_retired += t.round1_retired;
        for (sum, n) in self.round1_calls.iter_mut().zip(t.round1_calls) {
            *sum += n;
        }
    }
}

/// A traced job: the campaign built as the untraced job builds it, then
/// the trial loop driven here, every step timed.
struct TracedJob<'c, 'a, 't> {
    cell: &'c Cell<'a>,
    round: u32,
    totals: &'t mut CellTrace,
    tracer: &'t mut Tracer,
    parent: usize,
    request: u64,
}

impl Visit for TracedJob<'_, '_, '_> {
    type Out = JobResult;
    fn visit<H: RuntimeHooks>(
        self,
        module: &Module,
        make: Make<H>,
        observe: Observe<H>,
    ) -> JobResult {
        let c = self.cell;
        let mut res = JobResult::default();
        let started = Instant::now();
        let campaign = c.campaign(JobKind::Cold, self.round, module, make);
        let prepared = Instant::now();
        self.totals.jobs += 1;
        self.totals.prep_ns += prepared.duration_since(started).as_nanos() as u64;
        self.tracer.span(
            "campaign_new",
            (started, prepared),
            Some(self.parent),
            self.request,
            Vec::new(),
        );
        for t in 0..CAMPAIGN_TRIALS {
            let trial = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let hooks = TimedHooks::new(make());
                let t1 = Instant::now();
                let mut m = Machine::from_decoded(&c.decoded, hooks, campaign.config().clone());
                c.bench.input.apply(&mut m);
                let t2 = Instant::now();
                m.set_injection(campaign.plan(t));
                let t3 = Instant::now();
                let out = m.run("main", &[]);
                let t4 = Instant::now();
                let recovered = observe(&m.hooks().inner) > 0;
                let fired = out.injection.is_some() || out.state_injection.is_some();
                let class = classify_outcome(&out, m.read_global(c.output()), &c.bench.golden);
                let tally = m.hooks().tally;
                drop(m);
                let t5 = Instant::now();
                let outcome = TrialOutcome {
                    class,
                    recovered,
                    fired,
                    pruned: false,
                };
                (
                    outcome,
                    out.counters.retired,
                    tally,
                    [t0, t1, t2, t3, t4, t5],
                )
            }));
            let Ok((outcome, retired, tally, ts)) = trial else {
                res.failures
                    .push(format!("{}: traced trial {t} panicked", c.spec.label()));
                continue;
            };
            let ns = |a: usize, b: usize| ts[b].duration_since(ts[a]).as_nanos() as u64;
            let tot = &mut *self.totals;
            tot.trials += 1;
            tot.trial_ns += ns(0, 5);
            tot.construct_ns += ns(0, 1);
            tot.machine_ns += ns(1, 2);
            tot.arm_ns += ns(2, 3);
            tot.run_ns += ns(3, 4);
            tot.classify_ns += ns(4, 5);
            tot.hooks.add(&tally);
            tot.retired += retired;
            tot.fired += u64::from(outcome.fired);
            if outcome.class == OutcomeClass::Hang {
                tot.hangs += 1;
                tot.hang_retired += retired;
            }
            if self.round == 1 {
                tot.round1_trials += 1;
                tot.round1_retired += retired;
                for (sum, n) in tot.round1_calls.iter_mut().zip(tally.calls) {
                    *sum += n;
                }
            }
            res.trial_us.push(ns(0, 5) as f64 / 1e3);
            self.tracer.span(
                "trial",
                (ts[0], ts[5]),
                Some(self.parent),
                self.request,
                vec![
                    ("trial", f64::from(t)),
                    ("hook_ns", tally.total_nanos() as f64),
                    ("hook_calls", tally.total_calls() as f64),
                    ("retired", retired as f64),
                ],
            );
            res.stats.record(outcome);
        }
        res.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        res
    }
}

/// An untraced job, as its traced replay is compared with it.
struct Untraced {
    stats: CampaignStats,
    trial_us: f64,
    wall_ms: f64,
}

/// The traced replays so far.
struct Replays {
    tracer: Tracer,
    totals: Vec<CellTrace>,
    cell_spans: Vec<usize>,
    /// Trial time of the replays and of the untraced jobs they replay.
    traced_us: f64,
    untraced_us: f64,
    /// Wall time of the same jobs.
    traced_ms: f64,
    untraced_ms: f64,
}

impl Replays {
    fn new(cells: usize) -> Replays {
        let mut tracer = Tracer::new();
        let cell_spans = (0..cells)
            .map(|i| {
                let now = Instant::now();
                tracer.span("cell", (now, now), None, i as u64, Vec::new())
            })
            .collect();
        Replays {
            tracer,
            totals: vec![CellTrace::default(); cells],
            cell_spans,
            traced_us: 0.0,
            untraced_us: 0.0,
            traced_ms: 0.0,
            untraced_ms: 0.0,
        }
    }

    /// Replays cell `i`'s job of `round` traced and checks it against
    /// the untraced job.
    fn replay(&mut self, c: &Cell, i: usize, round: u32, untraced: &Untraced, out: &mut Outcome) {
        let request = u64::from(round) << 16 | i as u64;
        let job_started = Instant::now();
        let job_span = self.tracer.span(
            "job",
            (job_started, job_started),
            Some(self.cell_spans[i]),
            request,
            Vec::new(),
        );
        let res = with_hooks(
            &c.bench.setup,
            c.spec.variant,
            TracedJob {
                cell: c,
                round,
                totals: &mut self.totals[i],
                tracer: &mut self.tracer,
                parent: job_span,
                request,
            },
        );
        let job_done = Instant::now();
        self.tracer.close(
            job_span,
            (job_started, job_done),
            vec![("round", f64::from(round))],
        );
        self.tracer
            .close(self.cell_spans[i], (job_started, job_done), Vec::new());
        out.attempted += u64::from(CAMPAIGN_TRIALS);
        for f in res.failures {
            out.fail(f);
        }
        out.check(res.stats == untraced.stats, || {
            format!(
                "{}: round {round} traced aggregate differs from untraced",
                c.spec.label()
            )
        });
        self.traced_us += res.trial_us.iter().sum::<f64>();
        self.untraced_us += untraced.trial_us;
        self.traced_ms += res.wall_ms;
        self.untraced_ms += untraced.wall_ms;
    }
}

/// Runs one campaign workload and returns its outcome.
pub fn run(work: &Workload, args: &Args, setups: &mut Setups) -> Outcome {
    let options = options(args.seed);
    let chunk = ServerConfig::default().default_chunk;
    let mut out = Outcome::default();

    // Set-up layers first, while the process (and its decode cache) is
    // cold.
    if args.trace {
        let mut benches: Vec<(&str, Vec<Scheme>)> = Vec::new();
        for spec in &work.cells {
            match benches.iter_mut().find(|(n, _)| *n == spec.bench) {
                Some((_, schemes)) if !schemes.contains(&spec.scheme()) => {
                    schemes.push(spec.scheme())
                }
                Some(_) => {}
                None => benches.push((spec.bench, vec![spec.scheme()])),
            }
        }
        let refs: Vec<(&str, &[Scheme])> =
            benches.iter().map(|(n, s)| (*n, s.as_slice())).collect();
        SetupLayers::measure(&refs, &options).report(&mut out);
    }

    let (benches, sizings, sizing_ms) = prepare(work, &options, args.seed);
    let cells: Vec<Cell> = work
        .cells
        .iter()
        .zip(&sizings)
        .map(|(&spec, &(seed, sizing))| {
            let bench = benches
                .iter()
                .find(|b| b.setup.bench.meta().name == spec.bench)
                .expect("prepared");
            Cell {
                spec,
                bench,
                seed,
                sizing,
                decoded: Decoded::new(module_of(&bench.setup, spec.variant)),
            }
        })
        .collect();
    for c in &cells {
        let ok = with_hooks(&c.bench.setup, c.spec.variant, CleanCheck { cell: c });
        out.check(ok, || {
            format!("{}: uninjected run differs from golden", c.spec.label())
        });
    }

    // Rounds from 1 until the window is used up, ending at the round
    // boundary nearest to it. A traced run follows each untraced job
    // with its traced replay, so the two are timed side by side. The
    // set-ups are timed in batches between rounds, so they sample the
    // host's load over the whole run; the window leaves them out.
    let mut replays = Replays::new(cells.len());
    let mut round1: Vec<Untraced> = Vec::new();
    let mut samples: Vec<Vec<(u32, TrialOutcome)>> = vec![Vec::new(); cells.len()];
    let mut lat: Vec<Latencies> = (0..cells.len()).map(|_| Latencies::default()).collect();
    let mut rounds = 0;
    let mut paused = Duration::ZERO;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        setups.time(SETUP_BATCH);
        paused += t.elapsed();
        rounds += 1;
        let round = rounds;
        for (i, c) in cells.iter().enumerate() {
            let (job, chunks) = with_hooks(
                &c.bench.setup,
                c.spec.variant,
                CellRound {
                    cell: c,
                    round,
                    chunk,
                },
            );
            out.attempted += 2 * u64::from(CAMPAIGN_TRIALS);
            let mut merged = CampaignStats::default();
            for r in std::iter::once(&job).chain(&chunks) {
                for f in &r.failures {
                    out.fail(f.clone());
                }
                lat[i].trial_us.extend(&r.trial_us);
            }
            for r in &chunks {
                merged.merge(&r.stats);
                // The short last chunk would mix a second job size in.
                if r.trial_us.len() == chunk as usize {
                    lat[i].cached_ms.push(r.wall_ms);
                }
            }
            lat[i].job_ms.push(job.wall_ms);
            out.check(merged == job.stats, || {
                format!(
                    "{}: round {round} chunked aggregate differs from the job's",
                    c.spec.label()
                )
            });
            if round == 1 {
                samples[i] = (0..CAMPAIGN_TRIALS)
                    .step_by(MATCH_EVERY as usize)
                    .zip(job.outcomes.iter().step_by(MATCH_EVERY as usize))
                    .map(|(t, &o)| (t, o))
                    .collect();
            }
            let untraced = Untraced {
                stats: job.stats,
                trial_us: job.trial_us.iter().sum(),
                wall_ms: job.wall_ms,
            };
            if args.trace {
                replays.replay(c, i, round, &untraced, &mut out);
            } else if round == 1 {
                round1.push(untraced);
            }
        }
        let elapsed = (started.elapsed() - paused).as_secs_f64();
        if elapsed + elapsed / f64::from(rounds) / 2.0 >= args.seconds {
            break;
        }
    }
    let elapsed = (started.elapsed() - paused).as_secs_f64();
    let jobs = rounds as usize * cells.len();
    let trials = jobs * 2 * CAMPAIGN_TRIALS as usize;
    println!(
        "measured {trials} trials in {elapsed:.2} s over {rounds} rounds of {} cells",
        cells.len(),
    );

    // The reference tier agrees on a sample of every cell's trials.
    for (c, s) in cells.iter().zip(&samples) {
        let mismatches = with_hooks(
            &c.bench.setup,
            c.spec.variant,
            MatchCheck {
                cell: c,
                round: 1,
                samples: s,
            },
        );
        out.attempted += s.len() as u64;
        for m in mismatches {
            out.fail(m);
        }
    }

    if !args.trace {
        // The traced loop must agree with the untraced one; round 1 is
        // replayed for the check, after the window.
        for (i, (c, u)) in cells.iter().zip(&round1).enumerate() {
            replays.replay(c, i, 1, u, &mut out);
        }
    }

    if args.trace {
        let all = report_cells(
            &cells,
            &replays.totals,
            &mut replays.tracer,
            &replays.cell_spans,
        );
        report_layers(&mut out, &all, sizing_ms);
        // The layers are consecutive slices of the traced trial, so
        // their sum over the untraced time of the same trials falls
        // below 1 when the real trial does work the traced copy leaves
        // out; above 1 it is the tracing's own cost.
        out.metric(
            "trace.coverage",
            ratio(replays.traced_us, replays.untraced_us),
            "ratio",
        );
        out.metric(
            "trace.overhead_frac",
            1.0 - ratio(replays.untraced_ms, replays.traced_ms),
            "ratio",
        );
        let path = Path::new(crate::OUT_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = replays.tracer.write(&path) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    } else {
        // Other tenants of the host slow this process by up to 2x for
        // seconds at a time, so a window mixes fast and slow stretches.
        // Rates are means over the window and medians are averaged over
        // stretches of it (`block_mean`): both move in proportion to the
        // mix, where one median over the window would jump between the
        // fast and the slow mode.
        let job_ms: Vec<f64> = lat.iter().flat_map(|l| l.job_ms.iter().copied()).collect();
        out.metric("trials_per_s", trials as f64 / elapsed, "trials/s");
        out.metric(
            "trial_p50_us",
            per_cell(&lat, |l| &l.trial_us, block_median),
            "us",
        );
        out.metric(
            "trial_p99_us",
            per_cell(
                &lat,
                |l| &l.trial_us,
                |s| block_mean(s, |b| percentile(b, 0.99)),
            ),
            "us",
        );
        out.metric("jobs_per_s", jobs as f64 / elapsed, "jobs/s");
        out.metric(
            "job_p50_ms",
            per_cell(&lat, |l| &l.job_ms, block_median),
            "ms",
        );
        out.metric("job_p95_ms", percentile(&job_ms, 0.95), "ms");
        out.metric(
            "cached_job_p50_ms",
            per_cell(&lat, |l| &l.cached_ms, block_median),
            "ms",
        );
        println!(
            "samples: {rounds} rounds, {} trial latencies, {} job latencies, {} cached-job latencies",
            lat.iter().map(|l| l.trial_us.len()).sum::<usize>(),
            job_ms.len(),
            lat.iter().map(|l| l.cached_ms.len()).sum::<usize>(),
        );
    }
    out
}

/// Prints the per-cell table, stores each cell's figures on its span,
/// and returns the workload's totals.
fn report_cells(
    cells: &[Cell],
    totals: &[CellTrace],
    tracer: &mut Tracer,
    cell_spans: &[usize],
) -> CellTrace {
    let mut all = CellTrace::default();
    println!(
        "{:<36} {:>7} {:>10} {:>11} {:>6} {:>11}",
        "cell", "trials", "trial_us", "hook_share", "hangs", "hang_steps"
    );
    for ((c, t), &span) in cells.iter().zip(totals).zip(cell_spans) {
        let hook_share = ratio(
            (t.construct_ns + t.hooks.total_nanos()) as f64,
            t.trial_ns as f64,
        );
        let hang_share = ratio(t.hang_retired as f64, t.retired as f64);
        println!(
            "{:<36} {:>7} {:>10.1} {:>11.4} {:>6} {:>11.4}",
            c.spec.label(),
            t.trials,
            ratio(t.trial_ns as f64, t.trials as f64) / 1e3,
            hook_share,
            t.hangs,
            hang_share
        );
        let now = Instant::now();
        tracer.close(
            span,
            (now, now),
            vec![
                ("trials", t.trials as f64),
                ("runtime.hook_share", hook_share),
                ("fault.hang_trials", t.hangs as f64),
                ("fault.hang_step_share", hang_share),
                (
                    "runtime.construct_us",
                    ratio(t.construct_ns as f64, t.trials as f64) / 1e3,
                ),
            ],
        );
        all.add(t);
    }
    all
}

/// Per-layer metrics of a campaign workload from its traced totals.
fn report_layers(out: &mut Outcome, all: &CellTrace, sizing_ms: f64) {
    let n = all.trials as f64;
    let per_trial_us = |ns: u64| ratio(ns as f64, n) / 1e3;
    let hook_ns = all.hooks.total_nanos();
    let run_self_ns = all.run_ns.saturating_sub(hook_ns);
    out.metric("harness.sizing_ms", sizing_ms, "ms");
    out.metric(
        "harness.job_prep_us",
        ratio(all.prep_ns as f64, all.jobs as f64) / 1e3,
        "us",
    );
    out.metric("harness.trial_us", per_trial_us(all.trial_ns), "us");
    out.metric("exec.machine_new_us", per_trial_us(all.machine_ns), "us");
    out.metric("exec.run_self_us", per_trial_us(run_self_ns), "us");
    out.metric(
        "exec.msteps_per_s",
        ratio(all.retired as f64, run_self_ns as f64) * 1e3,
        "Msteps/s",
    );
    out.metric(
        "exec.steps_per_trial",
        ratio(all.round1_retired as f64, all.round1_trials as f64),
        "count",
    );
    out.metric("exec.classify_us", per_trial_us(all.classify_ns), "us");
    out.metric("fault.arm_us", per_trial_us(all.arm_ns), "us");
    out.metric("fault.fired_frac", ratio(all.fired as f64, n), "ratio");
    out.metric("fault.hang_trials", all.hangs as f64, "count");
    out.metric(
        "fault.hang_step_share",
        ratio(all.hang_retired as f64, all.retired as f64),
        "ratio",
    );
    out.metric("runtime.construct_us", per_trial_us(all.construct_ns), "us");
    out.metric("runtime.hook_us", per_trial_us(hook_ns), "us");
    let r1 = all.round1_trials as f64;
    out.metric(
        "runtime.hook_calls",
        ratio(all.round1_calls.iter().sum::<u64>() as f64, r1),
        "count",
    );
    for (slot, intr) in Intrinsic::ALL.iter().enumerate() {
        let name = format!("runtime.calls.{}", intrinsic_label(*intr));
        out.metric(&name, ratio(all.round1_calls[slot] as f64, r1), "count");
    }
    for intr in [
        Intrinsic::Observe,
        Intrinsic::SelectVersion,
        Intrinsic::NextPending,
    ] {
        let slot = crate::trace::intrinsic_slot(intr);
        let name = format!("runtime.ns_per_call.{}", intrinsic_label(intr));
        out.metric(
            &name,
            ratio(all.hooks.nanos[slot] as f64, all.hooks.calls[slot] as f64),
            "ns",
        );
    }
    out.metric(
        "runtime.hook_share",
        ratio((all.construct_ns + hook_ns) as f64, all.trial_ns as f64),
        "ratio",
    );
}
