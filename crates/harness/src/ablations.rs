//! Ablations of the design choices the paper calls out.
//!
//! * **Quantization strategy** (§4.2.2): the paper improves Paraprox's
//!   uniform min/max quantization with histogram-driven level boundaries
//!   and bit tuning, reporting blackscholes accuracy rising from 96.5% to
//!   above 99%. We rebuild the same table four ways and measure accuracy.
//! * **Detection-only baseline**: SWIFT (duplicate + compare, no
//!   recovery) versus SWIFT-R versus RSkip cost.
//! * **Pipeline sensitivity**: how the SWIFT-R and RSkip slowdowns move
//!   with the modeled issue width — the "parallelism inside modern
//!   processors" the paper leans on.

use serde::Serialize;

use rskip_exec::{ExecConfig, Machine, NoopHooks, PipelineConfig};
use rskip_passes::{protect, Scheme};
use rskip_predict::{MemoConfig, MemoTrainer};
use rskip_runtime::{PredictionRuntime, RuntimeConfig};
use rskip_workloads::benchmark_by_name;

use crate::build::{region_inits, ArSetting, BenchSetup, EvalOptions};
use crate::experiment::Engine;
use crate::report::{percent, ratio, TextTable};

/// Accuracy of each quantization strategy (fraction of training samples
/// predicted within 5%).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct QuantizationAblation {
    /// Uniform levels, equal bits — the Paraprox baseline.
    pub uniform_equal: f64,
    /// Uniform levels, tuned bits.
    pub uniform_tuned: f64,
    /// Histogram levels, equal bits.
    pub histogram_equal: f64,
    /// Histogram levels, tuned bits — this paper's construction.
    pub histogram_tuned: f64,
}

/// One scheme's cost in the detection ablation.
#[derive(Clone, Debug, Serialize)]
pub struct SchemeCost {
    /// Scheme label.
    pub scheme: String,
    /// Normalized dynamic instructions.
    pub norm_instr: f64,
    /// Normalized cycles.
    pub norm_time: f64,
}

/// One pipeline-width sensitivity point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WidthPoint {
    /// Issue width.
    pub width: u32,
    /// SWIFT-R slowdown at this width.
    pub swift_r_slowdown: f64,
    /// RSkip (AR100) slowdown at this width.
    pub rskip_slowdown: f64,
}

/// One recovery strategy's campaign summary (the §8 extension study).
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryPoint {
    /// Strategy label.
    pub strategy: String,
    /// Fraction of injected runs ending with correct output.
    pub protection_rate: f64,
    /// Average dynamic instructions per run, normalized to the
    /// unprotected clean run (re-executions included).
    pub avg_cost: f64,
}

/// All ablation results.
#[derive(Clone, Debug, Serialize)]
pub struct Ablations {
    /// §4.2.2 quantization comparison on blackscholes.
    pub quantization: QuantizationAblation,
    /// UNSAFE / SWIFT / SWIFT-R / RSkip cost on conv1d.
    pub detection: Vec<SchemeCost>,
    /// Width sensitivity on conv1d.
    pub width: Vec<WidthPoint>,
    /// §8 recovery-strategy study: SWIFT detection + checkpoint restart
    /// versus SWIFT-R's inline TMR recovery.
    pub recovery: Vec<RecoveryPoint>,
}

/// Collects blackscholes `(inputs, price)` training samples.
fn blackscholes_samples(options: &EvalOptions) -> MemoTrainer {
    let bench = benchmark_by_name("blackscholes").expect("registry");
    let mut trainer = MemoTrainer::new(6);
    for &seed in &options.train_seeds {
        let input = bench.gen_input(options.size, seed);
        let get = |name: &str| -> Vec<f64> {
            input
                .arrays
                .iter()
                .find(|(n, _)| n == name)
                .expect("input array")
                .1
                .iter()
                .map(|v| v.as_f())
                .collect()
        };
        let (s, k, r, v, t, o) = (
            get("sptprice"),
            get("strike"),
            get("rate"),
            get("volatility"),
            get("otime"),
            get("otype"),
        );
        let golden = bench.golden(options.size, &input);
        for i in 0..s.len() {
            trainer.add_sample(&[s[i], k[i], r[i], v[i], t[i], o[i]], golden[i].as_f());
        }
    }
    trainer
}

/// Runs the quantization ablation.
pub fn run_quantization(options: &EvalOptions) -> QuantizationAblation {
    let trainer = blackscholes_samples(options);
    let cfg = MemoConfig::default();
    let equal_bits = vec![cfg.table_bits / 6; 6];
    let ar = 0.05;

    let uniform_equal = trainer
        .build_uniform_with_bits(&equal_bits, &cfg)
        .accuracy(trainer.samples(), ar);
    let histogram_equal = trainer
        .build_with_bits(&equal_bits, &cfg)
        .accuracy(trainer.samples(), ar);
    let tuned = trainer.build(&cfg);
    let histogram_tuned = tuned.accuracy(trainer.samples(), ar);
    let uniform_tuned = trainer
        .build_uniform_with_bits(tuned.bits(), &cfg)
        .accuracy(trainer.samples(), ar);

    QuantizationAblation {
        uniform_equal,
        uniform_tuned,
        histogram_equal,
        histogram_tuned,
    }
}

/// Runs the detection-scheme cost ablation on conv1d.
pub fn run_detection(options: &EvalOptions) -> Vec<SchemeCost> {
    let bench = benchmark_by_name("conv1d").expect("registry");
    let module = bench.build(options.size);
    let input = bench.gen_input(options.size, options.test_seed);
    let config = ExecConfig {
        timing: Some(options.pipeline),
        ..ExecConfig::default()
    };
    let mut base_machine = Machine::with_config(&module, NoopHooks, config.clone());
    input.apply(&mut base_machine);
    let base = base_machine.run("main", &[]).counters;

    let mut out = Vec::new();
    for scheme in [Scheme::Swift, Scheme::SwiftR, Scheme::RSkip] {
        let p = protect(&module, scheme);
        let counters = if scheme == Scheme::RSkip {
            let rt = PredictionRuntime::new(
                &region_inits(&p),
                RuntimeConfig {
                    default_tp: 2.0,
                    ..RuntimeConfig::with_ar(0.2)
                },
            );
            let mut machine = Machine::with_config(&p.module, rt, config.clone());
            input.apply(&mut machine);
            machine.run("main", &[]).counters
        } else {
            let mut machine = Machine::with_config(&p.module, NoopHooks, config.clone());
            input.apply(&mut machine);
            machine.run("main", &[]).counters
        };
        out.push(SchemeCost {
            scheme: scheme.label().to_string(),
            norm_instr: counters.retired as f64 / base.retired as f64,
            norm_time: counters.cycles as f64 / base.cycles as f64,
        });
    }
    out
}

/// Runs the width sensitivity sweep on a prepared conv1d setup.
fn run_width_with(setup: &BenchSetup, options: &EvalOptions) -> Vec<WidthPoint> {
    let input = setup.test_input();
    let ar100 = ArSetting { percent: 100 };

    let mut out = Vec::new();
    for width in [2u32, 3, 4, 6] {
        let pipeline = PipelineConfig {
            width,
            ..options.pipeline
        };
        let config = ExecConfig {
            timing: Some(pipeline),
            ..ExecConfig::default()
        };
        let run_plain = |module: &rskip_ir::Module| {
            let mut machine = Machine::with_config(module, NoopHooks, config.clone());
            input.apply(&mut machine);
            machine.run("main", &[]).counters.cycles as f64
        };
        let base = run_plain(&setup.unprotected);
        let sr = run_plain(&setup.swift_r.module);
        let rt = setup.runtime(ar100);
        let mut machine = Machine::with_config(&setup.rskip.module, rt, config.clone());
        input.apply(&mut machine);
        let pp = machine.run("main", &[]).counters.cycles as f64;
        out.push(WidthPoint {
            width,
            swift_r_slowdown: sr / base,
            rskip_slowdown: pp / base,
        });
    }
    out
}

/// The §8 extension study: the paper notes that "fault detection and
/// fault recovery mechanism can be investigated independently" and names
/// checkpoint-based recovery (Encore, ReStore) as composable future work.
/// Here: SWIFT detection plus a region-checkpoint *restart* — on a
/// detected fault, restore the input memory image and re-execute — versus
/// SWIFT-R's inline TMR recovery, under SEU injection.
pub fn run_recovery(options: &EvalOptions, runs: u32) -> Vec<RecoveryPoint> {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rskip_exec::{
        classify_outcome, FaultModel, InjectionPlan, OutcomeClass, Termination, Trap,
    };

    let bench = benchmark_by_name("conv1d").expect("registry");
    let module = bench.build(options.size);
    let input = bench.gen_input(options.size, options.test_seed);
    let golden = bench.golden(options.size, &input);
    let output = bench.output_global();

    let mut out = Vec::new();
    for (label, scheme, restart) in [
        ("SWIFT (abort on detect)", Scheme::Swift, false),
        ("SWIFT + checkpoint restart", Scheme::Swift, true),
        ("SWIFT-R (inline TMR)", Scheme::SwiftR, false),
    ] {
        let p = protect(&module, scheme);
        // Clean instrumentation.
        let (clean_region, clean_total, base_total) = {
            let mut machine = Machine::new(&p.module, NoopHooks);
            input.apply(&mut machine);
            let c = machine.run("main", &[]).counters;
            let mut basem = Machine::new(&module, NoopHooks);
            input.apply(&mut basem);
            let b = basem.run("main", &[]).counters;
            (c.region_retired, c.retired, b.retired)
        };
        let config = ExecConfig {
            step_limit: clean_total * 20,
            ..ExecConfig::default()
        };

        let mut rng = ChaCha8Rng::seed_from_u64(0xEC0);
        let mut correct = 0u64;
        let mut total_instr = 0u64;
        for _ in 0..runs {
            let plan = InjectionPlan {
                trigger: rng.gen_range(0..clean_region),
                seed: rng.gen(),
                model: FaultModel::SingleBitSeu,
            };
            let mut machine = Machine::with_config(&p.module, NoopHooks, config.clone());
            input.apply(&mut machine);
            machine.set_injection(plan);
            let mut outcome = machine.run("main", &[]);
            total_instr += outcome.counters.retired;
            if restart && outcome.termination == Termination::Trapped(Trap::FaultDetected) {
                // Checkpoint restart: restore the input image (memory is
                // the only architectural state that survives a region) and
                // re-execute. The SEU was one-shot, so the retry is clean.
                machine.reset_memory();
                input.apply(&mut machine);
                outcome = machine.run("main", &[]);
                total_instr += outcome.counters.retired;
            }
            let class = classify_outcome(&outcome, machine.read_global(output), &golden);
            if class == OutcomeClass::Correct {
                correct += 1;
            }
        }
        out.push(RecoveryPoint {
            strategy: label.to_string(),
            protection_rate: correct as f64 / f64::from(runs),
            avg_cost: total_instr as f64 / f64::from(runs) / base_total as f64,
        });
    }
    out
}

/// Runs all ablations through a shared [`Engine`] (the width sweep
/// reuses the engine's cached conv1d setup; the other studies build raw
/// modules, not setups).
pub fn run_with(engine: &Engine) -> Ablations {
    let options = engine.options();
    Ablations {
        quantization: run_quantization(options),
        detection: run_detection(options),
        width: run_width_with(&engine.setup("conv1d"), options),
        recovery: run_recovery(options, 300),
    }
}

impl Ablations {
    /// Renders all three tables.
    pub fn render(&self) -> String {
        let mut out = String::new();

        let mut t = TextTable::new(
            ["quantization levels", "bit allocation", "accuracy (5%)"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title(
            "Ablation §4.2.2: lookup-table construction (blackscholes; paper: 96.5% -> >99%)",
        );
        let q = &self.quantization;
        t.row(vec![
            "uniform (Paraprox)".into(),
            "equal".into(),
            percent(q.uniform_equal),
        ]);
        t.row(vec![
            "uniform (Paraprox)".into(),
            "tuned".into(),
            percent(q.uniform_tuned),
        ]);
        t.row(vec![
            "histogram (ours)".into(),
            "equal".into(),
            percent(q.histogram_equal),
        ]);
        t.row(vec![
            "histogram (ours)".into(),
            "tuned".into(),
            percent(q.histogram_tuned),
        ]);
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(
            ["scheme", "instructions", "time"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("Ablation: detection-only vs full protection (conv1d)");
        for s in &self.detection {
            t.row(vec![
                s.scheme.clone(),
                ratio(s.norm_instr),
                ratio(s.norm_time),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(
            ["issue width", "SWIFT-R slowdown", "RSkip AR100 slowdown"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("Ablation: pipeline width sensitivity (conv1d)");
        for w in &self.width {
            t.row(vec![
                w.width.to_string(),
                ratio(w.swift_r_slowdown),
                ratio(w.rskip_slowdown),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(
            ["recovery strategy", "protection rate", "avg cost (instr)"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title(
            "Ablation §8: detection + checkpoint restart vs inline TMR (conv1d, SEU campaign)",
        );
        for r in &self.recovery {
            t.row(vec![
                r.strategy.clone(),
                percent(r.protection_rate),
                ratio(r.avg_cost),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
