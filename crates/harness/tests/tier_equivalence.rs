//! Differential tier-equivalence suite.
//!
//! The execution tiers ([`ExecTier::Match`], [`ExecTier::Threaded`]) are
//! one semantics with two speeds: every
//! observable — memory image, architectural counters, timing (cycles,
//! mispredicts), termination, injection records, fault verdicts — must be
//! byte-identical across them. A throughput number from an interpreter
//! with even slightly different semantics is worthless, so this suite
//! checks equivalence three ways:
//!
//! 1. whole golden workloads, untimed and timed, protected and
//!    conventional builds. Timing equivalence holds by routing: the
//!    threaded tier runs untimed, untraced runs only, and `Machine`
//!    sends every timed run to the reference loop, so the timed half
//!    pins that routing;
//! 2. fault-injection campaign trials, compared trial-by-trial (not just
//!    in aggregate) with full memory snapshots;
//! 3. a sampled exhaustive single-bit [`enumerate_faults`] sweep, whose
//!    probes arm the [`ExactFault`](rskip_exec::ExactFault) boundary-exact
//!    event-fuel path that ordinary runs rarely stress.

use rskip_exec::{enumerate_faults, ExecConfig, ExecTier, FaultModel, Machine, NoopHooks};
use rskip_harness::throughput::TIERS;
use rskip_harness::{ArSetting, Campaign, Engine, EvalOptions};
use rskip_ir::{BinOp, CmpOp, Module, ModuleBuilder, Operand, Ty, Value};
use rskip_passes::apply_swift_r;
use rskip_workloads::SizeProfile;

fn tiny_engine() -> Engine {
    Engine::new(EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    })
}

/// Runs `module` once under `tier` with the given hooks and timing model,
/// returning everything observable about the run.
fn observe_run<H: rskip_exec::RuntimeHooks>(
    module: &Module,
    hooks: H,
    input: &rskip_workloads::InputSet,
    tier: ExecTier,
    timed: bool,
    pipeline: rskip_exec::PipelineConfig,
) -> (rskip_exec::RunOutcome, Vec<Value>) {
    let config = ExecConfig {
        tier,
        timing: timed.then_some(pipeline),
        ..ExecConfig::default()
    };
    let mut machine = Machine::with_config(module, hooks, config);
    input.apply(&mut machine);
    let out = machine.run("main", &[]);
    let memory = machine.memory().to_vec();
    (out, memory)
}

/// Whole golden workloads: the full prediction runtime on the RSkip
/// build, plus the conventional builds, untimed and under the pipeline
/// timing model. Cycles and mispredict counts are part of the compared
/// counters; a timed run under a threaded tier must match the reference
/// loop's, which holds as long as timed runs are routed there.
#[test]
fn golden_workloads_are_byte_identical_across_tiers() {
    let engine = tiny_engine();
    let ar = ArSetting { percent: 20 };
    for bench in ["conv1d", "kde"] {
        let setup = engine.setup(bench);
        let input = setup.test_input();
        let pipeline = setup.options.pipeline;
        for timed in [false, true] {
            // Protected build with the real prediction runtime.
            let reference = observe_run(
                &setup.rskip.module,
                setup.runtime(ar),
                &input,
                TIERS[0],
                timed,
                pipeline,
            );
            for &tier in &TIERS[1..] {
                let got = observe_run(
                    &setup.rskip.module,
                    setup.runtime(ar),
                    &input,
                    tier,
                    timed,
                    pipeline,
                );
                assert_eq!(
                    reference, got,
                    "{bench} rskip build (timed={timed}) diverges under {tier}"
                );
            }
            // Conventional builds exercise the select/branch-heavy
            // handler mix without intrinsics.
            for module in [&setup.unprotected, &setup.swift_r.module] {
                let reference = observe_run(module, NoopHooks, &input, TIERS[0], timed, pipeline);
                for &tier in &TIERS[1..] {
                    let got = observe_run(module, NoopHooks, &input, tier, timed, pipeline);
                    assert_eq!(
                        reference, got,
                        "{bench} conventional build (timed={timed}) diverges under {tier}"
                    );
                }
            }
        }
        assert!(
            reference_sanity(&engine, bench),
            "workload produced no output to compare"
        );
    }
}

/// The comparisons above are only meaningful if the workload writes
/// observable output at all.
fn reference_sanity(engine: &Engine, bench: &str) -> bool {
    let setup = engine.setup(bench);
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    !golden.is_empty()
}

/// Campaign trials compared one by one: same injection plan, same hooks
/// construction, full memory image and recovery counter per trial. The
/// aggregate-level check lives in `throughput::measure_tiers`; this one
/// rules out compensating errors that cancel in aggregate.
#[test]
fn campaign_trials_are_byte_identical_per_trial() {
    let engine = tiny_engine();
    let setup = engine.setup("conv1d");
    let ar = ArSetting { percent: 20 };
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);
    let trials = 24u32;
    let campaign = Campaign::new(
        &setup.rskip.module,
        &input,
        &golden,
        setup.bench.output_global(),
        make,
        0xD1FF_5EED,
        trials,
    );

    let mut injected = 0u32;
    for trial in 0..trials {
        let mut reference = None;
        for &tier in &TIERS {
            let mut config = campaign.config().clone();
            config.tier = tier;
            let mut machine = Machine::with_config(&setup.rskip.module, make(), config);
            input.apply(&mut machine);
            machine.set_injection(campaign.plan(trial));
            let out = machine.run("main", &[]);
            let snapshot = (
                out,
                machine.memory().to_vec(),
                machine.hooks().total_faults_recovered(),
            );
            match &reference {
                None => {
                    if snapshot.0.injection.is_some() {
                        injected += 1;
                    }
                    reference = Some(snapshot);
                }
                Some(r) => assert_eq!(*r, snapshot, "trial {trial} diverges under {tier}"),
            }
        }
    }
    // The sweep must actually inject into most trials, or the per-trial
    // comparison is mostly comparing clean runs.
    assert!(
        injected > trials / 2,
        "only {injected} of {trials} trials armed an injection"
    );
}

/// Campaigns under the non-SEU fault models, compared trial-by-trial
/// across tiers and in aggregate across worker counts. Skip faults
/// exercise the bubble-retire path (and the threaded tier's stop at an
/// exact event boundary); bursts exercise the windowed multi-bit injector.
#[test]
fn skip_and_burst_campaigns_are_deterministic_across_tiers_and_threads() {
    let engine = tiny_engine();
    let setup = engine.setup("conv1d");
    let ar = ArSetting { percent: 20 };
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(ar);
    let trials = 16u32;

    for model in [
        FaultModel::InstructionSkip,
        FaultModel::MultiBitBurst { width: 4 },
    ] {
        let mut campaign = Campaign::new(
            &setup.rskip.module,
            &input,
            &golden,
            setup.bench.output_global(),
            make,
            0xD1FF_5EED ^ model.seed_tag(),
            trials,
        );
        campaign.set_fault_model(model);

        let mut injected = 0u32;
        for trial in 0..trials {
            let mut reference = None;
            for &tier in &TIERS {
                let mut config = campaign.config().clone();
                config.tier = tier;
                let mut machine = Machine::with_config(&setup.rskip.module, make(), config);
                input.apply(&mut machine);
                machine.set_injection(campaign.plan(trial));
                let out = machine.run("main", &[]);
                let snapshot = (
                    out,
                    machine.memory().to_vec(),
                    machine.hooks().total_faults_recovered(),
                );
                match &reference {
                    None => {
                        if snapshot.0.injection.is_some() {
                            injected += 1;
                        }
                        reference = Some(snapshot);
                    }
                    Some(r) => assert_eq!(
                        *r,
                        snapshot,
                        "{} trial {trial} diverges under {tier}",
                        model.label()
                    ),
                }
            }
        }
        assert!(
            injected > trials / 2,
            "{}: only {injected} of {trials} trials armed an injection",
            model.label()
        );

        // Aggregate determinism across worker counts: the campaign's
        // result depends on seeds only, never on scheduling.
        let serial = campaign.run_on(1, make, |h| h.total_faults_recovered());
        let parallel = campaign.run_on(3, make, |h| h.total_faults_recovered());
        assert_eq!(
            serial,
            parallel,
            "{}: stats diverge across thread counts",
            model.label()
        );
        assert_eq!(serial.counts.total(), u64::from(trials));
    }
}

/// A micro workload small enough for exhaustive flip enumeration: sum
/// five array elements through a loop (loads, stores, compares, branches
/// and loop-carried state).
fn micro_module() -> Module {
    let mut mb = ModuleBuilder::new("micro_eq");
    let a = mb.global_init(
        "a",
        Ty::I64,
        [9, 2, 7, 1, 6].into_iter().map(Value::I).collect(),
    );
    let out = mb.global_zeroed("out", Ty::I64, 1);

    let mut f = mb.function("main", vec![], None);
    let entry = f.entry_block();
    let header = f.new_block("header");
    let body = f.new_block("body");
    let exit = f.new_block("exit");
    let i = f.def_reg(Ty::I64, "i");
    let s = f.def_reg(Ty::I64, "s");

    f.switch_to(entry);
    f.mov(i, Operand::imm_i(0));
    f.mov(s, Operand::imm_i(0));
    f.br(header);

    f.switch_to(header);
    let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(5));
    f.cond_br(Operand::reg(c), body, exit);

    f.switch_to(body);
    let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(a), Operand::reg(i));
    let v = f.load(Ty::I64, Operand::reg(addr));
    f.bin_into(s, BinOp::Add, Ty::I64, Operand::reg(s), Operand::reg(v));
    f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
    f.br(header);

    f.switch_to(exit);
    f.store(Ty::I64, Operand::global(out), Operand::reg(s));
    f.ret(None);
    f.finish();
    mb.finish()
}

/// Sampled exhaustive flip sweep under every tier: every probe's verdict
/// (and position) must agree exactly. `ExactFault` probes fire at precise
/// instruction boundaries, which forces the threaded tier's event fuel
/// to stop exactly there — the trickiest part of the fuel bookkeeping.
#[test]
fn exact_flip_enumeration_verdicts_agree_across_tiers() {
    let plain = micro_module();
    let mut protected = micro_module();
    apply_swift_r(&mut protected);
    // Low, middle and high bit positions: value-sized and address-sized
    // corruptions without the 64x cost of the full sweep.
    let bits = [0u32, 1, 31, 62];

    for (label, module) in [("plain", &plain), ("swift-r", &protected)] {
        let mut reference = None;
        for &tier in &TIERS {
            let config = ExecConfig {
                step_limit: 100_000,
                tier,
                ..ExecConfig::default()
            };
            let en = enumerate_faults(
                module,
                "main",
                &[],
                &config,
                || NoopHooks,
                FaultModel::SingleBitSeu,
                &bits,
                4096,
            )
            .expect("enumeration runs");
            assert!(!en.probes.is_empty(), "{label}: empty sweep is vacuous");
            match &reference {
                None => reference = Some(en),
                Some(r) => {
                    assert_eq!(
                        r.boundaries, en.boundaries,
                        "{label}: boundary census diverges under {tier}"
                    );
                    assert_eq!(
                        r.probes, en.probes,
                        "{label}: probe verdicts diverge under {tier}"
                    );
                }
            }
        }
    }
}

/// The same exhaustive agreement, for the other two fault models: every
/// skip and burst probe's verdict must be identical under every tier.
/// Skip probes in particular force the threaded tier to stop its event
/// fuel and retire a bubble at an exact boundary.
#[test]
fn skip_and_burst_enumeration_verdicts_agree_across_tiers() {
    let plain = micro_module();
    let mut protected = micro_module();
    apply_swift_r(&mut protected);
    let starts = [0u32, 1, 31, 62];

    for (model, bits) in [
        (FaultModel::InstructionSkip, &[][..]),
        (FaultModel::MultiBitBurst { width: 5 }, &starts[..]),
    ] {
        for (label, module) in [("plain", &plain), ("swift-r", &protected)] {
            let mut reference = None;
            for &tier in &TIERS {
                let config = ExecConfig {
                    step_limit: 100_000,
                    tier,
                    ..ExecConfig::default()
                };
                let en = enumerate_faults(
                    module,
                    "main",
                    &[],
                    &config,
                    || NoopHooks,
                    model,
                    bits,
                    4096,
                )
                .expect("enumeration runs");
                assert!(
                    !en.probes.is_empty(),
                    "{label}/{}: empty sweep is vacuous",
                    model.label()
                );
                match &reference {
                    None => reference = Some(en),
                    Some(r) => {
                        assert_eq!(
                            r.probes,
                            en.probes,
                            "{label}/{}: probe verdicts diverge under {tier}",
                            model.label()
                        );
                    }
                }
            }
        }
    }
}
