//! Full-stack test: compile with the RSkip scheme, attach the real
//! prediction runtime, execute, and check semantics, skip rate and fault
//! recovery.

use rskip_exec::{ExecConfig, FaultModel, InjectionPlan, Machine, NoopHooks, PipelineConfig};
use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Operand, Ty, Value};
use rskip_passes::{protect, Protected, Scheme};
use rskip_runtime::{PredictionRuntime, RegionInit, RuntimeConfig};

/// Smooth workload: out[i] = sum_k g[i+k]*w[k] over a smooth signal — the
/// kind of spatio-value-similar data the paper targets.
fn smooth_conv(n: i64, k: i64) -> rskip_ir::Module {
    let mut mb = ModuleBuilder::new("conv");
    let g = mb.global_init(
        "g",
        Ty::F64,
        (0..(n + k))
            .map(|v| Value::F(100.0 + (v as f64 * 0.01).sin() * 5.0 + v as f64 * 0.05))
            .collect(),
    );
    let w = mb.global_init(
        "w",
        Ty::F64,
        (0..k).map(|v| Value::F(0.1 + v as f64 * 0.01)).collect(),
    );
    let out = mb.global_zeroed("out", Ty::F64, n as usize);
    let mut f = mb.function("main", vec![], None);
    let entry = f.entry_block();
    let oh = f.new_block("oh");
    let pre = f.new_block("pre");
    let ih = f.new_block("ih");
    let ib = f.new_block("ib");
    let fin = f.new_block("fin");
    let exit = f.new_block("exit");
    let i = f.def_reg(Ty::I64, "i");
    let kk = f.def_reg(Ty::I64, "k");
    let acc = f.def_reg(Ty::F64, "acc");
    f.switch_to(entry);
    f.mov(i, Operand::imm_i(0));
    f.br(oh);
    f.switch_to(oh);
    let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(n));
    f.cond_br(Operand::reg(c), pre, exit);
    f.switch_to(pre);
    f.mov(acc, Operand::imm_f(0.0));
    f.mov(kk, Operand::imm_i(0));
    f.br(ih);
    f.switch_to(ih);
    let c2 = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(kk), Operand::imm_i(k));
    f.cond_br(Operand::reg(c2), ib, fin);
    f.switch_to(ib);
    let gi = f.bin(BinOp::Add, Ty::I64, Operand::reg(i), Operand::reg(kk));
    let ga = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(gi));
    let gv = f.load(Ty::F64, Operand::reg(ga));
    let wa = f.bin(BinOp::Add, Ty::I64, Operand::global(w), Operand::reg(kk));
    let wv = f.load(Ty::F64, Operand::reg(wa));
    let prod = f.bin(BinOp::Mul, Ty::F64, Operand::reg(gv), Operand::reg(wv));
    f.bin_into(
        acc,
        BinOp::Add,
        Ty::F64,
        Operand::reg(acc),
        Operand::reg(prod),
    );
    f.bin_into(kk, BinOp::Add, Ty::I64, Operand::reg(kk), Operand::imm_i(1));
    f.br(ih);
    f.switch_to(fin);
    let oa = f.bin(BinOp::Add, Ty::I64, Operand::global(out), Operand::reg(i));
    f.store(Ty::F64, Operand::reg(oa), Operand::reg(acc));
    f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
    f.br(oh);
    f.switch_to(exit);
    f.ret(None);
    f.finish();
    mb.finish()
}

fn region_inits(p: &Protected) -> Vec<RegionInit> {
    p.regions
        .iter()
        .map(|r| RegionInit {
            region: r.region.0,
            has_body: r.body_fn.is_some(),
            memoizable: r.memoizable,
            acceptable_range: r.acceptable_range,
        })
        .collect()
}

fn golden(m: &rskip_ir::Module) -> Vec<Value> {
    let mut machine = Machine::new(m, NoopHooks);
    assert!(machine.run("main", &[]).returned());
    machine.read_global("out").to_vec()
}

#[test]
fn pp_with_real_runtime_is_exact_and_skips() {
    let m = smooth_conv(256, 16);
    let expect = golden(&m);
    let p = protect(&m, Scheme::RSkip);
    assert_eq!(p.regions.len(), 1);

    let rt = PredictionRuntime::new(&region_inits(&p), RuntimeConfig::with_ar(0.2));
    let mut machine = Machine::new(&p.module, rt);
    let out = machine.run("main", &[]);
    assert!(out.returned(), "{:?}", out.termination);
    for (i, (a, b)) in machine.read_global("out").iter().zip(&expect).enumerate() {
        assert!(a.bit_eq(*b), "out[{i}]");
    }
    let stats = machine.hooks().stats(0);
    assert_eq!(stats.elements, 256);
    assert!(
        stats.skip_rate() > 0.7,
        "skip rate {} on smooth data",
        stats.skip_rate()
    );
    // Mispredictions (endpoints) were re-computed, no faults detected.
    assert!(stats.mispredictions > 0);
    assert_eq!(machine.hooks().total_faults_recovered(), 0);
}

#[test]
fn skip_rate_grows_with_acceptable_range() {
    let m = smooth_conv(256, 16);
    let p = protect(&m, Scheme::RSkip);
    let inits = region_inits(&p);
    let run = |ar: f64| {
        let rt = PredictionRuntime::new(&inits, RuntimeConfig::with_ar(ar));
        let mut machine = Machine::new(&p.module, rt);
        assert!(machine.run("main", &[]).returned());
        machine.hooks().total_skip_rate()
    };
    let r20 = run(0.2);
    let r100 = run(1.0);
    assert!(r100 >= r20, "AR100 {r100} < AR20 {r20}");
}

#[test]
fn rskip_beats_swift_r_on_cycles_and_instructions() {
    let m = smooth_conv(256, 16);
    let config = ExecConfig {
        timing: Some(PipelineConfig::default()),
        ..ExecConfig::default()
    };

    let mut base = Machine::with_config(&m, NoopHooks, config.clone());
    let base_out = base.run("main", &[]);

    let sr = protect(&m, Scheme::SwiftR);
    let mut sr_m = Machine::with_config(&sr.module, NoopHooks, config.clone());
    let sr_out = sr_m.run("main", &[]);

    let p = protect(&m, Scheme::RSkip);
    let rt = PredictionRuntime::new(&region_inits(&p), RuntimeConfig::with_ar(0.2));
    let mut pp_m = Machine::with_config(&p.module, rt, config);
    let pp_out = pp_m.run("main", &[]);

    let sr_slow = sr_out.counters.cycles as f64 / base_out.counters.cycles as f64;
    let pp_slow = pp_out.counters.cycles as f64 / base_out.counters.cycles as f64;
    let sr_instr = sr_out.counters.retired as f64 / base_out.counters.retired as f64;
    let pp_instr = pp_out.counters.retired as f64 / base_out.counters.retired as f64;

    assert!(
        pp_slow < sr_slow,
        "RSkip {pp_slow:.2}x vs SWIFT-R {sr_slow:.2}x (cycles)"
    );
    assert!(
        pp_instr < sr_instr,
        "RSkip {pp_instr:.2}x vs SWIFT-R {sr_instr:.2}x (instructions)"
    );
    assert!(sr_slow > 1.3, "SWIFT-R slowdown {sr_slow:.2}x");
}

#[test]
fn pragma_acceptable_range_zero_forces_exact_validation() {
    // The paper's pragma (§3 footnote 5): "the acceptable range can be
    // specified as zero" per code region. A loop hint with ar=0 must win
    // over a permissive global AR: fuzzy validation becomes exact, so
    // nearly everything is re-computed, and outputs stay bit-exact.
    let mut m = smooth_conv(128, 8);
    {
        let f = m.function_mut("main").unwrap();
        // The candidate loop header is "oh" (block 1 in the builder).
        f.loop_hints.push(rskip_ir::LoopHint {
            header: rskip_ir::BlockId(1),
            no_alias: false,
            acceptable_range: Some(0.0),
        });
    }
    let expect = golden(&m);
    let p = protect(&m, Scheme::RSkip);
    assert_eq!(p.regions[0].acceptable_range, Some(0.0), "pragma captured");

    let rt = PredictionRuntime::new(&region_inits(&p), RuntimeConfig::with_ar(1.0));
    let mut machine = Machine::new(&p.module, rt);
    let input_free_outputs = {
        let out = machine.run("main", &[]);
        assert!(out.returned());
        machine.read_global("out").to_vec()
    };
    for (a, b) in input_free_outputs.iter().zip(&expect) {
        assert!(a.bit_eq(*b));
    }
    let strict = machine.hooks().stats(0);
    // Exact validation: interpolated f64 predictions virtually never match
    // bit-for- relative-zero, so skips collapse.
    assert!(
        strict.skip_rate() < 0.05,
        "pragma ar=0 still skipped {:.1}%",
        strict.skip_rate() * 100.0
    );

    // Control: without the pragma the same global AR skips plenty.
    let m2 = smooth_conv(128, 8);
    let p2 = protect(&m2, Scheme::RSkip);
    let rt2 = PredictionRuntime::new(&region_inits(&p2), RuntimeConfig::with_ar(1.0));
    let mut machine2 = Machine::new(&p2.module, rt2);
    assert!(machine2.run("main", &[]).returned());
    assert!(
        machine2.hooks().stats(0).skip_rate() > 0.3,
        "control skip rate unexpectedly low"
    );
}

#[test]
fn injected_fault_in_pp_region_is_detected_or_tolerable() {
    // Inject SEUs into the PP region; with AR=0 every corrupted output
    // escapes fuzzy validation only if it is bit-identical — so outcomes
    // must be Correct (recovered or masked) except Segfault/Hang-type
    // crashes from corrupted addresses/counters.
    let m = smooth_conv(64, 16);
    let expect = golden(&m);
    let p = protect(&m, Scheme::RSkip);
    let inits = region_inits(&p);

    let config = ExecConfig {
        step_limit: 3_000_000,
        ..ExecConfig::default()
    };

    let mut correct = 0;
    let mut sdc = 0;
    let mut crash = 0;
    let mut recovered_events = 0;
    let n_runs = 150;
    for seed in 0..n_runs {
        let rt = PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.0));
        let mut machine = Machine::with_config(&p.module, rt, config.clone());
        machine.set_injection(InjectionPlan {
            trigger: 200 + seed * 137,
            seed,
            model: FaultModel::SingleBitSeu,
        });
        let out = machine.run("main", &[]);
        recovered_events += machine.hooks().total_faults_recovered();
        if !out.returned() {
            crash += 1;
            continue;
        }
        if machine
            .read_global("out")
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.bit_eq(*b))
        {
            correct += 1;
        } else {
            sdc += 1;
        }
    }
    // The PP path with exact validation must recover or mask nearly all
    // value faults. Some crashes (corrupted addresses → segfault) and a
    // few SDCs (faults outside the validated value chain, e.g. a voted
    // copy corrupted post-vote) are expected — the paper sees the same
    // residuals. The bulk must be correct.
    assert!(
        correct * 10 >= n_runs as i32 * 8,
        "correct {correct}, sdc {sdc}, crash {crash} of {n_runs}"
    );
    assert!(
        recovered_events > 0,
        "re-computation recovery never fired across {n_runs} runs"
    );
}
