//! Reliability integration test: a reduced Statistical Fault Injection
//! campaign must reproduce the paper's qualitative ordering
//! (UNSAFE ≪ RSkip ≤ SWIFT-R) and the false-negative trend.
//!
//! Campaigns run through [`rskip::harness::Campaign`], which decodes the
//! module once, sizes the injection window from a clean run, and fans
//! trials across threads with split-seeded per-trial RNGs.

use rskip::exec::{FaultModel, InjectionPlan, Machine, NoopHooks};
use rskip::harness::Campaign;
use rskip::passes::{protect, Protected, Scheme};
use rskip::runtime::{PredictionRuntime, RuntimeConfig};
use rskip::workloads::{benchmark_by_name, SizeProfile};

const RUNS: u32 = 120;

fn campaign(
    p: &Protected,
    bench: &dyn rskip::workloads::Benchmark,
    ar: f64,
    seed0: u64,
) -> (f64, u64) {
    let size = SizeProfile::Tiny;
    let input = bench.gen_input(size, 2000);
    let golden = bench.golden(size, &input);
    let inits = rskip::region_inits(p);

    // All per-trial setup (runtime construction, config cloning, machine
    // building) lives inside the Campaign; the test only describes the
    // experiment.
    let make = || PredictionRuntime::new(&inits, RuntimeConfig::with_ar(ar));
    let c = Campaign::new(
        &p.module,
        &input,
        &golden,
        bench.output_global(),
        make,
        seed0,
        RUNS,
    );
    let stats = c.run(make, |h| h.total_faults_recovered());
    (stats.protection_rate(), stats.false_negatives.total())
}

#[test]
fn protection_ordering_matches_the_paper() {
    let bench = benchmark_by_name("conv1d").unwrap();
    let module = bench.build(SizeProfile::Tiny);

    let unsafe_build = protect(&module, Scheme::Unsafe);
    let swift_r = protect(&module, Scheme::SwiftR);
    let rskip_build = protect(&module, Scheme::RSkip);

    let (unsafe_rate, _) = campaign(&unsafe_build, bench.as_ref(), 0.2, 7);
    let (swift_r_rate, _) = campaign(&swift_r, bench.as_ref(), 0.2, 7);
    let (ar20_rate, _) = campaign(&rskip_build, bench.as_ref(), 0.2, 7);

    assert!(
        unsafe_rate < swift_r_rate,
        "UNSAFE {unsafe_rate:.3} should be below SWIFT-R {swift_r_rate:.3}"
    );
    assert!(
        unsafe_rate + 0.05 < ar20_rate,
        "UNSAFE {unsafe_rate:.3} should be well below AR20 {ar20_rate:.3}"
    );
    assert!(
        swift_r_rate > 0.9,
        "SWIFT-R protection rate {swift_r_rate:.3}"
    );
    assert!(ar20_rate > 0.85, "AR20 protection rate {ar20_rate:.3}");
}

#[test]
fn detection_and_recovery_fire_under_injection() {
    // Across a campaign, RSkip's re-computation recovery must actually
    // trigger at least once (faults do land in the validated value chain).
    // AR 0: exact validation — every corrupted value in the validated
    // chain is caught.
    let bench = benchmark_by_name("sgemm").unwrap();
    let module = bench.build(SizeProfile::Tiny);
    let p = protect(&module, Scheme::RSkip);
    let inits = rskip::region_inits(&p);
    let input = bench.gen_input(SizeProfile::Tiny, 2000);
    let golden = bench.golden(SizeProfile::Tiny, &input);

    let make = || PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.0));
    let c = Campaign::new(
        &p.module,
        &input,
        &golden,
        bench.output_global(),
        make,
        99,
        200,
    );
    let stats = c.run(make, |h| h.total_faults_recovered());
    assert!(
        stats.recoveries > 0,
        "recovery never fired in 200 injections"
    );
}

#[test]
fn campaign_is_identical_across_thread_counts() {
    // The determinism contract: trial RNGs are split-seeded by trial
    // index and outcomes folded in trial order, so the aggregate is
    // byte-identical no matter how trials are scheduled.
    let bench = benchmark_by_name("conv1d").unwrap();
    let module = bench.build(SizeProfile::Tiny);
    let p = protect(&module, Scheme::RSkip);
    let inits = rskip::region_inits(&p);
    let input = bench.gen_input(SizeProfile::Tiny, 2000);
    let golden = bench.golden(SizeProfile::Tiny, &input);

    let make = || PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.2));
    let c = Campaign::new(
        &p.module,
        &input,
        &golden,
        bench.output_global(),
        make,
        7,
        60,
    );
    let observe = |h: &PredictionRuntime| h.total_faults_recovered();
    let one = c.run_on(1, make, observe);
    let four = c.run_on(4, make, observe);
    let seven = c.run_on(7, make, observe);
    assert_eq!(one, four, "1-thread vs 4-thread campaigns diverged");
    assert_eq!(one, seven, "1-thread vs 7-thread campaigns diverged");
}

#[test]
fn injection_is_deterministic_given_the_seed() {
    let bench = benchmark_by_name("kde").unwrap();
    let module = bench.build(SizeProfile::Tiny);
    let p = protect(&module, Scheme::Unsafe);
    let input = bench.gen_input(SizeProfile::Tiny, 2000);

    let run = || {
        let mut machine = Machine::new(&p.module, NoopHooks);
        input.apply(&mut machine);
        machine.set_injection(InjectionPlan {
            trigger: 123,
            seed: 456,
            model: FaultModel::SingleBitSeu,
        });
        let out = machine.run("main", &[]);
        (
            out.injection.clone(),
            machine.read_global(bench.output_global()).to_vec(),
        )
    };
    let (rec1, out1) = run();
    let (rec2, out2) = run();
    assert_eq!(rec1, rec2);
    assert_eq!(out1.len(), out2.len());
    assert!(out1.iter().zip(&out2).all(|(a, b)| a.bit_eq(*b)));
}
