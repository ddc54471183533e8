//! Smoke tests for every experiment module at the Tiny profile: each
//! figure driver runs end to end, produces sane numbers, and renders.

use rskip_harness::build::{ArSetting, BenchSetup, EvalOptions};
use rskip_harness::fig9::SchemeLabel;
use rskip_harness::Engine;
use rskip_workloads::SizeProfile;

fn tiny_options() -> EvalOptions {
    EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::at_size(SizeProfile::Tiny)
    }
}

#[test]
fn fig2_produces_sane_coverage() {
    let opts = tiny_options();
    let setup = BenchSetup::prepare(rskip_workloads::benchmark_by_name("conv1d").unwrap(), &opts);
    let row = rskip_harness::fig2::run_bench(&setup);
    assert!(row.trend > 0.5, "conv1d trend coverage {}", row.trend);
    assert!(row.region_share > 0.5);
    assert!((0.0..=1.0).contains(&row.top10));
}

#[test]
fn fig7_rows_have_the_papers_shape() {
    let opts = tiny_options();
    let setup = BenchSetup::prepare(rskip_workloads::benchmark_by_name("conv1d").unwrap(), &opts);
    let row = rskip_harness::fig7::run_bench(&setup);
    assert!(
        row.swift_r.norm_time > 1.5,
        "SWIFT-R {}",
        row.swift_r.norm_time
    );
    assert!(row.swift_r.norm_instr > 2.0);
    for (ar, m) in &row.rskip {
        assert!(
            m.norm_time < row.swift_r.norm_time,
            "AR{ar} {} not below SWIFT-R {}",
            m.norm_time,
            row.swift_r.norm_time
        );
        assert!(m.skip_rate > 0.0 && m.skip_rate <= 1.0);
    }
    // Skip rate is non-decreasing in AR.
    for w in row.rskip.windows(2) {
        assert!(w[1].1.skip_rate >= w[0].1.skip_rate - 0.05);
    }
}

#[test]
fn fig8a_memoizer_lifts_blackscholes() {
    let opts = EvalOptions {
        train_seeds: vec![1000, 1001, 1002, 1003],
        ..tiny_options()
    };
    let fig = rskip_harness::fig8::run_8a_with(&Engine::new(opts));
    assert_eq!(fig.points.len(), 4);
    for p in &fig.points {
        assert!(p.full_skip >= p.di_skip - 0.05, "AR{}", p.ar);
    }
    assert!(!fig.render().is_empty());
}

#[test]
fn fig8b_covers_requested_inputs() {
    let fig = rskip_harness::fig8::run_8b_with(&Engine::new(tiny_options()), 3);
    assert_eq!(fig.points.len(), 3);
    for p in &fig.points {
        assert!(p.swift_r_time > 1.0);
        assert!(p.rskip_time > 1.0);
    }
}

#[test]
fn fig9_mini_campaign_orders_schemes() {
    let fig = rskip_harness::fig9::run_on(&Engine::new(tiny_options()), vec!["conv1d".into()], 80);
    let row = &fig.rows[0];
    let rate = |s: SchemeLabel| {
        row.cells
            .iter()
            .find(|c| c.scheme == s)
            .unwrap()
            .counts
            .protection_rate()
    };
    let unsafe_rate = rate(SchemeLabel::Unsafe);
    let swift_r = rate(SchemeLabel::SwiftR);
    let ar20 = rate(SchemeLabel::Ar(20));
    assert!(
        unsafe_rate < swift_r,
        "UNSAFE {unsafe_rate} !< SWIFT-R {swift_r}"
    );
    assert!(unsafe_rate < ar20, "UNSAFE {unsafe_rate} !< AR20 {ar20}");
    assert!(swift_r > 0.9);
    // Every run classified.
    for c in &row.cells {
        assert_eq!(c.counts.total(), 80);
    }
}

#[test]
fn tradeoff_joins_consistently() {
    let opts = tiny_options();
    let fig7 = rskip_harness::fig7::Fig7 {
        rows: vec![rskip_harness::fig7::run_bench(&BenchSetup::prepare(
            rskip_workloads::benchmark_by_name("conv1d").unwrap(),
            &opts,
        ))],
    };
    let fig9 = rskip_harness::fig9::run_on(&Engine::new(opts), vec!["conv1d".into()], 40);
    let t = rskip_harness::tradeoff::join(&fig7, &fig9);
    assert_eq!(t.points.len(), 5); // SWIFT-R + 4 ARs
    let ar20 = t.ar_point(ArSetting { percent: 20 }).unwrap();
    assert!(ar20.slowdown > 1.0);
    assert!(ar20.protection_rate > 0.5);
    assert!(!t.render().is_empty());
}

#[test]
fn cost_ratio_orders_mechanisms() {
    let c = rskip_harness::cost_ratio::run(&tiny_options());
    let (a, b, r) = c.normalized();
    assert_eq!(a, 1.0);
    assert!(b > 1.0, "memoization must cost more than interpolation");
    assert!(r > b, "re-computation must cost the most");
    assert!(!c.render().is_empty());
}

#[test]
fn quantization_ablation_reproduces_the_papers_gap() {
    let opts = EvalOptions {
        train_seeds: vec![1000, 1001, 1002, 1003],
        ..EvalOptions::at_size(SizeProfile::Small)
    };
    let q = rskip_harness::ablations::run_quantization(&opts);
    assert!(
        q.histogram_tuned > q.uniform_equal + 0.2,
        "full construction {} vs Paraprox baseline {}",
        q.histogram_tuned,
        q.uniform_equal
    );
    assert!(q.histogram_tuned > 0.9);
}

#[test]
fn recovery_ablation_restart_matches_tmr_protection() {
    let points = rskip_harness::ablations::run_recovery(&tiny_options(), 150);
    assert_eq!(points.len(), 3);
    let by = |label: &str| points.iter().find(|p| p.strategy.contains(label)).unwrap();
    let abort = by("abort");
    let restart = by("restart");
    let tmr = by("TMR");
    assert!(restart.protection_rate > abort.protection_rate + 0.1);
    assert!(restart.protection_rate > 0.9);
    assert!(
        restart.avg_cost < tmr.avg_cost,
        "restart {} should undercut TMR {}",
        restart.avg_cost,
        tmr.avg_cost
    );
}
