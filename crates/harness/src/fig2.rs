//! Figure 2 — the motivation experiment (§2).
//!
//! "Proportion of dynamic instructions whose computation outputs can be
//! estimated": for each benchmark, the trend model and the
//! top-10-frequent-values model are evaluated on the sampled target-loop
//! outputs, and coverage is weighted by the share of dynamic instructions
//! spent producing those outputs (the detected loops' share of the run).
//!
//! The paper ran this over Rodinia with manual outlier handling; we run it
//! over our nine workloads with a mechanical one-outlier tolerance (see
//! `rskip_predict::trend`).

use serde::Serialize;

use rskip_exec::{Machine, NoopHooks};
use rskip_predict::trend::{top_k_coverage, trend_coverage};

use crate::build::BenchSetup;
use crate::report::{percent, TextTable};

/// Trend threshold: consecutive relative change below 10% keeps the
/// element in the trend (the motivational "less than a certain amount of
/// changes").
pub const TREND_THRESHOLD: f64 = 0.10;

/// Matching tolerance for the top-10 frequent-value model.
pub const TOP_K_AR: f64 = 0.05;

/// One benchmark's Figure-2 measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Row {
    /// Benchmark name.
    pub bench: String,
    /// Trend-predictable share of dynamic instructions (percentish 0-1).
    pub trend: f64,
    /// Top-10-value-predictable share of dynamic instructions.
    pub top10: f64,
    /// Raw trend coverage of the loop outputs.
    pub trend_coverage: f64,
    /// Raw top-10 coverage of the loop outputs.
    pub top10_coverage: f64,
    /// Detected loops' share of dynamic instructions.
    pub region_share: f64,
}

/// The whole figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig2Row>,
}

/// Runs Figure 2 for one prepared benchmark.
pub fn run_bench(setup: &BenchSetup) -> Fig2Row {
    // Region share from an instrumented run of the marked UNSAFE build.
    let input = setup.test_input();
    let mut machine = Machine::new(&setup.unsafe_build.module, NoopHooks);
    input.apply(&mut machine);
    let out = machine.run("main", &[]);
    assert!(out.returned());
    let region_share = out.counters.region_retired as f64 / out.counters.retired as f64;

    // Coverage over the profiled outputs of all regions.
    let outputs: Vec<f64> = setup
        .profiles
        .iter()
        .flat_map(|p| p.outputs.iter().copied())
        .collect();
    let tc = trend_coverage(&outputs, TREND_THRESHOLD, 1);
    let kc = top_k_coverage(&outputs, 10, TOP_K_AR);

    Fig2Row {
        bench: setup.bench.meta().name.to_string(),
        trend: tc * region_share,
        top10: kc * region_share,
        trend_coverage: tc,
        top10_coverage: kc,
        region_share,
    }
}

/// Runs Figure 2 through a shared [`Engine`](crate::experiment::Engine).
pub fn run_with(engine: &crate::experiment::Engine) -> Fig2 {
    let names = crate::experiment::all_bench_names();
    let rows = engine.over(&names, run_bench);
    Fig2 { rows }
}

impl Fig2 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "benchmark",
                "Trend",
                "Top 10",
                "loop share",
                "trend cov",
                "top10 cov",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Fig 2: coverage of predictable computations (% of dynamic instructions)");
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                percent(r.trend),
                percent(r.top10),
                percent(r.region_share),
                percent(r.trend_coverage),
                percent(r.top10_coverage),
            ]);
        }
        let avg_t = self.rows.iter().map(|r| r.trend).sum::<f64>() / self.rows.len() as f64;
        let avg_k = self.rows.iter().map(|r| r.top10).sum::<f64>() / self.rows.len() as f64;
        let avg_s = self.rows.iter().map(|r| r.region_share).sum::<f64>() / self.rows.len() as f64;
        t.row(vec![
            "average".into(),
            percent(avg_t),
            percent(avg_k),
            percent(avg_s),
            String::new(),
            String::new(),
        ]);
        t.render()
    }
}
