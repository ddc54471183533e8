//! Figure 8 — the two detailed case studies (§7.1).
//!
//! * Fig. 8a: blackscholes with and without the second-level predictor
//!   (approximate memoization), across the four acceptable ranges.
//! * Fig. 8b: lud across 20 different test inputs at AR20, against
//!   SWIFT-R.

use serde::Serialize;

use crate::build::ArSetting;
use crate::campaign::{num_threads, parallel_map_indexed};
use crate::experiment::{Engine, SchemeVariant, Sweep};
use crate::report::{percent, ratio, TextTable};
use crate::AR_SETTINGS;

/// One Fig. 8a series point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig8aPoint {
    /// AR percent.
    pub ar: u32,
    /// Normalized execution time, DI only.
    pub di_time: f64,
    /// Skip rate, DI only.
    pub di_skip: f64,
    /// Normalized execution time, DI + memoization.
    pub full_time: f64,
    /// Skip rate, DI + memoization.
    pub full_skip: f64,
}

/// Fig. 8a results.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8a {
    /// One point per AR.
    pub points: Vec<Fig8aPoint>,
}

/// Runs Fig. 8a (blackscholes ablation) through a shared [`Engine`]:
/// one sweep over blackscholes with interleaved DI-only / full-chain
/// columns per AR.
pub fn run_8a_with(engine: &Engine) -> Fig8a {
    let schemes: Vec<SchemeVariant> = AR_SETTINGS
        .iter()
        .flat_map(|&ar| [SchemeVariant::RSkipDiOnly(ar), SchemeVariant::RSkip(ar)])
        .collect();
    let rows = Sweep::new(vec!["blackscholes".into()], schemes).timed(engine);
    let row = rows.into_iter().next().expect("one blackscholes row");
    let points = row
        .cells
        .chunks_exact(2)
        .map(|pair| {
            let (di_v, di) = pair[0];
            let (full_v, full) = pair[1];
            let ar = match (di_v, full_v) {
                (SchemeVariant::RSkipDiOnly(a), SchemeVariant::RSkip(b)) if a == b => a,
                other => panic!("unexpected fig8a column pair {other:?}"),
            };
            Fig8aPoint {
                ar: ar.percent,
                di_time: di.norm_time,
                di_skip: di.skip_rate,
                full_time: full.norm_time,
                full_skip: full.skip_rate,
            }
        })
        .collect();
    Fig8a { points }
}

impl Fig8a {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "AR",
                "time (DI only)",
                "skip (DI only)",
                "time (DI+memo)",
                "skip (DI+memo)",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Fig 8a: blackscholes — presence of the second-level predictor");
        for p in &self.points {
            t.row(vec![
                format!("AR{}", p.ar),
                ratio(p.di_time),
                percent(p.di_skip),
                ratio(p.full_time),
                percent(p.full_skip),
            ]);
        }
        t.render()
    }
}

/// One Fig. 8b input point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig8bPoint {
    /// Test input id (1-based, as in the paper's x-axis).
    pub input_id: u32,
    /// SWIFT-R normalized time.
    pub swift_r_time: f64,
    /// RSkip (AR20) normalized time.
    pub rskip_time: f64,
    /// RSkip (AR20) skip rate.
    pub skip_rate: f64,
}

/// Fig. 8b results.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8b {
    /// One point per test input.
    pub points: Vec<Fig8bPoint>,
}

/// Runs Fig. 8b (lud input-diversity sweep) through a shared [`Engine`].
///
/// The input axis is not a scheme grid — each point re-measures the same
/// three builds on a fresh test input — so this stays a custom loop over
/// the engine's cached lud setup.
pub fn run_8b_with(engine: &Engine, n_inputs: u32) -> Fig8b {
    let setup = engine.setup("lud");
    let options = engine.options();
    let ar20 = ArSetting { percent: 20 };

    let points = parallel_map_indexed(n_inputs as usize, num_threads(), |i| {
        let k = i as u32;
        let input = setup.bench.gen_input(options.size, 2000 + u64::from(k));
        let base = setup.run_timed_plain(&setup.unprotected, &input);
        let base_time = base.counters.cycles as f64;
        let (sr, _) = setup.run_timed(SchemeVariant::SwiftR, &input);
        let (pp, skip) = setup.run_timed(SchemeVariant::RSkip(ar20), &input);
        Fig8bPoint {
            input_id: k + 1,
            swift_r_time: sr.counters.cycles as f64 / base_time,
            rskip_time: pp.counters.cycles as f64 / base_time,
            skip_rate: skip,
        }
    });
    Fig8b { points }
}

impl Fig8b {
    /// Average RSkip normalized time.
    pub fn average_rskip_time(&self) -> f64 {
        self.points.iter().map(|p| p.rskip_time).sum::<f64>() / self.points.len() as f64
    }

    /// Average skip rate.
    pub fn average_skip(&self) -> f64 {
        self.points.iter().map(|p| p.skip_rate).sum::<f64>() / self.points.len() as f64
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            ["input", "SWIFT-R", "RSkip (AR20)", "skip rate"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("Fig 8b: lud — input diversity at AR20");
        for p in &self.points {
            t.row(vec![
                p.input_id.to_string(),
                ratio(p.swift_r_time),
                ratio(p.rskip_time),
                percent(p.skip_rate),
            ]);
        }
        t.row(vec![
            "average".into(),
            ratio(
                self.points.iter().map(|p| p.swift_r_time).sum::<f64>() / self.points.len() as f64,
            ),
            ratio(self.average_rskip_time()),
            percent(self.average_skip()),
        ]);
        t.render()
    }
}
