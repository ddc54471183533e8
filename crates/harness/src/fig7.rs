//! Figure 7 — the performance-overhead experiment (§7.1).
//!
//! For every benchmark and every scheme (SWIFT-R, AR20..AR100), one timed
//! run with the trained runtime on the test input. Reports, normalized to
//! the unprotected run: execution time (cycles), dynamic instruction
//! count, IPC — plus the RSkip skip rate (Fig. 7a).

use serde::Serialize;

use crate::build::{ArSetting, BenchSetup};
use crate::experiment::{Engine, SchemeVariant, Sweep, TimedRow};
use crate::report::{percent, ratio, TextTable};
use crate::AR_SETTINGS;

pub use crate::experiment::SchemeMetrics;

/// One benchmark's Figure-7 measurements.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Row {
    /// Benchmark name.
    pub bench: String,
    /// SWIFT-R baseline.
    pub swift_r: SchemeMetrics,
    /// RSkip at each acceptable range (20, 50, 80, 100).
    pub rskip: Vec<(u32, SchemeMetrics)>,
}

/// The whole figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig7Row>,
}

/// The sweep schemes of Figure 7, in column order.
fn schemes() -> Vec<SchemeVariant> {
    let mut v = vec![SchemeVariant::SwiftR];
    v.extend(SchemeVariant::rskip_all_ars());
    v
}

fn from_timed_row(row: TimedRow) -> Fig7Row {
    let mut cells = row.cells.into_iter();
    let (_, swift_r) = cells.next().expect("SWIFT-R column");
    let rskip = cells
        .map(|(v, m)| match v {
            SchemeVariant::RSkip(ar) => (ar.percent, m),
            other => panic!("unexpected fig7 column {other:?}"),
        })
        .collect();
    Fig7Row {
        bench: row.bench,
        swift_r,
        rskip,
    }
}

/// Runs Figure 7 for one prepared benchmark.
pub fn run_bench(setup: &BenchSetup) -> Fig7Row {
    let input = setup.test_input();
    let base = setup.run_timed_plain(&setup.unprotected, &input);
    from_timed_row(TimedRow {
        bench: setup.bench.meta().name.to_string(),
        cells: schemes()
            .into_iter()
            .map(|v| (v, crate::experiment::timed_cell(setup, v, &input, &base)))
            .collect(),
    })
}

/// Runs Figure 7 through a shared [`Engine`] (each benchmark is prepared
/// at most once per engine).
pub fn run_with(engine: &Engine) -> Fig7 {
    let rows = Sweep::all_benches(schemes())
        .timed(engine)
        .into_iter()
        .map(from_timed_row)
        .collect();
    Fig7 { rows }
}

impl Fig7 {
    /// Average metrics across benchmarks for one AR.
    pub fn average_rskip(&self, ar: ArSetting) -> SchemeMetrics {
        let mut acc = SchemeMetrics::default();
        let mut n = 0.0;
        for row in &self.rows {
            if let Some((_, m)) = row.rskip.iter().find(|(p, _)| *p == ar.percent) {
                acc.norm_time += m.norm_time;
                acc.norm_instr += m.norm_instr;
                acc.norm_ipc += m.norm_ipc;
                acc.skip_rate += m.skip_rate;
                n += 1.0;
            }
        }
        SchemeMetrics {
            norm_time: acc.norm_time / n,
            norm_instr: acc.norm_instr / n,
            norm_ipc: acc.norm_ipc / n,
            skip_rate: acc.skip_rate / n,
        }
    }

    /// Average SWIFT-R metrics.
    pub fn average_swift_r(&self) -> SchemeMetrics {
        let n = self.rows.len() as f64;
        let mut acc = SchemeMetrics::default();
        for row in &self.rows {
            acc.norm_time += row.swift_r.norm_time;
            acc.norm_instr += row.swift_r.norm_instr;
            acc.norm_ipc += row.swift_r.norm_ipc;
        }
        SchemeMetrics {
            norm_time: acc.norm_time / n,
            norm_instr: acc.norm_instr / n,
            norm_ipc: acc.norm_ipc / n,
            skip_rate: 0.0,
        }
    }

    /// Renders the four panels as text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();

        // 7a: skip rate.
        let mut t = TextTable::new(
            std::iter::once("benchmark".to_string())
                .chain(AR_SETTINGS.iter().map(|a| a.label()))
                .collect(),
        )
        .with_title("Fig 7a: skip rate in detected loops");
        for row in &self.rows {
            t.row(
                std::iter::once(row.bench.clone())
                    .chain(row.rskip.iter().map(|(_, m)| percent(m.skip_rate)))
                    .collect(),
            );
        }
        t.row(
            std::iter::once("average".to_string())
                .chain(
                    AR_SETTINGS
                        .iter()
                        .map(|&a| percent(self.average_rskip(a).skip_rate)),
                )
                .collect(),
        );
        out.push_str(&t.render());
        out.push('\n');

        // 7b/7c/7d.
        for (title, get) in [
            (
                "Fig 7b: normalized execution time (vs unprotected)",
                (|m: &SchemeMetrics| m.norm_time) as fn(&SchemeMetrics) -> f64,
            ),
            (
                "Fig 7c: normalized dynamic instructions",
                |m: &SchemeMetrics| m.norm_instr,
            ),
            ("Fig 7d: normalized IPC", |m: &SchemeMetrics| m.norm_ipc),
        ] {
            let mut t = TextTable::new(
                ["benchmark", "SWIFT-R"]
                    .into_iter()
                    .map(String::from)
                    .chain(AR_SETTINGS.iter().map(|a| a.label()))
                    .collect(),
            )
            .with_title(title);
            for row in &self.rows {
                t.row(
                    [row.bench.clone(), ratio(get(&row.swift_r))]
                        .into_iter()
                        .chain(row.rskip.iter().map(|(_, m)| ratio(get(m))))
                        .collect(),
                );
            }
            let avg_sr = self.average_swift_r();
            t.row(
                ["average".to_string(), ratio(get(&avg_sr))]
                    .into_iter()
                    .chain(
                        AR_SETTINGS
                            .iter()
                            .map(|&a| ratio(get(&self.average_rskip(a)))),
                    )
                    .collect(),
            );
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}
