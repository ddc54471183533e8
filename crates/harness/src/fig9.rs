//! Figure 9 — statistical fault injection (§7.2).
//!
//! For each benchmark and each scheme (UNSAFE, SWIFT-R, AR20..AR100), `N`
//! runs each inject one Single Event Upset — a random bit of a random live
//! register at a random dynamic instant *inside the detected loops* — and
//! the outcome is classified into the paper's five classes. Fig. 9b
//! additionally reports *false negatives*: failing runs in which the
//! protection scheme never detected anything (for RSkip: a corrupted value
//! slipped through fuzzy validation).

use serde::Serialize;

use rskip_exec::FaultModel;

use crate::campaign::CampaignStats;
pub use crate::campaign::ClassCounts;
use crate::experiment::{all_bench_names, Engine, SchemeVariant, Sweep};
use crate::report::{percent, TextTable};
use crate::AR_SETTINGS;

/// The schemes of the reliability evaluation, in figure order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SchemeLabel {
    /// No protection.
    Unsafe,
    /// SWIFT-R.
    SwiftR,
    /// RSkip at the given AR percent.
    Ar(u32),
}

impl SchemeLabel {
    /// All six schemes.
    pub fn all() -> Vec<SchemeLabel> {
        let mut v = vec![SchemeLabel::Unsafe, SchemeLabel::SwiftR];
        v.extend(AR_SETTINGS.iter().map(|a| SchemeLabel::Ar(a.percent)));
        v
    }

    /// Display label.
    pub fn label(self) -> String {
        match self {
            SchemeLabel::Unsafe => "UNSAFE".into(),
            SchemeLabel::SwiftR => "SWIFT-R".into(),
            SchemeLabel::Ar(p) => format!("AR{p}"),
        }
    }

    fn variant(self) -> SchemeVariant {
        match self {
            SchemeLabel::Unsafe => SchemeVariant::Unsafe,
            SchemeLabel::SwiftR => SchemeVariant::SwiftR,
            SchemeLabel::Ar(p) => SchemeVariant::RSkip(crate::build::ArSetting { percent: p }),
        }
    }

    fn from_variant(v: SchemeVariant) -> SchemeLabel {
        match v {
            SchemeVariant::Unsafe => SchemeLabel::Unsafe,
            SchemeVariant::SwiftR => SchemeLabel::SwiftR,
            SchemeVariant::RSkip(ar) | SchemeVariant::RSkipDiOnly(ar) => {
                SchemeLabel::Ar(ar.percent)
            }
        }
    }
}

/// One (benchmark, scheme) campaign result.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9Cell {
    /// The scheme.
    pub scheme: SchemeLabel,
    /// Outcome classes over all runs (Fig. 9a).
    pub counts: ClassCounts,
    /// Failing runs in which the protection never fired (Fig. 9b); only
    /// meaningful for the AR schemes.
    pub false_negatives: ClassCounts,
    /// Runs where RSkip's re-computation recovery fired.
    pub recoveries: u64,
}

/// One benchmark's campaign.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9Row {
    /// Benchmark name.
    pub bench: String,
    /// One cell per scheme.
    pub cells: Vec<Fig9Cell>,
}

/// The whole campaign.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig9Row>,
    /// Injections per (benchmark, scheme).
    pub runs: u32,
}

/// The sweep schemes of Figure 9, in column order.
fn schemes() -> Vec<SchemeVariant> {
    SchemeLabel::all()
        .into_iter()
        .map(SchemeLabel::variant)
        .collect()
}

fn cell_from(variant: SchemeVariant, stats: CampaignStats) -> Fig9Cell {
    let scheme = SchemeLabel::from_variant(variant);
    Fig9Cell {
        scheme,
        counts: stats.counts,
        // False negatives are only meaningful for the AR schemes (the
        // other schemes expose no observable detection signal).
        false_negatives: if matches!(scheme, SchemeLabel::Ar(_)) {
            stats.false_negatives
        } else {
            ClassCounts::default()
        },
        recoveries: stats.recoveries,
    }
}

/// Runs the campaign over `benches` through a shared [`Engine`] (each
/// benchmark is prepared at most once per engine).
pub fn run_on(engine: &Engine, benches: Vec<String>, runs: u32) -> Fig9 {
    let rows = Sweep::new(benches, schemes())
        .model_campaigns(engine, runs, &[FaultModel::SingleBitSeu])
        .into_iter()
        .map(|row| Fig9Row {
            bench: row.bench,
            cells: row
                .cells
                .into_iter()
                .map(|(v, _, s)| cell_from(v, s))
                .collect(),
        })
        .collect();
    Fig9 { rows, runs }
}

/// Runs the campaign over every registered benchmark.
pub fn run_with(engine: &Engine, runs: u32) -> Fig9 {
    run_on(engine, all_bench_names(), runs)
}

impl Fig9 {
    /// Average counts per scheme across benchmarks.
    pub fn average(&self, scheme: SchemeLabel) -> (ClassCounts, ClassCounts) {
        let mut counts = ClassCounts::default();
        let mut fns = ClassCounts::default();
        for row in &self.rows {
            if let Some(c) = row.cells.iter().find(|c| c.scheme == scheme) {
                counts.correct += c.counts.correct;
                counts.sdc += c.counts.sdc;
                counts.segfault += c.counts.segfault;
                counts.core_dump += c.counts.core_dump;
                counts.hang += c.counts.hang;
                counts.detected += c.counts.detected;
                fns.correct += c.false_negatives.correct;
                fns.sdc += c.false_negatives.sdc;
                fns.segfault += c.false_negatives.segfault;
                fns.core_dump += c.false_negatives.core_dump;
                fns.hang += c.false_negatives.hang;
                fns.detected += c.false_negatives.detected;
            }
        }
        (counts, fns)
    }

    /// Renders Fig. 9a and Fig. 9b.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = TextTable::new(
            [
                "benchmark",
                "scheme",
                "Correct",
                "SDC",
                "Segfault",
                "Core dump",
                "Hang",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title(format!(
            "Fig 9a: fault injection outcomes ({} SEUs per benchmark/scheme)",
            self.runs
        ));
        for row in &self.rows {
            for c in &row.cells {
                t.row(vec![
                    row.bench.clone(),
                    c.scheme.label(),
                    percent(c.counts.rate(c.counts.correct)),
                    percent(c.counts.rate(c.counts.sdc)),
                    percent(c.counts.rate(c.counts.segfault)),
                    percent(c.counts.rate(c.counts.core_dump)),
                    percent(c.counts.rate(c.counts.hang)),
                ]);
            }
        }
        for scheme in SchemeLabel::all() {
            let (c, _) = self.average(scheme);
            t.row(vec![
                "average".into(),
                scheme.label(),
                percent(c.rate(c.correct)),
                percent(c.rate(c.sdc)),
                percent(c.rate(c.segfault)),
                percent(c.rate(c.core_dump)),
                percent(c.rate(c.hang)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut t = TextTable::new(
            [
                "benchmark",
                "scheme",
                "FN total",
                "FN SDC",
                "FN Segfault",
                "FN other",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Fig 9b: false negatives (failures the scheme never saw)");
        for row in &self.rows {
            for c in &row.cells {
                if !matches!(c.scheme, SchemeLabel::Ar(_)) {
                    continue;
                }
                let f = &c.false_negatives;
                let total_runs = c.counts.total().max(1);
                t.row(vec![
                    row.bench.clone(),
                    c.scheme.label(),
                    percent(f.total() as f64 / total_runs as f64),
                    percent(f.sdc as f64 / total_runs as f64),
                    percent(f.segfault as f64 / total_runs as f64),
                    percent((f.core_dump + f.hang) as f64 / total_runs as f64),
                ]);
            }
        }
        for scheme in SchemeLabel::all() {
            if !matches!(scheme, SchemeLabel::Ar(_)) {
                continue;
            }
            let (c, f) = self.average(scheme);
            let total = c.total().max(1);
            t.row(vec![
                "average".into(),
                scheme.label(),
                percent(f.total() as f64 / total as f64),
                percent(f.sdc as f64 / total as f64),
                percent(f.segfault as f64 / total as f64),
                percent((f.core_dump + f.hang) as f64 / total as f64),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}
