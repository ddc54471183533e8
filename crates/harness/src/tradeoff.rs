//! §7.3 — the rationality of the acceptable range: protection rate vs
//! slowdown, joining the Fig. 7b and Fig. 9a measurements.

use serde::Serialize;

use crate::build::ArSetting;
use crate::experiment::Engine;
use crate::fig7::Fig7;
use crate::fig9::{Fig9, SchemeLabel};
use crate::report::{percent, ratio, TextTable};
use crate::AR_SETTINGS;

/// One scheme's aggregate trade-off point.
#[derive(Clone, Debug, Serialize)]
pub struct TradeoffPoint {
    /// Scheme label.
    pub scheme: String,
    /// Average protection rate across benchmarks.
    pub protection_rate: f64,
    /// Average normalized execution time across benchmarks.
    pub slowdown: f64,
}

/// The §7.3 table.
#[derive(Clone, Debug, Serialize)]
pub struct Tradeoff {
    /// One point per scheme.
    pub points: Vec<TradeoffPoint>,
}

/// Joins previously computed Fig. 7 and Fig. 9 results.
pub fn join(fig7: &Fig7, fig9: &Fig9) -> Tradeoff {
    let mut points = Vec::new();
    let (sr_counts, _) = fig9.average(SchemeLabel::SwiftR);
    points.push(TradeoffPoint {
        scheme: "SWIFT-R".into(),
        protection_rate: sr_counts.protection_rate(),
        slowdown: fig7.average_swift_r().norm_time,
    });
    for ar in AR_SETTINGS {
        let (counts, _) = fig9.average(SchemeLabel::Ar(ar.percent));
        points.push(TradeoffPoint {
            scheme: ar.label(),
            protection_rate: counts.protection_rate(),
            slowdown: fig7.average_rskip(ar).norm_time,
        });
    }
    Tradeoff { points }
}

/// Runs both underlying experiments through a shared [`Engine`] (each
/// benchmark is built and trained once, not once per figure) and joins
/// them.
pub fn run_with(engine: &Engine, runs: u32) -> Tradeoff {
    let fig7 = crate::fig7::run_with(engine);
    let fig9 = crate::fig9::run_with(engine, runs);
    join(&fig7, &fig9)
}

impl Tradeoff {
    /// Point for one AR setting.
    pub fn ar_point(&self, ar: ArSetting) -> Option<&TradeoffPoint> {
        self.points.iter().find(|p| p.scheme == ar.label())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            ["scheme", "protection rate", "slowdown"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("§7.3: protection rate vs performance trade-off (averages)");
        for p in &self.points {
            t.row(vec![
                p.scheme.clone(),
                percent(p.protection_rate),
                ratio(p.slowdown),
            ]);
        }
        t.render()
    }
}
