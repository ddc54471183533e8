//! §2's cost-ratio measurement: dynamic interpolation vs approximate
//! memoization vs re-computation on the blackscholes pattern.
//!
//! The paper measures 1 : 1.84 : 4.18. We derive per-element costs from
//! the modeled runtime constants and a measured execution of the pricing
//! body.

use serde::Serialize;

use rskip_exec::{run_simple, Termination};
use rskip_runtime::costs;

use crate::build::EvalOptions;
use crate::report::TextTable;

/// The measured per-element costs (modeled dynamic instructions).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CostRatio {
    /// Dynamic interpolation per skipped element.
    pub di: f64,
    /// Dynamic interpolation + memoization per element skipped at the
    /// second level.
    pub memo: f64,
    /// Re-computation per pending element (body execution + recheck
    /// protocol).
    pub recompute: f64,
}

/// Number of body arguments for blackscholes.
const ARGS: u64 = 6;

/// Measures the cost ratio.
///
/// # Panics
///
/// Panics if the blackscholes body cannot be built or executed.
pub fn run(options: &EvalOptions) -> CostRatio {
    // Per-element DI cost: the observe call plus the amortized phase-cut
    // classification.
    let di = (costs::OBSERVE_BASE + costs::OBSERVE_PER_ARG * ARGS + costs::CUT_PER_ELEMENT) as f64;

    // Second-level prediction pays the first level plus the lookup.
    let memo = di + (costs::MEMO_BASE + costs::MEMO_PER_INPUT * ARGS) as f64;

    // Re-computation: recheck protocol + one body execution (measured).
    let bench = rskip_workloads::benchmark_by_name("blackscholes").expect("registry");
    let module = bench.build(options.size);
    let out = run_simple(
        &module,
        "BlkSchlsEqEuroNoDiv",
        &[
            rskip_ir::Value::F(30.0),
            rskip_ir::Value::F(30.0),
            rskip_ir::Value::F(0.05),
            rskip_ir::Value::F(0.2),
            rskip_ir::Value::F(0.5),
            rskip_ir::Value::F(0.0),
        ],
    );
    assert!(
        matches!(out.termination, Termination::Returned(Some(_))),
        "pricing body failed: {:?}",
        out.termination
    );
    let body_instr = out.counters.retired as f64;
    let recheck =
        (costs::NEXT_PENDING + costs::PENDING_FIELD * (1 + ARGS) + costs::RESOLVE) as f64 + 3.0; // call + load + compare in the recheck block
    let recompute = di + recheck + body_instr;

    CostRatio {
        di,
        memo,
        recompute,
    }
}

impl CostRatio {
    /// The ratio normalized to DI = 1 (paper: 1 : 1.84 : 4.18).
    pub fn normalized(&self) -> (f64, f64, f64) {
        (1.0, self.memo / self.di, self.recompute / self.di)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let (a, b, c) = self.normalized();
        let mut t = TextTable::new(
            ["mechanism", "modeled instructions", "ratio", "paper ratio"]
                .into_iter()
                .map(String::from)
                .collect(),
        )
        .with_title("§2: relative cost of prediction vs re-computation (blackscholes)");
        t.row(vec![
            "dynamic interpolation".into(),
            format!("{:.0}", self.di),
            format!("{a:.2}"),
            "1.00".into(),
        ]);
        t.row(vec![
            "approximate memoization".into(),
            format!("{:.0}", self.memo),
            format!("{b:.2}"),
            "1.84".into(),
        ]);
        t.row(vec![
            "re-computation".into(),
            format!("{:.0}", self.recompute),
            format!("{c:.2}"),
            "4.18".into(),
        ]);
        t.render()
    }
}
