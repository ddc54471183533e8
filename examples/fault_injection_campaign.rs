//! A single-benchmark Statistical Fault Injection campaign (paper §7.2):
//! inject one Single Event Upset per run into the detected loops of three
//! builds — UNSAFE, SWIFT-R and RSkip — and classify the outcomes.
//!
//! ```text
//! cargo run --release --example fault_injection_campaign
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rskip::exec::{classify_outcome, ExecConfig, FaultModel, InjectionPlan, Machine, OutcomeClass};
use rskip::passes::{protect, Scheme};
use rskip::runtime::{PredictionRuntime, RuntimeConfig};
use rskip::workloads::{benchmark_by_name, SizeProfile};

const RUNS: u32 = 300;

fn main() {
    let bench = benchmark_by_name("sgemm").expect("registry");
    let size = SizeProfile::Tiny;
    let module = bench.build(size);
    let input = bench.gen_input(size, 2000);
    let golden = bench.golden(size, &input);

    println!("{RUNS} SEU injections per scheme into sgemm's detected loop\n");
    println!(
        "{:<9} {:>9} {:>7} {:>9} {:>10} {:>6}",
        "scheme", "Correct", "SDC", "Segfault", "Core dump", "Hang"
    );

    for scheme in [Scheme::Unsafe, Scheme::SwiftR, Scheme::RSkip] {
        let p = protect(&module, scheme);
        let inits = rskip::region_inits(&p);

        // Clean instrumentation run for the trigger range and hang budget.
        let clean = {
            let rt = PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.2));
            let mut machine = Machine::new(&p.module, rt);
            input.apply(&mut machine);
            machine.run("main", &[]).counters
        };
        let config = ExecConfig {
            step_limit: clean.retired * 20,
            ..ExecConfig::default()
        };

        let mut counts = [0u64; 5];
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..RUNS {
            let plan = InjectionPlan {
                trigger: rng.gen_range(0..clean.region_retired),
                seed: rng.gen(),
                model: FaultModel::SingleBitSeu,
            };
            let rt = PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.2));
            let mut machine = Machine::with_config(&p.module, rt, config.clone());
            input.apply(&mut machine);
            machine.set_injection(plan);
            let out = machine.run("main", &[]);
            let class = classify_outcome(&out, machine.read_global(bench.output_global()), &golden);
            let idx = match class {
                OutcomeClass::Correct => 0,
                OutcomeClass::Sdc => 1,
                OutcomeClass::Segfault => 2,
                OutcomeClass::CoreDump | OutcomeClass::Detected => 3,
                OutcomeClass::Hang => 4,
            };
            counts[idx] += 1;
        }
        let pct = |c: u64| format!("{:.1}%", c as f64 / f64::from(RUNS) * 100.0);
        println!(
            "{:<9} {:>9} {:>7} {:>9} {:>10} {:>6}",
            p.scheme.label(),
            pct(counts[0]),
            pct(counts[1]),
            pct(counts[2]),
            pct(counts[3]),
            pct(counts[4]),
        );
    }
    println!("\n(UNSAFE masks some faults by luck; SWIFT-R recovers nearly all;");
    println!(" RSkip trades a small protection loss for its speedup — paper Fig. 9a)");
}
