//! Golden snapshot for `rskip-eval vuln --json`: the machine-readable
//! vulnerability report at tiny size must stay byte-for-byte identical
//! across refactors. It runs on the engine's default tier; the
//! reference tier's agreement is `tier_equivalence`'s to show.
//!
//! Regenerate deliberately with:
//! `target/release/rskip-eval vuln --size tiny --runs 24 --bench conv1d \
//!  --fault-model seu,skip --oracle-limit 0 --json \
//!  > crates/harness/tests/golden/vuln_tiny_24.json`

use rskip_exec::FaultModel;
use rskip_harness::build::EvalOptions;
use rskip_harness::vuln::{run_with, VulnOptions};
use rskip_harness::Engine;
use rskip_workloads::SizeProfile;

#[test]
fn vuln_json_tiny_matches_golden() {
    let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
    let models = [FaultModel::SingleBitSeu, FaultModel::InstructionSkip];
    let golden = include_str!("golden/vuln_tiny_24.json");
    let opts = VulnOptions {
        runs: 24,
        oracle_limit: 0,
        cache_dir: None,
    };
    let report = run_with(&engine, vec!["conv1d".into()], &models, &opts);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert!(
        json.trim_end() == golden.trim_end(),
        "vuln --json drifted from its golden snapshot\n\
         --- golden ---\n{golden}\n--- actual ---\n{json}"
    );
}
