//! Incremental re-analysis contract of `rskip-vuln`: after an edit,
//! only the sections whose content actually changed may re-inject —
//! every untouched section's profile must load back from the cache.
//!
//! The edit used here is semantics-preserving (a duplicated `Mov`, so
//! the golden output stays valid) but content-changing: exactly one
//! section's static hash moves, and the cache must miss exactly there.

use rskip_analysis::SectionMap;
use rskip_exec::{FaultModel, NoopHooks};
use rskip_harness::build::EvalOptions;
use rskip_harness::vuln::{analyze_cell, CellSpec};
use rskip_harness::Engine;
use rskip_ir::{BlockId, Inst, Module};
use rskip_store::ProfileCache;
use rskip_workloads::{InputSet, SizeProfile};

fn spec<'a>(
    module: &'a Module,
    input: &'a InputSet,
    golden: &'a [rskip_ir::Value],
    output: &'a str,
    cache: &'a ProfileCache,
) -> CellSpec<'a> {
    CellSpec {
        bench: "conv1d",
        scheme: "UNSAFE",
        model: FaultModel::InstructionSkip,
        module,
        input,
        golden,
        output,
        runs: 24,
        seed0: 0xABCD_0001,
        oracle_limit: 0,
        context: "Tiny",
        cache: Some(cache),
    }
}

#[test]
fn edit_reinjects_only_the_changed_section() {
    let engine = Engine::new(EvalOptions::at_size(SizeProfile::Tiny));
    let setup = engine.setup("conv1d");
    let input = setup.test_input();
    let golden = setup.bench.golden(SizeProfile::Tiny, &input);
    let output = setup.bench.output_global();
    let module = setup.unsafe_build.module.clone();

    let dir = std::env::temp_dir().join(format!("rskip-vuln-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ProfileCache::open(&dir);

    // Cold: every populated section injects and persists its profile.
    let cold = analyze_cell(
        &spec(&module, &input, &golden, output, &cache),
        || NoopHooks,
        |_| 0,
    );
    assert_eq!(cold.cache_hits, 0);
    assert!(
        cold.cache_misses > 1,
        "need several sections to make the claim meaningful"
    );

    // Warm, unedited: everything loads back, nothing injects, and the
    // report is unchanged.
    let warm = analyze_cell(
        &spec(&module, &input, &golden, output, &cache),
        || NoopHooks,
        |_| 0,
    );
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, cold.cache_misses);
    for (c, w) in cold.sections.iter().zip(&warm.sections) {
        assert_eq!(c.stats, w.stats, "cached profile of {} drifted", c.section);
        assert_eq!(c.trials, w.trials);
    }

    // Edit: duplicate a Mov inside some populated section of main. The
    // program's meaning (and golden output) is unchanged; the section's
    // content hash is not. Every trial is classified, and pruned trials
    // never exceed the classified total (the honest-accounting floor).
    for s in &cold.sections {
        assert_eq!(s.stats.counts.total(), s.trials);
        assert!(s.stats.pruned <= s.stats.counts.total());
    }
    let smap = SectionMap::build(&module);
    let main_idx = module
        .functions
        .iter()
        .position(|f| f.name == "main")
        .expect("main exists");
    let mut target = None;
    'outer: for (bi, block) in module.functions[main_idx].blocks.iter().enumerate() {
        let sec = smap.section_of(main_idx, BlockId(bi as u32));
        if cold.sections[sec.id].sites == 0 {
            continue;
        }
        for (ii, inst) in block.insts.iter().enumerate() {
            if matches!(inst, Inst::Mov { .. }) {
                target = Some((bi, ii, sec.id));
                break 'outer;
            }
        }
    }
    let (bi, ii, edited_section) = target.expect("conv1d's main has a Mov in a populated section");
    let mut edited = module.clone();
    let dup = edited.functions[main_idx].blocks[bi].insts[ii].clone();
    edited.functions[main_idx].blocks[bi].insts.insert(ii, dup);

    let incr = analyze_cell(
        &spec(&edited, &input, &golden, output, &cache),
        || NoopHooks,
        |_| 0,
    );
    assert_eq!(
        incr.cache_misses, 1,
        "exactly the edited section must re-inject"
    );
    assert_eq!(incr.cache_hits, cold.cache_misses - 1);
    for (i, s) in incr.sections.iter().enumerate() {
        if s.trials > 0 {
            assert_eq!(
                s.cached,
                i != edited_section,
                "section {} cached={} but the edit touched section {}",
                s.section,
                s.cached,
                edited_section
            );
        }
    }
    // The edited section's static hash moved; untouched ones did not.
    assert_ne!(
        incr.sections[edited_section].hash,
        cold.sections[edited_section].hash
    );
    for (i, (c, n)) in cold.sections.iter().zip(&incr.sections).enumerate() {
        if i != edited_section {
            assert_eq!(c.hash, n.hash);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
