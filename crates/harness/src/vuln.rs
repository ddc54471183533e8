//! The compositional vulnerability-analysis experiment
//! (`rskip-eval vuln`) — `rskip-vuln`'s harness layer.
//!
//! For every (benchmark, scheme, fault model) cell this experiment:
//!
//! 1. runs one clean *census* ([`Machine::run_traced`]) to enumerate the
//!    dynamic fault-site universe — `(boundary, written register)` pairs
//!    for SEU/burst, non-intrinsic boundaries for instruction skip —
//!    exactly the universe the exhaustive
//!    [`rskip_exec::enumerate_faults`] oracle covers;
//! 2. partitions the build into injection sections
//!    ([`rskip_analysis::SectionMap`]) and assigns every site to the
//!    section owning its static program point;
//! 3. runs one small site-universe campaign per section
//!    ([`Campaign::run_sites_on`]), with trials allocated proportionally
//!    to the section's site share, the static benignity filter
//!    ([`rskip_analysis::VulnAnalysis`]) pruning provably-masked draws
//!    without execution (honestly counted in `CampaignStats::pruned`);
//! 4. composes the per-section profiles into whole-program estimates
//!    with conservative Wilson intervals ([`rskip_analysis::compose`]);
//! 5. when a [`ProfileCache`] is attached (`--incremental`), keys each
//!    section's profile by its static content hash plus its dynamic
//!    site universe, so re-analysis after an edit re-injects only the
//!    sections that actually changed — the FastFlip increment
//!    (PAPERS.md, arXiv 2403.13989);
//! 6. for the skip model on small universes, cross-validates against an
//!    exhaustive per-site oracle in both directions: every
//!    statically-benign boundary must probe **Correct** (pruning
//!    soundness), and the composed interval must bracket the oracle's
//!    whole-program rates (composition honesty).

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;

use rskip_analysis::{
    compose, ComposedEstimate, ComposedRate, SectionMap, SectionProfile, VulnAnalysis,
};
use rskip_core::digest::Fnv1a64;
use rskip_exec::{
    classify_outcome, skip_holds_fire, Decoded, ExactFault, ExactFaultKind, ExecConfig, FaultModel,
    Machine, OutcomeClass, RuntimeHooks,
};
use rskip_ir::{BlockId, Module, Value};
use rskip_store::{CacheKey, ProfileCache, ProfileRecord};
use rskip_workloads::InputSet;

use crate::build::BenchSetup;
use crate::campaign::{
    num_threads, parallel_map_indexed, Campaign, CampaignSizing, CampaignStats, FaultSite,
    SiteTarget,
};
use crate::experiment::{campaign_seed, Engine, SchemeVariant};
use crate::report::{percent, TextTable};
use crate::AR_SETTINGS;

/// Seed tag decoupling vuln-mode campaigns from the classic
/// trigger-window campaigns at the same (bench, scheme, model, runs).
const VULN_SEED_TAG: u64 = 0x5EC7_1045;

/// Knobs of the vulnerability-analysis experiment.
#[derive(Clone, Debug)]
pub struct VulnOptions {
    /// Total trials per cell, distributed over sections by site share.
    pub runs: u32,
    /// Exhaustive skip-oracle cap: cells whose skip-site universe is at
    /// most this many sites are cross-validated site-by-site against
    /// the enumeration measure. `0` disables the oracle.
    pub oracle_limit: u64,
    /// Directory of the per-section profile cache; `None` runs every
    /// section cold (no persistence).
    pub cache_dir: Option<PathBuf>,
}

impl Default for VulnOptions {
    fn default() -> Self {
        VulnOptions {
            runs: 400,
            oracle_limit: 4096,
            cache_dir: None,
        }
    }
}

/// Everything one `(bench, scheme, model)` cell analysis needs, minus
/// the hooks (which are generic). Decoupled from [`crate::build`] so
/// tests can analyze hand-edited modules.
pub struct CellSpec<'a> {
    /// Benchmark name (cache key + report).
    pub bench: &'a str,
    /// Scheme label (`UNSAFE`, `SWIFT-R`, `AR20`, ...).
    pub scheme: &'a str,
    /// Fault model of this cell.
    pub model: FaultModel,
    /// The transformed module the cell injects into.
    pub module: &'a Module,
    /// The shared test input.
    pub input: &'a InputSet,
    /// Golden output of the clean run.
    pub golden: &'a [Value],
    /// Output global compared against `golden`.
    pub output: &'a str,
    /// Total trials, distributed over sections by site share.
    pub runs: u32,
    /// Base seed; per-section campaigns fold the section hash in.
    pub seed0: u64,
    /// Skip-oracle site cap (`0` disables).
    pub oracle_limit: u64,
    /// Extra cache-key context (size profile label).
    pub context: &'a str,
    /// Per-section profile cache, if incremental mode is on.
    pub cache: Option<&'a ProfileCache>,
}

/// A composed rate mirrored into a serializable shape.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RateReport {
    /// Site-weighted point estimate.
    pub estimate: f64,
    /// Conservative interval, lower bound.
    pub lo: f64,
    /// Conservative interval, upper bound.
    pub hi: f64,
}

impl From<ComposedRate> for RateReport {
    fn from(r: ComposedRate) -> Self {
        RateReport {
            estimate: r.estimate,
            lo: r.ci.lo,
            hi: r.ci.hi,
        }
    }
}

/// Whole-program estimates composed from the per-section profiles.
#[derive(Clone, Debug, Serialize)]
pub struct ComposedReport {
    /// Total fault sites (weight denominator).
    pub sites: u64,
    /// Trials aggregated across sections.
    pub trials: u64,
    /// Composed correct-output rate.
    pub correct: RateReport,
    /// Composed SDC rate.
    pub sdc: RateReport,
    /// Composed detected-without-recovery rate.
    pub detected: RateReport,
}

impl From<&ComposedEstimate> for ComposedReport {
    fn from(e: &ComposedEstimate) -> Self {
        ComposedReport {
            sites: e.sites,
            trials: e.trials,
            correct: e.correct.into(),
            sdc: e.sdc.into(),
            detected: e.detected.into(),
        }
    }
}

/// One injection section's share of a cell.
#[derive(Clone, Debug, Serialize)]
pub struct SectionReport {
    /// Display name, `function#leader-block`.
    pub section: String,
    /// Section kind label (`entry`, `region`, `loop`, `unreachable`).
    pub kind: String,
    /// Static content hash, 16 hex digits.
    pub hash: String,
    /// Fault sites of the census universe in this section.
    pub sites: u64,
    /// Sites the static analysis proves fully benign.
    pub benign_sites: u64,
    /// Trials allocated to this section.
    pub trials: u64,
    /// True if the profile loaded from the cache (no injection ran).
    pub cached: bool,
    /// The section's campaign statistics.
    pub stats: CampaignStats,
}

/// The exhaustive skip-oracle cross-validation of one cell.
#[derive(Clone, Debug, Serialize)]
pub struct OracleReport {
    /// Skip sites probed exhaustively.
    pub cases: u64,
    /// Probed sites the static analysis calls benign.
    pub benign_cases: u64,
    /// Statically-benign sites that did **not** probe `Correct` —
    /// pruning soundness violations. Must be zero.
    pub benign_violations: u64,
    /// The oracle's whole-program correct rate.
    pub correct_rate: f64,
    /// The oracle's whole-program SDC rate.
    pub sdc_rate: f64,
    /// True if the composed correct interval brackets the oracle rate.
    pub correct_bracketed: bool,
    /// True if the composed SDC interval brackets the oracle rate.
    pub sdc_bracketed: bool,
}

/// One (scheme, fault model) cell of the vulnerability grid.
#[derive(Clone, Debug, Serialize)]
pub struct VulnCell {
    /// Scheme column label.
    pub scheme: String,
    /// Fault-model label (`seu`, `skip`, `burst:N`).
    pub model: String,
    /// Census fault-site universe size.
    pub total_sites: u64,
    /// Sites proven fully benign by the static analysis.
    pub benign_sites: u64,
    /// Sections whose profile loaded from the cache.
    pub cache_hits: u64,
    /// Sections that had to inject (cold or invalidated).
    pub cache_misses: u64,
    /// Per-section breakdown, in section order.
    pub sections: Vec<SectionReport>,
    /// Composed whole-program estimates.
    pub composed: ComposedReport,
    /// Exhaustive cross-validation, skip model on small universes only.
    pub oracle: Option<OracleReport>,
}

/// One benchmark's cells across the schemes × models grid.
#[derive(Clone, Debug, Serialize)]
pub struct VulnRow {
    /// Benchmark name.
    pub bench: String,
    /// Scheme-major cells.
    pub cells: Vec<VulnCell>,
}

/// The whole vulnerability-analysis report.
#[derive(Clone, Debug, Serialize)]
pub struct VulnReport {
    /// Trials per cell.
    pub runs: u32,
    /// True if a profile cache was attached (`--incremental`).
    pub incremental: bool,
    /// Model labels, in request order.
    pub models: Vec<String>,
    /// Per-benchmark rows.
    pub rows: Vec<VulnRow>,
}

/// FNV-1a over a section's *logical* site universe — the census half of
/// the profile cache key: the ordered sequence of (function, block,
/// instruction, target) coordinates, deliberately **without** absolute
/// boundary indices. A section's profile depends on what executes inside
/// it and how often, not on how many boundaries upstream code retires
/// first — hashing absolute positions would invalidate every downstream
/// section on any edit, defeating incrementality. An edit that changes
/// this section's own dynamic behaviour (trip counts, targets, order)
/// still changes the hash.
fn universe_hash(sites: &[FaultSite]) -> u64 {
    let mut h = Fnv1a64::new();
    for s in sites {
        h.update(&s.func.to_le_bytes());
        h.update(&s.block.to_le_bytes());
        h.update(&s.ip.to_le_bytes());
        match s.target {
            SiteTarget::Reg(r) => {
                h.update(&[1]);
                h.update(&r.0.to_le_bytes());
            }
            SiteTarget::Skip => h.update(&[2]),
        }
    }
    h.finish()
}

/// The cache key of one section's profile: experiment version, cell
/// identity, campaign sizing/seed, the section's static content hash
/// and its logical dynamic site universe. The per-section trial count
/// is *not* part of the key (it depends on the whole-program site
/// total, which an edit elsewhere may shift); a hit reports the cached
/// campaign's own trial count.
fn section_key(spec: &CellSpec<'_>, section_hash: u64, sites: &[FaultSite]) -> CacheKey {
    CacheKey::builder()
        .text("rskip-vuln-profile-v1")
        .text(spec.bench)
        .text(spec.scheme)
        .text(&spec.model.label())
        .text(spec.context)
        .ints(&[
            u64::from(spec.runs),
            spec.seed0,
            section_hash,
            universe_hash(sites),
        ])
        .finish()
}

/// Analyzes one cell: census, sectioning, per-section pruned campaigns
/// (cache-aware), composition, and the optional exhaustive oracle.
///
/// # Panics
///
/// Panics if the clean census run does not produce the golden output —
/// an experiment-setup bug, not a fault effect.
pub fn analyze_cell<H: RuntimeHooks>(
    spec: &CellSpec<'_>,
    make_hooks: impl Fn() -> H + Sync,
    observe_recoveries: impl Fn(&H) -> u64 + Sync,
) -> VulnCell {
    // Census: one clean traced run enumerates every boundary the
    // enumeration oracle would probe, with the registers live-writable
    // at each, and sizes the campaign (it retires exactly what a
    // separate sizing run would). Tracing always runs on the reference
    // tier.
    let decoded = Decoded::new(spec.module);
    let mut trace = Vec::new();
    let sizing = {
        let mut machine = Machine::from_decoded(&decoded, make_hooks(), ExecConfig::default());
        spec.input.apply(&mut machine);
        let out = machine.run_traced("main", &[], &mut trace);
        let class = classify_outcome(&out, machine.read_global(spec.output), spec.golden);
        assert_eq!(
            class,
            OutcomeClass::Correct,
            "clean census run must reproduce the golden output"
        );
        CampaignSizing::from_clean(&out.counters)
    };

    // The fault-site universe, in the oracle's measure.
    let reg_model = !matches!(spec.model, FaultModel::InstructionSkip);
    let mut sites: Vec<FaultSite> = Vec::new();
    for (at, e) in trace.iter().enumerate() {
        if reg_model {
            for &reg in &e.written {
                sites.push(FaultSite {
                    at: at as u64,
                    func: e.func,
                    block: e.block,
                    ip: e.ip,
                    target: SiteTarget::Reg(reg),
                });
            }
        } else {
            // An armed skip holds fire over intrinsic boundaries, so
            // they are no skip sites (the enumeration oracle's measure).
            if !skip_holds_fire(spec.module, (e.func, e.block, e.ip)) {
                sites.push(FaultSite {
                    at: at as u64,
                    func: e.func,
                    block: e.block,
                    ip: e.ip,
                    target: SiteTarget::Skip,
                });
            }
        }
    }

    let sections = SectionMap::build(spec.module);
    let vuln = VulnAnalysis::analyze(spec.module);

    // The static benignity filter, in both granularities: per-trial
    // (the pruning predicate, bit-exact on the drawn fault) and
    // per-site (the reporting notion: *every* fault at the site is
    // provably masked).
    let prune = |site: &FaultSite, kind: &ExactFaultKind| -> bool {
        let fv = vuln.func_at(site.func as usize);
        let b = BlockId(site.block);
        let ip = site.ip as usize;
        match *kind {
            ExactFaultKind::BitFlip { reg, bit } => fv.benign_flip(b, ip, reg, bit),
            ExactFaultKind::Burst { reg, start, width } => {
                fv.benign_burst(b, ip, reg, start, width)
            }
            ExactFaultKind::Skip => fv.benign_skip(b, ip),
        }
    };
    let benign_site = |site: &FaultSite| -> bool {
        let fv = vuln.func_at(site.func as usize);
        let b = BlockId(site.block);
        match site.target {
            SiteTarget::Reg(reg) => fv.benign_bits(b, site.ip as usize, reg) == u64::MAX,
            SiteTarget::Skip => fv.benign_skip(b, site.ip as usize),
        }
    };

    // Partition the universe by owning section.
    let mut by_section: BTreeMap<usize, Vec<FaultSite>> = BTreeMap::new();
    for s in &sites {
        let sec = sections.section_of(s.func as usize, BlockId(s.block));
        by_section.entry(sec.id).or_default().push(*s);
    }

    // One campaign harness shared by every section (the census's
    // sizing), trials allocated per section by site share.
    let mut campaign = Campaign::with_sizing(
        spec.module,
        spec.input,
        spec.golden,
        spec.output,
        spec.seed0,
        spec.runs,
        sizing,
    );
    campaign.set_fault_model(spec.model);

    let total_sites = sites.len() as u64;
    let threads = num_threads();
    let empty: Vec<FaultSite> = Vec::new();
    let mut section_reports = Vec::new();
    let mut profiles = Vec::new();
    let mut benign_total = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;

    for sec in sections.sections() {
        let ssites = by_section.get(&sec.id).unwrap_or(&empty);
        let s_sites = ssites.len() as u64;
        let benign = ssites.iter().filter(|s| benign_site(s)).count() as u64;
        benign_total += benign;
        // Ceil-proportional allocation: every populated section gets at
        // least one trial, so no section's profile is silently vacuous.
        let trials = if s_sites == 0 {
            0
        } else {
            ((u64::from(spec.runs) * s_sites).div_ceil(total_sites.max(1))) as u32
        };
        let seed_s = spec.seed0 ^ sec.hash;
        let mut cached = false;
        let mut trials = trials;
        let stats = if trials == 0 {
            CampaignStats::default()
        } else {
            let key = section_key(spec, sec.hash, ssites);
            match spec.cache.and_then(|c| c.load(key)) {
                Some(rec) => {
                    cached = true;
                    cache_hits += 1;
                    trials = rec.trials as u32;
                    rec.stats
                }
                None => {
                    cache_misses += 1;
                    let stats = campaign.run_sites_on(
                        threads,
                        seed_s,
                        trials,
                        ssites,
                        prune,
                        &make_hooks,
                        &observe_recoveries,
                    );
                    if let Some(cache) = spec.cache {
                        let _ = cache.save(
                            key,
                            &ProfileRecord {
                                key: String::new(),
                                bench: spec.bench.to_string(),
                                scheme: spec.scheme.to_string(),
                                model: spec.model.label(),
                                section: format!("{}#{}", sec.func_name, sec.leader.0),
                                section_hash: format!("{:016x}", sec.hash),
                                sites: s_sites,
                                trials: u64::from(trials),
                                seed: seed_s,
                                stats,
                            },
                        );
                    }
                    stats
                }
            }
        };
        section_reports.push(SectionReport {
            section: format!("{}#{}", sec.func_name, sec.leader.0),
            kind: sec.kind.label().to_string(),
            hash: format!("{:016x}", sec.hash),
            sites: s_sites,
            benign_sites: benign,
            trials: u64::from(trials),
            cached,
            stats,
        });
        profiles.push(SectionProfile {
            sites: s_sites,
            stats,
        });
    }

    let composed = compose(&profiles);

    // Exhaustive skip oracle: probe every site once, exactly as
    // `enumerate_faults` would, and check both directions.
    let oracle = if spec.model == FaultModel::InstructionSkip
        && spec.oracle_limit > 0
        && total_sites > 0
        && total_sites <= spec.oracle_limit
    {
        let probes = parallel_map_indexed(sites.len(), threads, |i| {
            let site = &sites[i];
            let benign = prune(site, &ExactFaultKind::Skip);
            let fault = ExactFault {
                at: site.at,
                kind: ExactFaultKind::Skip,
            };
            let probe = campaign.run_exact_trial(fault, &make_hooks, &observe_recoveries);
            (benign, probe.class)
        });
        let cases = probes.len() as u64;
        let benign_cases = probes.iter().filter(|(b, _)| *b).count() as u64;
        let benign_violations = probes
            .iter()
            .filter(|(b, c)| *b && *c != OutcomeClass::Correct)
            .count() as u64;
        let correct = probes
            .iter()
            .filter(|(_, c)| *c == OutcomeClass::Correct)
            .count() as u64;
        let sdc = probes
            .iter()
            .filter(|(_, c)| *c == OutcomeClass::Sdc)
            .count() as u64;
        let correct_rate = correct as f64 / cases as f64;
        let sdc_rate = sdc as f64 / cases as f64;
        let brackets = |r: &ComposedRate, v: f64| r.ci.lo - 1e-9 <= v && v <= r.ci.hi + 1e-9;
        Some(OracleReport {
            cases,
            benign_cases,
            benign_violations,
            correct_rate,
            sdc_rate,
            correct_bracketed: brackets(&composed.correct, correct_rate),
            sdc_bracketed: brackets(&composed.sdc, sdc_rate),
        })
    } else {
        None
    };

    VulnCell {
        scheme: spec.scheme.to_string(),
        model: spec.model.label(),
        total_sites,
        benign_sites: benign_total,
        cache_hits,
        cache_misses,
        sections: section_reports,
        composed: ComposedReport::from(&composed),
        oracle,
    }
}

/// The schemes of the vulnerability grid: the deployment baselines plus
/// RSkip at the paper's strictest AR.
fn schemes() -> Vec<SchemeVariant> {
    vec![
        SchemeVariant::Unsafe,
        SchemeVariant::SwiftR,
        SchemeVariant::RSkip(AR_SETTINGS[0]),
    ]
}

/// Runs the vulnerability grid over `benches` × schemes × `models`.
pub fn run_with(
    engine: &Engine,
    benches: Vec<String>,
    models: &[FaultModel],
    opts: &VulnOptions,
) -> VulnReport {
    let cache = opts.cache_dir.as_ref().map(ProfileCache::open);
    let context = format!("{:?}", engine.options().size);
    let rows = engine.over(&benches, |setup| {
        let bench = setup.bench.meta().name;
        let input = setup.test_input();
        let golden = setup.bench.golden(engine.options().size, &input);
        let output = setup.bench.output_global();
        let mut cells = Vec::new();
        for variant in schemes() {
            for &model in models {
                let seed0 = campaign_seed(bench, variant, model, opts.runs) ^ VULN_SEED_TAG;
                let scheme = variant.label();
                let spec = CellSpec {
                    bench,
                    scheme: &scheme,
                    model,
                    module: setup.module(variant),
                    input: &input,
                    golden: &golden,
                    output,
                    runs: opts.runs,
                    seed0,
                    oracle_limit: opts.oracle_limit,
                    context: &context,
                    cache: cache.as_ref(),
                };
                let cell = analyze_cell(&spec, || setup.hooks(variant), BenchSetup::recoveries);
                cells.push(cell);
            }
        }
        VulnRow {
            bench: bench.to_string(),
            cells,
        }
    });
    VulnReport {
        runs: opts.runs,
        incremental: cache.is_some(),
        models: models.iter().map(|m| m.label()).collect(),
        rows,
    }
}

impl VulnReport {
    /// Renders the cell summary table and the per-section breakdown.
    pub fn render(&self) -> String {
        let mut cells = TextTable::new(
            [
                "benchmark",
                "scheme",
                "model",
                "sections",
                "sites",
                "benign",
                "trials",
                "pruned",
                "Correct",
                "SDC",
                "SDC interval",
                "cache h/m",
                "oracle",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title(format!(
            "Compositional vulnerability analysis ({} trials per cell; models: {})",
            self.runs,
            self.models.join(", ")
        ));
        for row in &self.rows {
            for c in &row.cells {
                let pruned: u64 = c.sections.iter().map(|s| s.stats.pruned).sum();
                let oracle = match &c.oracle {
                    None => "-".to_string(),
                    Some(o) => {
                        let sound = o.benign_violations == 0;
                        let bracketed = o.correct_bracketed && o.sdc_bracketed;
                        if sound && bracketed {
                            format!("ok ({} sites)", o.cases)
                        } else {
                            format!(
                                "FAIL ({} benign violations, bracketed={bracketed})",
                                o.benign_violations
                            )
                        }
                    }
                };
                cells.row(vec![
                    row.bench.clone(),
                    c.scheme.clone(),
                    c.model.clone(),
                    format!("{}", c.sections.len()),
                    format!("{}", c.total_sites),
                    format!("{}", c.benign_sites),
                    format!("{}", c.composed.trials),
                    format!("{pruned}"),
                    percent(c.composed.correct.estimate),
                    percent(c.composed.sdc.estimate),
                    format!(
                        "[{}, {}]",
                        percent(c.composed.sdc.lo),
                        percent(c.composed.sdc.hi)
                    ),
                    format!("{}/{}", c.cache_hits, c.cache_misses),
                    oracle,
                ]);
            }
        }
        let mut sections = TextTable::new(
            [
                "benchmark",
                "scheme",
                "model",
                "section",
                "kind",
                "hash",
                "sites",
                "benign",
                "trials",
                "pruned",
                "cached",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
        .with_title("Injection sections");
        for row in &self.rows {
            for c in &row.cells {
                for s in &c.sections {
                    sections.row(vec![
                        row.bench.clone(),
                        c.scheme.clone(),
                        c.model.clone(),
                        s.section.clone(),
                        s.kind.clone(),
                        s.hash.clone(),
                        format!("{}", s.sites),
                        format!("{}", s.benign_sites),
                        format!("{}", s.trials),
                        format!("{}", s.stats.pruned),
                        if s.cached { "yes" } else { "no" }.to_string(),
                    ]);
                }
            }
        }
        format!("{}\n{}", cells.render(), sections.render())
    }

    /// Sanity checks the finished report; returns human-readable
    /// violations (empty on a healthy report). Used by CI.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let tag = format!("{}/{}/{}", row.bench, c.scheme, c.model);
                if c.total_sites == 0 {
                    bad.push(format!("{tag}: empty fault-site universe"));
                }
                let section_sites: u64 = c.sections.iter().map(|s| s.sites).sum();
                if section_sites != c.total_sites {
                    bad.push(format!(
                        "{tag}: sections account for {section_sites} of {} sites",
                        c.total_sites
                    ));
                }
                let section_trials: u64 = c.sections.iter().map(|s| s.trials).sum();
                if c.composed.trials != section_trials {
                    bad.push(format!(
                        "{tag}: composed {} trials, sections allocated {section_trials}",
                        c.composed.trials
                    ));
                }
                for s in &c.sections {
                    if s.sites > 0 && s.trials == 0 {
                        bad.push(format!(
                            "{tag}: section {} has sites but no trials",
                            s.section
                        ));
                    }
                    if s.stats.pruned > s.stats.counts.total() {
                        bad.push(format!(
                            "{tag}: section {} pruned more trials than it classified",
                            s.section
                        ));
                    }
                }
                if let Some(o) = &c.oracle {
                    if o.benign_violations > 0 {
                        bad.push(format!(
                            "{tag}: {} statically-benign sites were not benign under the oracle",
                            o.benign_violations
                        ));
                    }
                    if !o.correct_bracketed {
                        bad.push(format!(
                            "{tag}: composed correct interval misses the oracle rate {:.4}",
                            o.correct_rate
                        ));
                    }
                    if !o.sdc_bracketed {
                        bad.push(format!(
                            "{tag}: composed SDC interval misses the oracle rate {:.4}",
                            o.sdc_rate
                        ));
                    }
                }
            }
        }
        bad
    }
}
