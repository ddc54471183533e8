//! The repository benchmark: campaign trials/s and service job latency,
//! with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-dispatch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` produces the per-layer metrics and writes its spans to
//! `.perfbench/trace-<workload>-seed<n>.jsonl`. Both check every
//! output. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed check
//! exits with code 1. `setup_s` is the median of set-ups timed in
//! child processes of this program (`--setup-only 1`), so each starts
//! cold. See `perfbench/README.md` for what each workload and metric
//! means.

mod campaign;
mod layers;
mod report;
mod serve;
mod setup;
mod trace;

use report::Outcome;

/// Where traces and the service's state directories go, relative to the
/// working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: selects the test input and is folded into every
    /// campaign seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Time one set-up, print its seconds and exit (`--setup-only 1`,
    /// the child process of [`setup::Setups`]).
    pub setup_only: bool,
}

/// SplitMix64 finalizer, used to fold the workload seed into seeds.
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const END_TO_END: [&str; 9] = [
    "trials_per_s",
    "trial_p50_us",
    "trial_p99_us",
    "jobs_per_s",
    "job_p50_ms",
    "job_p95_ms",
    "cached_job_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

fn flag_value(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad {flag} {value:?} (want 0 or 1)")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?;
            }
            "--trace" => args.trace = flag_value(&flag, &value)?,
            "--setup-only" => args.setup_only = flag_value(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload campaign-dispatch|campaign-predict|serve-mixed --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let work = match args.workload.as_str() {
        "campaign-dispatch" => Some(campaign::dispatch()),
        "campaign-predict" => Some(campaign::predict()),
        "serve-mixed" => {
            // Trial fan-out inside the service runs on one thread, so the
            // load stays at two busy workers.
            std::env::set_var("RAYON_NUM_THREADS", "1");
            None
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        let secs = match &work {
            Some(w) => Ok(campaign::setup_only(w, &args)),
            None => serve::setup_only(&args),
        };
        match secs {
            Ok(s) => println!("{s:?}"),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut setups = setup::Setups::new(&args);
    let mut out: Outcome = match &work {
        Some(w) => campaign::run(w, &args, &mut setups),
        None => {
            setups.time(usize::MAX);
            serve::run(&args)
        }
    };
    if args.trace {
        // Layers a workload does not exercise read 0 (see README).
        for (name, unit) in PER_LAYER {
            if !out.has(name) {
                out.metric(name, 0.0, unit);
            }
        }
        let failed = out.failures.len() as f64;
        out.metric("failed_frac", failed / out.attempted.max(1) as f64, "ratio");
        out.select(&PER_LAYER.map(|(name, _)| name));
    } else {
        match setups.finish() {
            Ok(secs) => out.metric("setup_s", secs, "s"),
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
            }
        }
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        for name in END_TO_END {
            if !out.has(name) {
                out.fail(format!("metric {name} was not measured"));
            }
        }
        out.select(&END_TO_END);
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}

/// Every per-layer metric with its unit, in print order.
const PER_LAYER: [(&str, &str); 54] = [
    ("harness.sizing_ms", "ms"),
    ("harness.job_prep_us", "us"),
    ("harness.trial_us", "us"),
    ("exec.decode_us", "us"),
    ("exec.decode_cache_hits", "count"),
    ("exec.decode_cache_misses", "count"),
    ("exec.machine_new_us", "us"),
    ("exec.run_self_us", "us"),
    ("exec.msteps_per_s", "Msteps/s"),
    ("exec.steps_per_trial", "count"),
    ("exec.classify_us", "us"),
    ("fault.arm_us", "us"),
    ("fault.fired_frac", "ratio"),
    ("fault.hang_trials", "count"),
    ("fault.hang_step_share", "ratio"),
    ("runtime.construct_us", "us"),
    ("runtime.hook_us", "us"),
    ("runtime.hook_calls", "count"),
    ("runtime.calls.region_enter", "count"),
    ("runtime.calls.region_exit", "count"),
    ("runtime.calls.select_version", "count"),
    ("runtime.calls.observe", "count"),
    ("runtime.calls.next_pending", "count"),
    ("runtime.calls.pending_addr", "count"),
    ("runtime.calls.pending_arg_i", "count"),
    ("runtime.calls.pending_arg_f", "count"),
    ("runtime.calls.resolve_ok", "count"),
    ("runtime.calls.resolve_fault", "count"),
    ("runtime.calls.detect", "count"),
    ("runtime.calls.print", "count"),
    ("runtime.ns_per_call.observe", "ns"),
    ("runtime.ns_per_call.select_version", "ns"),
    ("runtime.ns_per_call.next_pending", "ns"),
    ("runtime.hook_share", "ratio"),
    ("workloads.build_ms", "ms"),
    ("passes.protect_ms", "ms"),
    ("passes.insts.unsafe", "count"),
    ("passes.insts.swift_r", "count"),
    ("passes.insts.rskip", "count"),
    ("runtime.profile_ms", "ms"),
    ("runtime.train_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.chunk_exec_ms", "ms"),
    ("serve.chunk_gap_ms", "ms"),
    ("serve.done_gap_ms", "ms"),
    ("serve.cached_accept_to_done_ms", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.frames_per_job", "count"),
    ("store.journal_bytes", "bytes"),
    ("store.replay_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];
