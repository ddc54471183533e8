//! End-to-end campaign-service tests against the **real** harness
//! runner: the acceptance property (a streamed job's final aggregate is
//! byte-identical to the one-shot CLI driver), early stopping with
//! honest savings, typed protocol error paths, and per-tenant store
//! namespaces — all over loopback TCP at `SizeProfile::Tiny`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use rskip_core::stats::{EarlyStop, StopMetric};
use rskip_exec::FaultModel;
use rskip_harness::experiment::{run_campaign_cell_model, SchemeVariant};
use rskip_harness::{ArSetting, Engine, EvalOptions, HarnessRunner, Store};
use rskip_serve::{encode, Client, ErrorKind, JobSpec, Request, Response, Server, ServerConfig};
use rskip_workloads::SizeProfile;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rskip-serve-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_options() -> EvalOptions {
    EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    }
}

fn tiny_server(store: Option<Store>) -> Server {
    let runner = Arc::new(HarnessRunner::new(tiny_options(), store));
    Server::bind(
        "127.0.0.1:0",
        runner,
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            default_chunk: 64,
            max_trials: 10_000,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

/// The one-shot CLI reference for a (bench, scheme, model, runs) cell —
/// exactly what `rskip-eval campaign` folds.
fn cli_reference(
    bench: &str,
    variant: SchemeVariant,
    model: FaultModel,
    runs: u32,
) -> rskip_core::stats::CampaignStats {
    let engine = Engine::new(tiny_options());
    let setup = engine.setup(bench);
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    run_campaign_cell_model(&setup, variant, model, &input, &golden, runs)
}

#[test]
fn streamed_job_is_byte_identical_to_cli_driver() {
    let server = tiny_server(None);
    // Two tenants submit concurrently on separate connections; their
    // jobs multiplex across the shared worker pool. Interleaving must
    // not leak into either aggregate.
    let mut alpha = Client::connect(server.addr()).expect("connect alpha");
    let mut beta = Client::connect(server.addr()).expect("connect beta");

    let mut spec_a = JobSpec::new("conv1d", "ar20", "seu", 120);
    spec_a.tenant = "alpha".into();
    spec_a.chunk = 40;
    let mut spec_b = JobSpec::new("conv1d", "swift-r", "burst:4", 90);
    spec_b.tenant = "beta".into();
    spec_b.chunk = 25;

    let job_a = alpha.submit_accepted(&spec_a).expect("accept A");
    let job_b = beta.submit_accepted(&spec_b).expect("accept B");
    let done_a = alpha.stream_job(job_a, |_| {}).expect("stream A");
    let done_b = beta.stream_job(job_b, |_| {}).expect("stream B");

    assert_eq!(done_a.done.executed, 120);
    assert!(!done_a.done.early_stopped);
    let ref_a = cli_reference(
        "conv1d",
        SchemeVariant::RSkip(ArSetting { percent: 20 }),
        FaultModel::SingleBitSeu,
        120,
    );
    assert_eq!(
        encode(&done_a.done.stats),
        encode(&ref_a),
        "streamed ar20/seu aggregate must be byte-identical to the CLI driver"
    );

    assert_eq!(done_b.done.executed, 90);
    let ref_b = cli_reference(
        "conv1d",
        SchemeVariant::SwiftR,
        FaultModel::MultiBitBurst { width: 4 },
        90,
    );
    assert_eq!(
        encode(&done_b.done.stats),
        encode(&ref_b),
        "streamed swift-r/burst aggregate must be byte-identical to the CLI driver"
    );

    server.shutdown();
}

/// A DI-only scheme (`arN-di`: memoization off) runs its own hooks in the
/// service; the streamed aggregate must equal the one-shot driver's cell.
/// blackscholes is memoizable, so there the DI-only runtime really
/// differs from the full chain.
#[test]
fn di_only_job_is_byte_identical_to_cli_driver() {
    let server = tiny_server(None);
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut spec = JobSpec::new("blackscholes", "ar20-di", "seu", 80);
    spec.chunk = 30;
    let job = client.submit_accepted(&spec).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    assert_eq!(outcome.done.executed, 80);
    let reference = cli_reference(
        "blackscholes",
        SchemeVariant::RSkipDiOnly(ArSetting { percent: 20 }),
        FaultModel::SingleBitSeu,
        80,
    );
    assert_eq!(
        encode(&outcome.done.stats),
        encode(&reference),
        "streamed ar20-di/seu aggregate must be byte-identical to the CLI driver"
    );
    server.shutdown();
}

/// Older clients sent an execution-tier name in each Submit. The
/// server ignores the field whatever it names: every such job runs and
/// keys like the same spec without a tier, so a tierless resubmission
/// is a cache hit.
#[test]
fn submit_lines_with_a_tier_field_run_and_key_like_tierless_specs() {
    let server = tiny_server(None);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (tier, trials) in [("match", 40), ("threaded-nofuse", 41), ("warp", 42)] {
        let spec = JobSpec::new("conv1d", "ar20", "seu", trials);
        let line = encode(&Request::Submit(spec.clone())).replacen(
            "\"trials\":",
            &format!("\"tier\":\"{tier}\",\"trials\":"),
            1,
        );
        assert!(line.contains("\"tier\""), "spliced line: {line}");
        client.send_raw(&line).expect("send");
        let job = match client.recv().expect("frame") {
            Response::Accepted { job, .. } => job,
            other => panic!("{tier}: expected Accepted, got {other:?}"),
        };
        let ran = client.stream_job(job, |_| {}).expect("stream").done;
        assert_eq!(ran.executed, trials, "{tier}");
        assert!(!ran.cached, "{tier} must execute, not hit the cache");

        let job = client.submit_accepted(&spec).expect("resubmit");
        let again = client.stream_job(job, |_| {}).expect("stream").done;
        assert!(again.cached, "{tier}: a tierless resubmission must hit");
        assert_eq!(encode(&again.stats), encode(&ran.stats), "{tier}");
    }
    server.shutdown();
}

#[test]
fn early_stop_executes_fewer_trials_than_requested() {
    let server = tiny_server(None);
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut spec = JobSpec::new("conv1d", "ar20", "seu", 5_000);
    spec.chunk = 50;
    spec.stop = Some(EarlyStop {
        metric: StopMetric::Sdc,
        half_width: 0.06,
    });
    let job = client.submit_accepted(&spec).expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");

    assert!(
        outcome.done.early_stopped,
        "the rule must fire at tiny SDC rates"
    );
    assert!(
        outcome.done.executed < outcome.done.requested,
        "early stop must save trials: {}/{}",
        outcome.done.executed,
        outcome.done.requested
    );
    assert!(outcome.done.sdc_ci.half_width() <= 0.06);
    // The partial aggregate still covers exactly the executed trials.
    assert_eq!(
        outcome.done.stats.counts.total(),
        u64::from(outcome.done.executed)
    );

    server.shutdown();
}

#[test]
fn real_runner_rejections_are_typed_and_non_fatal() {
    let server = tiny_server(None);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Malformed frame first.
    client.send_raw("not a frame").expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::MalformedFrame),
        other => panic!("expected MalformedFrame, got {other:?}"),
    }

    let cases: Vec<(JobSpec, ErrorKind)> = vec![
        (
            JobSpec::new("nope", "ar20", "seu", 10),
            ErrorKind::UnknownBench,
        ),
        (
            JobSpec::new("conv1d", "arX", "seu", 10),
            ErrorKind::UnknownScheme,
        ),
        (
            JobSpec::new("conv1d", "ar20", "burst:99", 10),
            ErrorKind::UnknownFaultModel,
        ),
        (
            JobSpec::new("conv1d", "ar20", "seu", 50_000),
            ErrorKind::OversizedTrials,
        ),
    ];
    for (bad, want) in cases {
        match client.submit(&bad).expect("frame") {
            Response::Rejected { error, .. } => assert_eq!(error, want, "for {bad:?}"),
            other => panic!("expected rejection of {bad:?}, got {other:?}"),
        }
    }

    // Cancel of an unknown job.
    client.cancel(777).expect("send");
    match client.recv().expect("frame") {
        Response::Error { error, .. } => assert_eq!(error, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob, got {other:?}"),
    }

    // The server is still serving: a valid job completes.
    let job = client
        .submit_accepted(&JobSpec::new("conv1d", "unsafe", "skip", 20))
        .expect("accept");
    let outcome = client.stream_job(job, |_| {}).expect("stream");
    assert_eq!(outcome.done.executed, 20);

    server.shutdown();
}

#[test]
fn tenants_warm_start_from_their_own_store_namespaces() {
    let root = temp_dir("tenants");
    let server = tiny_server(Some(Store::open(&root)));
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut spec = JobSpec::new("conv1d", "ar20", "seu", 10);
    spec.tenant = "alpha".into();
    let job = client.submit_accepted(&spec).expect("accept alpha");
    client.stream_job(job, |_| {}).expect("stream alpha");

    let spec_default = JobSpec::new("conv1d", "ar20", "seu", 10);
    let job = client
        .submit_accepted(&spec_default)
        .expect("accept default");
    client.stream_job(job, |_| {}).expect("stream default");

    server.shutdown();

    // Each tenant trained into its own namespace directory; neither is
    // empty and they do not share files.
    let alpha_files = std::fs::read_dir(root.join("alpha"))
        .expect("alpha namespace exists")
        .count();
    let public_files = std::fs::read_dir(root.join("public"))
        .expect("default namespace exists")
        .count();
    assert!(alpha_files > 0, "alpha tenant must have saved artifacts");
    assert!(public_files > 0, "default tenant must have saved artifacts");

    let _ = std::fs::remove_dir_all(&root);
}
