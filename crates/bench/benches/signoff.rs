//! Signoff-service benches: the full job pipeline (submit → tile
//! fan-out → ordered merge → report) end to end, plus scheduler
//! saturation gauges. This is the throughput face of the multicore
//! story in EXPERIMENTS.md — wall-clock per signoff job at the worker
//! counts a signoff farm actually runs.
//!
//! `cargo bench -p dfm-bench --bench signoff [-- filter]`, JSON via
//! `DFM_BENCH_JSON=<path>` as for the `engines` bench.

use dfm_bench::microbench::Bencher;
use dfm_cache::TileCache;
use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::service::JobState;
use dfm_signoff::{
    Client, JobSpec, Server, ServiceConfig, SignoffService, SITE_SHARD_DISPATCH,
};
use std::hint::black_box;
use std::sync::Arc;

fn job_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, 11)).expect("gds")
}

fn job_spec() -> JobSpec {
    JobSpec {
        name: "bench".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// One complete job on an already-warm service; returns the report
/// length so the optimiser keeps the whole pipeline.
fn run_job(service: &SignoffService, spec: &JobSpec, gds_bytes: &[u8]) -> usize {
    let id = service.submit(spec.clone(), gds_bytes.to_vec()).expect("submit");
    let status = service.wait(id).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, text) = service.report_text(id, false).expect("report");
    text.len()
}

/// End-to-end job latency at 1, 2, and 4 workers, on a persistent
/// service (the pool is reused across jobs, as in the server).
fn bench_signoff_job_e2e(b: &mut Bencher) {
    let gds_bytes = job_gds();
    let spec = job_spec();
    for workers in [1usize, 2, 4] {
        let service = SignoffService::with_config(
            ServiceConfig::builder().threads(workers).build(),
        );
        b.bench(&format!("signoff_job_e2e_w{workers}"), || {
            black_box(run_job(&service, &spec, &gds_bytes))
        });
    }
}

/// Scheduler saturation under a burst of jobs: submit several jobs
/// back to back on a 4-worker service, then publish the pool's peak
/// queue depth and peak concurrently-running tiles as gauges. A
/// healthy scheduler shows `tiles_in_flight_peak == workers` (the pool
/// saturates) and a `queue_depth_peak` near jobs × tiles (fan-out is
/// immediate, not trickled).
fn bench_signoff_saturation(b: &mut Bencher) {
    let gds_bytes = job_gds();
    let spec = job_spec();
    let workers = 4usize;
    let service = SignoffService::with_config(ServiceConfig::builder().threads(workers).build());
    let ids: Vec<u64> = (0..3)
        .map(|_| service.submit(spec.clone(), gds_bytes.clone()).expect("submit"))
        .collect();
    for id in ids {
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    }
    let stats = service.pool_stats();
    b.gauge("queue_depth_peak", stats.queue_depth_peak as f64);
    b.gauge("tiles_in_flight_peak", stats.in_flight_peak as f64);
}

/// Warm-cache resubmission: prime a content-addressed result cache
/// with one cold job, then bench the warm job (every tile served from
/// disk, zero computes) and publish the hit ratio and recompute count
/// from the warm run's status. A healthy cache shows
/// `cache_hit_ratio == 1` and `tiles_recomputed == 0`; the
/// `signoff_job_warm_cache` timing against `signoff_job_e2e_w4` is the
/// incremental-re-signoff speedup.
fn bench_signoff_warm_cache(b: &mut Bencher) {
    let gds_bytes = job_gds();
    let spec = job_spec();
    let root = std::env::temp_dir().join(format!("dfm-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(4).cache(Arc::clone(&cache)).build(),
    );
    run_job(&service, &spec, &gds_bytes); // prime
    b.bench("signoff_job_warm_cache_w4", || {
        black_box(run_job(&service, &spec, &gds_bytes))
    });
    let id = service.submit(spec.clone(), gds_bytes.clone()).expect("submit");
    let status = service.wait(id).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    b.gauge(
        "cache_hit_ratio",
        status.tiles_cached as f64 / status.tiles_total.max(1) as f64,
    );
    b.gauge(
        "tiles_recomputed",
        (status.tiles_total - status.tiles_cached) as f64,
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Manufacturability scoring and the auto-fix loop: time a scored job
/// (the score rides the normal pipeline — its cost is metric
/// extraction at submit and finalise, never per-tile work), then run
/// the greedy fix search once and publish its evidence as gauges:
/// aggregate score before/after, the delta, the edit count, and how
/// many tiles the cache-armed resubmission actually recomputed.
fn bench_signoff_score_fix(b: &mut Bencher) {
    let gds_bytes = job_gds();
    let spec = JobSpec { score: Some("default".to_string()), ..job_spec() };
    let service = SignoffService::with_config(ServiceConfig::builder().threads(4).build());
    b.bench("signoff_job_scored_w4", || {
        black_box(run_job(&service, &spec, &gds_bytes))
    });

    let root = std::env::temp_dir().join(format!("dfm-bench-score-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cache = Arc::new(TileCache::open(&root, None).expect("cache"));
    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(4).cache(Arc::clone(&cache)).build(),
    );
    run_job(&service, &spec, &gds_bytes); // prime
    let outcome = dfm_signoff::auto_fix(&spec, &gds_bytes).expect("fix");
    let id = service.submit(spec.clone(), outcome.gds.clone()).expect("submit");
    let status = service.wait(id).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    b.gauge("score_before", outcome.score_before.score);
    b.gauge("score_after", outcome.score_after.score);
    b.gauge("fix_score_delta", outcome.delta());
    b.gauge("fix_edits", outcome.edits as f64);
    b.gauge(
        "fix_tiles_recomputed",
        (status.tiles_total - status.tiles_cached) as f64,
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Scale-out: a coordinator fanning the job across two in-process
/// shard servers over the real wire protocol. Times the coordinated
/// run against `signoff_job_e2e_*` (same bytes, plus the wire), then
/// runs a takeover — shard 0's generation-0 dispatch leg is killed so
/// the survivor absorbs its range — and publishes the cluster shape
/// and recovery volume as gauges: `shards` and `tiles_redispatched`.
fn bench_signoff_sharded(b: &mut Bencher) {
    let gds_bytes = job_gds();
    let spec = job_spec();
    let addrs: Vec<String> = (0..2)
        .map(|k| {
            let service = Arc::new(SignoffService::with_config(
                ServiceConfig::builder().threads(2).shard_of(k, 2).build(),
            ));
            let server = Server::bind(service, 0).expect("bind shard");
            let addr = server.local_addr().to_string();
            std::thread::spawn(move || {
                let _ = server.serve();
            });
            addr
        })
        .collect();

    let coordinator = SignoffService::with_config(
        ServiceConfig::builder().threads(2).shards(addrs.clone()).build(),
    );
    b.bench("signoff_job_sharded_2x2", || {
        black_box(run_job(&coordinator, &spec, &gds_bytes))
    });

    let plan = FaultPlan::seeded(3).with_rule(
        FaultRule::new(SITE_SHARD_DISPATCH, FaultAction::Error).key(0).first_attempts(1),
    );
    let coordinator = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .shards(addrs.clone())
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    );
    run_job(&coordinator, &spec, &gds_bytes);
    let stats = coordinator.shard_stats().expect("shard stats");
    b.gauge("shards", stats.shards as f64);
    b.gauge("tiles_redispatched", stats.tiles_redispatched as f64);

    for addr in &addrs {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.shutdown();
        }
    }
}

/// Robustness surface: the size of the registered crash-site matrix
/// (what `dfm-sim` enumerates and asserts full coverage of) and the
/// client's transparent-reconnect counter under a server that tears
/// every connection's fourth response frame. `reconnects > 0` is the
/// evidence that the torn frames were ridden out invisibly — every
/// ping still answered.
fn bench_signoff_robustness(b: &mut Bencher) {
    use dfm_signoff::server::SITE_SERVER_WRITE;
    let plan = FaultPlan::seeded(5)
        .with_rule(FaultRule::new(SITE_SERVER_WRITE, FaultAction::Drop).attempt_exactly(3));
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder()
            .threads(1)
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    ));
    let server = Server::bind(service, 0).expect("bind");
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..20 {
        client.ping().expect("ping rides out torn frames");
    }
    b.gauge("crash_sites_covered", dfm_fault::crash::SITES.len() as f64);
    b.gauge("reconnects", client.reconnects() as f64);
    let _ = client.shutdown();
}

fn main() {
    let mut b = Bencher::from_env();
    bench_signoff_job_e2e(&mut b);
    bench_signoff_saturation(&mut b);
    bench_signoff_warm_cache(&mut b);
    bench_signoff_score_fix(&mut b);
    bench_signoff_sharded(&mut b);
    bench_signoff_robustness(&mut b);
    b.finish();
}
