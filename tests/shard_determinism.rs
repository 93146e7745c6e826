//! Shard-coordinator determinism suite: horizontal scale-out must be
//! invisible in the bytes. One fixed job is run through a coordinator
//! fanning out to 2 and 3 shard servers, at several worker counts and
//! cache temperatures — and every run must produce the exact event
//! stream, report text, and golden digest of a single-process run.

use dfm_practice::cache::TileCache;
use dfm_practice::layout::{gds, generate, layers, Technology};
use dfm_practice::signoff::service::{JobEvent, JobEventKind, JobState};
use dfm_practice::signoff::{
    flat_report, Client, JobSpec, Server, ServiceConfig, SignoffService,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Digest of the canonical report text for the fixed job — the same
/// pin as `tests/signoff_determinism.rs`.
const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;

fn block_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("serialise")
}

fn spec() -> JobSpec {
    JobSpec {
        name: "determinism".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn flat_text() -> String {
    let spec = spec();
    let lib = gds::from_bytes(&block_gds()).expect("lib");
    flat_report(&spec, &lib).expect("flat").render_text(&spec)
}

/// A unique temp dir per call, so cases never share state.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-shard-{tag}-{}-{n}", std::process::id()))
}

/// Starts one shard server on an ephemeral port; returns its address.
/// The serve loop runs on a detached thread until `shutdown_all`.
fn spawn_shard(k: u64, n: u64, threads: usize, cache: Option<Arc<TileCache>>) -> String {
    let cfg = ServiceConfig::builder().threads(threads).shard_of(k, n).cache(cache);
    let service = Arc::new(SignoffService::with_config(cfg.build()));
    let server = Server::bind(service, 0).expect("bind shard");
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    addr
}

fn shutdown_all(addrs: &[String]) {
    for addr in addrs {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.shutdown();
        }
    }
}

/// Submits the fixed job and returns `(state, events, report text)`.
fn run_job(service: &SignoffService) -> (JobState, Vec<JobEvent>, String) {
    let id = service.submit(spec(), block_gds()).expect("submit");
    let status = service.wait(id).expect("wait");
    let events = service.events(id, 0).expect("events");
    let (_, text) = service.report_text(id, true).expect("report");
    (status.state, events, text)
}

#[test]
fn coordinated_run_matches_single_process_at_any_shard_and_worker_count() {
    let flat = flat_text();
    assert_eq!(dfm_check::fnv1a_64(flat.as_bytes()), GOLDEN_REPORT_DIGEST);
    for threads in [1usize, 2, 8] {
        let baseline = SignoffService::with_config(
            ServiceConfig::builder().threads(threads).build(),
        );
        let (state, base_events, base_text) = run_job(&baseline);
        assert_eq!(state, JobState::Done, "baseline at {threads} workers");
        assert_eq!(base_text, flat, "baseline report bytes at {threads} workers");
        for n_shards in [2u64, 3] {
            let addrs: Vec<String> =
                (0..n_shards).map(|k| spawn_shard(k, n_shards, threads, None)).collect();
            let coord = SignoffService::with_config(
                ServiceConfig::builder().threads(threads).shards(addrs.clone()).build(),
            );
            let (state, events, text) = run_job(&coord);
            shutdown_all(&addrs);
            assert_eq!(
                state,
                JobState::Done,
                "coordinated {n_shards}-shard run at {threads} workers"
            );
            assert_eq!(
                events, base_events,
                "sharding changed the event stream ({n_shards} shards, {threads} workers)"
            );
            assert_eq!(
                text, flat,
                "sharding changed report bytes ({n_shards} shards, {threads} workers)"
            );
        }
    }
}

#[test]
fn coordinated_cache_temperature_is_invisible_in_bytes() {
    let flat = flat_text();
    let base_dir = fresh_dir("base-cache");
    let shard_dir = fresh_dir("shard-cache");

    // Single-process baseline with a tile cache: cold run stores,
    // warm run hits.
    let base_cache = Arc::new(TileCache::open(&base_dir, None).expect("open baseline cache"));
    let baseline = SignoffService::with_config(
        ServiceConfig::builder().threads(4).cache(base_cache).build(),
    );
    let (state, base_cold_events, base_cold_text) = run_job(&baseline);
    assert_eq!(state, JobState::Done);
    let (state, base_warm_events, base_warm_text) = run_job(&baseline);
    assert_eq!(state, JobState::Done);
    assert!(
        base_warm_events.iter().any(|e| matches!(e.kind, JobEventKind::TileCacheHit { .. })),
        "warm baseline run must hit the cache"
    );

    // Coordinated: two shards sharing one cache store; the coordinator
    // itself is cache-less — cache events replay from the shards.
    let shard_cache = Arc::new(TileCache::open(&shard_dir, None).expect("open shard cache"));
    let addrs: Vec<String> =
        (0..2).map(|k| spawn_shard(k, 2, 4, Some(Arc::clone(&shard_cache)))).collect();
    let coord = SignoffService::with_config(
        ServiceConfig::builder().threads(4).shards(addrs.clone()).build(),
    );
    let (state, cold_events, cold_text) = run_job(&coord);
    assert_eq!(state, JobState::Done, "coordinated cold run");
    let (state, warm_events, warm_text) = run_job(&coord);
    shutdown_all(&addrs);
    assert_eq!(state, JobState::Done, "coordinated warm run");

    assert_eq!(cold_events, base_cold_events, "cold-cache event streams diverge");
    assert_eq!(warm_events, base_warm_events, "warm-cache event streams diverge");
    for text in [&base_cold_text, &base_warm_text, &cold_text, &warm_text] {
        assert_eq!(text, &flat, "cache temperature changed report bytes");
        assert_eq!(dfm_check::fnv1a_64(text.as_bytes()), GOLDEN_REPORT_DIGEST);
    }

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}
