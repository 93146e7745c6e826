//! Fault-injection determinism suite: with a fixed fault plan, the
//! *entire observable behaviour* of the signoff service — the event
//! stream (retries, quarantines, tile completions, state changes), the
//! quarantine manifest, and the final report bytes — must be identical
//! at 1, 2, and 8 workers. And with an empty plan, the fault plane
//! must be invisible: the report still digests to the pinned golden
//! value.

use dfm_practice::fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_practice::signoff::service::{
    JobEvent, JobEventKind, JobState, SITE_TILE_COMPUTE, SITE_TILE_DELAY,
};
use dfm_practice::signoff::{
    flat_report, JobSpec, ServiceConfig, SignoffService, SupervisionPolicy,
};
use std::sync::Arc;

use dfm_practice::layout::{gds, generate, layers, Technology};

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

fn faulty_service(threads: usize, plan: &FaultPlan) -> SignoffService {
    SignoffService::with_config(
        ServiceConfig::builder()
            .threads(threads)
            .fault_plane(Arc::new(FaultPlane::new(plan.clone())))
            .build(),
    )
}

/// One full run under a plan: (state, events, quarantined tiles,
/// report text — None when the job failed outright).
fn run_once(
    threads: usize,
    plan: &FaultPlan,
    spec: &JobSpec,
    gds_bytes: &[u8],
) -> (JobState, Vec<JobEvent>, Vec<usize>, Option<String>) {
    let service = faulty_service(threads, plan);
    let id = service.submit(spec.clone(), gds_bytes.to_vec()).expect("submit");
    let status = service.wait(id).expect("wait");
    let events = service.events(id, 0).expect("events");
    let quarantined: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.kind {
            JobEventKind::TileQuarantined { tile, .. } => Some(tile),
            _ => None,
        })
        .collect();
    let text = service.report_text(id, false).ok().map(|(_, t)| t);
    (status.state, events, quarantined, text)
}

#[test]
fn fixed_plan_behaviour_is_identical_at_worker_counts_1_2_8() {
    let gds_bytes = block_gds();
    let spec = spec();
    // Probabilistic plans, parsed from the text format so this suite
    // also covers the plan round-trip. Panic probability 0.45 per
    // (tile, attempt) with a budget of 3 attempts quarantines a tile
    // with probability ~0.09 — across these seeds both the retry-then-
    // succeed and the quarantine paths are exercised.
    for seed in [1u64, 7, 23, 91] {
        let plan_text = format!(
            "seed {seed}\n\
             rule {SITE_TILE_COMPUTE} panic p=0.45\n\
             rule {SITE_TILE_DELAY} delay=60000 p=0.1\n"
        );
        let plan = FaultPlan::parse(&plan_text).expect("plan");
        assert_eq!(FaultPlan::parse(&plan.render()).expect("reparse"), plan, "render round-trip");
        let baseline = run_once(1, &plan, &spec, &gds_bytes);
        assert!(
            baseline.0 == JobState::Done || baseline.0 == JobState::Partial,
            "seed {seed}: tile faults must settle Done or Partial, got {:?}",
            baseline.0
        );
        assert!(baseline.3.is_some(), "seed {seed}: a settled job has a report");
        for threads in [2usize, 8] {
            let run = run_once(threads, &plan, &spec, &gds_bytes);
            assert_eq!(run.0, baseline.0, "seed {seed}, threads {threads}: state");
            assert_eq!(
                run.1, baseline.1,
                "seed {seed}, threads {threads}: full event stream (retries included)"
            );
            assert_eq!(run.2, baseline.2, "seed {seed}, threads {threads}: quarantine set");
            assert_eq!(run.3, baseline.3, "seed {seed}, threads {threads}: report bytes");
        }
    }
}

#[test]
fn empty_plan_reproduces_the_pinned_golden_digest() {
    // The armed-but-empty fault plane must be invisible in the bytes:
    // the same golden digest that pins the fault-free report pins this
    // one. (Same constant as tests/signoff_determinism.rs.)
    const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;
    let gds_bytes = block_gds();
    let spec = spec();
    let (state, _, quarantined, text) =
        run_once(4, &FaultPlan::empty(), &spec, &gds_bytes);
    assert_eq!(state, JobState::Done);
    assert!(quarantined.is_empty());
    let text = text.expect("report");
    assert_eq!(text, flat_text());
    let digest = dfm_check::fnv1a_64(text.as_bytes());
    assert_eq!(
        digest, GOLDEN_REPORT_DIGEST,
        "fault plane changed fault-free report bytes: digest {digest:#018x}"
    );
}

#[test]
fn below_threshold_faults_leave_no_trace_in_the_report() {
    // Every tile panics on its first attempt, and only then: each one
    // retries and succeeds, so the job must finish Done with report
    // bytes identical to the fault-free run — faults below the
    // quarantine threshold are invisible in the results.
    let gds_bytes = block_gds();
    let spec = spec();
    let plan = FaultPlan::seeded(13)
        .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).first_attempts(1));
    let flat = flat_text();
    for threads in [1usize, 4] {
        let (state, events, quarantined, text) = run_once(threads, &plan, &spec, &gds_bytes);
        assert_eq!(state, JobState::Done, "threads {threads}");
        assert!(quarantined.is_empty());
        assert_eq!(text.as_deref(), Some(flat.as_str()), "threads {threads}");
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileRetry { .. }))
            .count();
        let tiles = events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::TileDone { .. }))
            .count();
        assert_eq!(retries, tiles, "threads {threads}: exactly one retry per tile");
    }
}

#[test]
fn above_threshold_faults_settle_partial_with_an_exact_manifest() {
    // Tiles 0 and 3 panic on every attempt: after the full budget both
    // are quarantined, the job settles Partial (never Failed), and the
    // report equals the offline merge of exactly the surviving tiles
    // plus the manifest.
    use dfm_practice::signoff::{JobContext, TilePartial};
    let gds_bytes = block_gds();
    let spec = spec();
    let plan = FaultPlan::seeded(2)
        .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(0))
        .with_rule(FaultRule::new(SITE_TILE_COMPUTE, FaultAction::Panic).key(3));
    let service = faulty_service(4, &plan);
    let id = service.submit(spec.clone(), gds_bytes.clone()).expect("submit");
    let status = service.wait(id).expect("wait");
    assert_eq!(status.state, JobState::Partial, "{:?}", status.error);
    assert!(status.error.is_none(), "quarantine is graceful degradation, not failure");
    assert_eq!(status.tiles_quarantined, 2);
    let (_, report) = service.results(id, false).expect("settled partial has results");
    let q_tiles: Vec<usize> = report.quarantined.iter().map(|q| q.tile).collect();
    assert_eq!(q_tiles, vec![0, 3]);
    for q in &report.quarantined {
        assert_eq!(q.attempts, SupervisionPolicy::default().max_attempts);
        assert!(q.reason.contains("injected panic"), "{}", q.reason);
    }
    let ctx = JobContext::build(&spec, &gds_bytes).expect("ctx");
    let surviving: Vec<TilePartial> = (0..ctx.tile_count())
        .filter(|t| !q_tiles.contains(t))
        .map(|t| ctx.compute_tile(t))
        .collect();
    let mut expect = ctx.merge(&surviving).expect("merge");
    expect.quarantined = report.quarantined.clone();
    assert_eq!(report, expect, "Partial report == offline merge of the surviving set");
}
