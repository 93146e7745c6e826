//! The benchmark's metric catalogue: every metric the command can
//! print, with its unit and, for per-layer metrics, the layer it
//! measures and the prediction it carries — which end-to-end metric it
//! should move, on which workload it does most work, and where it
//! should do none. `BENCHMARK.json` must name exactly these metrics.

/// Whether a metric is printed by the untraced or the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Printed by `--trace 0`: what a user of the service sees.
    EndToEnd,
    /// Printed by `--trace 1`: one layer, measured from outside.
    PerLayer,
}

/// One metric of the catalogue. The prediction fields are read by the
/// self-test that checks the catalogue against `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which run prints it.
    pub kind: Kind,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Module the metric measures (per-layer only).
    pub layer: &'static str,
    /// End-to-end metrics it should move (per-layer only).
    pub moves: &'static str,
    /// Workloads where the layer does most of its work.
    pub mostly_on: &'static str,
    /// Workloads where the layer should do (almost) no work.
    pub no_work_on: &'static str,
}

/// A workspace line count: `loc.<dir>` per directory of `crates/`,
/// `loc.root` for the root package, `loc.total` for their sum.
const fn loc(name: &'static str) -> Metric {
    layer(name, "lines", "lower", "workspace", "-", "-", "-")
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::EndToEnd,
        better,
        layer: "",
        moves: "",
        mostly_on: "",
        no_work_on: "",
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
    mostly_on: &'static str,
    no_work_on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::PerLayer,
        better,
        layer,
        moves,
        mostly_on,
        no_work_on,
    }
}

/// The catalogue.
#[rustfmt::skip]
pub const CATALOGUE: &[Metric] = &[
    e2e("job_ms.p50", "ms", "lower"),
    e2e("job_ms.tail", "ms", "lower"),
    e2e("submit_ms.p50", "ms", "lower"),
    e2e("throughput.um2_per_s", "um2/s", "higher"),
    e2e("ok_frac", "ratio", "higher"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("setup_s", "s", "lower"),
    // client / codec / proto
    layer("codec.submit_parse_ms", "ms", "lower", "codec", "submit_ms.p50 job_ms.p50", "bulk-24um", "edit-loop"),
    layer("codec.parse_ms_per_mb", "ms/MB", "lower", "codec", "submit_ms.p50 job_ms.p50", "bulk-24um", "edit-loop"),
    layer("codec.encode_ms", "ms", "lower", "codec proto", "submit_ms.p50 job_ms.p50", "bulk-24um", "edit-loop"),
    layer("client.frame_bytes_up_per_job", "bytes", "lower", "client proto", "submit_ms.p50 job_ms.p50", "bulk-24um", "edit-loop"),
    layer("client.wait_overshoot_ms.p50", "ms", "lower", "client", "job_ms.p50", "shard-2x", "edit-loop"),
    // layout::gds, JobContext::build
    layer("gds.parse_ms", "ms", "lower", "layout::gds", "submit_ms.p50", "bulk-24um edit-loop", "-"),
    layer("job.build_ms", "ms", "lower", "JobContext::build", "submit_ms.p50", "bulk-24um edit-loop", "-"),
    // JobContext::cache_key
    layer("job.cache_key_ms", "ms", "lower", "JobContext::cache_key", "submit_ms.p50 job_ms.p50", "edit-loop", "farm-litho"),
    // drc::tiled
    layer("drc.tile_ms", "ms", "lower", "drc::tiled", "throughput.um2_per_s job_ms.p50", "bulk-24um", "edit-loop"),
    layer("drc.rule_calls", "count/job", "lower", "drc::tiled", "throughput.um2_per_s job_ms.p50", "bulk-24um", "edit-loop"),
    layer("drc.tiled_over_flat", "ratio", "lower", "drc::tiled", "throughput.um2_per_s job_ms.p50", "bulk-24um", "edit-loop"),
    // yieldsim::critical_area
    layer("ca.tile_ms", "ms", "lower", "yieldsim::critical_area", "throughput.um2_per_s", "bulk-24um", "edit-loop"),
    layer("ca.tiled_over_flat", "ratio", "lower", "yieldsim::critical_area", "throughput.um2_per_s", "bulk-24um", "edit-loop"),
    // litho::sim
    layer("litho.tile_ms", "ms", "lower", "litho::sim", "job_ms.p50 job_ms.tail", "farm-litho shard-2x", "bulk-24um"),
    layer("litho.tiled_over_flat", "ratio", "lower", "litho::sim", "job_ms.p50 job_ms.tail", "farm-litho shard-2x", "bulk-24um"),
    // dfm-cache
    layer("cache.hit_ratio", "ratio", "higher", "dfm-cache", "job_ms.p50", "edit-loop", "farm-litho shard-2x"),
    layer("cache.lookup_ms", "ms", "lower", "dfm-cache", "job_ms.p50", "edit-loop", "farm-litho shard-2x"),
    layer("cache.read_bytes_per_job", "bytes", "lower", "dfm-cache", "job_ms.p50", "edit-loop", "farm-litho shard-2x"),
    layer("cache.store_ms", "ms", "lower", "dfm-cache", "throughput.um2_per_s", "bulk-24um", "farm-litho shard-2x"),
    layer("cache.stores_per_job", "count/job", "lower", "dfm-cache", "throughput.um2_per_s", "bulk-24um", "farm-litho shard-2x"),
    layer("cache.corrupt_dropped", "count", "lower", "dfm-cache", "job_ms.p50", "-", "all"),
    // signoff::checkpoint
    layer("checkpoint.write_ms", "ms", "lower", "signoff::checkpoint", "throughput.um2_per_s", "bulk-24um", "farm-litho edit-loop shard-2x"),
    layer("checkpoint.bytes_per_job", "bytes", "lower", "signoff::checkpoint", "throughput.um2_per_s", "bulk-24um", "farm-litho edit-loop shard-2x"),
    layer("tile.decode_ms", "ms", "lower", "signoff::checkpoint", "job_ms.p50", "edit-loop", "farm-litho"),
    // JobContext::merge, signoff::report
    layer("job.merge_ms", "ms", "lower", "JobContext::merge", "job_ms.p50", "edit-loop", "-"),
    layer("report.render_ms", "ms", "lower", "signoff::report", "job_ms.p50", "edit-loop", "-"),
    // dfm-score, signoff::scoring
    layer("score.layout_metrics_ms", "ms", "lower", "signoff::scoring", "submit_ms.p50 job_ms.p50", "edit-loop", "bulk-24um farm-litho shard-2x"),
    layer("score.finalize_ms", "ms", "lower", "dfm-score", "job_ms.p50", "edit-loop", "bulk-24um farm-litho shard-2x"),
    // signoff::sched
    layer("sched.grants", "count/job", "lower", "signoff::sched", "job_ms.tail", "farm-litho", "edit-loop"),
    layer("sched.grant_share.heavy", "ratio", "higher", "signoff::sched", "job_ms.tail", "farm-litho", "bulk-24um edit-loop shard-2x"),
    // dfm-par
    layer("par.tiles_computed", "count/job", "lower", "dfm-par", "job_ms.tail throughput.um2_per_s", "farm-litho", "-"),
    layer("par.queue_depth_peak", "count", "lower", "dfm-par", "job_ms.tail", "farm-litho", "-"),
    layer("par.in_flight_peak", "count", "higher", "dfm-par", "throughput.um2_per_s", "farm-litho", "-"),
    // signoff::shard
    layer("shard.dispatch_bytes_per_job", "bytes", "lower", "signoff::shard", "job_ms.p50", "shard-2x", "farm-litho"),
    layer("shard.dispatch_parse_ms", "ms", "lower", "signoff::shard", "job_ms.p50", "shard-2x", "farm-litho"),
    layer("shard.pull_parse_ms", "ms", "lower", "signoff::shard", "job_ms.p50", "shard-2x", "farm-litho"),
    layer("shard.tiles_redispatched", "count", "lower", "signoff::shard", "job_ms.p50", "-", "all"),
    // the trace itself
    layer("trace.overhead_pct", "%", "lower", "trace", "-", "-", "-"),
    layer("trace.unattributed_ms", "ms", "lower", "trace", "-", "-", "-"),
    // workspace lines per crate (information only)
    loc("loc.bench"),
    loc("loc.cache"),
    loc("loc.check"),
    loc("loc.core"),
    loc("loc.dpt"),
    loc("loc.drc"),
    loc("loc.fault"),
    loc("loc.geom"),
    loc("loc.layout"),
    loc("loc.litho"),
    loc("loc.opc"),
    loc("loc.par"),
    loc("loc.pattern"),
    loc("loc.rng"),
    loc("loc.score"),
    loc("loc.signoff"),
    loc("loc.sim"),
    loc("loc.timing"),
    loc("loc.yieldsim"),
    loc("loc.root"),
    loc("loc.total"),
];

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    CATALOGUE.iter().find(|m| m.name == name)
}
