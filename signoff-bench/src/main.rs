//! # dfm-signoff-bench — the signoff service benchmark
//!
//! One command runs one workload against `dfm-signoff`, hosted in this
//! process, byte-compares every report with the flat engines, and
//! prints its metrics as the last line of standard output:
//!
//! ```text
//! bash signoff-bench/run.sh --workload bulk-24um --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced (each for half the time), replays
//! the traced jobs through the layers' public entry points, and prints
//! the per-layer metrics. The workloads, metrics and their predictions
//! are described in `signoff-bench/README.md`.

mod drive;
mod inputs;
mod loc;
mod metrics;
mod replay;
mod rig;
mod stats;
mod trace;

use drive::{Feed, Outcome, Phase, Source};
use inputs::JobInput;
use rig::Rig;
use stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct 24 µm blocks over TCP, cache and checkpoints armed.
    Bulk,
    /// 6 µm litho jobs from two weighted tenants, one caller each.
    Farm,
    /// In-process score → edit → re-score loop on a primed cache.
    Edit,
    /// `farm-litho`'s jobs, closed loop, through a 2-shard coordinator.
    Shard,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk,
        Workload::Farm,
        Workload::Edit,
        Workload::Shard,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk-24um",
            Workload::Farm => "farm-litho",
            Workload::Edit => "edit-loop",
            Workload::Shard => "shard-2x",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Distinct 6 µm blocks in the `farm-litho` / `shard-2x` pool.
const POOL_SIZE: usize = 48;
/// Layouts in the `edit-loop` chain (one lap).
const EDIT_CHAIN: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Engine-internal parallelism of every service the benchmark hosts.
/// Tiles run in parallel on the pool workers; letting each tile's
/// engines fan out again (`dfm-par` defaults to one thread per CPU)
/// oversubscribes the two CPUs, which on the seed commit made
/// `farm-litho` both slower and far noisier from run to run.
const ENGINE_THREADS: &str = "1";

fn main() -> ExitCode {
    // Set before any thread exists or any `dfm-par` call reads it.
    std::env::set_var("DFM_THREADS", ENGINE_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("signoff-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(lines) => {
            print!("{lines}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("signoff-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Printed metrics, by name, in print order.
type Metrics = Vec<(&'static str, f64)>;

/// Expected report text and score line per reference key.
enum Refs {
    /// Precomputed for a pool or chain.
    Table(Vec<(String, Option<String>)>),
    /// `bulk-24um`: computed on demand per block, memoised.
    Bulk(u64, BTreeMap<usize, (String, Option<String>)>),
}

impl Refs {
    fn get(&mut self, key: usize) -> Result<(String, Option<String>), String> {
        match self {
            Refs::Table(t) => t
                .get(key)
                .cloned()
                .ok_or_else(|| format!("no reference {key}")),
            Refs::Bulk(seed, memo) => {
                if let Some(r) = memo.get(&key) {
                    return Ok(r.clone());
                }
                let r = (flat_text(&inputs::bulk_job(*seed, key as u64))?, None);
                memo.insert(key, r.clone());
                Ok(r)
            }
        }
    }
}

fn flat_text(input: &JobInput) -> Result<String, String> {
    let lib = dfm_layout::gds::from_bytes(&input.gds).map_err(|e| e.to_string())?;
    Ok(dfm_signoff::flat_report(&input.spec, &lib)?.render_text(&input.spec))
}

fn flat_scored(input: &JobInput) -> Result<(String, Option<String>), String> {
    let lib = dfm_layout::gds::from_bytes(&input.gds).map_err(|e| e.to_string())?;
    let (report, score) = dfm_signoff::flat_score(&input.spec, &lib)?;
    Ok((report.render_text(&input.spec), Some(score.render())))
}

/// The workload's inputs: its feed, references, and (for `edit-loop`)
/// the base layout the set-up primes.
struct Workbench {
    feed: Feed,
    refs: Refs,
    edit_base: Option<JobInput>,
}

impl Workbench {
    fn new(workload: Workload, seed: u64) -> Result<Workbench, String> {
        Ok(match workload {
            Workload::Bulk => Workbench {
                feed: Feed {
                    source: Source::Bulk { seed },
                    next: 0,
                },
                refs: Refs::Bulk(seed, BTreeMap::new()),
                edit_base: None,
            },
            Workload::Farm | Workload::Shard => {
                let pool = inputs::litho_pool(seed, POOL_SIZE);
                let refs = pool
                    .iter()
                    .map(|i| Ok((flat_text(i)?, None)))
                    .collect::<Result<_, String>>()?;
                Workbench {
                    feed: Feed {
                        source: Source::Pool { seed, pool },
                        next: 0,
                    },
                    refs: Refs::Table(refs),
                    edit_base: None,
                }
            }
            Workload::Edit => {
                let (base, chain) = inputs::edit_chain(seed, EDIT_CHAIN);
                let chain: Vec<JobInput> = chain.into_iter().map(|(i, _)| i).collect();
                let refs = chain
                    .iter()
                    .map(flat_scored)
                    .collect::<Result<_, String>>()?;
                Workbench {
                    feed: Feed {
                        source: Source::Edit { chain },
                        next: 0,
                    },
                    refs: Refs::Table(refs),
                    edit_base: Some(base),
                }
            }
        })
    }
}

/// Compares every received report with its reference and tallies the
/// phase. Returns the tally and, per record, whether it verified.
fn verify(phase: &Phase, refs: &mut Refs) -> Result<(Tally, Vec<bool>), String> {
    let mut tally = Tally {
        attempted: phase.records.len() as u64,
        ..Tally::default()
    };
    let mut ok = Vec::with_capacity(phase.records.len());
    for r in &phase.records {
        let verified = match &r.outcome {
            Outcome::Received => {
                let (text, score) = refs.get(r.key)?;
                let same = r.text == text && r.score == score;
                if same {
                    tally.verified += 1;
                } else {
                    tally.mismatched += 1;
                    eprintln!(
                        "signoff-bench: job {} (input {}) differs from its flat reference",
                        r.job, r.key
                    );
                }
                same
            }
            Outcome::Refused(e) => {
                tally.refused += 1;
                eprintln!("signoff-bench: input {} refused: {e}", r.key);
                false
            }
            Outcome::Failed(e) => {
                tally.failed += 1;
                eprintln!("signoff-bench: job {} failed: {e}", r.job);
                false
            }
            Outcome::Pending => {
                tally.failed += 1;
                eprintln!("signoff-bench: job {} never settled", r.job);
                false
            }
        };
        ok.push(verified);
    }
    Ok((tally, ok))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// End-to-end figures of one verified phase.
struct EndToEnd {
    job_p50: f64,
    tail: stats::Tail,
    submit_p50: f64,
    throughput: f64,
    ok_frac: f64,
}

impl EndToEnd {
    /// The end-to-end metrics, in catalogue order.
    fn metrics(&self, peak_rss_mb: f64, setup_s: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("job_ms.p50", self.job_p50),
            ("job_ms.tail", self.tail.value),
            ("submit_ms.p50", self.submit_p50),
            ("throughput.um2_per_s", self.throughput),
            ("ok_frac", self.ok_frac),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ]
    }
}

fn end_to_end(phase: &Phase, tally: &Tally, ok: &[bool]) -> EndToEnd {
    let verified = || {
        phase
            .records
            .iter()
            .zip(ok)
            .filter(|(_, &v)| v)
            .map(|(r, _)| r)
    };
    let jobs: Vec<f64> = verified()
        .filter_map(|r| r.done.map(|d| ms(d - r.sent)))
        .collect();
    let submits: Vec<f64> = phase
        .records
        .iter()
        .filter_map(|r| r.acked.map(|a| ms(a - r.sent)))
        .collect();
    let area: f64 = verified().map(|r| r.area_um2).sum();
    let wall = phase.wall.as_secs_f64();
    EndToEnd {
        job_p50: stats::median(&jobs).unwrap_or(0.0),
        tail: stats::tail(&jobs).unwrap_or(stats::Tail {
            value: 0.0,
            pct: 0.0,
            samples: 0,
            short: true,
        }),
        submit_p50: stats::median(&submits).unwrap_or(0.0),
        throughput: if wall > 0.0 { area / wall } else { 0.0 },
        ok_frac: if tally.attempted == 0 {
            0.0
        } else {
            tally.verified as f64 / tally.attempted as f64
        },
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Snapshot of the service-side counters the traced run differences.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    stores: u64,
    corrupt: u64,
    grants: u64,
    redispatched: u64,
}

fn counters(rig: &Rig) -> Counters {
    let cache = rig.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let r = rig.retired.cache;
    Counters {
        stores: cache.stores + r.stores,
        corrupt: cache.corrupt_dropped + r.corrupt_dropped,
        grants: rig
            .services()
            .iter()
            .map(|s| s.grant_log().len() as u64)
            .sum::<u64>()
            + rig.retired.grants,
        redispatched: rig.front.shard_stats().map_or(0, |s| s.tiles_redispatched),
    }
}

/// Share of grants that went to the weight-2 tenant while both tenants
/// were queued. A tenant is queued at a grant when the grant falls
/// between the first and last grant of one of its jobs (that job still
/// had ungranted tiles).
fn heavy_share(log: &[dfm_signoff::Grant]) -> f64 {
    let mut spans: BTreeMap<u64, (String, u64, u64)> = BTreeMap::new();
    for g in log {
        let e = spans
            .entry(g.job)
            .or_insert_with(|| (g.tenant.clone(), g.seq, g.seq));
        e.2 = g.seq;
    }
    let queued = |tenant: &str, seq: u64| {
        spans
            .values()
            .any(|(t, lo, hi)| t == tenant && *lo <= seq && seq <= *hi)
    };
    let (heavy, light) = (inputs::TENANTS[0].0, inputs::TENANTS[1].0);
    let contended: Vec<&dfm_signoff::Grant> = log
        .iter()
        .filter(|g| queued(heavy, g.seq) && queued(light, g.seq))
        .collect();
    if contended.is_empty() {
        return 0.0;
    }
    contended.iter().filter(|g| g.tenant == heavy).count() as f64 / contended.len() as f64
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    tally: &Tally,
    metrics: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failures()
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let m =
            metrics::find(name).ok_or_else(|| format!("metric {name} is not in the catalogue"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(*value),
            m.unit
        );
    }
    out.push_str("}}\n");
    Ok(out)
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    // Inputs and references: outside set-up and timing.
    let canonical = inputs::canonical();
    let canonical_text = flat_text(&canonical)?;
    let golden = dfm_cache::fnv1a_64(canonical_text.as_bytes()) == inputs::GOLDEN_REPORT_DIGEST;
    if !golden {
        eprintln!("signoff-bench: preflight: the canonical flat report misses the golden digest");
    }
    let mut bench = Workbench::new(w, args.seed)?;
    // Set-up: build and prime the rig, timed; repeated for the median.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut preflight = golden;
    let mut rig = None;
    for k in 0..repeats {
        let t = Instant::now();
        let (r, text) = Rig::setup(w, &work.join(format!("rig-{k}")), bench.edit_base.as_ref())?;
        setups.push(t.elapsed().as_secs_f64());
        if text != canonical_text {
            preflight = false;
            eprintln!("signoff-bench: preflight: the service's canonical report differs from the flat one");
        }
        if let Some(old) = rig.replace(r) {
            old.teardown();
        }
    }
    let mut rig = rig.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-up samples");
    let loc = loc::per_crate(Path::new("."));
    let mut info = format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpus\": {}, \"preflight\": {preflight}, \"setup_s\": {:?}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        setups
    );
    let (tally, metrics) = if args.trace {
        traced(args, &mut bench, &mut rig, work, &mut info)?
    } else {
        let mut tracer = Tracer::new(false);
        let phase = drive::phase(&mut rig, &mut bench.feed, args.seconds, &mut tracer)?;
        let (tally, ok) = verify(&phase, &mut bench.refs)?;
        let e = end_to_end(&phase, &tally, &ok);
        describe(&mut info, &phase, &tally, &e);
        (tally, e.metrics(peak_rss_mb(), setup_s))
    };
    rig.teardown();
    let loc_total = loc
        .iter()
        .find(|(n, _)| n == "loc.total")
        .map_or(0, |(_, v)| *v);
    let _ = writeln!(info, ", \"loc_total\": {loc_total}}}}}");
    let correct = preflight && tally.failures() == 0 && tally.balanced() && tally.verified > 0;
    Ok(info + &result_line(correct, &tally, &metrics)?)
}

/// Appends a phase's sample counts, tail rule and failure breakdown to
/// the info line.
fn describe(info: &mut String, phase: &Phase, tally: &Tally, e: &EndToEnd) {
    let _ = write!(
        info,
        ", \"samples\": {}, \"tail_pct\": {}, \"tail_short\": {}, \"fail_frac\": {}, \"refused\": {}, \"failed\": {}, \"mismatched\": {}, \"wall_s\": {}",
        e.tail.samples,
        num(e.tail.pct),
        e.tail.short,
        num(tally.fail_frac()),
        tally.refused,
        tally.failed,
        tally.mismatched,
        num(phase.wall.as_secs_f64())
    );
}

/// Replayed jobs per traced run (the 24 µm frame alone parses for
/// seconds on the seed commit).
fn replay_jobs(w: Workload) -> usize {
    if w == Workload::Bulk {
        1
    } else {
        6
    }
}

fn traced(
    args: &Args,
    bench: &mut Workbench,
    rig: &mut Rig,
    work: &Path,
    info: &mut String,
) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    // 1. The untraced half, as the baseline of the tracing overhead.
    let mut off = Tracer::new(false);
    let base = drive::phase(rig, &mut bench.feed, half, &mut off)?;
    let (base_tally, base_ok) = verify(&base, &mut bench.refs)?;
    let base_e = end_to_end(&base, &base_tally, &base_ok);
    // 2. The traced half: spans around every call the driver makes.
    if let Source::Edit { .. } = bench.feed.source {
        bench.feed.next = 0;
        rig.next_lap()?;
    }
    let before = counters(rig);
    let logs_before: Vec<usize> = rig.services().iter().map(|s| s.grant_log().len()).collect();
    let origin = Instant::now();
    let mut tracer = Tracer::new(true);
    let phase = drive::phase(rig, &mut bench.feed, half, &mut tracer)?;
    let (tally, ok) = verify(&phase, &mut bench.refs)?;
    let e = end_to_end(&phase, &tally, &ok);
    describe(info, &phase, &tally, &e);
    let after = counters(rig);
    let jobs = phase.records.len().max(1) as f64;
    let mut grants = Vec::new();
    for (s, from) in rig.services().iter().zip(&logs_before) {
        grants.extend(s.grant_log().into_iter().skip(*from));
    }
    let overshoot: Vec<f64> = phase
        .records
        .iter()
        .filter_map(|r| {
            Some(ms(r
                .settled_seen?
                .saturating_duration_since(*phase.settles.get(&r.job)?)))
        })
        .collect();
    let pools: Vec<_> = rig.services().iter().map(|s| s.pool_stats()).collect();
    // Hit ratio of the jobs themselves (the lap warm-ups also hit).
    let tiles: usize = phase.records.iter().map(|r| r.tiles_total).sum();
    let computed: usize = phase.records.iter().map(|r| r.tiles_computed).sum();
    // 3. The replay of the traced jobs, one entry point at a time.
    let picked: Vec<(JobInput, (String, Option<String>))> = phase
        .records
        .iter()
        .take(replay_jobs(w))
        .map(|r| Ok((bench.feed.input(r.key), bench.refs.get(r.key)?)))
        .collect::<Result<_, String>>()?;
    let template = rig.template_dir();
    let mut rt = Tracer::new(true);
    let figures = replay::replay(
        w,
        &picked,
        &work.join("replay"),
        template.as_deref(),
        &mut rt,
    )?;
    eprint!("signoff-bench: driver spans\n{}", tracer.summary());
    eprint!("signoff-bench: replay spans\n{}", rt.summary());
    write_spans(w, args.seed, origin, &tracer, &rt);
    let mut m: BTreeMap<&'static str, f64> = figures.into_iter().collect();
    m.insert(
        "client.wait_overshoot_ms.p50",
        stats::median(&overshoot).unwrap_or(0.0),
    );
    m.insert(
        "cache.hit_ratio",
        if rig.cache.is_none() || tiles == 0 {
            0.0
        } else {
            1.0 - computed as f64 / tiles as f64
        },
    );
    m.insert(
        "cache.stores_per_job",
        (after.stores - before.stores) as f64 / jobs,
    );
    m.insert(
        "cache.corrupt_dropped",
        (after.corrupt - before.corrupt) as f64,
    );
    m.insert("sched.grants", (after.grants - before.grants) as f64 / jobs);
    m.insert("sched.grant_share.heavy", heavy_share(&grants));
    m.insert(
        "par.tiles_computed",
        phase
            .records
            .iter()
            .map(|r| r.tiles_computed as f64)
            .sum::<f64>()
            / jobs,
    );
    m.insert(
        "par.queue_depth_peak",
        pools
            .iter()
            .map(|p| p.queue_depth_peak)
            .chain([rig.retired.queue_depth_peak])
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "par.in_flight_peak",
        pools
            .iter()
            .map(|p| p.in_flight_peak)
            .chain([rig.retired.in_flight_peak])
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "shard.tiles_redispatched",
        (after.redispatched - before.redispatched) as f64,
    );
    m.insert(
        "trace.overhead_pct",
        if base_e.job_p50 > 0.0 {
            (e.job_p50 / base_e.job_p50 - 1.0) * 100.0
        } else {
            0.0
        },
    );
    let loc = loc::per_crate(Path::new("."));
    for (name, lines) in &loc {
        if let Some(metric) = metrics::find(name) {
            m.insert(metric.name, *lines as f64);
        }
    }
    let metrics: Vec<(&'static str, f64)> = metrics::CATALOGUE
        .iter()
        .filter(|c| c.kind == metrics::Kind::PerLayer)
        .map(|c| (c.name, m.get(c.name).copied().unwrap_or(0.0)))
        .collect();
    Ok((base_tally.plus(tally), metrics))
}

/// Writes every span of the traced run to `.bench_out/`, one JSON line
/// each (driver spans first, then the replay's).
fn write_spans(w: Workload, seed: u64, origin: Instant, driver: &Tracer, replay: &Tracer) {
    let dir = Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
        let _ = std::fs::write(path, driver.jsonl(origin) + &replay.jsonl(origin));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_signoff::codec::parse_json;
    use metrics::{Kind, CATALOGUE};

    type Json = dfm_bench::json::JsonValue;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Json) -> &str {
        v.as_str().expect("a string")
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn list(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }

    /// `(name, unit, better)` of every entry of a metric list.
    fn entries(v: &Json) -> Vec<(&str, &str, &str)> {
        list(v)
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                )
            })
            .collect()
    }

    fn catalogue(kind: Kind) -> Vec<(&'static str, &'static str, &'static str)> {
        CATALOGUE
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric_the_command_prints() {
        let b = benchmark_json();
        assert_eq!(
            keys(&b),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = list(field(&b, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for w in list(field(&b, "workloads")) {
            assert_eq!(keys(w), ["name", "why"]);
        }
        assert_eq!(entries(field(&b, "end_to_end")), catalogue(Kind::EndToEnd));
        assert_eq!(entries(field(&b, "per_layer")), catalogue(Kind::PerLayer));
        for m in list(field(&b, "end_to_end")) {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        }
        for m in list(field(&b, "per_layer")) {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        let setup = list(field(&b, "end_to_end"))
            .iter()
            .find(|m| text(field(m, "name")) == "setup_s");
        let bound = |m: &Json| field(m, "bound").as_f64().expect("a number");
        let largest = list(field(&b, "end_to_end"))
            .iter()
            .map(bound)
            .fold(0.0, f64::max);
        assert_eq!(
            bound(setup.expect("setup_s is an end-to-end metric")),
            largest
        );
    }

    #[test]
    fn the_untraced_run_prints_exactly_the_end_to_end_catalogue() {
        let e = EndToEnd {
            job_p50: 1.0,
            tail: stats::Tail {
                value: 2.0,
                pct: 90.0,
                samples: 100,
                short: false,
            },
            submit_p50: 0.5,
            throughput: 3.0,
            ok_frac: 1.0,
        };
        let printed: Vec<&str> = e.metrics(10.0, 0.2).into_iter().map(|(n, _)| n).collect();
        let want: Vec<&str> = catalogue(Kind::EndToEnd)
            .into_iter()
            .map(|(n, ..)| n)
            .collect();
        assert_eq!(printed, want);
    }

    #[test]
    fn every_per_layer_metric_carries_its_prediction() {
        let workloads = Workload::ALL.map(Workload::name);
        for m in CATALOGUE.iter().filter(|m| m.kind == Kind::PerLayer) {
            assert!(
                !m.layer.is_empty() && !m.moves.is_empty(),
                "{} lacks a layer or prediction",
                m.name
            );
            for w in m.mostly_on.split(' ').chain(m.no_work_on.split(' ')) {
                assert!(
                    w == "-" || w == "all" || workloads.contains(&w),
                    "{}: unknown workload {w}",
                    m.name
                );
            }
            for e in m.moves.split(' ') {
                let known = CATALOGUE
                    .iter()
                    .any(|c| c.kind == Kind::EndToEnd && c.name == e);
                assert!(known || m.moves == "-", "{}: moves {e}?", m.name);
            }
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 4,
            verified: 3,
            mismatched: 1,
            ..Tally::default()
        };
        let line =
            result_line(false, &tally, &[("job_ms.p50", 12.5), ("setup_s", 0.25)]).expect("line");
        let v = parse_json(line.trim()).expect("the result line is JSON");
        assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "attempted").as_f64(), Some(4.0));
        assert_eq!(field(&v, "failed").as_f64(), Some(1.0));
        let job = field(field(&v, "metrics"), "job_ms.p50");
        assert_eq!(keys(job), ["value", "unit"]);
        assert_eq!(text(field(job, "unit")), "ms");
        assert!(result_line(true, &tally, &[("no.such.metric", 1.0)]).is_err());
    }

    #[test]
    fn the_heavy_share_counts_only_contended_grants() {
        let g = |seq, tenant: &str, job| dfm_signoff::Grant {
            seq,
            tenant: tenant.to_string(),
            job,
            tile: 0,
            priority: 0,
        };
        // Job 1 (heavy) spans grants 0..=3, job 2 (light) spans 2..=4:
        // grants 2 and 3 are contended, one to each tenant.
        let log = [
            g(0, "heavy", 1),
            g(1, "heavy", 1),
            g(2, "light", 2),
            g(3, "heavy", 1),
            g(4, "light", 2),
        ];
        assert_eq!(heavy_share(&log), 0.5);
        assert_eq!(heavy_share(&log[..2]), 0.0);
    }
}
