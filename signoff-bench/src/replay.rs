//! The traced replay: a run's jobs, one at a time on one thread,
//! through the public entry points the service composes — request
//! render and parse, `gds::from_bytes`, `JobContext::build` and
//! `cache_key`, `TileCache::lookup`/`store`, the tile-partial codec,
//! the three tile engines, `JobDir` writes, `merge`, `render_text` and
//! `score` — with a span around each call. The flat engines run once on
//! the first job's layout for the tiled/flat ratios.

use crate::inputs::JobInput;
use crate::trace::{SpanId, Tracer};
use crate::Workload;
use dfm_cache::TileCache;
use dfm_drc::{rule_tile_partial, DrcEngine, RulePartial};
use dfm_layout::gds;
use dfm_litho::{Condition, LithoSimulator};
use dfm_signoff::checkpoint::JobDir;
use dfm_signoff::proto::{Request, Response};
use dfm_signoff::report::CA_D0_PER_CM2;
use dfm_signoff::shard::partition_range;
use dfm_signoff::{
    decode_tile_partial, encode_tile_partial, JobContext, TileCacheMark, TileOutcome,
    TileOutcomeKind, TilePartial,
};
use dfm_yield::critical_area::{analyze_with_range, ca_tile_partial};
use dfm_yield::DefectModel;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Job ids of replayed jobs start here, apart from the timed phases'.
const REPLAY_JOB_BASE: u64 = 1_000_000;

/// Per-layer figures of one replay, by metric name.
pub type Figures = BTreeMap<&'static str, f64>;

/// Replays `jobs` (with their expected report text and score line) and
/// returns the per-layer figures, per job where the metric says so.
/// `template` seeds the replay cache with the rig's primed entries, so
/// hits and misses mirror the timed run.
pub fn replay(
    workload: Workload,
    jobs: &[(JobInput, (String, Option<String>))],
    dir: &Path,
    template: Option<&Path>,
    tr: &mut Tracer,
) -> Result<Figures, String> {
    dfm_par::with_threads(1, || replay_jobs(workload, jobs, dir, template, tr))
}

fn replay_jobs(
    workload: Workload,
    jobs: &[(JobInput, (String, Option<String>))],
    dir: &Path,
    template: Option<&Path>,
    tr: &mut Tracer,
) -> Result<Figures, String> {
    let cached = matches!(workload, Workload::Bulk | Workload::Edit);
    let wire = workload != Workload::Edit;
    let cache_dir = dir.join("replay-cache");
    std::fs::create_dir_all(&cache_dir).map_err(|e| format!("create replay cache: {e}"))?;
    if let Some(t) = template.filter(|_| cached) {
        for entry in std::fs::read_dir(t)
            .map_err(|e| format!("read template: {e}"))?
            .flatten()
        {
            std::fs::copy(entry.path(), cache_dir.join(entry.file_name()))
                .map_err(|e| format!("copy: {e}"))?;
        }
    }
    let cache = if cached {
        Some(TileCache::open(&cache_dir, None).map_err(|e| format!("open replay cache: {e}"))?)
    } else {
        None
    };
    let ckpt_root = dir.join("replay-ckpt");
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_default() += v;
    for (j, (input, (want_text, want_score))) in jobs.iter().enumerate() {
        let id = REPLAY_JOB_BASE + j as u64;
        let root = tr.open("replay.job", None, id);
        let at = Some(root);
        let (mut spec, mut gds_bytes) = (input.spec.clone(), input.gds.clone());
        if wire {
            let frame = tr.time("codec.encode", at, id, || {
                Request::Submit {
                    spec: spec.clone(),
                    gds: gds_bytes.clone(),
                    idem: None,
                }
                .to_json()
                .render()
            });
            add("frame_bytes", frame.len() as f64 + 1.0);
            match tr.time("codec.parse", at, id, || Request::parse(&frame))? {
                Request::Submit {
                    spec: s, gds: g, ..
                } => (spec, gds_bytes) = (s, g),
                other => return Err(format!("submit frame parsed as {other:?}")),
            }
        }
        let lib = tr
            .time("gds.parse", at, id, || gds::from_bytes(&gds_bytes))
            .map_err(|e| e.to_string())?;
        let ctx = tr.time("job.build", at, id, || JobContext::build(&spec, &gds_bytes))?;
        if spec.score.is_some() {
            tr.time("score.layout_metrics", at, id, || {
                let flat = lib.flatten_top().map_err(|e| e.to_string())?;
                Ok::<_, String>(dfm_signoff::scoring::layout_metrics(
                    &flat, &ctx.tech, &spec,
                ))
            })?;
        }
        let job_dir = (workload == Workload::Bulk).then(|| JobDir::new(&ckpt_root, id));
        if let Some(d) = &job_dir {
            let spec_json = spec.to_json().render();
            tr.time("checkpoint.persist", at, id, || {
                d.persist_submission(&spec_json, &gds_bytes)
            })?;
            add("ckpt_bytes", (spec_json.len() + gds_bytes.len()) as f64);
        }
        let n = ctx.tile_count();
        let keys = match &cache {
            Some(_) => tr.time("job.cache_key", at, id, || {
                (0..n).map(|t| ctx.cache_key(t)).collect()
            }),
            None => Vec::new(),
        };
        let sim = LithoSimulator::for_feature_size(spec.litho_feature);
        let mut partials = Vec::with_capacity(n);
        for tile in 0..n {
            let key = keys.get(tile).copied();
            let mut hit = None;
            if let (Some(c), Some(key)) = (&cache, key) {
                if let Some(bytes) = tr.time("cache.lookup", at, id, || c.lookup(key)) {
                    add("read_bytes", bytes.len() as f64);
                    hit = tr.time("tile.decode", at, id, || decode_tile_partial(&bytes, tile));
                }
            }
            let partial = match hit {
                Some(p) => p,
                None => {
                    let p = compute(&ctx, &sim, tile, tr, at, id);
                    add("rule_calls", p.drc.len() as f64);
                    add("tiles_computed", 1.0);
                    if let (Some(c), Some(key)) = (&cache, key) {
                        let enc = tr.time("tile.encode", at, id, || encode_tile_partial(&p));
                        tr.time("cache.store", at, id, || c.store(key, &enc));
                    }
                    p
                }
            };
            if let Some(d) = &job_dir {
                tr.time("checkpoint.write_tile", at, id, || d.write_tile(&partial))?;
                add("ckpt_bytes", encode_tile_partial(&partial).len() as f64);
            }
            partials.push(partial);
        }
        if workload == Workload::Shard {
            for k in 0..2 {
                let (lo, hi) = partition_range(n, 2, k);
                let frame = tr.time("shard.dispatch_encode", at, id, || {
                    Request::ShardDispatch {
                        coord: 1,
                        origin: id,
                        gen: 0,
                        spec: spec.clone(),
                        gds: gds_bytes.clone(),
                        ranges: Some(vec![(lo, hi)]),
                    }
                    .to_json()
                    .render()
                });
                add("dispatch_bytes", frame.len() as f64 + 1.0);
                tr.time("shard.dispatch_parse", at, id, || Request::parse(&frame))?;
                // The coordinator keeps pace with a shard's commits,
                // so each pull frame carries about one tile outcome.
                for (cursor, p) in partials[lo..hi].iter().enumerate() {
                    let outcome = TileOutcome {
                        tile: p.tile,
                        retries: Vec::new(),
                        kind: TileOutcomeKind::Done {
                            data: encode_tile_partial(p),
                            ckpt_degraded: false,
                            cache: TileCacheMark::None,
                        },
                    };
                    let pull = tr.time("shard.pull_encode", at, id, || {
                        let next = cursor as u64 + 1;
                        let settled = lo + cursor + 1 == hi;
                        Response::ShardOutcomes {
                            outcomes: vec![outcome],
                            next,
                            settled,
                            draining: false,
                        }
                        .to_json()
                        .render()
                    });
                    tr.time("shard.pull_parse", at, id, || Response::parse(&pull))?;
                }
            }
        }
        let report = tr.time("job.merge", at, id, || ctx.merge(&partials))?;
        let text = tr.time("report.render", at, id, || report.render_text(&spec));
        let score = match spec.score {
            Some(_) => tr.time("score.finalize", at, id, || {
                ctx.score(&report).map(|s| s.render())
            }),
            None => None,
        };
        tr.close(root);
        if &text != want_text || &score != want_score {
            return Err(format!("replayed job {j} differs from its flat reference"));
        }
    }
    let jobs_n = jobs.len().max(1) as f64;
    let ms = |tr: &Tracer, name: &str| tr.total(name).as_secs_f64() * 1e3 / jobs_n;
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let frame_mb = count("frame_bytes") / 1e6;
    let mut f = Figures::new();
    f.insert("codec.submit_parse_ms", ms(tr, "codec.parse"));
    f.insert(
        "codec.parse_ms_per_mb",
        if frame_mb > 0.0 {
            tr.total("codec.parse").as_secs_f64() * 1e3 / frame_mb
        } else {
            0.0
        },
    );
    f.insert("codec.encode_ms", ms(tr, "codec.encode"));
    f.insert(
        "client.frame_bytes_up_per_job",
        count("frame_bytes") / jobs_n,
    );
    f.insert("gds.parse_ms", ms(tr, "gds.parse"));
    f.insert("job.build_ms", ms(tr, "job.build"));
    f.insert("job.cache_key_ms", ms(tr, "job.cache_key"));
    f.insert("drc.tile_ms", ms(tr, "drc.tile"));
    f.insert("drc.rule_calls", count("rule_calls") / jobs_n);
    f.insert("ca.tile_ms", ms(tr, "ca.tile"));
    f.insert("litho.tile_ms", ms(tr, "litho.tile"));
    f.insert("cache.lookup_ms", ms(tr, "cache.lookup"));
    f.insert("cache.read_bytes_per_job", count("read_bytes") / jobs_n);
    f.insert("cache.store_ms", ms(tr, "cache.store"));
    f.insert(
        "checkpoint.write_ms",
        ms(tr, "checkpoint.persist") + ms(tr, "checkpoint.write_tile"),
    );
    f.insert("checkpoint.bytes_per_job", count("ckpt_bytes") / jobs_n);
    f.insert("tile.decode_ms", ms(tr, "tile.decode"));
    f.insert("job.merge_ms", ms(tr, "job.merge"));
    f.insert("report.render_ms", ms(tr, "report.render"));
    f.insert("score.layout_metrics_ms", ms(tr, "score.layout_metrics"));
    f.insert("score.finalize_ms", ms(tr, "score.finalize"));
    f.insert(
        "shard.dispatch_bytes_per_job",
        count("dispatch_bytes") / jobs_n,
    );
    f.insert("shard.dispatch_parse_ms", ms(tr, "shard.dispatch_parse"));
    f.insert("shard.pull_parse_ms", ms(tr, "shard.pull_parse"));
    f.insert("trace.unattributed_ms", tr.unattributed_ms("replay.job"));
    f.insert("replay.tiles_computed", count("tiles_computed") / jobs_n);
    if let Some((input, _)) = jobs.first() {
        ratios(input, &mut f)?;
    }
    Ok(f)
}

/// One tile's partial, engine by engine, the way
/// `JobContext::compute_tile` composes it.
fn compute(
    ctx: &JobContext,
    sim: &LithoSimulator,
    tile: usize,
    tr: &mut Tracer,
    at: Option<SpanId>,
    id: u64,
) -> TilePartial {
    let spec = &ctx.spec;
    let drc: Vec<RulePartial> = tr.time("drc.tile", at, id, || {
        ctx.deck
            .rules()
            .iter()
            .map(|rule| rule_tile_partial(rule, &ctx.layout, tile))
            .collect()
    });
    let ca = spec.ca_layer.map(|layer| {
        tr.time("ca.tile", at, id, || {
            ca_tile_partial(&ctx.layout, layer, spec.ca_range(), tile)
        })
    });
    let litho = spec.litho_layer.map(|layer| {
        tr.time("litho.tile", at, id, || {
            sim.printed_tile_piece(&ctx.layout, layer, Condition::nominal(), tile)
        })
    });
    let mut rects_peak = drc.iter().map(RulePartial::rect_count).max().unwrap_or(0);
    if let Some(ca) = &ca {
        rects_peak = rects_peak.max(ca.rects);
    }
    TilePartial {
        tile,
        drc,
        ca,
        litho,
        rects_peak,
    }
}

/// Tiled over flat time of each enabled engine on one layout: every
/// tile through the tile entry point against one flat run.
fn ratios(input: &JobInput, f: &mut Figures) -> Result<(), String> {
    let spec = &input.spec;
    let ctx = JobContext::build(spec, &input.gds)?;
    let lib = gds::from_bytes(&input.gds).map_err(|e| e.to_string())?;
    let flat = lib.flatten_top().map_err(|e| e.to_string())?;
    let n = ctx.tile_count();
    let secs = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut drc = 0.0;
    if spec.drc {
        let tiled = secs(&mut || {
            for tile in 0..n {
                for rule in ctx.deck.rules() {
                    std::hint::black_box(rule_tile_partial(rule, &ctx.layout, tile));
                }
            }
        });
        let whole = secs(&mut || {
            std::hint::black_box(DrcEngine::new(&ctx.deck).run(&flat));
        });
        drc = tiled / whole;
    }
    f.insert("drc.tiled_over_flat", drc);
    let mut ca = 0.0;
    if let Some(layer) = spec.ca_layer {
        let range = spec.ca_range();
        let tiled = secs(&mut || {
            for tile in 0..n {
                std::hint::black_box(ca_tile_partial(&ctx.layout, layer, range, tile));
            }
        });
        let defects = DefectModel::new(spec.ca_x0, CA_D0_PER_CM2);
        let whole = secs(&mut || {
            std::hint::black_box(analyze_with_range(&flat.region(layer), &defects, range));
        });
        ca = tiled / whole;
    }
    f.insert("ca.tiled_over_flat", ca);
    let mut litho = 0.0;
    if let Some(layer) = spec.litho_layer {
        let sim = LithoSimulator::for_feature_size(spec.litho_feature);
        let cond = Condition::nominal();
        let tiled = secs(&mut || {
            for tile in 0..n {
                std::hint::black_box(sim.printed_tile_piece(&ctx.layout, layer, cond, tile));
            }
        });
        let whole = secs(&mut || {
            std::hint::black_box(sim.printed(&flat.region(layer), cond));
        });
        litho = tiled / whole;
    }
    f.insert("litho.tiled_over_flat", litho);
    Ok(())
}
