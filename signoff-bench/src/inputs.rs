//! Seeded workload inputs: layouts, specs, edits and pool picks.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed gives byte-identical inputs. The service only ever sees the GDS
//! bytes and specs made here.

use dfm_geom::Rect;
use dfm_layout::{gds, generate, layers, Library, Technology};
use dfm_rand::{Rng, Seed};
use dfm_signoff::JobSpec;

/// Tile side of every workload spec, nm.
pub const TILE: i64 = 1700;
/// Tile halo of every workload spec, nm (the `JobSpec` default). At
/// halo 64 tiled DRC refuses to certify many seeded blocks because the
/// `VIA1.EN.METAL1` interaction range crosses the window; at 512 it
/// certifies every block we generate.
pub const HALO: i64 = 512;
/// The fair-share weights of the two `farm-litho` tenants.
pub const TENANTS: [(&str, u64); 2] = [("heavy", 2), ("light", 1)];

/// Salts that keep each input stream independent of the others.
const SALT_BULK: u64 = 1;
const SALT_POOL: u64 = 2;
const SALT_EDIT_BASE: u64 = 3;
const SALT_EDITS: u64 = 4;
const SALT_PICKS: u64 = 5;

/// One job's input: the spec and the GDS bytes sent to the service.
#[derive(Clone, Debug, PartialEq)]
pub struct JobInput {
    /// Spec as submitted.
    pub spec: JobSpec,
    /// GDSII stream bytes as submitted.
    pub gds: Vec<u8>,
    /// Layout area of the block, µm².
    pub area_um2: f64,
}

/// A seeded routed block of side `side` nm.
pub fn block(side: i64, seed: u64) -> Library {
    let params = generate::RoutedBlockParams {
        width: side,
        height: side,
        ..Default::default()
    };
    generate::routed_block(&Technology::n65(), params, seed)
}

fn bytes(lib: &Library) -> Vec<u8> {
    gds::to_bytes(lib).expect("a generated block serialises")
}

fn area_um2(side: i64) -> f64 {
    (side as f64 / 1000.0).powi(2)
}

fn base_spec(name: String) -> JobSpec {
    JobSpec {
        name,
        tech: "n65".to_string(),
        tile: TILE,
        halo: HALO,
        ..JobSpec::default()
    }
}

/// `bulk-24um` job `i`: a distinct 24 µm block, DRC + CA on METAL1.
pub fn bulk_job(seed: u64, i: u64) -> JobInput {
    const SIDE: i64 = 24_000;
    let lib = block(SIDE, Seed(seed).derive(SALT_BULK).derive(i).0);
    JobInput {
        spec: base_spec(format!("bulk-{i}")),
        gds: bytes(&lib),
        area_um2: area_um2(SIDE),
    }
}

/// Side of the `farm-litho` / `shard-2x` blocks, nm.
pub const POOL_SIDE: i64 = 6_000;

/// The `farm-litho` / `shard-2x` input pool: `n` distinct 6 µm blocks,
/// DRC + CA + litho on METAL1, billed to the tenants in turn (entry `i`
/// to `TENANTS[i % 2]`).
pub fn litho_pool(seed: u64, n: usize) -> Vec<JobInput> {
    let mut rng = Rng::from_seed(Seed(seed).derive(SALT_POOL));
    (0..n)
        .map(|i| {
            let lib = block(POOL_SIDE, rng.next_u64());
            let tenant = TENANTS[i % TENANTS.len()].0;
            let spec = JobSpec {
                litho_layer: Some(layers::METAL1),
                tenant: tenant.to_string(),
                ..base_spec(format!("farm-{i}"))
            };
            JobInput {
                spec,
                gds: bytes(&lib),
                area_um2: area_um2(POOL_SIDE),
            }
        })
        .collect()
}

/// Side of the `edit-loop` block, nm. On a 12 µm block (49 tiles) a
/// job took about 35 ms, short enough that host stalls of a few tens
/// of milliseconds decided `job_ms.tail`: over five seeds its quartiles
/// spread 0.30 of the median. At 24 µm (196 tiles) a job takes about
/// 150 ms of the same cached work and the spread was 0.09.
pub const EDIT_SIDE: i64 = 24_000;

/// Pause of the `edit-loop` caller between a report and its next edit,
/// standing in for the designer or fix search choosing that edit. It
/// is excluded from the timed wall time. It keeps a 20 s run near 70
/// jobs, so the tail rule lands near the 86th percentile rather than
/// among the rare host stalls.
pub const EDIT_THINK: std::time::Duration = std::time::Duration::from_millis(100);

/// The `edit-loop` spec: DRC + CA + litho on METAL1 plus the default
/// manufacturability score.
pub fn edit_spec() -> JobSpec {
    JobSpec {
        litho_layer: Some(layers::METAL1),
        score: Some("default".to_string()),
        ..base_spec("edit".to_string())
    }
}

/// The `edit-loop` chain: the primed base layout followed by `n`
/// layouts, each the previous one plus one small seeded METAL1 rect.
/// Each rect lies in a seeded tile, farther than the job's cache-key
/// halo from every tile border, so every edit dirties exactly one tile
/// and no seed's chain is cheaper than another's by touching fewer.
pub fn edit_chain(seed: u64, n: usize) -> (JobInput, Vec<(JobInput, Library)>) {
    let mut lib = block(EDIT_SIDE, Seed(seed).derive(SALT_EDIT_BASE).0);
    let base = JobInput {
        spec: edit_spec(),
        gds: bytes(&lib),
        area_um2: area_um2(EDIT_SIDE),
    };
    let ctx =
        dfm_signoff::JobContext::build(&base.spec, &base.gds).expect("the base layout builds");
    let margin = ctx.content_halo() + 1;
    let (max_w, max_h) = (200, 400);
    let cores: Vec<Rect> = (0..ctx.tile_count())
        .map(|t| ctx.layout.view(t, 0).core())
        .filter(|c| c.x1 - c.x0 >= 2 * margin + max_w && c.y1 - c.y0 >= 2 * margin + max_h)
        .collect();
    assert!(
        !cores.is_empty(),
        "no tile can hold an edit away from its borders"
    );
    let mut rng = Rng::from_seed(Seed(seed).derive(SALT_EDITS));
    let top = lib.top().expect("a generated block has a top cell");
    let chain = (0..n)
        .map(|_| {
            let core = cores[rng.range(0..cores.len())];
            let w = rng.range(70..max_w);
            let h = rng.range(70..max_h);
            let x = rng.range(core.x0 + margin..core.x1 - margin - w + 1);
            let y = rng.range(core.y0 + margin..core.y1 - margin - h + 1);
            lib.cell_mut(top)
                .add_rect(layers::METAL1, Rect::new(x, y, x + w, y + h));
            let input = JobInput {
                spec: edit_spec(),
                gds: bytes(&lib),
                area_um2: area_um2(EDIT_SIDE),
            };
            (input, lib.clone())
        })
        .collect();
    (base, chain)
}

/// The pool entry caller `lane` of `lanes` submits as its `i`-th job:
/// a seeded pick among the entries `lane`, `lane + lanes`, … — on
/// `farm-litho` exactly the entries billed to that caller's tenant.
pub fn pool_pick(seed: u64, lane: usize, lanes: usize, i: usize, pool: usize) -> usize {
    let slots = (pool / lanes) as u64;
    let draw = Seed(seed)
        .derive(SALT_PICKS)
        .derive(lane as u64)
        .derive(i as u64)
        .0;
    lane + lanes * (draw % slots) as usize
}

/// The canonical job the golden digest pins: the 6 µm block of seed 47
/// at tile 1700, halo 64, DRC + CA + litho on METAL1.
pub fn canonical() -> JobInput {
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    let lib = generate::routed_block(&Technology::n65(), params, 47);
    let spec = JobSpec {
        name: "determinism".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    };
    JobInput {
        spec,
        gds: bytes(&lib),
        area_um2: area_um2(6_000),
    }
}

/// FNV-1a digest of the canonical report text the golden pin names.
pub const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        assert_eq!(bulk_job(7, 3), bulk_job(7, 3));
        assert_eq!(litho_pool(7, 3), litho_pool(7, 3));
        let (a_base, a) = edit_chain(7, 3);
        let (b_base, b) = edit_chain(7, 3);
        assert_eq!(a_base, b_base);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0));
        assert_eq!(pool_pick(7, 1, 2, 4, 16), pool_pick(7, 1, 2, 4, 16));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(bulk_job(7, 0).gds, bulk_job(8, 0).gds);
        assert_ne!(bulk_job(7, 0).gds, bulk_job(7, 1).gds);
        assert_ne!(litho_pool(7, 2), litho_pool(8, 2));
        assert_ne!(edit_chain(7, 1).0, edit_chain(8, 1).0);
        assert_ne!(edit_chain(7, 2).1[1].0, edit_chain(8, 2).1[1].0);
        let picks = |seed| {
            (0..8)
                .map(|i| pool_pick(seed, 0, 1, i, 48))
                .collect::<Vec<_>>()
        };
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn every_edit_dirties_exactly_one_tile() {
        let (base, chain) = edit_chain(11, 4);
        let keys = |input: &JobInput| {
            let ctx = dfm_signoff::JobContext::build(&input.spec, &input.gds).expect("context");
            (0..ctx.tile_count())
                .map(|t| ctx.cache_key(t))
                .collect::<Vec<_>>()
        };
        let mut prev = keys(&base);
        for (input, lib) in &chain {
            assert_eq!(bytes(lib), input.gds);
            let next = keys(input);
            assert_eq!(next.len(), prev.len());
            assert_eq!(next.iter().zip(&prev).filter(|(a, b)| a != b).count(), 1);
            prev = next;
        }
    }

    #[test]
    fn each_tenant_lane_picks_only_its_own_entries() {
        let pool = litho_pool(5, 6);
        for (lane, (tenant, _)) in TENANTS.iter().enumerate() {
            for i in 0..20 {
                let k = pool_pick(5, lane, 2, i, pool.len());
                assert!(k < pool.len() && k % 2 == lane);
                assert_eq!(pool[k].spec.tenant, *tenant);
            }
        }
        assert!((0..40)
            .map(|i| pool_pick(5, 0, 1, i, 6))
            .any(|k| k % 2 == 1));
    }

    #[test]
    fn the_canonical_job_is_the_pinned_one() {
        let c = canonical();
        let lib = gds::from_bytes(&c.gds).expect("parse");
        let text = dfm_signoff::flat_report(&c.spec, &lib)
            .expect("flat")
            .render_text(&c.spec);
        assert_eq!(dfm_cache::fnv1a_64(text.as_bytes()), GOLDEN_REPORT_DIGEST);
    }
}
