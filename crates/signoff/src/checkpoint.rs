//! On-disk checkpointing: one directory per job, one file per
//! completed tile.
//!
//! Layout under the checkpoint root:
//!
//! ```text
//! job-<id>/
//!   spec.json     — the JobSpec, JSON
//!   layout.gds    — the submitted GDS bytes, verbatim
//!   tile-<i>.bin  — one TilePartial (see below)
//! ```
//!
//! A tile file is a [`dfm_cache::durable`] sealed frame with magic
//! `DFMS`, version 2, and a fixed-width little-endian body: the tile
//! index, then the encoded partial. Every file here — tiles, spec.json
//! and layout.gds — goes through the durable staged write (temp file +
//! sync + rename), so a crash mid-write leaves either the old state or
//! nothing; readers treat any file with a broken seal as absent (the
//! tile is simply recomputed). That makes kill -9 at any instant safe:
//! the resumed job loads the surviving tile set and recomputes exactly
//! the rest.
//! Tile files of an earlier version do not unseal, so their tiles are
//! recomputed once.

use crate::job::TilePartial;
use dfm_cache::durable::{self, StoreStage};
use dfm_drc::{AreaPiece, PairFragment, RulePartial, Violation};
use dfm_fault::FaultPlane;
use dfm_geom::Rect;
use dfm_yield::critical_area::CaTilePartial;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DFMS";
const VERSION: u32 = 2;

/// Crash site: spec.json durable, layout.gds not yet written.
pub const SITE_SUBMIT_SPEC: &str = "signoff.ckpt.submit.spec";
/// Crash site: full submission durable, success never reported.
pub const SITE_SUBMIT_GDS: &str = "signoff.ckpt.submit.gds";
/// Crash site: tile tmp file written, rename not yet done.
pub const SITE_TILE_TMP: &str = "signoff.ckpt.tile.tmp";
/// Crash site: tile file renamed into place, success never reported.
pub const SITE_TILE_RENAME: &str = "signoff.ckpt.tile.rename";

/// Paths of one job's checkpoint directory.
#[derive(Clone, Debug)]
pub struct JobDir {
    root: PathBuf,
}

impl JobDir {
    /// The directory for job `id` under `root` (not created yet).
    pub fn new(root: &Path, id: u64) -> JobDir {
        JobDir { root: root.join(format!("job-{id}")) }
    }

    /// The job directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Creates the directory and persists the submission (spec +
    /// GDS), so a restarted service can rebuild the job from disk.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics.
    pub fn persist_submission(&self, spec_json: &str, gds: &[u8]) -> Result<(), String> {
        self.persist_submission_probed(spec_json, gds, None, 0)
    }

    /// [`JobDir::persist_submission`] with crash probes between the
    /// durable steps: `plane` may kill the operation after spec.json
    /// is durable ([`SITE_SUBMIT_SPEC`]) or after the whole submission
    /// is durable but before success is reported
    /// ([`SITE_SUBMIT_GDS`]). `key` scopes the probes (the job id).
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics, or the injected crash.
    pub fn persist_submission_probed(
        &self,
        spec_json: &str,
        gds: &[u8],
        plane: Option<&FaultPlane>,
        key: u64,
    ) -> Result<(), String> {
        fs::create_dir_all(&self.root).map_err(|e| format!("create {:?}: {e}", self.root))?;
        let files = [
            ("spec.json", spec_json.as_bytes(), SITE_SUBMIT_SPEC),
            ("layout.gds", gds, SITE_SUBMIT_GDS),
        ];
        for (name, bytes, site) in files {
            durable::write_staged(&self.root.join(name), bytes, |stage| match stage {
                StoreStage::Tmp => Ok(()),
                StoreStage::Rename => crash_at(plane, site, "job", key, 0),
            })?;
        }
        Ok(())
    }

    /// Loads the persisted submission, if this directory holds one.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics (a missing directory is an error; a
    /// missing tile file is not).
    pub fn load_submission(&self) -> Result<(String, Vec<u8>), String> {
        let spec = fs::read_to_string(self.root.join("spec.json"))
            .map_err(|e| format!("read spec.json: {e}"))?;
        let gds = fs::read(self.root.join("layout.gds"))
            .map_err(|e| format!("read layout.gds: {e}"))?;
        Ok((spec, gds))
    }

    /// Atomically writes one completed tile partial.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics.
    pub fn write_tile(&self, partial: &TilePartial) -> Result<(), String> {
        self.write_tile_probed(partial, None, 0)
    }

    /// [`JobDir::write_tile`] with crash probes at the two staged
    /// transitions of the atomic write: after the tmp file is durable
    /// but before the rename ([`SITE_TILE_TMP`], leaving an orphan
    /// tmp) and after the rename but before success is reported
    /// ([`SITE_TILE_RENAME`], leaving a durable-but-unacknowledged
    /// tile). `attempt` is the caller's write-retry counter.
    ///
    /// # Errors
    ///
    /// Filesystem diagnostics, or the injected crash.
    pub fn write_tile_probed(
        &self,
        partial: &TilePartial,
        plane: Option<&FaultPlane>,
        attempt: u64,
    ) -> Result<(), String> {
        let path = self.root.join(format!("tile-{}.bin", partial.tile));
        durable::write_staged(&path, &encode_tile_partial(partial), |stage| {
            let site = match stage {
                StoreStage::Tmp => SITE_TILE_TMP,
                StoreStage::Rename => SITE_TILE_RENAME,
            };
            crash_at(plane, site, "tile", partial.tile as u64, attempt)
        })
    }

    /// Removes orphaned `*.tmp` files a crash between tmp-write and
    /// rename may have left behind. Returns how many were swept. Call
    /// on open/resume, never while tile writers are active.
    pub fn sweep_tmp(&self) -> usize {
        durable::sweep_tmp(&self.root)
    }

    /// Loads every tile partial that survives validation, sorted by
    /// tile index. Corrupt, truncated, or wrong-version files are
    /// skipped — their tiles get recomputed.
    pub fn load_tiles(&self, tile_count: usize) -> Vec<TilePartial> {
        let mut out = Vec::new();
        for tile in 0..tile_count {
            let path = self.root.join(format!("tile-{tile}.bin"));
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Some(p) = decode_tile_partial(&bytes, tile) {
                out.push(p);
            }
        }
        out
    }

    /// Removes the whole job directory (cancel-and-forget).
    pub fn remove(&self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Serialises a [`TilePartial`] to the sealed frame a checkpoint tile
/// file holds — also the payload the tile-result cache stores. Decode
/// with [`decode_tile_partial`].
pub fn encode_tile_partial(partial: &TilePartial) -> Vec<u8> {
    let mut enc = Enc { buf: durable::frame(MAGIC, VERSION, 256) };
    enc.usize(partial.tile);
    encode_partial(&mut enc, partial);
    durable::seal(enc.buf)
}

/// Validates and decodes bytes produced by [`encode_tile_partial`].
/// `None` on any defect — a broken seal, a tile mismatch, trailing
/// garbage — never an error or a panic: the caller treats it as a
/// cache miss and recomputes.
pub fn decode_tile_partial(bytes: &[u8], expect_tile: usize) -> Option<TilePartial> {
    let mut dec = Dec { buf: durable::unseal(bytes, MAGIC, VERSION)?, pos: 0 };
    let tile = dec.usize()?;
    if tile != expect_tile {
        return None;
    }
    let partial = decode_partial(&mut dec, tile)?;
    (dec.pos == dec.buf.len()).then_some(partial)
}

/// `Err` naming `site` when `plane` kills the operation there.
fn crash_at(
    plane: Option<&FaultPlane>,
    site: &str,
    unit: &str,
    key: u64,
    attempt: u64,
) -> Result<(), String> {
    match plane {
        Some(p) if p.crash_point(site, key, attempt) => {
            Err(format!("injected crash at {site} ({unit} {key})"))
        }
        _ => Ok(()),
    }
}

/// Lists job ids that have a checkpoint directory under `root`.
pub fn list_job_dirs(root: &Path) -> Vec<u64> {
    let mut ids = Vec::new();
    let Ok(entries) = fs::read_dir(root) else { return ids };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(|n| n.strip_prefix("job-")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------------
// TilePartial wire format (fixed-width LE throughout). A sequence is a
// u64 count then its items; an option is a 0/1 tag then its value. The
// decoders build struct literals and tuples whose fields are evaluated
// in source order, so that order must match the encoder's.
// ---------------------------------------------------------------------------

fn encode_partial(enc: &mut Enc, p: &TilePartial) {
    enc.usize(p.rects_peak);
    enc.seq(&p.drc, encode_rule_partial);
    enc.opt(p.ca.as_ref(), |enc, ca| {
        encode_frags(enc, &ca.short);
        encode_frags(enc, &ca.open);
        enc.usize(ca.rects);
    });
    enc.opt(p.litho.as_ref(), |enc, rects| enc.seq(rects, Enc::rect));
}

fn decode_partial(dec: &mut Dec<'_>, tile: usize) -> Option<TilePartial> {
    let rects_peak = dec.usize()?;
    let drc = dec.seq(decode_rule_partial)?;
    let ca = dec.opt(|dec| {
        Some(CaTilePartial { short: decode_frags(dec)?, open: decode_frags(dec)?, rects: dec.usize()? })
    })?;
    let litho = dec.opt(|dec| dec.seq(Dec::rect))?;
    Some(TilePartial { tile, drc, ca, litho, rects_peak })
}

fn encode_rule_partial(enc: &mut Enc, rp: &RulePartial) {
    match rp {
        RulePartial::Fragments { frags, rects } => {
            enc.u8(0);
            encode_frags(enc, frags);
            enc.usize(*rects);
        }
        RulePartial::Spacing { frags, corners, rects } => {
            enc.u8(1);
            encode_frags(enc, frags);
            enc.seq(corners, |enc, (r, d)| {
                enc.rect(r);
                enc.i64(*d);
            });
            enc.usize(*rects);
        }
        RulePartial::Area { complete, pieces, rects } => {
            enc.u8(2);
            enc.seq(complete, |enc, (bbox, area)| {
                enc.rect(bbox);
                enc.i128(*area);
            });
            enc.seq(pieces, |enc, piece| {
                enc.i128(piece.area);
                enc.rect(&piece.bbox);
                enc.seq(&piece.seam_rects, Enc::rect);
            });
            enc.usize(*rects);
        }
        RulePartial::Density { partials, rects } => {
            enc.u8(3);
            enc.seq(partials, |enc, (window, area)| {
                enc.usize(*window);
                enc.i128(*area);
            });
            enc.usize(*rects);
        }
        RulePartial::Certified { violations, rects, refused } => {
            enc.u8(4);
            enc.seq(violations, |enc, v| {
                enc.str(&v.rule);
                enc.rect(&v.location);
                enc.i64(v.actual);
                enc.i64(v.limit);
            });
            enc.usize(*rects);
            enc.opt(refused.as_ref(), |enc, t| enc.usize(*t));
        }
    }
}

fn decode_rule_partial(dec: &mut Dec<'_>) -> Option<RulePartial> {
    Some(match dec.u8()? {
        0 => RulePartial::Fragments { frags: decode_frags(dec)?, rects: dec.usize()? },
        1 => RulePartial::Spacing {
            frags: decode_frags(dec)?,
            corners: dec.seq(|dec| Some((dec.rect()?, dec.i64()?)))?,
            rects: dec.usize()?,
        },
        2 => RulePartial::Area {
            complete: dec.seq(|dec| Some((dec.rect()?, dec.i128()?)))?,
            pieces: dec.seq(|dec| {
                Some(AreaPiece { area: dec.i128()?, bbox: dec.rect()?, seam_rects: dec.seq(Dec::rect)? })
            })?,
            rects: dec.usize()?,
        },
        3 => RulePartial::Density {
            partials: dec.seq(|dec| Some((dec.usize()?, dec.i128()?)))?,
            rects: dec.usize()?,
        },
        4 => RulePartial::Certified {
            violations: dec.seq(|dec| {
                let (rule, location) = (dec.str()?, dec.rect()?);
                Some(Violation { rule, location, actual: dec.i64()?, limit: dec.i64()? })
            })?,
            rects: dec.usize()?,
            refused: dec.opt(Dec::usize)?,
        },
        _ => return None,
    })
}

fn encode_frags(enc: &mut Enc, frags: &[PairFragment]) {
    enc.seq(frags, |enc, f| {
        enc.u8(f.vertical as u8);
        for v in [f.gap_lo, f.gap_hi, f.span_lo, f.span_hi] {
            enc.i64(v);
        }
    });
}

fn decode_frags(dec: &mut Dec<'_>) -> Option<Vec<PairFragment>> {
    dec.seq(|dec| {
        let vertical = dec.flag()?;
        let (gap_lo, gap_hi, span_lo, span_hi) = (dec.i64()?, dec.i64()?, dec.i64()?, dec.i64()?);
        Some(PairFragment { vertical, gap_lo, gap_hi, span_lo, span_hi })
    })
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn rect(&mut self, r: &Rect) {
        for c in [r.x0, r.y0, r.x1, r.y1] {
            self.i64(c);
        }
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for t in items {
            item(self, t);
        }
    }
    fn opt<T>(&mut self, v: Option<&T>, value: impl FnOnce(&mut Self, &T)) {
        self.u8(v.is_some() as u8);
        if let Some(v) = v {
            value(self, v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn bytes_raw(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes_raw(1)?[0])
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes_raw(8)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        Some(self.u64()? as usize)
    }
    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.bytes_raw(8)?.try_into().ok()?))
    }
    fn i128(&mut self) -> Option<i128> {
        Some(i128::from_le_bytes(self.bytes_raw(16)?.try_into().ok()?))
    }
    /// A u64 length, bounded by the remaining bytes so corrupt lengths
    /// can never trigger huge allocations.
    fn len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        (n <= (self.buf.len() - self.pos) as u64).then_some(n as usize)
    }
    fn rect(&mut self) -> Option<Rect> {
        let (x0, y0, x1, y1) = (self.i64()?, self.i64()?, self.i64()?, self.i64()?);
        Some(Rect { x0, y0, x1, y1 })
    }
    fn str(&mut self) -> Option<String> {
        let n = self.len()?;
        String::from_utf8(self.bytes_raw(n)?.to_vec()).ok()
    }
    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
    /// A 0/1 byte; any other value is a defect.
    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn opt<T>(&mut self, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.flag()? {
            value(self).map(Some)
        } else {
            Some(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobContext;
    use crate::spec::JobSpec;
    use dfm_layout::{gds, generate, layers, Technology};

    fn sample_partials() -> (JobContext, Vec<TilePartial>) {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 5_000,
            height: 5_000,
            ..Default::default()
        };
        let bytes = gds::to_bytes(&generate::routed_block(&tech, params, 23)).expect("gds");
        let spec = JobSpec {
            tile: 1600,
            halo: 64,
            litho_layer: Some(layers::METAL1),
            ..JobSpec::default()
        };
        let ctx = JobContext::build(&spec, &bytes).expect("context");
        let partials = (0..ctx.tile_count()).map(|i| ctx.compute_tile(i)).collect();
        (ctx, partials)
    }

    #[test]
    fn tile_files_round_trip_exactly() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-rt-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 1);
        job.persist_submission("{}", b"gds").expect("submission");
        for p in &partials {
            job.write_tile(p).expect("write tile");
        }
        let loaded = job.load_tiles(ctx.tile_count());
        assert_eq!(loaded, partials);
        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tile_files_are_skipped_not_trusted() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-corrupt-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 2);
        job.persist_submission("{}", b"gds").expect("submission");
        for p in &partials {
            job.write_tile(p).expect("write tile");
        }
        // Flip one byte in the middle of tile 0's file: checksum must
        // reject it and the loader must simply drop that tile.
        let path = job.path().join("tile-0.bin");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        // And truncate tile 1's file (simulated torn write without the
        // atomic rename).
        if partials.len() > 1 {
            let path = job.path().join("tile-1.bin");
            let bytes = std::fs::read(&path).expect("read");
            std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        }
        let loaded = job.load_tiles(ctx.tile_count());
        let expect: Vec<TilePartial> = partials
            .iter()
            .filter(|p| p.tile != 0 && (partials.len() == 1 || p.tile != 1))
            .cloned()
            .collect();
        assert_eq!(loaded, expect);
        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_crash_probes_leave_the_documented_durable_state() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-crash-{}", std::process::id()));
        let (ctx, partials) = sample_partials();
        let job = JobDir::new(&dir, 9);
        job.persist_submission("{}", b"gds").expect("submission");

        // Crash after the tmp write: no tile file, an orphan tmp.
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_TILE_TMP, FaultAction::Crash)),
        );
        let err = job.write_tile_probed(&partials[0], Some(&plane), 0).expect_err("crash");
        assert!(err.contains(SITE_TILE_TMP), "{err}");
        assert!(!job.path().join("tile-0.bin").exists());
        assert!(job.path().join("tile-0.tmp").exists());

        // Sweep removes the orphan; the tile is simply absent.
        assert_eq!(job.sweep_tmp(), 1);
        assert!(!job.path().join("tile-0.tmp").exists());
        assert!(job.load_tiles(ctx.tile_count()).is_empty());

        // Crash after the rename: the write reports failure but the
        // tile is durable — the idempotent-replay case.
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_TILE_RENAME, FaultAction::Crash)),
        );
        let err = job.write_tile_probed(&partials[0], Some(&plane), 0).expect_err("crash");
        assert!(err.contains(SITE_TILE_RENAME), "{err}");
        let loaded = job.load_tiles(ctx.tile_count());
        assert_eq!(loaded, vec![partials[0].clone()]);

        job.remove();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submission_crash_probes_split_the_two_durable_steps() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-subcrash-{}", std::process::id()));

        let job = JobDir::new(&dir, 4);
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_SUBMIT_SPEC, FaultAction::Crash)),
        );
        job.persist_submission_probed("{}", b"gds", Some(&plane), 4).expect_err("crash");
        assert!(job.path().join("spec.json").exists());
        assert!(!job.path().join("layout.gds").exists());
        assert!(job.load_submission().is_err(), "half a submission must not load");

        // Resubmission over the crashed dir succeeds and loads.
        job.persist_submission("{}", b"gds").expect("resubmit");
        assert!(job.load_submission().is_ok());

        let job = JobDir::new(&dir, 5);
        let plane = FaultPlane::new(
            FaultPlan::seeded(1).with_rule(FaultRule::new(SITE_SUBMIT_GDS, FaultAction::Crash)),
        );
        job.persist_submission_probed("{}", b"gds", Some(&plane), 5).expect_err("crash");
        // Everything durable; only the ack was lost.
        assert_eq!(job.load_submission().expect("loads"), ("{}".to_string(), b"gds".to_vec()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_dir_listing_finds_persisted_jobs() {
        let dir = std::env::temp_dir().join(format!("dfms-ckpt-list-{}", std::process::id()));
        for id in [3u64, 7, 5] {
            JobDir::new(&dir, id).persist_submission("{}", b"g").expect("persist");
        }
        std::fs::create_dir_all(dir.join("not-a-job")).expect("noise dir");
        assert_eq!(list_job_dirs(&dir), vec![3, 5, 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
