//! Tile-sharded layout store: spatial partitioning with halos.
//!
//! [`TiledLayout`] shards a layout into fixed-size tiles (see
//! [`TileGrid`]) and materialises one [`TileView`] at a time, so
//! interaction-limited engines can stream over a full-chip design while
//! holding only O(tile + halo) geometry in memory. The source is either
//! an already-flattened [`FlatLayout`] or a hierarchical [`Library`],
//! in which case each view is collected *directly from the hierarchy*
//! (transform-pruned by memoized cell bounding boxes) and a full-chip
//! flat region is never built.
//!
//! Both sources produce, for each tile, per-layer regions whose point
//! set is exactly `layer ∩ window`. Engines that only depend on the
//! covered point set (all of ours, by construction) therefore merge to
//! results bit-identical to the flat path.

use crate::view::LayoutView;
use crate::{CellId, FlatLayout, Layer, LayoutError, Library};
use dfm_geom::{Coord, Rect, Region, TileGrid, Transform};
use dfm_rand::Fnv1a;
use std::collections::BTreeMap;

/// Configuration of a tile shard: tile size, halo margin, layer filter.
///
/// Built via [`TilingConfig::builder`]; validation happens in
/// [`TilingConfigBuilder::build`].
///
/// ```
/// use dfm_layout::TilingConfig;
/// let cfg = TilingConfig::builder().tile_size(4096, 4096).halo(600).build()?;
/// assert_eq!(cfg.tile_size(), (4096, 4096));
/// # Ok::<(), dfm_layout::LayoutError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TilingConfig {
    tile_w: Coord,
    tile_h: Coord,
    halo: Coord,
    layers: Option<Vec<Layer>>,
}

impl TilingConfig {
    /// Starts a builder with the defaults (8192 × 8192 tiles, 512 halo,
    /// all layers).
    pub fn builder() -> TilingConfigBuilder {
        TilingConfigBuilder::default()
    }

    /// Nominal tile size `(w, h)` in dbu.
    pub fn tile_size(&self) -> (Coord, Coord) {
        (self.tile_w, self.tile_h)
    }

    /// Baseline halo margin in dbu. Engines may request larger halos
    /// per rule; this is the floor carried by the config.
    pub fn halo(&self) -> Coord {
        self.halo
    }

    /// The layer filter, if any (`None` means all layers).
    pub fn layer_filter(&self) -> Option<&[Layer]> {
        self.layers.as_deref()
    }

    fn wants(&self, layer: Layer) -> bool {
        self.layers.as_ref().is_none_or(|ls| ls.contains(&layer))
    }
}

impl Default for TilingConfig {
    fn default() -> Self {
        TilingConfig { tile_w: 8192, tile_h: 8192, halo: 512, layers: None }
    }
}

/// Builder for [`TilingConfig`].
#[derive(Clone, Debug, Default)]
pub struct TilingConfigBuilder {
    cfg: TilingConfig,
}

impl TilingConfigBuilder {
    /// Sets the nominal tile size in dbu.
    pub fn tile_size(mut self, w: Coord, h: Coord) -> Self {
        self.cfg.tile_w = w;
        self.cfg.tile_h = h;
        self
    }

    /// Sets both tile dimensions to `side`.
    pub fn tile(self, side: Coord) -> Self {
        self.tile_size(side, side)
    }

    /// Sets the baseline halo margin in dbu.
    pub fn halo(mut self, halo: Coord) -> Self {
        self.cfg.halo = halo;
        self
    }

    /// Restricts the shard to the given layers.
    pub fn layer_filter(mut self, layers: impl IntoIterator<Item = Layer>) -> Self {
        self.cfg.layers = Some(layers.into_iter().collect());
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`LayoutError::InvalidTiling`] on a non-positive tile size, a
    /// negative halo, or an explicitly empty layer filter.
    pub fn build(self) -> Result<TilingConfig, LayoutError> {
        let c = &self.cfg;
        if c.tile_w <= 0 || c.tile_h <= 0 {
            return Err(LayoutError::InvalidTiling(format!(
                "tile size {}x{} must be positive",
                c.tile_w, c.tile_h
            )));
        }
        if c.halo < 0 {
            return Err(LayoutError::InvalidTiling(format!(
                "halo {} must be non-negative",
                c.halo
            )));
        }
        if let Some(ls) = &c.layers {
            if ls.is_empty() {
                return Err(LayoutError::InvalidTiling(
                    "layer filter selects no layers".into(),
                ));
            }
        }
        Ok(self.cfg)
    }
}

/// One materialised tile: per-layer geometry of `layer ∩ window`.
///
/// The *core* is the tile's half-open ownership rectangle (cores
/// partition the layout extent); the *window* is the core expanded by
/// the halo the engine asked for. Result ownership rules ("a violation
/// belongs to the tile whose core contains its canonical anchor point")
/// are what make the per-tile results merge without seam duplicates.
#[derive(Clone, Debug)]
pub struct TileView {
    index: usize,
    core: Rect,
    window: Rect,
    layers: BTreeMap<Layer, Region>,
}

impl TileView {
    /// Row-major tile index in the owning grid.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The tile's half-open ownership rectangle.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The clip window (`core` expanded by the requested halo).
    pub fn window(&self) -> Rect {
        self.window
    }
}

impl LayoutView for TileView {
    /// The view's clip window (not the tight geometry bbox): engines
    /// use it as the extent the view is authoritative for.
    fn bbox(&self) -> Rect {
        self.window
    }

    fn region_ref(&self, layer: Layer) -> Option<&Region> {
        self.layers.get(&layer)
    }

    fn used_layers(&self) -> Vec<Layer> {
        self.layers.keys().copied().collect()
    }
}

impl TileView {
    /// FNV-1a 64 digest of the view's canonical content: core, window,
    /// and every carried layer's canonical rect decomposition (sorted
    /// layer order). Two views digest equal iff they clip the same
    /// core/window to the same per-layer point sets — the property a
    /// content-addressed result cache keys on. The tile *index* is
    /// deliberately excluded: position is already pinned by the core
    /// coordinates, so an identical tile at the same place in an
    /// edited layout keeps its digest.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let rect = |h: &mut Fnv1a, r: Rect| {
            for c in [r.x0, r.y0, r.x1, r.y1] {
                h.write_u64(c as u64);
            }
        };
        rect(&mut h, self.core);
        rect(&mut h, self.window);
        for (layer, region) in &self.layers {
            h.write_u64(0x004c_4159_4552_u64); // "LAYER" marker
            h.write_u64(layer.layer as u64);
            h.write_u64(layer.datatype as u64);
            let rects = region.rects();
            h.write_u64(rects.len() as u64);
            for &r in rects {
                rect(&mut h, r);
            }
        }
        h.finish()
    }
}

enum Source {
    Flat(FlatLayout),
    Hier {
        lib: Library,
        top: CellId,
        /// Local-frame bbox of every cell's full subtree, indexed by
        /// `CellId`; used to prune the hierarchy walk per window.
        subtree_bboxes: Vec<Rect>,
    },
}

/// A spatially sharded layout: a [`TileGrid`] over the layout extent
/// plus a source to materialise [`TileView`]s from on demand.
pub struct TiledLayout {
    config: TilingConfig,
    grid: TileGrid,
    bbox: Rect,
    layers: Vec<Layer>,
    source: Source,
}

impl TiledLayout {
    /// Shards an already-flattened layout.
    pub fn from_flat(flat: FlatLayout, config: TilingConfig) -> TiledLayout {
        let bbox = flat.bbox();
        let layers = flat
            .used_layers()
            .filter(|&l| config.wants(l))
            .collect();
        let grid = TileGrid::new(bbox, config.tile_w, config.tile_h);
        TiledLayout { config, grid, bbox, layers, source: Source::Flat(flat) }
    }

    /// Shards a hierarchical library at its top cell **without
    /// flattening it**: tile views are collected straight from the
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NoTopCell`] when no top cell is set or inferable,
    /// plus any [`Library::validate`] failure.
    pub fn from_library(lib: Library, config: TilingConfig) -> Result<TiledLayout, LayoutError> {
        lib.validate()?;
        let top = lib.top().ok_or(LayoutError::NoTopCell)?;
        let subtree_bboxes = compute_subtree_bboxes(&lib);
        let bbox = subtree_bboxes[top.index()];
        let mut layers: Vec<Layer> = Vec::new();
        collect_used_layers(&lib, top, &mut layers);
        layers.retain(|&l| config.wants(l));
        layers.dedup();
        let grid = TileGrid::new(bbox, config.tile_w, config.tile_h);
        Ok(TiledLayout {
            config,
            grid,
            bbox,
            layers,
            source: Source::Hier { lib, top, subtree_bboxes },
        })
    }

    /// Parses a GDSII stream and shards it in one step — the
    /// job-scoped handle a signoff service builds per uploaded job.
    /// The hierarchy is kept (tile views stream straight from it, with
    /// subtree-bbox pruning); nothing is flattened up front.
    ///
    /// # Errors
    ///
    /// Any [`crate::gds::from_bytes`] parse diagnostic (offset +
    /// message for corrupt uploads), plus the [`from_library`]
    /// validation errors.
    ///
    /// [`from_library`]: TiledLayout::from_library
    pub fn from_gds_bytes(bytes: &[u8], config: TilingConfig) -> Result<TiledLayout, LayoutError> {
        TiledLayout::from_library(crate::gds::from_bytes(bytes)?, config)
    }

    /// The shard configuration.
    pub fn config(&self) -> &TilingConfig {
        &self.config
    }

    /// The tile grid over the layout extent.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Bounding box of the layout (the grid extent).
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.grid.len()
    }

    /// Layers carried by the shard (after the config's layer filter).
    pub fn used_layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Materialises the view of tile `i` with the given halo, carrying
    /// all configured layers. The effective halo is
    /// `max(halo, config.halo())`.
    pub fn view(&self, i: usize, halo: Coord) -> TileView {
        let layers: Vec<Layer> = self.layers.clone();
        self.view_layers(i, halo, &layers)
    }

    /// Materialises the view of tile `i` restricted to `layers`
    /// (intersected with the config's filter).
    pub fn view_layers(&self, i: usize, halo: Coord, layers: &[Layer]) -> TileView {
        let core = self.grid.core(i);
        let window = self.grid.window(i, halo.max(self.config.halo));
        let mut out: BTreeMap<Layer, Region> = BTreeMap::new();
        for &layer in layers {
            if !self.layers.contains(&layer) {
                continue;
            }
            let region = match &self.source {
                Source::Flat(flat) => flat
                    .region_ref(layer)
                    .map(|r| r.clipped(window))
                    .unwrap_or_default(),
                Source::Hier { lib, top, subtree_bboxes } => {
                    let mut rects = Vec::new();
                    collect_window_rects(
                        lib,
                        *top,
                        &Transform::identity(),
                        layer,
                        window,
                        subtree_bboxes,
                        &mut rects,
                    );
                    Region::from_rects(rects)
                }
            };
            out.insert(layer, region);
        }
        TileView { index: i, core, window, layers: out }
    }

    /// Canonical content digest of tile `i` at the given halo —
    /// [`TileView::content_digest`] of the view carrying all
    /// configured layers. A cache keyed on this digest (plus whatever
    /// digests of its *other* inputs the caller adds) is sound for any
    /// computation that reads at most this halo: an edit anywhere
    /// outside the window leaves the digest unchanged, an edit inside
    /// it changes the rect decomposition and therefore the digest.
    pub fn tile_content_digest(&self, i: usize, halo: Coord) -> u64 {
        self.view(i, halo).content_digest()
    }

    /// Total drawn area across all configured layers, accumulated
    /// tile-by-tile over the (disjoint) cores. Because cores partition
    /// the extent exactly, this equals [`FlatLayout::total_area`] of
    /// the flattened layout restricted to the same layers.
    pub fn total_area(&self) -> i128 {
        let mut sum = 0i128;
        for i in 0..self.tile_count() {
            let v = self.view(i, 0);
            for &l in &self.layers {
                if let Some(r) = v.region_ref(l) {
                    sum += r.clipped(v.core()).area();
                }
            }
        }
        sum
    }
}

impl CellId {
    /// Position of the cell in [`Library::cells`] order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Local-frame bounding box of each cell's fully expanded subtree.
fn compute_subtree_bboxes(lib: &Library) -> Vec<Rect> {
    fn bbox_of(lib: &Library, id: CellId, memo: &mut Vec<Option<Rect>>) -> Rect {
        if let Some(b) = memo[id.index()] {
            return b;
        }
        let cell = lib.cell(id);
        let mut b = cell.local_bbox();
        for r in &cell.refs {
            if let Some(child) = lib.cell_id(&r.cell) {
                let cb = bbox_of(lib, child, memo);
                if cb.is_empty() {
                    continue;
                }
                for t in r.instance_transforms() {
                    b = b.bounding_union(&t.apply_rect(cb));
                }
            }
        }
        memo[id.index()] = Some(b);
        b
    }
    let mut memo = vec![None; lib.cell_count()];
    for i in 0..lib.cell_count() {
        bbox_of(lib, CellId(i), &mut memo);
    }
    memo.into_iter().map(|b| b.unwrap_or_else(Rect::empty)).collect()
}

fn collect_used_layers(lib: &Library, top: CellId, out: &mut Vec<Layer>) {
    fn walk(lib: &Library, id: CellId, seen: &mut Vec<bool>, out: &mut Vec<Layer>) {
        if seen[id.index()] {
            return;
        }
        seen[id.index()] = true;
        let cell = lib.cell(id);
        out.extend(cell.used_layers());
        for r in &cell.refs {
            if let Some(child) = lib.cell_id(&r.cell) {
                walk(lib, child, seen, out);
            }
        }
    }
    let mut seen = vec![false; lib.cell_count()];
    walk(lib, top, &mut seen, out);
    out.sort();
    out.dedup();
}

/// Streams `layer` geometry of the subtree at `id` (placed by `t`) into
/// `out`, clipped to `window`, pruning subtrees whose transformed bbox
/// misses the window.
fn collect_window_rects(
    lib: &Library,
    id: CellId,
    t: &Transform,
    layer: Layer,
    window: Rect,
    subtree_bboxes: &[Rect],
    out: &mut Vec<Rect>,
) {
    let sub = subtree_bboxes[id.index()];
    if sub.is_empty() || t.apply_rect(sub).intersection(&window).is_none() {
        return;
    }
    let cell = lib.cell(id);
    for shape in cell.shapes(layer) {
        let moved = shape.transformed(t);
        if moved.bbox().intersection(&window).is_none() {
            continue;
        }
        for r in moved.to_rects() {
            if let Some(clipped) = r.intersection(&window) {
                out.push(clipped);
            }
        }
    }
    for r in &cell.refs {
        if let Some(child) = lib.cell_id(&r.cell) {
            for inst in r.instance_transforms() {
                let combined = inst.then(t);
                collect_window_rects(lib, child, &combined, layer, window, subtree_bboxes, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, Cell, CellRef};
    use dfm_geom::{Point, Vector};

    fn sample_library() -> Library {
        let mut lib = Library::new("L");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 60, 60));
        leaf.add_rect(layers::METAL2, Rect::new(10, 10, 50, 50));
        lib.add_cell(leaf).expect("leaf");
        let mut top = Cell::new("TOP");
        for k in 0..8 {
            top.add_ref(CellRef::new(
                "LEAF",
                Transform::translate(Vector::new(k * 100, (k % 3) * 90)),
            ));
        }
        top.add_rect(layers::METAL1, Rect::new(-40, -40, 900, -20));
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        lib
    }

    #[test]
    fn builder_validates() {
        assert!(TilingConfig::builder().tile(0).build().is_err());
        assert!(TilingConfig::builder().halo(-1).build().is_err());
        assert!(TilingConfig::builder()
            .layer_filter(std::iter::empty())
            .build()
            .is_err());
        let cfg = TilingConfig::builder()
            .tile_size(100, 200)
            .halo(7)
            .layer_filter([layers::METAL1])
            .build()
            .expect("valid");
        assert_eq!(cfg.tile_size(), (100, 200));
        assert_eq!(cfg.halo(), 7);
        assert_eq!(cfg.layer_filter(), Some(&[layers::METAL1][..]));
    }

    #[test]
    fn flat_and_hier_views_carry_identical_point_sets() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder().tile(150).halo(25).build().expect("cfg");
        let from_flat = TiledLayout::from_flat(flat.clone(), cfg.clone());
        let from_hier = TiledLayout::from_library(lib, cfg).expect("hier");
        assert_eq!(from_flat.bbox(), from_hier.bbox());
        assert_eq!(from_flat.tile_count(), from_hier.tile_count());
        assert_eq!(from_flat.used_layers(), from_hier.used_layers());
        for i in 0..from_flat.tile_count() {
            let a = from_flat.view(i, 30);
            let b = from_hier.view(i, 30);
            assert_eq!(a.core(), b.core());
            assert_eq!(a.window(), b.window());
            for &l in from_flat.used_layers() {
                let (ra, rb) = (LayoutView::region(&a, l), LayoutView::region(&b, l));
                // Same point set regardless of decomposition details.
                assert!(ra.xor(&rb).is_empty(), "tile {i} layer {l}");
            }
        }
    }

    #[test]
    fn views_window_clip_matches_flat_clip() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder().tile(170).halo(40).build().expect("cfg");
        let tiled = TiledLayout::from_flat(flat.clone(), cfg);
        for i in 0..tiled.tile_count() {
            let v = tiled.view(i, 40);
            for &l in tiled.used_layers() {
                let direct = flat.region(l).clipped(v.window());
                assert!(LayoutView::region(&v, l).xor(&direct).is_empty());
            }
        }
    }

    #[test]
    fn total_area_matches_flat_exactly() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        for tile in [64, 97, 150, 1000] {
            let cfg = TilingConfig::builder().tile(tile).build().expect("cfg");
            let tiled = TiledLayout::from_library(sample_library(), cfg).expect("hier");
            assert_eq!(tiled.total_area(), flat.total_area(), "tile {tile}");
        }
    }

    #[test]
    fn layer_filter_restricts_views() {
        let lib = sample_library();
        let cfg = TilingConfig::builder()
            .tile(500)
            .layer_filter([layers::METAL2])
            .build()
            .expect("cfg");
        let tiled = TiledLayout::from_library(lib, cfg).expect("hier");
        assert_eq!(tiled.used_layers(), &[layers::METAL2]);
        let v = tiled.view(0, 0);
        assert!(v.region_ref(layers::METAL1).is_none());
        assert!(v.region_ref(layers::METAL2).is_some());
    }

    #[test]
    fn ownership_anchor_is_unique() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder().tile(123).build().expect("cfg");
        let tiled = TiledLayout::from_flat(flat, cfg);
        let g = *tiled.grid();
        // Every interior point is owned by exactly one core.
        for p in [Point::new(0, 0), Point::new(122, 90), Point::new(123, 0)] {
            let owner = g.tile_of(p).expect("inside");
            let mut owners = 0;
            for i in 0..g.len() {
                let c = g.core(i);
                if c.x0 <= p.x && p.x < c.x1 && c.y0 <= p.y && p.y < c.y1 {
                    owners += 1;
                    assert_eq!(i, owner);
                }
            }
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn content_digest_tracks_window_content_only() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder().tile(150).halo(25).build().expect("cfg");
        let tiled = TiledLayout::from_flat(flat.clone(), cfg.clone());
        assert!(tiled.tile_count() > 2, "fixture must be multi-tile");
        // Reproducible, and identical between flat and hier sources
        // (same point sets → same canonical decomposition).
        let hier = TiledLayout::from_library(lib, cfg.clone()).expect("hier");
        for i in 0..tiled.tile_count() {
            assert_eq!(
                tiled.tile_content_digest(i, 30),
                hier.tile_content_digest(i, 30),
                "tile {i}: source must not leak into the digest"
            );
        }
        // A mutation inside tile 0's window changes that digest; tiles
        // whose windows miss the new rect keep theirs.
        let mut edited = flat.clone();
        let mut rects = flat.region(layers::METAL1).rects().to_vec();
        rects.push(Rect::new(5, 70, 15, 80));
        edited.set_region(layers::METAL1, Region::from_rects(rects));
        let edited = TiledLayout::from_flat(edited, cfg);
        assert_ne!(
            tiled.tile_content_digest(0, 30),
            edited.tile_content_digest(0, 30),
            "dirty tile must change digest"
        );
        let mut unchanged = 0;
        for i in 0..tiled.tile_count() {
            let w = tiled.view(i, 30).window();
            if w.intersection(&Rect::new(5, 70, 15, 80)).is_none() {
                assert_eq!(
                    tiled.tile_content_digest(i, 30),
                    edited.tile_content_digest(i, 30),
                    "tile {i} is clean, digest must hold"
                );
                unchanged += 1;
            }
        }
        assert!(unchanged > 0, "edit must be tile-local in this fixture");
        // The requested halo participates: a wider window is a
        // different content claim.
        assert_ne!(tiled.tile_content_digest(0, 30), tiled.tile_content_digest(0, 60));
    }

    #[test]
    fn from_library_requires_top() {
        let mut lib = Library::new("L");
        lib.add_cell(Cell::new("A")).expect("a");
        lib.add_cell(Cell::new("B")).expect("b");
        let cfg = TilingConfig::builder().build().expect("cfg");
        assert!(matches!(
            TiledLayout::from_library(lib, cfg),
            Err(LayoutError::NoTopCell)
        ));
    }
}
