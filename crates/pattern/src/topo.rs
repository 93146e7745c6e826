//! Topological pattern encoding with D4 canonicalisation.

use dfm_geom::{Coord, Point, Rect, Region};
use dfm_rand::Fnv1a;
use std::fmt;

/// A multi-layer topological pattern: an edge-alignment cell bitmap plus
/// the dimension vectors of the cut grid.
///
/// The pattern of a layout clip is built by cutting the window at every
/// polygon edge coordinate ("cuts"); each resulting grid cell is either
/// fully covered or fully empty per layer, recorded as a per-cell layer
/// bitmask. The cut *spacings* are the dimension vectors. Equal topology
/// and equal dimensions ⇒ geometrically identical clips; equal topology
/// and close dimensions ⇒ the same pattern class.
///
/// Up to 8 layers per pattern (one bit each in the cell mask).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TopoPattern {
    nx: usize,
    ny: usize,
    /// Row-major cell layer-bitmasks, length `nx * ny`.
    cells: Vec<u8>,
    /// Cut spacings along x, length `nx`.
    dims_x: Vec<Coord>,
    /// Cut spacings along y, length `ny`.
    dims_y: Vec<Coord>,
}

impl TopoPattern {
    /// Encodes the clip of `layers` inside `window`.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 layers are given or the window is empty.
    pub fn encode(layers: &[&Region], window: Rect) -> TopoPattern {
        Self::encode_quantized(layers, window, 1)
    }

    /// Encodes with dimensions snapped to multiples of `snap` (≥1).
    /// Coarser snapping merges dimensionally-similar clips into one
    /// pattern, directly controlling catalog cardinality ("edge
    /// tolerance" in LPC terms).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 layers are given, `snap < 1`, or the window
    /// is empty.
    pub fn encode_quantized(layers: &[&Region], window: Rect, snap: Coord) -> TopoPattern {
        assert!(layers.len() <= 8, "at most 8 layers per pattern");
        assert!(snap >= 1, "snap must be at least 1");
        assert!(!window.is_empty(), "pattern window must be non-empty");

        let clips: Vec<Region> = layers.iter().map(|r| r.clipped(window)).collect();

        // Cut coordinates: window borders plus every rect edge.
        let mut xs: Vec<Coord> = vec![window.x0, window.x1];
        let mut ys: Vec<Coord> = vec![window.y0, window.y1];
        for clip in &clips {
            for r in clip.rects() {
                xs.push(r.x0);
                xs.push(r.x1);
                ys.push(r.y0);
                ys.push(r.y1);
            }
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();

        let nx = xs.len() - 1;
        let ny = ys.len() - 1;
        let mut cells = vec![0u8; nx * ny];
        for (li, clip) in clips.iter().enumerate() {
            let bit = 1u8 << li;
            for j in 0..ny {
                for i in 0..nx {
                    let cx = xs[i] + (xs[i + 1] - xs[i]) / 2;
                    let cy = ys[j] + (ys[j + 1] - ys[j]) / 2;
                    if clip.contains_point(Point::new(cx, cy)) {
                        cells[j * nx + i] |= bit;
                    }
                }
            }
        }
        let q = |v: Coord| -> Coord { ((v + snap / 2) / snap) * snap };
        let dims_x: Vec<Coord> = xs.windows(2).map(|w| q(w[1] - w[0]).max(1)).collect();
        let dims_y: Vec<Coord> = ys.windows(2).map(|w| q(w[1] - w[0]).max(1)).collect();
        TopoPattern { nx, ny, cells, dims_x, dims_y }
    }

    /// Grid width (number of cells along x).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (number of cells along y).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of cells containing any geometry.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c != 0).count()
    }

    /// True if the pattern contains no geometry at all.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|&c| c == 0)
    }

    /// Total pattern extent `(width, height)` from the dimension vectors.
    pub fn extent(&self) -> (Coord, Coord) {
        (self.dims_x.iter().sum(), self.dims_y.iter().sum())
    }

    /// Raw cell bitmask bytes (row-major), for persistence.
    pub fn cells_raw(&self) -> &[u8] {
        &self.cells
    }

    /// Raw x dimension vector, for persistence.
    pub fn dims_x_raw(&self) -> &[Coord] {
        &self.dims_x
    }

    /// Raw y dimension vector, for persistence.
    pub fn dims_y_raw(&self) -> &[Coord] {
        &self.dims_y
    }

    /// Reassembles a pattern from raw parts (the persistence path).
    ///
    /// # Errors
    ///
    /// Returns a message when the part sizes are inconsistent or any
    /// dimension is non-positive.
    pub fn from_raw_parts(
        nx: usize,
        ny: usize,
        cells: Vec<u8>,
        dims_x: Vec<Coord>,
        dims_y: Vec<Coord>,
    ) -> Result<TopoPattern, String> {
        if cells.len() != nx * ny {
            return Err(format!(
                "cell count {} does not match {}x{} grid",
                cells.len(),
                nx,
                ny
            ));
        }
        if dims_x.len() != nx || dims_y.len() != ny {
            return Err("dimension vector length mismatch".into());
        }
        if dims_x.iter().chain(&dims_y).any(|&d| d <= 0) {
            return Err("non-positive dimension".into());
        }
        Ok(TopoPattern { nx, ny, cells, dims_x, dims_y })
    }

    fn cell(&self, i: usize, j: usize) -> u8 {
        self.cells[j * self.nx + i]
    }

    /// Mirror about the x-axis (flip rows).
    fn flip_y(&self) -> TopoPattern {
        let mut cells = vec![0u8; self.cells.len()];
        for j in 0..self.ny {
            for i in 0..self.nx {
                cells[(self.ny - 1 - j) * self.nx + i] = self.cell(i, j);
            }
        }
        let mut dims_y = self.dims_y.clone();
        dims_y.reverse();
        TopoPattern { nx: self.nx, ny: self.ny, cells, dims_x: self.dims_x.clone(), dims_y }
    }

    /// Mirror about the y-axis (flip columns).
    fn flip_x(&self) -> TopoPattern {
        let mut cells = vec![0u8; self.cells.len()];
        for j in 0..self.ny {
            for i in 0..self.nx {
                cells[j * self.nx + (self.nx - 1 - i)] = self.cell(i, j);
            }
        }
        let mut dims_x = self.dims_x.clone();
        dims_x.reverse();
        TopoPattern { nx: self.nx, ny: self.ny, cells, dims_x, dims_y: self.dims_y.clone() }
    }

    /// Transpose (reflect about the main diagonal).
    fn transpose(&self) -> TopoPattern {
        let mut cells = vec![0u8; self.cells.len()];
        for j in 0..self.ny {
            for i in 0..self.nx {
                cells[i * self.ny + j] = self.cell(i, j);
            }
        }
        TopoPattern {
            nx: self.ny,
            ny: self.nx,
            cells,
            dims_x: self.dims_y.clone(),
            dims_y: self.dims_x.clone(),
        }
    }

    /// All 8 symmetry variants (the dihedral group D4).
    pub fn variants(&self) -> Vec<TopoPattern> {
        let t = self.transpose();
        vec![
            self.clone(),
            self.flip_x(),
            self.flip_y(),
            self.flip_x().flip_y(),
            t.clone(),
            t.flip_x(),
            t.flip_y(),
            t.flip_x().flip_y(),
        ]
    }

    /// The canonical representative of the pattern's symmetry class:
    /// the lexicographically smallest variant. Two clips that are
    /// rotations/mirrors of each other canonicalise identically.
    pub fn canonical(&self) -> TopoPattern {
        self.variants()
            .into_iter()
            .min_by(|a, b| a.sort_key().cmp(&b.sort_key()))
            .expect("variants is never empty")
    }

    fn sort_key(&self) -> (usize, usize, &[u8], &[Coord], &[Coord]) {
        (self.nx, self.ny, &self.cells, &self.dims_x, &self.dims_y)
    }

    /// True if the two patterns share a topology (under some D4 variant)
    /// with every dimension within `eps`.
    pub fn matches(&self, other: &TopoPattern, eps: Coord) -> bool {
        for v in self.variants() {
            if v.nx == other.nx
                && v.ny == other.ny
                && v.cells == other.cells
                && dims_close(&v.dims_x, &other.dims_x, eps)
                && dims_close(&v.dims_y, &other.dims_y, eps)
            {
                return true;
            }
        }
        false
    }

    /// A compact stable digest of the topology alone (ignoring
    /// dimensions) — the hash bucket used by [`crate::PatternLibrary`].
    pub fn topology_digest(&self) -> u64 {
        // FNV-1a over the canonical variant's shape and cells.
        let c = self.canonical();
        let mut h = Fnv1a::new();
        h.write(&(c.nx as u32).to_le_bytes());
        h.write(&(c.ny as u32).to_le_bytes());
        h.write(&c.cells);
        h.finish()
    }
}

fn dims_close(a: &[Coord], b: &[Coord], eps: Coord) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= eps)
}

impl fmt::Debug for TopoPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TopoPattern {}x{}", self.nx, self.ny)?;
        for j in (0..self.ny).rev() {
            write!(f, "  ")?;
            for i in 0..self.nx {
                let c = self.cell(i, j);
                write!(f, "{}", if c == 0 { '.' } else { char::from_digit(c as u32 % 36, 36).unwrap_or('#') })?;
            }
            writeln!(f)?;
        }
        write!(f, "  dx={:?} dy={:?}", self.dims_x, self.dims_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::centered_at(Point::new(0, 0), 400, 400)
    }

    #[test]
    fn empty_window_encodes_single_cell() {
        let p = TopoPattern::encode(&[&Region::new()], window());
        assert_eq!(p.nx(), 1);
        assert_eq!(p.ny(), 1);
        assert!(p.is_empty());
        assert_eq!(p.extent(), (400, 400));
    }

    #[test]
    fn bar_encodes_three_rows() {
        let bar = Region::from_rect(Rect::new(-200, -30, 200, 30));
        let p = TopoPattern::encode(&[&bar], window());
        // Bar spans the full window in x: 1 column, 3 rows.
        assert_eq!(p.nx(), 1);
        assert_eq!(p.ny(), 3);
        assert_eq!(p.occupied_cells(), 1);
    }

    #[test]
    fn rotation_canonicalises_equal() {
        let h = Region::from_rect(Rect::new(-100, -30, 150, 30));
        let v = Region::from_rect(Rect::new(-30, -100, 30, 150));
        let ph = TopoPattern::encode(&[&h], window());
        let pv = TopoPattern::encode(&[&v], window());
        assert_ne!(ph, pv);
        assert_eq!(ph.canonical(), pv.canonical());
        assert_eq!(ph.topology_digest(), pv.topology_digest());
    }

    #[test]
    fn mirror_canonicalises_equal() {
        let l = Region::from_rects([
            Rect::new(-150, -150, -90, 150),
            Rect::new(-150, -150, 150, -90),
        ]);
        let mirrored = Region::from_rects([
            Rect::new(90, -150, 150, 150),
            Rect::new(-150, -150, 150, -90),
        ]);
        let pl = TopoPattern::encode(&[&l], window());
        let pm = TopoPattern::encode(&[&mirrored], window());
        assert_eq!(pl.canonical(), pm.canonical());
    }

    #[test]
    fn different_topologies_differ() {
        let one = Region::from_rect(Rect::new(-50, -50, 50, 50));
        let two = Region::from_rects([
            Rect::new(-150, -50, -50, 50),
            Rect::new(50, -50, 150, 50),
        ]);
        let p1 = TopoPattern::encode(&[&one], window());
        let p2 = TopoPattern::encode(&[&two], window());
        assert_ne!(p1.canonical(), p2.canonical());
        assert_ne!(p1.topology_digest(), p2.topology_digest());
    }

    #[test]
    fn dimension_tolerance_matching() {
        let a = Region::from_rect(Rect::new(-50, -50, 50, 50));
        let b = Region::from_rect(Rect::new(-53, -50, 50, 50)); // 3 nm wider
        let pa = TopoPattern::encode(&[&a], window());
        let pb = TopoPattern::encode(&[&b], window());
        assert_ne!(pa, pb);
        assert!(pa.matches(&pb, 5));
        assert!(!pa.matches(&pb, 2));
    }

    #[test]
    fn rotated_match_with_tolerance() {
        let h = Region::from_rect(Rect::new(-100, -30, 100, 30));
        let v = Region::from_rect(Rect::new(-30, -102, 30, 100));
        let ph = TopoPattern::encode(&[&h], window());
        let pv = TopoPattern::encode(&[&v], window());
        assert!(ph.matches(&pv, 4));
    }

    #[test]
    fn quantization_merges_near_patterns() {
        let a = Region::from_rect(Rect::new(-50, -50, 50, 50));
        let b = Region::from_rect(Rect::new(-52, -50, 50, 50));
        let pa = TopoPattern::encode_quantized(&[&a], window(), 10);
        let pb = TopoPattern::encode_quantized(&[&b], window(), 10);
        assert_eq!(pa, pb);
    }

    #[test]
    fn multi_layer_patterns_distinguish_layers() {
        let via = Region::from_rect(Rect::new(-45, -45, 45, 45));
        let metal = Region::from_rect(Rect::new(-81, -81, 81, 81));
        let p_via_in_metal = TopoPattern::encode(&[&via, &metal], window());
        let p_metal_in_via = TopoPattern::encode(&[&metal, &via], window());
        assert_ne!(p_via_in_metal.canonical(), p_metal_in_via.canonical());
        // Single layer differs from two-layer.
        let p_single = TopoPattern::encode(&[&via], window());
        assert_ne!(p_single.canonical(), p_via_in_metal.canonical());
    }

    #[test]
    fn canonical_is_idempotent() {
        let r = Region::from_rects([
            Rect::new(-150, 20, -30, 80),
            Rect::new(10, -120, 70, -10),
        ]);
        let p = TopoPattern::encode(&[&r], window());
        assert_eq!(p.canonical(), p.canonical().canonical());
    }

    #[test]
    fn variants_have_eight_members() {
        let r = Region::from_rect(Rect::new(-100, -30, 150, 30));
        let p = TopoPattern::encode(&[&r], window());
        assert_eq!(p.variants().len(), 8);
    }

    #[test]
    #[should_panic(expected = "at most 8 layers")]
    fn too_many_layers_panics() {
        let r = Region::new();
        let layers: Vec<&Region> = vec![&r; 9];
        let _ = TopoPattern::encode(&layers, window());
    }
}
