//! The merged signoff report and its canonical text rendering.
//!
//! [`SignoffReport::render_text`] is the byte-comparison surface for
//! every determinism property in the crate: tiled-vs-flat, worker
//! counts, and kill/resume all assert on these exact bytes. The
//! rendering therefore contains results only — no job ids, durations,
//! or timestamps — and prints every `f64` both in shortest-round-trip
//! decimal *and* as its IEEE-754 bit pattern so "close" can never pass
//! for "equal".

use crate::codec::signoff_digest_64;
use crate::spec::JobSpec;
use dfm_drc::{DrcEngine, DrcReport, RuleDeck};
use dfm_geom::{Rect, Region};
use dfm_layout::Library;
use dfm_litho::{Condition, LithoSimulator};
use dfm_yield::critical_area::{analyze_with_range, CaResult};
use dfm_yield::DefectModel;
use std::fmt::Write as _;

/// Defect density used for the CA model. The average critical area
/// reported here is independent of density (it only scales the yield
/// integral, not the area), so any fixed value keeps reports
/// comparable; this one matches the workspace experiments.
pub const CA_D0_PER_CM2: f64 = 1000.0;

/// Critical-area figures for one layer.
#[derive(Clone, Debug, PartialEq)]
pub struct CaSummary {
    /// Average short (bridging) critical area, nm².
    pub short_ca_nm2: f64,
    /// Average open (severing) critical area, nm².
    pub open_ca_nm2: f64,
    /// Number of contributing spacing pairs.
    pub short_pairs: usize,
    /// Number of contributing width pairs.
    pub open_pairs: usize,
}

impl CaSummary {
    /// Collapses a full [`CaResult`] to the reported figures.
    pub fn from_result(r: &CaResult) -> CaSummary {
        CaSummary {
            short_ca_nm2: r.short_ca_nm2,
            open_ca_nm2: r.open_ca_nm2,
            short_pairs: r.short_pairs.len(),
            open_pairs: r.open_pairs.len(),
        }
    }
}

/// Printed-image figures for one layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LithoSummary {
    /// Total printed area, nm².
    pub printed_area: i128,
    /// Canonical rect count of the printed region.
    pub rect_count: usize,
    /// [`signoff_digest_64`] over the canonical rect list.
    pub digest: u64,
}

impl LithoSummary {
    /// Summarises a printed region (area, rect count, geometry digest).
    pub fn from_region(printed: &Region) -> LithoSummary {
        LithoSummary {
            printed_area: printed.area(),
            rect_count: printed.rect_count(),
            digest: digest_rects(printed.rects()),
        }
    }
}

/// One quarantined tile in a `Partial`-complete job's report: the tile
/// exhausted its retry budget and its results are **excluded** from
/// every figure above the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedTile {
    /// Tile index.
    pub tile: usize,
    /// Failed attempts consumed before quarantine.
    pub attempts: u64,
    /// The last failure's diagnostic.
    pub reason: String,
}

/// The merged result of a signoff job: one section per enabled engine.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SignoffReport {
    /// Full DRC report (present when the spec enables DRC).
    pub drc: Option<DrcReport>,
    /// Critical-area figures (present when the spec names a CA layer).
    pub ca: Option<CaSummary>,
    /// Litho print figures (present when the spec names a litho layer).
    pub litho: Option<LithoSummary>,
    /// Quarantined-tile manifest, sorted by tile. Empty on a clean run
    /// — and rendered only when non-empty, so fault-free reports are
    /// byte-identical to reports from before quarantine existed.
    pub quarantined: Vec<QuarantinedTile>,
}

impl SignoffReport {
    /// Renders the canonical report text. Equal reports render to
    /// equal bytes and vice versa (f64s are printed with their bit
    /// patterns; DRC violations are digested geometry-exactly).
    pub fn render_text(&self, spec: &JobSpec) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "signoff report");
        let _ = writeln!(out, "spec: {}", spec.to_json().render());
        match &self.drc {
            None => {
                let _ = writeln!(out, "drc: skipped");
            }
            Some(report) => {
                let _ = writeln!(
                    out,
                    "drc: {} violations, digest {:#018x}",
                    report.violation_count(),
                    digest_violations(report)
                );
                for (rule, count) in report.counts() {
                    let _ = writeln!(out, "drc.rule {rule}: {count}");
                }
            }
        }
        match &self.ca {
            None => {
                let _ = writeln!(out, "ca: skipped");
            }
            Some(ca) => {
                let _ = writeln!(
                    out,
                    "ca.short: {} nm2 [{:#018x}] over {} pairs",
                    ca.short_ca_nm2,
                    ca.short_ca_nm2.to_bits(),
                    ca.short_pairs
                );
                let _ = writeln!(
                    out,
                    "ca.open: {} nm2 [{:#018x}] over {} pairs",
                    ca.open_ca_nm2,
                    ca.open_ca_nm2.to_bits(),
                    ca.open_pairs
                );
            }
        }
        match &self.litho {
            None => {
                let _ = writeln!(out, "litho: skipped");
            }
            Some(l) => {
                let _ = writeln!(
                    out,
                    "litho.printed: {} nm2 in {} rects, digest {:#018x}",
                    l.printed_area, l.rect_count, l.digest
                );
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "quarantine: {} tiles excluded", self.quarantined.len());
            for q in &self.quarantined {
                let _ = writeln!(
                    out,
                    "quarantine.tile {}: {} attempts, {}",
                    q.tile, q.attempts, q.reason
                );
            }
        }
        out
    }
}

/// [`signoff_digest_64`] over a rect list's coordinates, in order.
pub fn digest_rects(rects: &[Rect]) -> u64 {
    let mut bytes = Vec::with_capacity(rects.len() * 32);
    for r in rects {
        for c in [r.x0, r.y0, r.x1, r.y1] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    signoff_digest_64(&bytes)
}

/// [`signoff_digest_64`] over a DRC report's violations (rule name, location,
/// actual, limit), in report order.
pub fn digest_violations(report: &DrcReport) -> u64 {
    let mut bytes = Vec::new();
    for v in report.violations() {
        bytes.extend_from_slice(v.rule.as_bytes());
        bytes.push(0);
        for c in [v.location.x0, v.location.y0, v.location.x1, v.location.y1, v.actual, v.limit] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    signoff_digest_64(&bytes)
}

/// Runs the whole job single-shot on the flattened layout — no tiling,
/// no scheduler, no service. This is the reference every scheduled run
/// must match byte-for-byte.
///
/// # Errors
///
/// Spec validation failures and layout flattening failures.
pub fn flat_report(spec: &JobSpec, lib: &Library) -> Result<SignoffReport, String> {
    let top = lib.top().ok_or("library has no top cell")?;
    let flat = lib.flatten(top).map_err(|e| format!("flatten failed: {e}"))?;
    flat_layout_report(spec, &flat)
}

/// [`flat_report`] for an already-flattened layout — the entry point
/// the auto-fix search uses to score candidate edits without a round
/// trip through a library.
///
/// # Errors
///
/// Spec validation and engine diagnostics.
pub fn flat_layout_report(
    spec: &JobSpec,
    flat: &dfm_layout::FlatLayout,
) -> Result<SignoffReport, String> {
    spec.validate()?;
    let tech = spec.technology()?;
    let mut report = SignoffReport::default();
    if spec.drc {
        let deck = RuleDeck::for_technology(&tech);
        report.drc = Some(DrcEngine::new(&deck).run(flat));
    }
    if let Some(layer) = spec.ca_layer {
        let defects = DefectModel::new(spec.ca_x0, CA_D0_PER_CM2);
        let result = analyze_with_range(&flat.region(layer), &defects, spec.ca_range());
        report.ca = Some(CaSummary::from_result(&result));
    }
    if let Some(layer) = spec.litho_layer {
        let sim = LithoSimulator::for_feature_size(spec.litho_feature);
        let printed = sim.printed(&flat.region(layer), Condition::nominal());
        report.litho = Some(LithoSummary::from_region(&printed));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{generate, Technology};

    fn small_lib() -> Library {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 6_000,
            height: 6_000,
            ..Default::default()
        };
        generate::routed_block(&tech, params, 11)
    }

    #[test]
    fn flat_report_renders_every_enabled_section() {
        let lib = small_lib();
        let spec = JobSpec {
            litho_layer: Some(dfm_layout::layers::METAL1),
            ..JobSpec::default()
        };
        let report = flat_report(&spec, &lib).expect("flat report");
        let text = report.render_text(&spec);
        assert!(text.contains("drc:"), "{text}");
        assert!(text.contains("ca.short:"), "{text}");
        assert!(text.contains("litho.printed:"), "{text}");
        assert!(!text.contains("skipped"), "{text}");
    }

    #[test]
    fn rendering_is_reproducible() {
        let lib = small_lib();
        let spec = JobSpec::default();
        let a = flat_report(&spec, &lib).expect("a").render_text(&spec);
        let b = flat_report(&spec, &lib).expect("b").render_text(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn digest_distinguishes_rect_lists() {
        let a = [Rect::new(0, 0, 10, 10)];
        let b = [Rect::new(0, 0, 10, 11)];
        assert_ne!(digest_rects(&a), digest_rects(&b));
        assert_ne!(digest_rects(&a), digest_rects(&[]));
    }
}
