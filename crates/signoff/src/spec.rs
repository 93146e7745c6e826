//! Job specifications: what a signoff job analyses and how it is
//! sharded. A spec plus the GDS bytes fully determines the report.

use crate::codec::parse_json;
use dfm_bench::json::JsonValue;
use dfm_layout::{layers, Layer, Technology};

/// Everything a signoff job needs besides the layout itself.
///
/// The spec round-trips through JSON ([`JobSpec::to_json`] /
/// [`JobSpec::from_json`]) for the wire protocol and the on-disk
/// checkpoint, and every field participates in the analysis — there
/// are no timestamps or ids in here, so two jobs with equal specs and
/// equal GDS bytes produce byte-identical reports.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Client-chosen label (reported back, not analysed).
    pub name: String,
    /// Technology preset: `"n65"`, `"n45"`, or `"n28"`.
    pub tech: String,
    /// Tile side, nm (square tiles).
    pub tile: i64,
    /// Baseline tile halo, nm (rules still widen it per their own
    /// interaction range).
    pub halo: i64,
    /// Run the full DRC deck of the technology.
    pub drc: bool,
    /// Critical-area layer, if critical area is wanted.
    pub ca_layer: Option<Layer>,
    /// Characteristic defect size x₀ for the CA closed form, nm.
    pub ca_x0: i64,
    /// Litho print-simulation layer, if litho is wanted.
    pub litho_layer: Option<Layer>,
    /// Minimum feature size the litho simulator is tuned for, nm.
    pub litho_feature: i64,
    /// Manufacturability-score spec text (`dfm_score::ScoreSpec`
    /// format; `"default"` selects the built-in spec). `None` disables
    /// scoring. Scoring is a pure function of the merged report plus
    /// submit-time layout statistics, so this field is deliberately
    /// **excluded** from the tile cache key
    /// ([`crate::JobContext::cache_key`]) — toggling it never dirties
    /// a tile.
    pub score: Option<String>,
    /// Tenant the job is billed to for fair-share scheduling and
    /// admission quotas (`crate::sched`). Purely operational: like
    /// `name` it never participates in the analysis or the tile cache
    /// key. `"default"` when the client does not say.
    pub tenant: String,
    /// Scheduling priority, 0 (lowest, the default) to
    /// [`JobSpec::MAX_PRIORITY`]. Higher-priority lanes drain first;
    /// the field is operational only, like [`JobSpec::tenant`].
    pub priority: u8,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "job".to_string(),
            tech: "n65".to_string(),
            tile: 8192,
            halo: 512,
            drc: true,
            ca_layer: Some(layers::METAL1),
            ca_x0: 40,
            litho_layer: None,
            litho_feature: 90,
            score: None,
            tenant: DEFAULT_TENANT.to_string(),
            priority: 0,
        }
    }
}

/// Tenant a spec is billed to when the client names none.
pub const DEFAULT_TENANT: &str = "default";

impl JobSpec {
    /// Largest accepted [`JobSpec::priority`].
    pub const MAX_PRIORITY: u8 = 9;

    /// The CA extraction range (`10·x₀`, matching
    /// [`dfm_yield::critical_area::analyze`]).
    pub fn ca_range(&self) -> i64 {
        10 * self.ca_x0
    }

    /// Resolves the technology preset.
    ///
    /// # Errors
    ///
    /// On an unknown preset name.
    pub fn technology(&self) -> Result<Technology, String> {
        match self.tech.as_str() {
            "n65" => Ok(Technology::n65()),
            "n45" => Ok(Technology::n45()),
            "n28" => Ok(Technology::n28()),
            other => Err(format!("unknown technology '{other}' (want n65|n45|n28)")),
        }
    }

    /// Basic sanity checks a service applies before accepting a job.
    ///
    /// # Errors
    ///
    /// A diagnostic when a field is out of range or nothing is enabled.
    pub fn validate(&self) -> Result<(), String> {
        self.technology()?;
        if self.tile <= 0 {
            return Err(format!("tile must be positive, got {}", self.tile));
        }
        if self.halo < 0 {
            return Err(format!("halo must be non-negative, got {}", self.halo));
        }
        if self.ca_layer.is_some() && self.ca_x0 <= 0 {
            return Err(format!("ca_x0 must be positive, got {}", self.ca_x0));
        }
        if self.litho_layer.is_some() && self.litho_feature <= 0 {
            return Err(format!("litho_feature must be positive, got {}", self.litho_feature));
        }
        if !self.drc && self.ca_layer.is_none() && self.litho_layer.is_none() {
            return Err("spec enables no analysis (drc, ca, litho all off)".to_string());
        }
        if let Some(text) = &self.score {
            dfm_score::ScoreSpec::resolve(Some(text))
                .map_err(|e| format!("spec.score: {e}"))?;
        }
        if !crate::sched::is_tenant_name(&self.tenant) {
            return Err(format!(
                "tenant must be 1-64 chars of [A-Za-z0-9_.-], got '{}'",
                self.tenant
            ));
        }
        if self.priority > JobSpec::MAX_PRIORITY {
            return Err(format!(
                "priority must be 0..={}, got {}",
                JobSpec::MAX_PRIORITY,
                self.priority
            ));
        }
        Ok(())
    }

    /// The parsed score spec, if scoring is enabled.
    ///
    /// # Errors
    ///
    /// Score-spec parse diagnostics.
    pub fn score_spec(&self) -> Result<Option<dfm_score::ScoreSpec>, String> {
        match &self.score {
            None => Ok(None),
            Some(text) => dfm_score::ScoreSpec::resolve(Some(text))
                .map(Some)
                .map_err(|e| format!("spec.score: {e}")),
        }
    }

    /// Renders the spec as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let layer_json = |l: &Option<Layer>| match l {
            Some(l) => JsonValue::str(format!("{}/{}", l.layer, l.datatype)),
            None => JsonValue::Null,
        };
        let mut fields = vec![
            ("name", JsonValue::str(&self.name)),
            ("tech", JsonValue::str(&self.tech)),
            ("tile", JsonValue::Num(self.tile as f64)),
            ("halo", JsonValue::Num(self.halo as f64)),
            ("drc", JsonValue::Bool(self.drc)),
            ("ca_layer", layer_json(&self.ca_layer)),
            ("ca_x0", JsonValue::Num(self.ca_x0 as f64)),
            ("litho_layer", layer_json(&self.litho_layer)),
            ("litho_feature", JsonValue::Num(self.litho_feature as f64)),
        ];
        // Omitted when absent so the rendered spec — embedded verbatim
        // in report text — stays byte-identical for non-scoring jobs
        // (the golden report digests predate this field).
        if let Some(score) = &self.score {
            fields.push(("score", JsonValue::str(score)));
        }
        // Same omit-when-default rule as `score`: single-tenant
        // priority-0 specs keep rendering the exact bytes the golden
        // report digests were pinned against.
        if self.tenant != DEFAULT_TENANT {
            fields.push(("tenant", JsonValue::str(&self.tenant)));
        }
        if self.priority != 0 {
            fields.push(("priority", JsonValue::Num(self.priority as f64)));
        }
        JsonValue::obj(fields)
    }

    /// Parses a spec from a JSON object node. Missing fields take the
    /// [`Default`] values, so clients may send sparse specs.
    ///
    /// # Errors
    ///
    /// On a non-object node or a malformed field.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        if !matches!(v, JsonValue::Obj(_)) {
            return Err("spec must be a JSON object".to_string());
        }
        let mut spec = JobSpec::default();
        if let Some(n) = v.get("name") {
            spec.name = n.as_str().ok_or("spec.name must be a string")?.to_string();
        }
        if let Some(t) = v.get("tech") {
            spec.tech = t.as_str().ok_or("spec.tech must be a string")?.to_string();
        }
        if let Some(t) = v.get("tile") {
            spec.tile = json_i64(t, "spec.tile")?;
        }
        if let Some(h) = v.get("halo") {
            spec.halo = json_i64(h, "spec.halo")?;
        }
        if let Some(d) = v.get("drc") {
            spec.drc = d.as_bool().ok_or("spec.drc must be a boolean")?;
        }
        if let Some(l) = v.get("ca_layer") {
            spec.ca_layer = parse_layer(l, "spec.ca_layer")?;
        }
        if let Some(x) = v.get("ca_x0") {
            spec.ca_x0 = json_i64(x, "spec.ca_x0")?;
        }
        if let Some(l) = v.get("litho_layer") {
            spec.litho_layer = parse_layer(l, "spec.litho_layer")?;
        }
        if let Some(f) = v.get("litho_feature") {
            spec.litho_feature = json_i64(f, "spec.litho_feature")?;
        }
        if let Some(s) = v.get("score") {
            spec.score = match s {
                JsonValue::Null => None,
                JsonValue::Str(text) => Some(text.clone()),
                _ => return Err("spec.score must be a string or null".to_string()),
            };
        }
        if let Some(t) = v.get("tenant") {
            spec.tenant = t.as_str().ok_or("spec.tenant must be a string")?.to_string();
        }
        if let Some(p) = v.get("priority") {
            let p = json_i64(p, "spec.priority")?;
            if !(0..=JobSpec::MAX_PRIORITY as i64).contains(&p) {
                return Err(format!(
                    "spec.priority must be 0..={}, got {p}",
                    JobSpec::MAX_PRIORITY
                ));
            }
            spec.priority = p as u8;
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Parse or field diagnostics.
    pub fn from_json_text(s: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse_json(s)?)
    }
}

/// Reads an exactly-integral JSON number: JSON numbers are f64, which
/// hold every integer of magnitude below 2^53 exactly (coordinator ids
/// are masked to 53 bits for this reason).
pub(crate) fn json_i64(v: &JsonValue, what: &str) -> Result<i64, String> {
    let n = v.as_f64().ok_or_else(|| format!("{what} must be a number"))?;
    if n.fract() != 0.0 || n.abs() >= (1u64 << 53) as f64 {
        return Err(format!("{what} must be an integer, got {n}"));
    }
    Ok(n as i64)
}

/// Parses `"layer/datatype"` (or null → None).
fn parse_layer(v: &JsonValue, what: &str) -> Result<Option<Layer>, String> {
    match v {
        JsonValue::Null => Ok(None),
        JsonValue::Str(s) => {
            let (l, d) = s
                .split_once('/')
                .ok_or_else(|| format!("{what} must look like \"4/0\""))?;
            let l: u16 = l.parse().map_err(|_| format!("{what}: bad layer number"))?;
            let d: u16 = d.parse().map_err(|_| format!("{what}: bad datatype"))?;
            Ok(Some(Layer::new(l, d)))
        }
        _ => Err(format!("{what} must be a \"layer/datatype\" string or null")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_integers_are_exact_up_to_53_bits() {
        let max = (1u64 << 53) - 1;
        assert_eq!(json_i64(&JsonValue::Num(max as f64), "n"), Ok(max as i64));
        assert_eq!(json_i64(&JsonValue::Num(-(max as f64)), "n"), Ok(-(max as i64)));
        assert!(json_i64(&JsonValue::Num((1u64 << 53) as f64), "n").is_err());
        assert!(json_i64(&JsonValue::Num(1.5), "n").is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            name: "block-a".to_string(),
            litho_layer: Some(layers::METAL2),
            tile: 1700,
            ..JobSpec::default()
        };
        let rendered = spec.to_json().render();
        let back = JobSpec::from_json_text(&rendered).expect("parse");
        assert_eq!(back, spec);
    }

    #[test]
    fn sparse_spec_takes_defaults() {
        let spec = JobSpec::from_json_text(r#"{"tile":2048}"#).expect("parse");
        assert_eq!(spec.tile, 2048);
        assert_eq!(spec.tech, "n65");
        assert!(spec.drc);
        assert_eq!(spec.ca_layer, Some(layers::METAL1));
    }

    #[test]
    fn bad_specs_are_diagnosed() {
        assert!(JobSpec { tech: "n14".into(), ..JobSpec::default() }.validate().is_err());
        assert!(JobSpec { tile: 0, ..JobSpec::default() }.validate().is_err());
        assert!(JobSpec {
            drc: false,
            ca_layer: None,
            litho_layer: None,
            ..JobSpec::default()
        }
        .validate()
        .is_err());
        assert!(JobSpec::from_json_text(r#"{"ca_layer":"x"}"#).is_err());
        assert!(JobSpec::from_json_text(r#"{"tile":1.5}"#).is_err());
        assert!(JobSpec::from_json_text("[1]").is_err());
        assert!(JobSpec { score: Some("not a spec".into()), ..JobSpec::default() }
            .validate()
            .is_err());
        assert!(JobSpec::from_json_text(r#"{"score":7}"#).is_err());
    }

    #[test]
    fn score_field_round_trips_and_is_omitted_when_off() {
        // Off: the rendered JSON must not mention score at all — the
        // spec line is embedded in report text and golden-pinned.
        let off = JobSpec::default();
        assert!(!off.to_json().render().contains("score"));
        assert_eq!(JobSpec::from_json_text(&off.to_json().render()).expect("parse"), off);
        // On: round-trips, including multi-line spec text.
        let on = JobSpec {
            score: Some("pass 0.7\nmetric drc.violations weight 1 scorer step 0\n".into()),
            ..JobSpec::default()
        };
        on.validate().expect("valid");
        let back = JobSpec::from_json_text(&on.to_json().render()).expect("parse");
        assert_eq!(back, on);
        // "default" selects the built-in spec.
        let dflt = JobSpec { score: Some("default".into()), ..JobSpec::default() };
        dflt.validate().expect("valid");
        assert_eq!(
            dflt.score_spec().expect("ok"),
            Some(dfm_score::ScoreSpec::default_spec())
        );
        assert_eq!(off.score_spec().expect("ok"), None);
    }

    #[test]
    fn tenant_and_priority_round_trip_and_are_omitted_when_default() {
        // Default tenant + priority 0 must leave the rendered spec
        // byte-identical to the pre-scheduler format.
        let plain = JobSpec::default();
        let rendered = plain.to_json().render();
        assert!(!rendered.contains("tenant") && !rendered.contains("priority"));
        assert_eq!(JobSpec::from_json_text(&rendered).expect("parse"), plain);
        let spec = JobSpec {
            tenant: "acme-01".to_string(),
            priority: 7,
            ..JobSpec::default()
        };
        spec.validate().expect("valid");
        let back = JobSpec::from_json_text(&spec.to_json().render()).expect("parse");
        assert_eq!(back, spec);
        // Out-of-range or malformed values are diagnosed.
        assert!(JobSpec { tenant: "has space".into(), ..JobSpec::default() }
            .validate()
            .is_err());
        assert!(JobSpec { priority: 10, ..JobSpec::default() }.validate().is_err());
        assert!(JobSpec::from_json_text(r#"{"priority":11}"#).is_err());
        assert!(JobSpec::from_json_text(r#"{"priority":-1}"#).is_err());
        assert!(JobSpec::from_json_text(r#"{"tenant":3}"#).is_err());
    }
}
