//! Forest persistence: hand-rendered JSON round-trip (DESIGN §10).
//!
//! Every `f64` (split thresholds, leaf values) is stored as its `u64` bit
//! pattern rendered as a JSON integer, and [`crate::json`] keeps numbers as
//! raw text until the accessor parses them — so **save → load →
//! `predict_batch` is bit-identical**, not merely close. Loading validates
//! through [`RegressionTree::from_parts`] / [`RandomForest::from_trees`],
//! so a malformed or hand-edited file is rejected with a typed error and
//! can never install a tree that loops or indexes out of range.
//!
//! The file holds five parallel arrays per tree; in memory a tree is
//! packed nodes that store one child index, so [`RegressionTree::parts`]
//! renders the arrays (leaves canonically: `split_col = u32::MAX`,
//! threshold `0.0`, children `0`) and the loader rejects any internal
//! node whose `right` is not `left + 1`. Every forest this repo has saved
//! has adjacent siblings — the fitter pushes them back to back — so
//! [`FOREST_FORMAT`] and the saved bytes are unchanged.

use robopt_ml::tree::ModelImportError;
use robopt_ml::{Model, RandomForest, RegressionTree};

use crate::json::{self, push_array, JsonValue};

/// Format tag stamped into every saved model.
pub const FOREST_FORMAT: &str = "robopt-forest-v1";

/// Why a model file failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Not valid JSON.
    Json(json::JsonError),
    /// Valid JSON, wrong shape (missing field, wrong type, bad format tag).
    Schema(String),
    /// Well-formed arrays that fail tree/forest structural validation.
    Model(ModelImportError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Json(e) => write!(f, "model file is not valid JSON: {e}"),
            PersistError::Schema(msg) => write!(f, "model file schema error: {msg}"),
            PersistError::Model(e) => write!(f, "model validation failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<json::JsonError> for PersistError {
    fn from(e: json::JsonError) -> Self {
        PersistError::Json(e)
    }
}

impl From<ModelImportError> for PersistError {
    fn from(e: ModelImportError) -> Self {
        PersistError::Model(e)
    }
}

/// Render a fitted forest as a self-describing JSON document.
pub fn forest_to_json(forest: &RandomForest) -> String {
    let push_u32 = |out: &mut String, x: &u32| out.push_str(&x.to_string());
    let push_bits = |out: &mut String, x: &f64| out.push_str(&x.to_bits().to_string());
    let mut out = String::with_capacity(4096);
    out.push_str("{\"format\":\"");
    out.push_str(FOREST_FORMAT);
    out.push_str("\",\"width\":");
    out.push_str(&forest.width().to_string());
    out.push_str(",\"n_trees\":");
    out.push_str(&forest.n_trees().to_string());
    out.push_str(",\"trees\":[");
    for (t, tree) in forest.trees().iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        let (split_col, threshold, left, right, value) = tree.parts();
        out.push_str("{\"split_col\":");
        push_array(&mut out, &split_col, push_u32);
        out.push_str(",\"threshold_bits\":");
        push_array(&mut out, &threshold, push_bits);
        out.push_str(",\"left\":");
        push_array(&mut out, &left, push_u32);
        out.push_str(",\"right\":");
        push_array(&mut out, &right, push_u32);
        out.push_str(",\"value_bits\":");
        push_array(&mut out, &value, push_bits);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Parse and validate a forest saved by [`forest_to_json`].
pub fn forest_from_json(text: &str) -> Result<RandomForest, PersistError> {
    let doc = json::parse(text)?;
    let format = doc
        .get("format")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| PersistError::Schema("missing \"format\" tag".to_string()))?;
    if format != FOREST_FORMAT {
        return Err(PersistError::Schema(format!(
            "format {format:?} is not {FOREST_FORMAT:?}"
        )));
    }
    let width = doc
        .get("width")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| PersistError::Schema("missing or non-integer \"width\"".to_string()))?;
    let tree_docs = doc
        .get("trees")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| PersistError::Schema("missing \"trees\" array".to_string()))?;
    let mut trees = Vec::with_capacity(tree_docs.len());
    for (t, td) in tree_docs.iter().enumerate() {
        let u32s = |key| array(td, key, t, "u32 value", |x| u32::try_from(x).ok());
        let bits = |key| array(td, key, t, "u64 bit pattern", |x| Some(f64::from_bits(x)));
        let split_col = u32s("split_col")?;
        let threshold = bits("threshold_bits")?;
        let left = u32s("left")?;
        let right = u32s("right")?;
        let value = bits("value_bits")?;
        trees.push(RegressionTree::from_parts(
            width, split_col, threshold, left, right, value,
        )?);
    }
    Ok(RandomForest::from_trees(width, trees)?)
}

/// The `key` array of tree `t`, each integer decoded by `read`; `what`
/// names the element type in the error.
fn array<T>(
    tree: &JsonValue,
    key: &str,
    t: usize,
    what: &str,
    read: impl Fn(u64) -> Option<T>,
) -> Result<Vec<T>, PersistError> {
    let items = tree
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| PersistError::Schema(format!("tree {t}: missing {key:?} array")))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(&read)
                .ok_or_else(|| PersistError::Schema(format!("tree {t}: non-{what} in {key:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_ml::ForestConfig;
    use robopt_plan::SplitMix64;
    use robopt_vector::RowsView;

    fn fitted_forest() -> (RandomForest, Vec<f64>) {
        let width = 5;
        let mut rng = SplitMix64::new(97);
        let n = 256;
        let mut feats = Vec::with_capacity(n * width);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..width).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            labels.push(x[0].abs() + 0.5 * x[1] + 0.05 * rng.next_f64());
            feats.extend_from_slice(&x);
        }
        let cfg = ForestConfig {
            n_trees: 12,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&cfg, RowsView::new(&feats, width), &labels);
        (forest, feats)
    }

    #[test]
    fn save_load_predict_batch_is_bit_identical() {
        let (forest, feats) = fitted_forest();
        let text = forest_to_json(&forest);
        let loaded = forest_from_json(&text).expect("round trip");
        let rows = RowsView::new(&feats, 5);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        forest.predict_batch(rows, &mut a);
        loaded.predict_batch(rows, &mut b);
        assert_eq!(a.len(), b.len());
        for (r, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {r} diverges after reload");
        }
        // And the re-render is byte-identical: persistence is a fixpoint.
        assert_eq!(text, forest_to_json(&loaded));
    }

    #[test]
    fn malformed_model_files_are_rejected_with_typed_errors() {
        assert!(matches!(
            forest_from_json("not json at all"),
            Err(PersistError::Json(_))
        ));
        assert!(matches!(
            forest_from_json("{\"format\":\"other-v9\"}"),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(
            forest_from_json(&format!("{{\"format\":\"{FOREST_FORMAT}\",\"width\":3}}")),
            Err(PersistError::Schema(_))
        ));
        // Structurally invalid tree: self-referential child.
        let bad = format!(
            "{{\"format\":\"{FOREST_FORMAT}\",\"width\":2,\"trees\":[{{\
             \"split_col\":[0],\"threshold_bits\":[{}],\"left\":[0],\"right\":[0],\
             \"value_bits\":[0]}}]}}",
            0.5f64.to_bits()
        );
        assert!(matches!(
            forest_from_json(&bad),
            Err(PersistError::Model(_))
        ));
    }

    #[test]
    fn tampered_arrays_cannot_smuggle_in_nonsense() {
        let (forest, _) = fitted_forest();
        let good = forest_to_json(&forest);
        // Truncate one array: length mismatch must surface as Model error.
        let tampered = good.replacen("\"left\":[", "\"left\":[9999999,", 1);
        assert!(forest_from_json(&tampered).is_err());
    }
}
