//! Forest persistence: a JSON round-trip through [`crate::json`]'s writer
//! and parser (DESIGN §10).
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

use crate::json::{self, JsonValue, Writer};

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
    let u32s = |w: &mut Writer, x: &u32| w.u64(u64::from(*x));
    let bits = |w: &mut Writer, x: &f64| w.u64(x.to_bits());
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("format").str(FOREST_FORMAT);
        w.key("width").u64(forest.width() as u64);
        w.key("n_trees").u64(forest.n_trees() as u64);
        w.key("trees").arr(forest.trees(), |w, tree| {
            let (split_col, threshold, left, right, value) = tree.parts();
            w.obj(|w| {
                w.key("split_col").arr(&split_col, u32s);
                w.key("threshold_bits").arr(&threshold, bits);
                w.key("left").arr(&left, u32s);
                w.key("right").arr(&right, u32s);
                w.key("value_bits").arr(&value, bits);
            });
        });
    });
    w.finish()
}

/// Parse and validate a forest saved by [`forest_to_json`].
pub fn forest_from_json(text: &str) -> Result<RandomForest, PersistError> {
    let doc = json::parse_borrowed(text)?;
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
    tree: &JsonValue<'_>,
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
pub(crate) mod tests {
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

    /// A stump and a lone leaf, as PR 18's hand-assembled renderer saved
    /// them.
    pub(crate) const TWO_TREE_FOREST: &str = r#"{"format":"robopt-forest-v1","width":3,"n_trees":2,"trees":[{"split_col":[1,4294967295,4294967295],"threshold_bits":[4602678819172646912,0,0],"left":[1,0,0],"right":[2,0,0],"value_bits":[4600427019358961664,13831680355561635840,4611686018427387904]},{"split_col":[4294967295],"threshold_bits":[0],"left":[0],"right":[0],"value_bits":[4591870180066957722]}]}"#;

    /// Loading [`TWO_TREE_FOREST`] and re-saving it reproduces the file byte
    /// for byte.
    #[test]
    fn a_fixed_two_tree_forest_renders_its_golden_text() {
        let forest = forest_from_json(TWO_TREE_FOREST).expect("golden forest loads");
        assert_eq!(forest.predict(&[0.0, 0.75, 0.0]), (2.0 + 0.1) / 2.0);
        assert_eq!(forest_to_json(&forest), TWO_TREE_FOREST);
    }

    /// The text was pinned at the last commit whose fitter sorted every
    /// candidate column at every node: whatever fits trees since then has to
    /// fit these eight, to the bit.
    #[test]
    fn a_forest_fit_on_a_tdgen_set_renders_its_pinned_text() {
        let registry = robopt_platforms::PlatformRegistry::named();
        let layout =
            robopt_vector::FeatureLayout::new(registry.len(), robopt_plan::N_OPERATOR_KINDS);
        let tdgen = robopt_tdgen::TdgenConfig::new().with_seed(41);
        let set = robopt_tdgen::tdgen_training_set(&registry, &layout, &tdgen, 512);
        let cfg = ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        };
        let text = forest_to_json(&RandomForest::fit_on(&cfg, &set));
        let mut digest = robopt_vector::SigHasher::new();
        for byte in text.bytes() {
            digest.write_u64(u64::from(byte));
        }
        assert_eq!(
            (text.len(), digest.finish()),
            (123_715, 0x5ee9_e1c0_8017_754b)
        );
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
