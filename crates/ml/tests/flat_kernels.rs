//! Property tests pinning both SoA inference kernels to the scalar
//! early-exit f64 reference — bitwise, not tolerance-based.
//!
//! The flattened ensemble has two prediction kernels (scalar and batch,
//! both over the packed binned layout) that must agree bit for bit with
//! `predict_one_from_unbinned` on *every* input, including NaN and ±∞
//! feature values (which must route like the f64 comparison: NaN right,
//! never off a leaf) and depth-0 stump trees (whose leaf self-loops
//! exercise the park-on-leaf encoding). The persist codec must also
//! rebuild the derived state (depths, bin plan) into a
//! bitwise-identical predictor, and reject an ensemble the packed
//! layout cannot hold with a typed error.
//!
//! These run under Miri in CI with a reduced `PROPTEST_CASES`, so the
//! `get_unchecked` lockstep loops are exercised under the strictest
//! aliasing/bounds model available.

use proptest::prelude::*;

use mpcp_ml::flat::FlatTrees;
use mpcp_ml::persist::{ByteReader, ByteWriter, CodecError, Persist};
use mpcp_ml::tree::{GradTree, SortedColumns, TreeParams};
use mpcp_ml::Dataset;

/// Grow a small ensemble deterministically from generated rows; a
/// `max_depth` of 0 produces single-leaf stumps (self-loop leaves).
fn grow(rows: &[(f64, f64, f64)], ntrees: usize, max_depth: usize) -> FlatTrees {
    let mut d = Dataset::new(2);
    for &(a, b, y) in rows {
        d.push(&[a, b], y);
    }
    let sorted = SortedColumns::new(&d);
    let params = TreeParams { max_depth, lambda: 1.0, ..Default::default() };
    let trees: Vec<GradTree> = (0..ntrees)
        .map(|t| {
            // Vary the gradients per round so the trees differ.
            let g: Vec<f64> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| -r.2 * (1.0 + 0.3 * ((i + t) as f64).sin()))
                .collect();
            let h = vec![1.0; d.len()];
            GradTree::fit(&d, &sorted, &g, &h, &params, &[0, 1], None)
        })
        .collect();
    FlatTrees::from_trees(&trees, 0.3).expect("small ensembles fit the packed layout")
}

/// A feature value that may be NaN or ±∞, not just in-range.
fn wild_value() -> impl Strategy<Value = f64> {
    // Repeated range arms weight toward in-range values (the vendored
    // `prop_oneof!` picks arms uniformly).
    prop_oneof![
        -150.0f64..150.0,
        -150.0f64..150.0,
        -150.0f64..150.0,
        -150.0f64..150.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ]
}

/// Both kernels and the f64 reference for `xs`, asserted
/// bitwise-equal; returns the batch result for further checks.
fn assert_paths_agree(flat: &FlatTrees, xs: &[f64]) -> Result<Vec<f64>, TestCaseError> {
    let rows = xs.len() / 2;
    let mut batch = vec![0.25f64; rows];
    flat.predict_batch_into(xs, 2, &mut batch);
    for i in 0..rows {
        let row = &xs[i * 2..(i + 1) * 2];
        let scalar = flat.predict_one_from(row, 0.25);
        prop_assert_eq!(batch[i].to_bits(), scalar.to_bits(), "row {}: batch vs scalar", i);
        let reference = flat.predict_one_from_unbinned(row, 0.25);
        prop_assert_eq!(scalar.to_bits(), reference.to_bits(), "row {}: scalar vs reference", i);
    }
    Ok(batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch kernel ≡ scalar kernel ≡ f64 reference, bitwise, on wild
    /// inputs (NaN, ±∞, negative zero, far off-grid) — and the result
    /// is always finite, i.e. no kernel ever walks off a leaf self-loop.
    #[test]
    fn kernel_paths_agree_bitwise_with_the_reference(
        rows in prop::collection::vec(
            ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..100.0)), 4..40),
        queries in prop::collection::vec((wild_value(), wild_value()), 1..40),
        ntrees in 1usize..6,
        max_depth in 1usize..6,
    ) {
        let flat = grow(&rows, ntrees, max_depth);
        let xs: Vec<f64> = queries.iter().flat_map(|&(a, b)| [a, b]).collect();
        let batch = assert_paths_agree(&flat, &xs)?;
        for (i, p) in batch.iter().enumerate() {
            prop_assert!(p.is_finite(), "row {} produced {}", i, p);
        }
    }

    /// Depth-0 stumps are all leaf self-loops: the batch fast path, the
    /// lockstep block path, and scalar traversal must all emit the same
    /// constant regardless of (possibly non-finite) features.
    #[test]
    fn stump_ensembles_predict_their_constant(
        rows in prop::collection::vec(
            ((-50.0f64..50.0), (-50.0f64..50.0), (0.5f64..50.0)), 2..20),
        queries in prop::collection::vec((wild_value(), wild_value()), 1..40),
        ntrees in 1usize..20,
    ) {
        let flat = grow(&rows, ntrees, 0);
        let xs: Vec<f64> = queries.iter().flat_map(|&(a, b)| [a, b]).collect();
        let batch = assert_paths_agree(&flat, &xs)?;
        // Every query lands on the same leaves: one constant.
        let expect = flat.predict_one_from(&[0.0, 0.0], 0.25);
        for (i, p) in batch.iter().enumerate() {
            prop_assert_eq!(p.to_bits(), expect.to_bits(), "row {} is not the stump constant", i);
        }
    }

    /// A mixed ensemble (stumps between real trees) keeps summation
    /// order and bitwise agreement across all paths.
    #[test]
    fn mixed_depth_ensembles_agree_bitwise(
        rows in prop::collection::vec(
            ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..100.0)), 4..30),
        queries in prop::collection::vec((wild_value(), wild_value()), 1..30),
    ) {
        let mut d = Dataset::new(2);
        for &(a, b, y) in &rows {
            d.push(&[a, b], y);
        }
        let sorted = SortedColumns::new(&d);
        let g: Vec<f64> = rows.iter().map(|r| -r.2).collect();
        let h = vec![1.0; d.len()];
        let deep = TreeParams { max_depth: 5, lambda: 1.0, ..Default::default() };
        let stump = TreeParams { max_depth: 0, lambda: 1.0, ..Default::default() };
        let trees = vec![
            GradTree::fit(&d, &sorted, &g, &h, &deep, &[0, 1], None),
            GradTree::fit(&d, &sorted, &g, &h, &stump, &[0, 1], None),
            GradTree::fit(&d, &sorted, &g, &h, &deep, &[0], None),
        ];
        let flat = FlatTrees::from_trees(&trees, 0.7).expect("fits the packed layout");
        let xs: Vec<f64> = queries.iter().flat_map(|&(a, b)| [a, b]).collect();
        assert_paths_agree(&flat, &xs)?;
    }

    /// Persist round-trip: the decoder rebuilds the derived state
    /// (depths, bin plan) into a predictor that is
    /// bitwise identical on every path, and re-encoding is byte-stable.
    #[test]
    fn persist_roundtrip_is_bitwise_identical(
        rows in prop::collection::vec(
            ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..100.0)), 4..40),
        queries in prop::collection::vec((wild_value(), wild_value()), 1..20),
        ntrees in 1usize..5,
        max_depth in 0usize..5,
    ) {
        let flat = grow(&rows, ntrees, max_depth);
        let mut w = ByteWriter::new();
        flat.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = FlatTrees::decode(&mut r).expect("valid encoding decodes");
        prop_assert_eq!(decoded.num_trees(), flat.num_trees());
        prop_assert_eq!(decoded.num_nodes(), flat.num_nodes());
        let xs: Vec<f64> = queries.iter().flat_map(|&(a, b)| [a, b]).collect();
        let original = assert_paths_agree(&flat, &xs)?;
        let reloaded = assert_paths_agree(&decoded, &xs)?;
        for i in 0..original.len() {
            prop_assert_eq!(original[i].to_bits(), reloaded[i].to_bits(), "row {} drifted", i);
        }
        let mut w2 = ByteWriter::new();
        decoded.encode(&mut w2);
        prop_assert_eq!(w2.into_bytes(), bytes, "re-encoding is not byte-stable");
    }
}

/// A hand-encoded ensemble of 300 one-split trees on feature 0, each at
/// a distinct threshold: more cuts than the packed `u8` bins hold, so
/// decoding is a typed error — not a panic, not a second kernel.
#[test]
fn decoding_more_cuts_than_the_bins_hold_is_a_codec_error() {
    let trees = 300u32;
    let mut w = ByteWriter::new();
    w.put_len(3 * trees as usize);
    for t in 0..trees {
        let root = 3 * t;
        w.put_f64(f64::from(t));
        w.put_u32(0);
        w.put_u32(root + 1);
        for leaf in [root + 1, root + 2] {
            w.put_f64(f64::INFINITY);
            w.put_u32(0);
            w.put_u32(leaf);
        }
    }
    w.put_f64s(&vec![0.5; 3 * trees as usize]);
    w.put_u32s(&(0..trees).map(|t| 3 * t).collect::<Vec<_>>());
    let bytes = w.into_bytes();
    match FlatTrees::decode(&mut ByteReader::new(&bytes)) {
        Err(CodecError::Invalid { what }) => {
            assert!(what.contains("300 distinct thresholds"), "{what}")
        }
        other => panic!("expected a typed layout error, got {other:?}"),
    }
}
