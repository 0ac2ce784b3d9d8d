//! Newton (second-order) regression trees — the weak learner behind both
//! the XGBoost-style booster and the random-forest baseline.
//!
//! The tree is grown level-wise with the exact-greedy split search over
//! presorted feature columns, exactly as in `xgboost`'s `exact` tree
//! method: leaf value `-G/(H+λ)` and split gain
//! `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ`, where `G`/`H` are
//! sums of first/second-order gradient statistics. Plain least-squares
//! trees (for the forest) are the special case `g = -y`, `h = 1`, `λ = 0`.

use crate::dataset::Dataset;

/// Tree growth parameters (defaults mirror xgboost).
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum tree depth (xgboost default 6).
    pub max_depth: usize,
    /// Minimum sum of hessians per child (xgboost `min_child_weight`).
    pub min_child_weight: f64,
    /// L2 regularization on leaf values (xgboost `lambda`).
    pub lambda: f64,
    /// Minimum gain to split (xgboost `gamma`).
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 6, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0 }
    }
}

pub(crate) const LEAF: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) feat: u32,
    pub(crate) thresh: f64,
    pub(crate) left: u32,
    pub(crate) right: u32,
    pub(crate) value: f64,
}

/// A fitted regression tree over gradient statistics.
#[derive(Clone, Debug)]
pub struct GradTree {
    pub(crate) nodes: Vec<Node>,
}

/// Presorted feature columns, shareable across the trees of one booster
/// or forest (sorting once per model instead of once per tree).
pub struct SortedColumns {
    /// For each feature: sample indices in ascending feature order.
    order: Vec<Vec<u32>>,
}

impl SortedColumns {
    /// Sort each feature column of `data` once.
    pub fn new(data: &Dataset) -> SortedColumns {
        let n = data.len();
        let order = (0..data.nfeat())
            .map(|f| {
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.sort_by(|&a, &b| {
                    data.at(a as usize, f).total_cmp(&data.at(b as usize, f))
                });
                idx
            })
            .collect();
        SortedColumns { order }
    }
}

/// Per-node split-scan state for one feature pass.
#[derive(Clone, Copy)]
struct ScanState {
    gl: f64,
    hl: f64,
    last_value: f64,
    any: bool,
}

/// Best split candidate per node.
#[derive(Clone, Copy)]
struct BestSplit {
    gain: f64,
    feat: u32,
    thresh: f64,
}

impl GradTree {
    /// Grow a tree on gradient statistics `(g, h)`.
    ///
    /// `features` restricts the split search (random-subspace sampling
    /// for forests); pass all feature indices for boosting. `sample_mask`
    /// marks which rows participate (bootstrap sampling); `None` = all.
    pub fn fit(
        data: &Dataset,
        sorted: &SortedColumns,
        g: &[f64],
        h: &[f64],
        params: &TreeParams,
        features: &[usize],
        sample_weight: Option<&[u32]>,
    ) -> GradTree {
        let n = data.len();
        assert_eq!(g.len(), n);
        assert_eq!(h.len(), n);
        let weight = |i: usize| -> f64 {
            sample_weight.map_or(1.0, |w| w[i] as f64)
        };

        // node_of[i]: current leaf of sample i (LEAF marker = inactive).
        let mut node_of: Vec<u32> = (0..n)
            .map(|i| if weight(i) > 0.0 { 0u32 } else { LEAF })
            .collect();
        let mut nodes: Vec<Node> = Vec::new();

        // Root statistics.
        let (mut g0, mut h0) = (0.0, 0.0);
        for i in 0..n {
            if node_of[i] == 0 {
                g0 += g[i] * weight(i);
                h0 += h[i] * weight(i);
            }
        }
        nodes.push(Node {
            feat: LEAF,
            thresh: 0.0,
            left: LEAF,
            right: LEAF,
            value: leaf_value(g0, h0, params.lambda),
        });
        let mut level: Vec<u32> = vec![0];
        let mut totals: Vec<(f64, f64)> = vec![(g0, h0)];

        for _depth in 0..params.max_depth {
            if level.is_empty() {
                break;
            }
            // Map node id -> dense position in this level.
            let mut pos_of = vec![usize::MAX; nodes.len()];
            for (pos, &nid) in level.iter().enumerate() {
                pos_of[nid as usize] = pos;
            }
            let mut best: Vec<Option<BestSplit>> = vec![None; level.len()];

            for &f in features {
                let mut scan: Vec<ScanState> =
                    vec![ScanState { gl: 0.0, hl: 0.0, last_value: 0.0, any: false }; level.len()];
                for &iu in &sorted.order[f] {
                    let i = iu as usize;
                    let nid = node_of[i];
                    if nid == LEAF || (nid as usize) >= pos_of.len() {
                        continue;
                    }
                    let pos = pos_of[nid as usize];
                    if pos == usize::MAX {
                        continue;
                    }
                    let x = data.at(i, f);
                    let st = &mut scan[pos];
                    let (gt, ht) = totals[pos];
                    if st.any && x > st.last_value {
                        // Candidate split strictly between values.
                        let (gl, hl) = (st.gl, st.hl);
                        let (gr, hr) = (gt - gl, ht - hl);
                        if hl >= params.min_child_weight && hr >= params.min_child_weight {
                            let gain = split_gain(gl, hl, gr, hr, gt, ht, params.lambda)
                                - params.gamma;
                            if gain > 1e-12
                                && best[pos].is_none_or(|b| gain > b.gain)
                            {
                                best[pos] = Some(BestSplit {
                                    gain,
                                    feat: f as u32,
                                    thresh: midpoint(st.last_value, x),
                                });
                            }
                        }
                    }
                    let w = weight(i);
                    st.gl += g[i] * w;
                    st.hl += h[i] * w;
                    st.last_value = x;
                    st.any = true;
                }
            }

            // Materialize the chosen splits and the next level.
            let mut next_level = Vec::new();
            let mut next_totals = Vec::new();
            let mut split_of: Vec<Option<(u32, f64, u32, u32)>> = vec![None; level.len()];
            for (pos, &nid) in level.iter().enumerate() {
                if let Some(b) = best[pos] {
                    let li = nodes.len() as u32;
                    let ri = li + 1;
                    nodes.push(Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value: 0.0 });
                    nodes.push(Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value: 0.0 });
                    let node = &mut nodes[nid as usize];
                    node.feat = b.feat;
                    node.thresh = b.thresh;
                    node.left = li;
                    node.right = ri;
                    split_of[pos] = Some((b.feat, b.thresh, li, ri));
                    next_level.push(li);
                    next_totals.push((0.0, 0.0));
                    next_level.push(ri);
                    next_totals.push((0.0, 0.0));
                }
            }
            if next_level.is_empty() {
                break;
            }
            // Reassign samples and accumulate child totals.
            let mut next_pos = vec![usize::MAX; nodes.len()];
            for (pos, &nid) in next_level.iter().enumerate() {
                next_pos[nid as usize] = pos;
            }
            for i in 0..n {
                let nid = node_of[i];
                if nid == LEAF {
                    continue;
                }
                let pos = pos_of.get(nid as usize).copied().unwrap_or(usize::MAX);
                if pos == usize::MAX {
                    continue;
                }
                if let Some((f, t, li, ri)) = split_of[pos] {
                    let child = if data.at(i, f as usize) <= t { li } else { ri };
                    node_of[i] = child;
                    let cpos = next_pos[child as usize];
                    let w = weight(i);
                    next_totals[cpos].0 += g[i] * w;
                    next_totals[cpos].1 += h[i] * w;
                }
            }
            for (pos, &nid) in next_level.iter().enumerate() {
                let (gt, ht) = next_totals[pos];
                nodes[nid as usize].value = leaf_value(gt, ht, params.lambda);
            }
            level = next_level;
            totals = next_totals;
        }
        GradTree { nodes }
    }

    /// Predict the leaf value for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.nodes[self.leaf_of(x) as usize].value
    }

    /// Id of the leaf a feature vector falls into. Boosting uses this
    /// to apply per-leaf update factors without a second traversal.
    pub fn leaf_of(&self, x: &[f64]) -> u32 {
        let mut nid = 0usize;
        loop {
            let n = &self.nodes[nid];
            if n.left == LEAF {
                return nid as u32;
            }
            nid = if x[n.feat as usize] <= n.thresh { n.left as usize } else { n.right as usize };
        }
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Value stored at a node (for leaves: the fitted leaf weight).
    pub fn value_of(&self, nid: u32) -> f64 {
        self.nodes[nid as usize].value
    }
}

impl crate::persist::Persist for GradTree {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        w.put_len(self.nodes.len());
        for n in &self.nodes {
            w.put_u32(n.feat);
            w.put_f64(n.thresh);
            w.put_u32(n.left);
            w.put_u32(n.right);
            w.put_f64(n.value);
        }
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<GradTree, crate::persist::CodecError> {
        use crate::persist::CodecError;
        let n = r.get_len(28)?;
        if n == 0 {
            return Err(CodecError::invalid("tree has no nodes"));
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let feat = r.get_u32()?;
            let thresh = r.get_f64()?;
            let left = r.get_u32()?;
            let right = r.get_u32()?;
            let value = r.get_f64()?;
            nodes.push(Node { feat, thresh, left, right, value });
        }
        // Level-wise growth always places children after their parent;
        // `leaf_of` terminates only under that monotonicity, so enforce
        // it (plus range) on the way back in.
        for (i, node) in nodes.iter().enumerate() {
            let (l, r_) = (node.left, node.right);
            if l == LEAF || r_ == LEAF {
                if l != r_ {
                    return Err(CodecError::invalid(format!(
                        "tree node {i} has one LEAF child and one real child"
                    )));
                }
                continue;
            }
            let (lu, ru) = (l as usize, r_ as usize);
            if lu <= i || ru <= i || lu >= n || ru >= n {
                return Err(CodecError::invalid(format!(
                    "tree node {i} children ({lu}, {ru}) not strictly below it in [0, {n})"
                )));
            }
        }
        Ok(GradTree { nodes })
    }
}

/// The split point halfway between two adjacent feature values.
///
/// `0.5 * (a + b)` overflows to ±∞ when `a + b` exceeds the `f64` range
/// (1e308 and 1.7e308), which would send every row to one side of the
/// split; only then is the midpoint taken as `0.5 * a + 0.5 * b`. Every
/// finite sum keeps the plain formula, so existing models' thresholds
/// are bit for bit unchanged.
#[inline]
pub(crate) fn midpoint(a: f64, b: f64) -> f64 {
    let m = 0.5 * (a + b);
    if m.is_finite() {
        m
    } else {
        0.5 * a + 0.5 * b
    }
}

#[inline]
fn leaf_value(g: f64, h: f64, lambda: f64) -> f64 {
    if h + lambda <= 0.0 {
        0.0
    } else {
        -g / (h + lambda)
    }
}

#[inline]
fn split_gain(gl: f64, hl: f64, gr: f64, hr: f64, gt: f64, ht: f64, lambda: f64) -> f64 {
    0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - gt * gt / (ht + lambda))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squared_error_stats(y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Squared error from a zero prediction: g = -y, h = 1 → leaf =
        // mean(y) with lambda = 0.
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    fn fit_ls(data: &Dataset, params: &TreeParams) -> GradTree {
        let (g, h) = squared_error_stats(data.targets());
        let sorted = SortedColumns::new(data);
        let feats: Vec<usize> = (0..data.nfeat()).collect();
        GradTree::fit(data, &sorted, &g, &h, params, &feats, None)
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            let x = i as f64;
            d.push(&[x], if x < 10.0 { 1.0 } else { 5.0 });
        }
        let params = TreeParams { lambda: 0.0, ..Default::default() };
        let t = fit_ls(&d, &params);
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_returns_mean() {
        let mut d = Dataset::new(1);
        for (x, y) in [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)] {
            d.push(&[x], y);
        }
        let params = TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() };
        let t = fit_ls(&d, &params);
        assert!((t.predict(&[1.0]) - 4.0).abs() < 1e-9);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 1 is noise; feature 0 determines y.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            let x0 = (i % 2) as f64;
            let x1 = (i % 7) as f64;
            d.push(&[x0, x1], x0 * 100.0);
        }
        let params = TreeParams { lambda: 0.0, ..Default::default() };
        let t = fit_ls(&d, &params);
        assert!((t.predict(&[0.0, 3.0]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[1.0, 3.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn min_child_weight_blocks_thin_splits() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 100.0);
        let params = TreeParams { min_child_weight: 2.0, lambda: 0.0, ..Default::default() };
        let t = fit_ls(&d, &params);
        // No split allowed: single leaf with the mean.
        assert_eq!(t.node_count(), 1);
        assert!((t.predict(&[0.0]) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sample_weights_zero_excludes_rows() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 100.0);
        d.push(&[2.0], 100.0);
        let (g, h) = squared_error_stats(d.targets());
        let sorted = SortedColumns::new(&d);
        let params = TreeParams { lambda: 0.0, min_child_weight: 0.5, ..Default::default() };
        // Exclude the first row: tree sees constant target 100.
        let t = GradTree::fit(&d, &sorted, &g, &h, &params, &[0], Some(&[0, 1, 1]));
        assert!((t.predict(&[0.0]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_trees_fit_finer_structure() {
        let mut d = Dataset::new(1);
        for i in 0..64 {
            let x = i as f64;
            d.push(&[x], (i / 8) as f64); // 8-step staircase
        }
        let shallow = fit_ls(&d, &TreeParams { max_depth: 1, lambda: 0.0, ..Default::default() });
        let deep = fit_ls(&d, &TreeParams { max_depth: 6, lambda: 0.0, ..Default::default() });
        let err = |t: &GradTree| -> f64 {
            d.iter().map(|(x, y)| (t.predict(x) - y).abs()).sum::<f64>()
        };
        assert!(err(&deep) < err(&shallow) / 4.0);
    }
}
