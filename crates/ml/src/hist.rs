//! Histogram-based (quantized) tree growing, LightGBM-style.
//!
//! Features are pre-binned **once per dataset** into at most
//! [`BinnedDataset::MAX_BINS`] buckets ([`BinnedDataset`]). Growing a
//! tree then works on gradient/hessian/count histograms per leaf:
//! finding a split scans `O(bins)` buckets instead of `O(n)` sorted
//! rows, and of the two children produced by a split only the *smaller*
//! one ever builds its histogram from rows — the sibling's is obtained
//! by subtracting the child from the parent (the classic
//! parent − sibling trick), halving histogram-construction work at
//! every level.
//!
//! When a feature has at most `max_bins` distinct values (always true
//! for the paper's grids: a handful of node counts, ppn values and
//! message sizes), every distinct value gets its own bin and the split
//! search is **exactly** equivalent to the exact-greedy search over
//! sorted columns in [`crate::tree`]: the same candidate boundaries are
//! scanned in the same order, producing identical gains and identical
//! training-row partitions. This equivalence is enforced by property
//! tests (`crates/ml/tests/hist_equivalence.rs`).

use crate::dataset::Dataset;
use crate::tree::{midpoint, GradTree, Node, TreeParams, LEAF};

/// Hard upper bound on bins per feature (bin indices fit in a `u8`).
const MAX_BINS_LIMIT: usize = 256;

/// A dataset quantized to per-feature bins, reusable across all trees
/// of a booster (binning happens once, not once per tree).
pub struct BinnedDataset {
    n: usize,
    nfeat: usize,
    /// Row-major bin codes: `codes[i * nfeat + f]` is the bin of row `i`
    /// for feature `f` — one cache line serves a whole row, so a single
    /// pass over rows can feed every feature's histogram at once.
    codes: Vec<u8>,
    /// Bins per feature (at least 1).
    nbins: Vec<u32>,
    /// Per feature: split threshold after each bin; `thresholds[f][b]`
    /// separates bin `b` (≤) from bin `b+1` (>). Length `nbins[f] - 1`.
    thresholds: Vec<Vec<f64>>,
    /// Targets, carried through for the boosting loop.
    targets: Vec<f64>,
}

impl BinnedDataset {
    /// Default bin budget per feature.
    pub const MAX_BINS: usize = 256;

    /// Quantize `data` into at most `max_bins` bins per feature
    /// (clamped to 256 so codes fit a byte). Bin boundaries fall on
    /// midpoints between adjacent distinct values; when a feature has
    /// ≤ `max_bins` distinct values each value gets its own bin and
    /// histogram splits reproduce exact-greedy splits bit-for-bit on
    /// gains.
    pub fn from_dataset(data: &Dataset, max_bins: usize) -> BinnedDataset {
        assert!(max_bins >= 2, "need at least two bins to ever split");
        let max_bins = max_bins.min(MAX_BINS_LIMIT);
        let n = data.len();
        let nfeat = data.nfeat();
        let mut codes = vec![0u8; n * nfeat];
        let mut nbins = Vec::with_capacity(nfeat);
        let mut thresholds = Vec::with_capacity(nfeat);
        for f in 0..nfeat {
            let (col_codes, col_thresholds) = bin_feature(data, f, max_bins);
            nbins.push(col_thresholds.len() as u32 + 1);
            for (i, c) in col_codes.into_iter().enumerate() {
                codes[i * nfeat + f] = c;
            }
            thresholds.push(col_thresholds);
        }
        BinnedDataset { n, nfeat, codes, nbins, thresholds, targets: data.targets().to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Features per row.
    #[inline]
    pub fn nfeat(&self) -> usize {
        self.nfeat
    }

    /// Targets of the underlying dataset.
    #[inline]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Bins of feature `f` (diagnostics).
    pub fn bins_of(&self, f: usize) -> usize {
        self.nbins[f] as usize
    }

    #[inline]
    fn code(&self, i: usize, f: usize) -> u8 {
        self.codes[i * self.nfeat + f]
    }
}

/// Quantize one feature column: returns (bin codes per row, thresholds).
fn bin_feature(data: &Dataset, f: usize, max_bins: usize) -> (Vec<u8>, Vec<f64>) {
    let n = data.len();
    let mut sorted: Vec<f64> = (0..n).map(|i| data.at(i, f)).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    // Distinct values with multiplicities.
    let mut uniques: Vec<(f64, usize)> = Vec::new();
    for &v in &sorted {
        match uniques.last_mut() {
            Some((u, c)) if *u == v => *c += 1,
            _ => uniques.push((v, 1)),
        }
    }
    let mut thresholds = Vec::new();
    if uniques.len() <= max_bins {
        // One bin per distinct value: exact-equivalent quantization.
        for w in uniques.windows(2) {
            thresholds.push(midpoint(w[0].0, w[1].0));
        }
    } else {
        // Greedy quantile binning: close a bin once it holds ≥ n/max_bins
        // rows, keeping boundaries on midpoints of adjacent distincts.
        let target = n.div_ceil(max_bins);
        let mut acc = 0usize;
        for (k, &(v, c)) in uniques.iter().enumerate() {
            acc += c;
            let last = k + 1 == uniques.len();
            if !last && acc >= target && thresholds.len() < max_bins - 1 {
                thresholds.push(midpoint(v, uniques[k + 1].0));
                acc = 0;
            }
        }
    }
    // Assign codes: bin = #thresholds strictly below the value. Training
    // values never tie a threshold except when adjacent floats make the
    // midpoint collapse onto the lower value — strict `<` keeps that row
    // in the lower bin, consistent with `x <= thresh` routing at
    // prediction time.
    let codes = (0..n)
        .map(|i| {
            let x = data.at(i, f);
            thresholds.partition_point(|&t| t < x) as u8
        })
        .collect();
    (codes, thresholds)
}

/// Per-bin gradient statistics: gradient sum, hessian sum. Row counts
/// live in a separate `u32` array ([`Counts`]) — integer increments are
/// exact under parent − child subtraction and keep the scattered FP
/// adds of the build loop to two per feature instead of three.
const STAT: usize = 2;

/// One node's histogram: `STAT`-wide entries over the concatenated bins
/// of all features.
type Histogram = Vec<f64>;

/// One node's per-bin row counts (unweighted presence counts, mirroring
/// the exact scan's candidate rule: a boundary is only real if the bin
/// holds rows).
type Counts = Vec<u32>;

/// Reusable per-thread buffers for [`fit_hist`]. A 200-round booster
/// calls `fit_hist` once per round; without this, every call would
/// re-allocate (and re-zero) the row partition, the partition scratch,
/// and every histogram/count buffer.
#[derive(Default)]
struct Workspace {
    rows: Vec<u32>,
    scratch: Vec<u32>,
    pool: Vec<(Histogram, Counts)>,
    /// Histogram length the pooled buffers were sized for; a different
    /// dataset/bin layout invalidates the pool.
    hist_len: usize,
}

thread_local! {
    static WORKSPACE: std::cell::RefCell<Workspace> =
        std::cell::RefCell::new(Workspace::default());
}

struct HistLayout {
    /// Per-feature offset (in bins) into the concatenated histogram.
    offset: Vec<usize>,
    /// Total bins across features.
    total_bins: usize,
}

impl HistLayout {
    fn new(binned: &BinnedDataset) -> HistLayout {
        let mut offset = Vec::with_capacity(binned.nfeat);
        let mut total = 0usize;
        for f in 0..binned.nfeat {
            offset.push(total);
            total += binned.nbins[f] as usize;
        }
        HistLayout { offset, total_bins: total }
    }
}

/// Best split candidate for one node.
#[derive(Clone, Copy)]
struct HistSplit {
    gain: f64,
    feat: u32,
    bin: u32,
    thresh: f64,
}

/// Grow one tree over gradient statistics using leaf histograms.
///
/// Semantics match [`GradTree::fit`] (level-wise growth, same gain
/// formula, same candidate ordering and tie-breaking); only the split
/// *thresholds* may differ numerically when a candidate boundary abuts
/// a bin that is empty within the node — the induced training-row
/// partition is identical either way.
///
/// Returns the tree plus each row's leaf node id, so boosting can
/// update scores — or multiplicative response caches, via per-leaf
/// factors — without re-traversing the tree.
pub fn fit_hist(
    binned: &BinnedDataset,
    g: &[f64],
    h: &[f64],
    params: &TreeParams,
    features: &[usize],
) -> (GradTree, Vec<u32>) {
    let n = binned.len();
    assert_eq!(g.len(), n);
    assert_eq!(h.len(), n);
    let layout = HistLayout::new(binned);

    // One entry per active node at the current level:
    // (node id, row range start, row range len, totals, histogram).
    struct Active {
        nid: u32,
        start: usize,
        len: usize,
        totals: (f64, f64),
        hist: Histogram,
        counts: Counts,
    }

    WORKSPACE.with(|cell| {
    let ws = &mut *cell.borrow_mut();
    let hist_len = STAT * layout.total_bins;
    if ws.hist_len != hist_len {
        ws.pool.clear();
        ws.hist_len = hist_len;
    }
    // Buffers persist across calls: `pool` holds histogram/count pairs
    // (a settling node's buffers are reused by later children and later
    // rounds), and `rows`/`scratch` keep their capacity.
    let Workspace { rows, scratch, pool, .. } = ws;

    // Active rows, partitioned into contiguous per-node segments.
    rows.clear();
    rows.extend(0..n as u32);
    let mut row_leaf = vec![LEAF; n];

    // Scratch buffer for the stable partition (right-block staging).
    if scratch.len() < rows.len() {
        scratch.resize(rows.len(), 0);
    }
    // Flattened histogram/count offsets per searched feature.
    let offs: Vec<usize> = features.iter().map(|&f| STAT * layout.offset[f]).collect();
    let coffs: Vec<usize> = features.iter().map(|&f| layout.offset[f]).collect();

    let build = |rows: &[u32], hist: &mut [f64], counts: &mut [u32]| {
        let t = mpcp_obs::maybe_now();
        accumulate_rows(binned, rows, g, h, features, &offs, &coffs, hist, counts);
        mpcp_obs::record_elapsed!("gbt.hist.build_ns", t);
    };

    let (mut root_hist, mut root_counts) = pool
        .pop()
        .unwrap_or_else(|| (vec![0.0; hist_len], vec![0u32; layout.total_bins]));
    root_hist.fill(0.0);
    root_counts.fill(0);
    build(&rows[..], &mut root_hist, &mut root_counts);
    // Root totals fall out of the histogram: every row lands in exactly
    // one bin of the first searched feature, so no extra O(n) pass.
    let (g0, h0) = if let Some(&first) = features.first() {
        let mut t = (0.0, 0.0);
        for b in 0..binned.nbins[first] as usize {
            t.0 += root_hist[offs[0] + STAT * b];
            t.1 += root_hist[offs[0] + STAT * b + 1];
        }
        t
    } else {
        rows.iter().fold((0.0, 0.0), |acc, &iu| {
            let i = iu as usize;
            (acc.0 + g[i], acc.1 + h[i])
        })
    };
    let mut nodes: Vec<Node> = vec![Node {
        feat: LEAF,
        thresh: 0.0,
        left: LEAF,
        right: LEAF,
        value: leaf_value(g0, h0, params.lambda),
    }];
    let mut level = vec![Active {
        nid: 0,
        start: 0,
        len: rows.len(),
        totals: (g0, h0),
        hist: root_hist,
        counts: root_counts,
    }];

    let settle = |a: &Active, rows: &[u32], row_leaf: &mut [u32]| {
        for &iu in &rows[a.start..a.start + a.len] {
            row_leaf[iu as usize] = a.nid;
        }
    };

    for depth in 0..params.max_depth + 1 {
        if level.is_empty() {
            break;
        }
        // Depth exhausted: everything left is a leaf.
        if depth == params.max_depth {
            for a in level.drain(..) {
                settle(&a, rows, &mut row_leaf);
                pool.push((a.hist, a.counts));
            }
            break;
        }
        let mut next: Vec<Active> = Vec::new();
        for a in std::mem::take(&mut level) {
            let t = mpcp_obs::maybe_now();
            let best = best_split(&a.hist, &a.counts, a.totals, binned, &layout, features, params);
            mpcp_obs::record_elapsed!("gbt.hist.split_ns", t);
            let Some(b) = best else {
                settle(&a, rows, &mut row_leaf);
                pool.push((a.hist, a.counts));
                continue;
            };
            let mut a = a;
            // Materialize children.
            let li = nodes.len() as u32;
            let ri = li + 1;
            {
                let node = &mut nodes[a.nid as usize];
                node.feat = b.feat;
                node.thresh = b.thresh;
                node.left = li;
                node.right = ri;
            }
            // Stable partition of this node's rows: the left block
            // compacts in place, the right block stages in the scratch
            // buffer and is copied back behind it.
            let seg = &mut rows[a.start..a.start + a.len];
            let fcol = b.feat as usize;
            let (mut nl, mut nr) = (0usize, 0usize);
            // Branchless: both targets are written unconditionally and
            // only the matching cursor advances (`nl <= k` always, so
            // the in-place left write never clobbers an unread row).
            for k in 0..seg.len() {
                let iu = seg[k];
                let left = ((binned.code(iu as usize, fcol) as u32) <= b.bin) as usize;
                seg[nl] = iu;
                scratch[nr] = iu;
                nl += left;
                nr += 1 - left;
            }
            seg[nl..].copy_from_slice(&scratch[..nr]);

            // Left totals come from the histogram prefix scan; right by
            // subtraction from the parent.
            let (gl, hl) = prefix_totals(&a.hist, &layout, fcol, b.bin);
            let (gr, hr) = (a.totals.0 - gl, a.totals.1 - hl);
            nodes.push(Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value: leaf_value(gl, hl, params.lambda) });
            nodes.push(Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value: leaf_value(gr, hr, params.lambda) });

            // Histograms: build the smaller child from rows, derive the
            // sibling as parent − child (in the parent's buffer).
            let (small_range, small_is_left) = if nl <= a.len - nl {
                (a.start..a.start + nl, true)
            } else {
                (a.start + nl..a.start + a.len, false)
            };
            let (mut small_hist, mut small_counts) = pool
                .pop()
                .unwrap_or_else(|| (vec![0.0; hist_len], vec![0u32; layout.total_bins]));
            small_hist.fill(0.0);
            small_counts.fill(0);
            build(&rows[small_range], &mut small_hist, &mut small_counts);
            for (p, s) in a.hist.iter_mut().zip(&small_hist) {
                *p -= s;
            }
            for (p, s) in a.counts.iter_mut().zip(&small_counts) {
                *p -= s;
            }
            let (left, right) = if small_is_left {
                ((small_hist, small_counts), (a.hist, a.counts))
            } else {
                ((a.hist, a.counts), (small_hist, small_counts))
            };
            next.push(Active {
                nid: li,
                start: a.start,
                len: nl,
                totals: (gl, hl),
                hist: left.0,
                counts: left.1,
            });
            next.push(Active {
                nid: ri,
                start: a.start + nl,
                len: a.len - nl,
                totals: (gr, hr),
                hist: right.0,
                counts: right.1,
            });
        }
        level = next;
    }
    (GradTree { nodes }, row_leaf)
    }) // WORKSPACE.with
}

/// Accumulate the (g, h) histogram and row counts of one row set into
/// `out`/`counts` (the caller zeroes the buffers) in one pass over
/// `rows` feeding every feature's histogram: the row's codes share a
/// cache line and its (g, h) pair is loaded once, instead of once per
/// feature.
///
/// Consecutive rows with **identical code rows** are collapsed into a
/// running (Σg, Σh, count) before touching any bin. Grid-style training
/// sets — the paper's benchmark grids replicate each (collective,
/// message size, nodes, ppn) cell once per repetition — produce long
/// runs of identical rows, and because identical rows always partition
/// to the same side of every split, the runs survive into child builds.
/// One run costs `nfeat` bin updates total instead of `nfeat` per row,
/// and the dependent-add chains that same-bin rows would otherwise form
/// on the FP units disappear. Distinct neighbors cost one extra
/// `nfeat`-byte compare, which is noise.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_rows(
    binned: &BinnedDataset,
    rows: &[u32],
    g: &[f64],
    h: &[f64],
    features: &[usize],
    offs: &[usize],
    coffs: &[usize],
    out: &mut [f64],
    counts: &mut [u32],
) {
    let nfeat = binned.nfeat;
    let mut flush = |row: usize, gs: f64, hs: f64, cnt: u32| {
        let codes = &binned.codes[row * nfeat..row * nfeat + nfeat];
        for (k, &f) in features.iter().enumerate() {
            let c = codes[f] as usize;
            let b = offs[k] + STAT * c;
            out[b] += gs;
            out[b + 1] += hs;
            counts[coffs[k] + c] += cnt;
        }
    };
    let mut it = rows.iter();
    let Some(&first) = it.next() else { return };
    let mut run = first as usize;
    let (mut gs, mut hs) = (g[run], h[run]);
    let mut cnt = 1u32;
    for &iu in it {
        let i = iu as usize;
        let (gi, hi) = (g[i], h[i]);
        if binned.codes[i * nfeat..i * nfeat + nfeat]
            == binned.codes[run * nfeat..run * nfeat + nfeat]
        {
            gs += gi;
            hs += hi;
            cnt += 1;
        } else {
            flush(run, gs, hs, cnt);
            run = i;
            gs = gi;
            hs = hi;
            cnt = 1;
        }
    }
    flush(run, gs, hs, cnt);
}

/// Left-prefix (g, h) totals of feature `f` up to and including `bin`.
fn prefix_totals(hist: &Histogram, layout: &HistLayout, f: usize, bin: u32) -> (f64, f64) {
    let off = STAT * layout.offset[f];
    let (mut gl, mut hl) = (0.0, 0.0);
    for b in 0..=bin as usize {
        gl += hist[off + STAT * b];
        hl += hist[off + STAT * b + 1];
    }
    (gl, hl)
}

/// Scan every feature's bins for the best split of one node.
///
/// Candidate ordering matches the exact scan: features in `features`
/// order, boundaries in ascending value order, strict improvement
/// required — so gain ties resolve identically. A boundary after bin
/// `b` is a candidate only when bin `b` holds rows of this node and
/// some later bin does too (i.e. it separates adjacent present values,
/// exactly the exact scan's candidate set).
fn best_split(
    hist: &Histogram,
    counts: &Counts,
    totals: (f64, f64),
    binned: &BinnedDataset,
    layout: &HistLayout,
    features: &[usize],
    params: &TreeParams,
) -> Option<HistSplit> {
    let (gt, ht) = totals;
    let mut best: Option<HistSplit> = None;
    for &f in features {
        let off = STAT * layout.offset[f];
        let coff = layout.offset[f];
        let nb = binned.nbins[f] as usize;
        // Total row count of this node on this feature.
        let ct: u32 = (0..nb).map(|b| counts[coff + b]).sum();
        let (mut gl, mut hl, mut cl) = (0.0, 0.0, 0u32);
        for b in 0..nb.saturating_sub(1) {
            let e = off + STAT * b;
            let cb = counts[coff + b];
            gl += hist[e];
            hl += hist[e + 1];
            cl += cb;
            if cb == 0 || cl == 0 || ct <= cl {
                continue;
            }
            let (gr, hr) = (gt - gl, ht - hl);
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = split_gain(gl, hl, gr, hr, gt, ht, params.lambda) - params.gamma;
            if gain > 1e-12 && best.is_none_or(|s| gain > s.gain) {
                best = Some(HistSplit {
                    gain,
                    feat: f as u32,
                    bin: b as u32,
                    thresh: binned.thresholds[f][b],
                });
            }
        }
    }
    best
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
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    fn fit_ls(data: &Dataset, params: &TreeParams) -> (GradTree, Vec<u32>) {
        let (g, h) = squared_error_stats(data.targets());
        let binned = BinnedDataset::from_dataset(data, BinnedDataset::MAX_BINS);
        let feats: Vec<usize> = (0..data.nfeat()).collect();
        fit_hist(&binned, &g, &h, params, &feats)
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            let x = i as f64;
            d.push(&[x], if x < 10.0 { 1.0 } else { 5.0 });
        }
        let params = TreeParams { lambda: 0.0, ..Default::default() };
        let (t, leaf) = fit_ls(&d, &params);
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[15.0]) - 5.0).abs() < 1e-9);
        // Leaf assignments from the fit agree with tree traversal.
        for (i, (x, _)) in d.iter().enumerate() {
            assert_eq!(t.nodes[leaf[i] as usize].value, t.predict(x));
        }
    }

    #[test]
    fn binning_collapses_to_quantiles_beyond_the_budget() {
        let mut d = Dataset::new(1);
        for i in 0..2000 {
            d.push(&[i as f64], 0.0);
        }
        let binned = BinnedDataset::from_dataset(&d, 64);
        assert!(binned.bins_of(0) <= 64);
        assert!(binned.bins_of(0) >= 32, "quantile binning degenerated");
    }

    #[test]
    fn one_bin_per_distinct_value_within_budget() {
        let mut d = Dataset::new(1);
        for i in 0..500 {
            d.push(&[(i % 7) as f64], 0.0);
        }
        let binned = BinnedDataset::from_dataset(&d, 256);
        assert_eq!(binned.bins_of(0), 7);
    }

    #[test]
    fn depth_zero_returns_mean() {
        let mut d = Dataset::new(1);
        for (x, y) in [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)] {
            d.push(&[x], y);
        }
        let params = TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() };
        let (t, leaf) = fit_ls(&d, &params);
        assert!((t.predict(&[1.0]) - 4.0).abs() < 1e-9);
        assert_eq!(t.node_count(), 1);
        assert!(leaf.iter().all(|&l| l == 0));
    }

    #[test]
    fn min_child_weight_blocks_thin_splits() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0.0);
        d.push(&[1.0], 100.0);
        let params = TreeParams { min_child_weight: 2.0, lambda: 0.0, ..Default::default() };
        let (t, _) = fit_ls(&d, &params);
        assert_eq!(t.node_count(), 1);
        assert!((t.predict(&[0.0]) - 50.0).abs() < 1e-9);
    }
}
