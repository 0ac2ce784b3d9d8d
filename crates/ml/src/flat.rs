//! Flattened structure-of-arrays tree ensembles for batched and
//! scalar inference.
//!
//! [`crate::tree::GradTree`] stores nodes as a `Vec` of structs, which
//! is fine for growing but wasteful to traverse. [`FlatTrees`] splits
//! every node field into its own array — thresholds, split features,
//! left-child indices and leaf values live in parallel `Vec`s — and
//! traversal reads only one of them: a packed 4-byte word per node
//! (split feature, threshold bin, left child; see [`BinPlan`]). The
//! fixed-depth lockstep loops below compile to straight-line
//! compare/select code the backend can unroll and vectorize.
//!
//! Leaves are encoded as **self-loops**: a leaf routes every row back
//! to itself (`feat = 0`, `thresh = +∞`, `left = self`, and a reserved
//! bin in its packed word — see [`BinPlan::meta`]).
//! Together with the stored per-tree depth this removes the
//! am-I-at-a-leaf branch from lockstep traversal entirely: stepping any
//! cursor exactly `depth` times is guaranteed to land (and stay) on its
//! leaf, so the batch kernel walks a block of rows per tree — and the
//! scalar kernel walks a block of *trees* per row — with no
//! data-dependent branches.
//!
//! # Binned traversal
//!
//! Histogram training ([`crate::hist`]) already quantizes every feature
//! into at most [`BinnedDataset::MAX_BINS`] = 256 buckets, so the
//! thresholds of a hist-grown ensemble are drawn from ≤ 255 distinct
//! cut values per feature. [`FlatTrees::from_trees`] therefore always
//! builds a [`BinPlan`]: each node's threshold becomes a `u8` bin index
//! packed — together with the split feature and left-child index — into
//! a single `u32` word, and a query row is quantized once (a short
//! branch-free count per feature) so a traversal step is exactly two
//! loads: the node word and one quantized byte. The plan is *exact*, not
//! approximate: `x <= thresh` and `bin(x) <= bin(thresh)` decide
//! identically for every `f64` (including NaN and ±∞ — see
//! [`quantize_value`]), so the binned kernels land on the same leaves as
//! an f64 walk ([`FlatTrees::predict_one_from_unbinned`], the test
//! reference) and all prediction paths stay bitwise identical. An
//! ensemble the packed word cannot hold is a [`LayoutError`], never a
//! second kernel.
//!
//! Both kernels are **total over non-finite feature values**: a NaN
//! compares "greater" (routes right, as in XGBoost), and a leaf's
//! reserved bin keeps a parked cursor parked no matter what the row
//! holds. Derived state (`depth`, the bin plan) is never trusted from
//! the wire — the persist decoder rebuilds it deterministically after
//! validating the node topology.
//!
//! [`BinnedDataset::MAX_BINS`]: crate::hist::BinnedDataset::MAX_BINS

use std::fmt;

use crate::tree::{GradTree, LEAF};

/// Cursors stepped in lockstep per block — rows in the batch kernel,
/// trees in the scalar kernel. Big enough to hide load latency behind
/// independent work, small enough that cursor state stays in registers.
const BLOCK: usize = 16;

/// The bin index stored for leaf nodes and assigned to NaN feature
/// values. Internal nodes always bin below it (a plan holds at most
/// [`MAX_CUTS`] cuts, so internal bins are ≤ 254): `bin <= u8::MAX` is
/// always true (leaf cursors park), and `u8::MAX <= internal_bin` is
/// always false (NaN routes right, matching the f64 comparison).
const LEAF_BIN: u8 = u8::MAX;

/// Most distinct cut values a feature may have and still be binned:
/// one less than [`crate::hist::BinnedDataset::MAX_BINS`], so bin
/// indices 0..=254 identify cuts and 255 stays reserved for
/// [`LEAF_BIN`]. Ensembles grown from a [`crate::hist::BinnedDataset`]
/// satisfy this by construction.
const MAX_CUTS: usize = crate::hist::BinnedDataset::MAX_BINS - 1;

/// Depth of a grown tree (leaves are `left == LEAF` sentinels), used
/// to order trees shallowest-first before flattening.
fn grad_tree_depth(tree: &GradTree) -> u32 {
    let mut maxd = 0u32;
    let mut stack: Vec<(usize, u32)> = vec![(0, 0)];
    while let Some((i, d)) = stack.pop() {
        let node = &tree.nodes[i];
        if node.left == LEAF {
            maxd = maxd.max(d);
        } else {
            stack.push((node.left as usize, d + 1));
            stack.push((node.right as usize, d + 1));
        }
    }
    maxd
}

/// Node count / index converter. Flat indices are serialized as `u32`;
/// ensembles are bounded far below `u32::MAX` nodes (the assert is the
/// one place that invariant lives, shared by builder and decoder).
fn idx32(i: usize) -> u32 {
    assert!(u32::try_from(i).is_ok(), "flat node index {i} overflows u32");
    i as u32
}

/// Exact per-feature quantization of an ensemble's split thresholds.
///
/// For feature `f`, `cuts[offset[f]..offset[f + 1]]` is the sorted set
/// of distinct thresholds used by any internal node splitting on `f`.
/// A value's bin is the number of cuts strictly below it (NaN maps to
/// [`LEAF_BIN`]), and a node's stored bin is the position of its
/// threshold in that set — so `bin(x) <= bin` decides exactly like
/// `x <= thresh[i]`.
#[derive(Clone, Debug, Default)]
struct BinPlan {
    /// Sorted distinct cuts, all features concatenated.
    cuts: Vec<f64>,
    /// Per-feature extent into `cuts`; length `fcount + 1`.
    offset: Vec<u32>,
    /// One packed word per node — `left << 16 | feat << 8 | bin` — so a
    /// lockstep traversal step is exactly two loads: this word and the
    /// quantized feature value. `bin` is the threshold's position in
    /// its feature's cut set ([`LEAF_BIN`] for leaves, whose `left` is
    /// their own index and `feat` is 0). The right child is *implied*:
    /// the growers allocate children adjacently (`right == left + 1`,
    /// asserted at build and validated on decode), so stepping is
    /// `left + (bin(x) > bin) as usize` — a leaf's `bin` of 255 makes
    /// that predicate false for every `u8`, parking the cursor, and a
    /// NaN's bin of 255 makes it true at every internal node (bins ≤
    /// 254), routing right exactly like the f64 comparison.
    ///
    /// The word is deliberately 4 bytes, not 8: an argmin selector
    /// walks every model's ensemble per uncached query, so the
    /// traversal working set is what the kernels are bound by. That
    /// caps an ensemble at [`MAX_META_NODES`] nodes and
    /// [`MAX_META_FEAT`] as its largest split feature — bigger
    /// ensembles are a [`LayoutError`].
    meta: Vec<u32>,
}

/// Largest split-feature index the packed [`BinPlan`] word can hold
/// (8 bits, i.e. `u8::MAX` — the paper's feature space has 4).
const MAX_META_FEAT: u32 = 0xff;

/// Features a query row can be quantized into: one per value of the
/// packed word's feature field, so the scalar kernel's stack buffer
/// holds every row an ensemble can index.
const QROW_STACK: usize = MAX_META_FEAT as usize + 1;

/// Largest node count whose indices fit the packed word's 16-bit
/// child field (index ≤ 65535).
const MAX_META_NODES: usize = 1 << 16;

/// Why an ensemble does not fit the packed [`BinPlan`] layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// More nodes than the 16-bit child field addresses.
    TooManyNodes {
        /// Nodes in the ensemble.
        nodes: usize,
    },
    /// A split feature above the 8-bit feature field.
    FeatureTooHigh {
        /// The offending feature index.
        feat: u32,
    },
    /// More distinct thresholds on one feature than the `u8` bins hold.
    TooManyCuts {
        /// Feature index.
        feat: usize,
        /// Distinct thresholds on it.
        cuts: usize,
    },
    /// A split threshold is NaN or infinite.
    NonFiniteThreshold {
        /// Node index.
        node: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::TooManyNodes { nodes } => {
                write!(f, "{nodes} tree nodes exceed the limit of {MAX_META_NODES}")
            }
            LayoutError::FeatureTooHigh { feat } => {
                write!(f, "split feature {feat} exceeds the limit of {MAX_META_FEAT}")
            }
            LayoutError::TooManyCuts { feat, cuts } => {
                write!(f, "feature {feat} has {cuts} distinct thresholds, more than {MAX_CUTS}")
            }
            LayoutError::NonFiniteThreshold { node } => {
                write!(f, "node {node} has a non-finite split threshold")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Bin of one query value within a feature's sorted cut set: the count
/// of cuts strictly below `x`, or [`LEAF_BIN`] for NaN.
///
/// Decides identically to the f64 comparison for every input: for the
/// cut at position `j`, `x <= cut` ⟺ `bin(x) <= j` when `x` is not
/// NaN (cuts below `x` all sort before position `j`), and NaN — for
/// which `x <= cut` is always false — maps past every internal bin.
fn quantize_value(cuts: &[f64], x: f64) -> u8 {
    if x.is_nan() {
        return LEAF_BIN;
    }
    // `cuts` is sorted and NaN-free, so the count of cuts `< x` IS the
    // partition point. A linear count beats binary search here: cut
    // sets are at most [`MAX_CUTS`] long (typically a few dozen), and
    // the branch-free independent compares vectorize, where a search's
    // probes are serially dependent loads with a mispredict per level.
    let below: usize = cuts.iter().map(|&c| usize::from(c < x)).sum();
    // `below <= cuts.len() <= MAX_CUTS == 255` fits a `u8` (255, above
    // every cut, routes right at every internal node, as NaN does): the
    // fallback is unreachable, but keeps the conversion total without a
    // panic path.
    u8::try_from(below).unwrap_or(LEAF_BIN)
}

/// An ensemble of regression trees packed into parallel per-field
/// arrays (structure-of-arrays), with its exact [`BinPlan`].
#[derive(Clone, Debug, Default)]
pub struct FlatTrees {
    /// Split threshold per node (`x[feat] <= thresh` routes left);
    /// leaves store `+∞` so every non-NaN comparison routes "left".
    thresh: Vec<f64>,
    /// Split feature per node; leaves store 0 (self-loop encoding).
    feat: Vec<u32>,
    /// Absolute index of the left child (the right child is `left + 1`:
    /// the growers allocate children adjacently); leaves store their
    /// own index, so `left == self` identifies a leaf.
    left: Vec<u32>,
    /// Leaf value per node (already scaled by the caller's factor).
    value: Vec<f64>,
    /// Root node index of each tree.
    roots: Vec<u32>,
    /// Depth of each tree: traversal steps that guarantee leaf arrival.
    depth: Vec<u32>,
    /// Largest split-feature index over internal nodes; lets the
    /// kernels validate feature accesses once per call instead of per
    /// step.
    max_feat: u32,
    /// Exact u8 quantization of the thresholds — the layout both
    /// kernels traverse.
    bins: BinPlan,
}

impl FlatTrees {
    /// Flatten an ensemble, scaling every leaf value by `scale`
    /// (boosters pass the learning rate so prediction is a plain sum).
    ///
    /// Consecutive trees with identical *structure* — same topology,
    /// split features, and bit-identical thresholds — are merged into
    /// one tree whose leaf values are the (scaled) sums of the run.
    /// Any row routes to the same leaf in every tree of such a run, so
    /// the merged ensemble computes the same real-valued function with
    /// proportionally fewer traversals. Boosters on small datasets
    /// converge to repeating the same splits round after round, which
    /// makes this the single biggest uncached-inference lever: typical
    /// selector models shrink 3–4× here. (Summing a run's leaf values
    /// at build time can differ from summing them query-time by an
    /// ulp; every prediction path uses the merged arrays, so batch ≡
    /// scalar bitwise equivalence is unaffected.)
    ///
    /// Trees are stored **shallowest first**: a lockstep block steps
    /// every cursor the *deepest* depth in the block, so grouping
    /// trees by depth stops one deep tree from stretching a block of
    /// shallow ones. The sort is stable, which keeps originally
    /// consecutive identical trees adjacent (nothing of equal depth
    /// can move between them), so the merge above still sees every
    /// run. Ensemble sums are order-sensitive only in their f64
    /// rounding; all prediction paths walk the stored order, so they
    /// stay bitwise identical to each other.
    ///
    /// Fails with a [`LayoutError`] when the merged ensemble does not
    /// fit the packed [`BinPlan`] word.
    pub fn from_trees<'a>(
        trees: impl IntoIterator<Item = &'a GradTree>,
        scale: f64,
    ) -> Result<FlatTrees, LayoutError> {
        let mut by_depth: Vec<&GradTree> = trees.into_iter().collect();
        by_depth.sort_by_key(|t| grad_tree_depth(t));
        let mut flat = FlatTrees::default();
        for tree in by_depth {
            let base = idx32(flat.thresh.len());
            if let Some(&prev) = flat.roots.last() {
                if flat.merge_into_previous(prev, base, tree, scale) {
                    continue;
                }
            }
            let nodes = flat.thresh.len() + tree.nodes.len();
            if nodes > MAX_META_NODES {
                return Err(LayoutError::TooManyNodes { nodes });
            }
            flat.roots.push(base);
            for (i, node) in tree.nodes.iter().enumerate() {
                let leaf = node.left == LEAF;
                if !leaf {
                    // The growers allocate children adjacently and
                    // in-range; the packed layout (and the unchecked
                    // lockstep traversal) depend on it.
                    assert_eq!(node.right, node.left + 1, "node {i} children not adjacent");
                    assert!((node.right as usize) < tree.nodes.len(), "node {i} child out of range");
                    flat.max_feat = flat.max_feat.max(node.feat);
                }
                let me = base + idx32(i);
                flat.thresh.push(if leaf { f64::INFINITY } else { node.thresh });
                flat.feat.push(if leaf { 0 } else { node.feat });
                flat.left.push(if leaf { me } else { base + node.left });
                flat.value.push(node.value * scale);
            }
            flat.depth.push(flat.tree_depth(base as usize));
        }
        flat.bins = flat.build_bin_plan()?;
        Ok(flat)
    }

    /// If `tree` has exactly the structure of the already-flattened
    /// tree occupying `prev..end`, fold its scaled leaf values into
    /// that segment and report `true`; otherwise change nothing.
    fn merge_into_previous(&mut self, prev: u32, end: u32, tree: &GradTree, scale: f64) -> bool {
        let (prev, end) = (prev as usize, end as usize);
        if end - prev != tree.nodes.len() {
            return false;
        }
        for (i, node) in tree.nodes.iter().enumerate() {
            let at = prev + i;
            let leaf = node.left == LEAF;
            let was_leaf = self.left[at] as usize == at;
            if leaf != was_leaf {
                return false;
            }
            if !leaf
                && (self.thresh[at].to_bits() != node.thresh.to_bits()
                    || self.feat[at] != node.feat
                    || self.left[at] as usize != prev + node.left as usize)
            {
                return false;
            }
        }
        for (i, node) in tree.nodes.iter().enumerate() {
            self.value[prev + i] += node.value * scale;
        }
        true
    }

    /// Depth of the tree rooted at `root` — the step count after which
    /// every cursor has reached (and self-loops on) a leaf.
    fn tree_depth(&self, root: usize) -> u32 {
        let mut maxd = 0u32;
        let mut stack: Vec<(usize, u32)> = vec![(root, 0)];
        while let Some((i, d)) = stack.pop() {
            let l = self.left[i] as usize;
            if l == i {
                maxd = maxd.max(d);
            } else {
                stack.push((l, d + 1));
                stack.push((l + 1, d + 1));
            }
        }
        maxd
    }

    /// Features the kernels index when traversing: `max_feat + 1`.
    /// Query rows are quantized to exactly this many bins — trailing
    /// features no tree splits on are never binned.
    fn fcount(&self) -> usize {
        if self.thresh.is_empty() {
            0
        } else {
            self.max_feat as usize + 1
        }
    }

    /// Build the exact u8 quantization of a flattened ensemble of at
    /// most [`MAX_META_NODES`] nodes (the callers check that). Fails
    /// when a split feature exceeds [`MAX_META_FEAT`], a feature's
    /// distinct thresholds exceed [`MAX_CUTS`], or a threshold is
    /// non-finite (which the greedy growers never emit).
    fn build_bin_plan(&self) -> Result<BinPlan, LayoutError> {
        if self.max_feat > MAX_META_FEAT {
            return Err(LayoutError::FeatureTooHigh { feat: self.max_feat });
        }
        let fcount = self.fcount();
        let mut per_feat: Vec<Vec<f64>> = vec![Vec::new(); fcount];
        for i in 0..self.thresh.len() {
            if self.left[i] as usize == i {
                continue; // leaf: +∞ sentinel, never a cut
            }
            let t = self.thresh[i];
            if !t.is_finite() {
                return Err(LayoutError::NonFiniteThreshold { node: i });
            }
            per_feat[self.feat[i] as usize].push(t);
        }
        let mut cuts = Vec::new();
        let mut offset = Vec::with_capacity(fcount + 1);
        offset.push(0u32);
        for (feat, col) in per_feat.iter_mut().enumerate() {
            col.sort_by(f64::total_cmp);
            col.dedup();
            if col.len() > MAX_CUTS {
                return Err(LayoutError::TooManyCuts { feat, cuts: col.len() });
            }
            cuts.extend_from_slice(col);
            offset.push(idx32(cuts.len()));
        }
        let mut meta = Vec::with_capacity(self.thresh.len());
        for i in 0..self.thresh.len() {
            if self.left[i] as usize == i {
                // Leaf: `left` is the node itself and the bin of 255
                // guarantees the step predicate is false, so the
                // packed step parks the cursor in place.
                meta.push(self.left[i] << 16 | u32::from(LEAF_BIN));
                continue;
            }
            let f = self.feat[i] as usize;
            let col = &cuts[offset[f] as usize..offset[f + 1] as usize];
            // The node's threshold is a member of its feature's cut
            // set by construction; its bin is its position there.
            let j = col.partition_point(|&c| c < self.thresh[i]);
            debug_assert!(j < col.len() && col[j] == self.thresh[i], "cut set missing a threshold");
            let bin = u8::try_from(j).unwrap_or(LEAF_BIN);
            meta.push(self.left[i] << 16 | self.feat[i] << 8 | u32::from(bin));
        }
        Ok(BinPlan { cuts, offset, meta })
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across trees.
    pub fn num_nodes(&self) -> usize {
        self.thresh.len()
    }

    /// Sum of (scaled) leaf values over all trees for one row.
    #[inline]
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_one_from(x, 0.0)
    }

    /// Like [`FlatTrees::predict_one`] but accumulates onto `init`,
    /// using the same summation order (tree order) as every other
    /// prediction path — so a scalar prediction seeded with the
    /// booster's base score is bitwise identical to the batched one.
    ///
    /// The row is quantized once into a stack buffer and the trees are
    /// walked as [`BLOCK`]-wide lockstep cursor blocks over the packed
    /// node words.
    pub fn predict_one_from(&self, x: &[f64], init: f64) -> f64 {
        let fcount = self.fcount();
        if fcount == 0 {
            return init;
        }
        assert!(
            fcount <= x.len(),
            "model uses feature {} but the row has only {}",
            self.max_feat,
            x.len()
        );
        // `fcount <= MAX_META_FEAT + 1 == QROW_STACK`: the plan exists,
        // so `max_feat` passed its check.
        let plan = &self.bins;
        let mut q = [0u8; QROW_STACK];
        for (f, qv) in q.iter_mut().enumerate().take(fcount) {
            let col = &plan.cuts[plan.offset[f] as usize..plan.offset[f + 1] as usize];
            *qv = quantize_value(col, x[f]);
        }
        self.predict_one_binned(&q[..fcount], init, plan)
    }

    /// Early-exit f64-comparison walk: the reference the equivalence
    /// tests pin both binned kernels to, bitwise. Not a serving path.
    pub fn predict_one_from_unbinned(&self, x: &[f64], init: f64) -> f64 {
        let mut s = init;
        for &root in &self.roots {
            let mut i = root as usize;
            loop {
                let l = self.left[i] as usize;
                if l == i {
                    s += self.value[i];
                    break;
                }
                let go_left = x[self.feat[i] as usize] <= self.thresh[i];
                i = if go_left { l } else { l + 1 };
            }
        }
        s
    }

    /// Binned scalar kernel: one quantized row, trees stepped as
    /// lockstep cursor blocks. A single row has no row-level
    /// parallelism to mine, but an ensemble walk is a chain of
    /// dependent loads *per tree* — stepping [`BLOCK`] independent tree
    /// cursors at once overlaps those chains instead of serializing
    /// them, which is where the uncached-serving speedup comes from.
    fn predict_one_binned(&self, q: &[u8], init: f64, plan: &BinPlan) -> f64 {
        let mut s = init;
        let ntrees = self.roots.len();
        let mut c0 = 0usize;
        while c0 < ntrees {
            s = self.step_block(c0, q, s, plan);
            c0 += BLOCK.min(ntrees - c0);
        }
        s
    }

    /// One [`BLOCK`]-wide lockstep block of the binned scalar walk:
    /// trees `c0 ..` (at most [`BLOCK`] of them), accumulating their
    /// leaf values onto `init` in tree order.
    #[inline(always)]
    fn step_block(&self, c0: usize, q: &[u8], init: f64, plan: &BinPlan) -> f64 {
        let m = BLOCK.min(self.roots.len() - c0);
        // A short last block is padded with copies of its first
        // cursor so the step loop below is always exactly [`BLOCK`]
        // wide — a fixed-size loop the compiler fully unrolls, with
        // no per-slot trip-count check. The padded cursors walk a
        // real tree (their work is wasted, not unsafe) and the value
        // sum only reads the first `m`.
        let mut idx = [self.roots[c0] as usize; BLOCK];
        let mut steps = 0u32;
        for (t, slot) in idx.iter_mut().enumerate().take(m) {
            *slot = self.roots[c0 + t] as usize;
            steps = steps.max(self.depth[c0 + t]);
        }
        for _ in 0..steps {
            for slot in idx.iter_mut() {
                let i = *slot;
                // SAFETY: `i` is a root or a child index, both
                // < `num_nodes` by construction (`from_trees`
                // asserts, the decoder validates) and `plan.meta`
                // has `num_nodes` entries. The unpacked feature
                // index is ≤ `max_feat` < `q.len()` (the caller
                // quantized `fcount` values). Eliding per-step
                // bounds checks matters: the kernel is
                // load-latency bound.
                let (qv, w) = unsafe {
                    let w = *plan.meta.get_unchecked(i);
                    let f = ((w >> 8) & 0xff) as usize;
                    (u32::from(*q.get_unchecked(f)), w)
                };
                // Two loads and pure arithmetic per step: the
                // right child is implied (`left + 1`), a leaf's
                // bin of 255 parks the cursor, and a NaN's qv of
                // 255 beats every internal bin — see
                // [`BinPlan::meta`].
                *slot = (w >> 16) as usize + usize::from(qv > (w & 0xff));
            }
        }
        let mut s = init;
        for &i in idx.iter().take(m) {
            s += self.value[i];
        }
        s
    }

    /// Add each row's ensemble sum into `out` (`out[r] += Σ trees(x_r)`).
    ///
    /// `xs` is row-major with `nfeat` features per row; `out.len()` must
    /// equal the row count. Every row is quantized once up front and
    /// traversal compares `u8`s. Trees form the outer loop so each
    /// tree's node words stay cache-resident while rows stream through;
    /// rows go through in blocks of [`BLOCK`] independent cursors
    /// stepped the tree's depth in lockstep — leaf self-loops make the
    /// extra steps of early-arriving rows free of branches, so the
    /// whole block runs without data-dependent control flow.
    pub fn predict_batch_into(&self, xs: &[f64], nfeat: usize, out: &mut [f64]) {
        assert!(nfeat > 0, "nfeat must be positive");
        assert_eq!(xs.len(), out.len() * nfeat, "row-major shape mismatch");
        if self.thresh.is_empty() {
            return;
        }
        assert!(
            (self.max_feat as usize) < nfeat,
            "model uses feature {} but rows have only {nfeat}",
            self.max_feat,
        );
        let plan = &self.bins;
        let fcount = self.fcount();
        let rows = out.len();
        let mut q = vec![0u8; rows * fcount];
        for r in 0..rows {
            let row = &xs[r * nfeat..r * nfeat + fcount];
            let qrow = &mut q[r * fcount..(r + 1) * fcount];
            for f in 0..fcount {
                let col = &plan.cuts[plan.offset[f] as usize..plan.offset[f + 1] as usize];
                qrow[f] = quantize_value(col, row[f]);
            }
        }
        self.batch_binned(&q, fcount, out, plan);
    }

    /// Binned batch kernel over pre-quantized rows (`q` is row-major,
    /// `fcount` bins per row). Each step loads one packed node word and
    /// one quantized byte, and the next cursor is pure arithmetic on
    /// them.
    fn batch_binned(&self, q: &[u8], fcount: usize, out: &mut [f64], plan: &BinPlan) {
        let rows = out.len();
        let full = rows - rows % BLOCK;
        for (t, &root) in self.roots.iter().enumerate() {
            let depth = self.depth[t];
            if depth == 0 {
                // Single-leaf tree (late boosting rounds often converge
                // to these): the whole block gets the same constant.
                let v = self.value[root as usize];
                for o in out.iter_mut() {
                    *o += v;
                }
                continue;
            }
            for r0 in (0..full).step_by(BLOCK) {
                let mut idx = [root as usize; BLOCK];
                for _ in 0..depth {
                    for (b, i) in idx.iter_mut().enumerate() {
                        // SAFETY: `*i` is `root` or a child index; both
                        // are < `num_nodes` by construction (checked in
                        // `from_trees`, validated by the decoder), and
                        // `plan.meta` has `num_nodes` entries. The
                        // unpacked feature index is ≤ `max_feat` <
                        // `fcount` and `r0 + b` < `rows`, so the `q`
                        // index is < `rows * fcount` = `q.len()` (built
                        // that way one frame up). Eliding the per-step
                        // bounds checks matters: the kernel is
                        // load-throughput bound.
                        let (qv, w) = unsafe {
                            let w = *plan.meta.get_unchecked(*i);
                            let f = ((w >> 8) & 0xff) as usize;
                            (u32::from(*q.get_unchecked((r0 + b) * fcount + f)), w)
                        };
                        // Two loads per step; right child implied, leaf
                        // parks, NaN routes right — see [`BinPlan::meta`].
                        *i = (w >> 16) as usize + usize::from(qv > (w & 0xff));
                    }
                }
                for (b, &i) in idx.iter().enumerate() {
                    out[r0 + b] += self.value[i];
                }
            }
            // Tail rows: the same step, bounds-checked, one row at a time.
            for r in full..rows {
                let qrow = &q[r * fcount..(r + 1) * fcount];
                let mut i = root as usize;
                for _ in 0..depth {
                    let w = plan.meta[i];
                    let qv = u32::from(qrow[((w >> 8) & 0xff) as usize]);
                    i = (w >> 16) as usize + usize::from(qv > (w & 0xff));
                }
                out[r] += self.value[i];
            }
        }
    }
}

impl crate::persist::Persist for FlatTrees {
    fn encode(&self, w: &mut crate::persist::ByteWriter) {
        // `depth`, `max_feat`, and the bin plan are derived state —
        // recomputed on decode rather than trusted from the wire,
        // because the unsafe lockstep kernels rely on them. The wire
        // format is the original node record (thresh, feat, left),
        // unchanged by the SoA re-layout.
        w.put_len(self.thresh.len());
        for i in 0..self.thresh.len() {
            w.put_f64(self.thresh[i]);
            w.put_u32(self.feat[i]);
            w.put_u32(self.left[i]);
        }
        w.put_f64s(&self.value);
        w.put_u32s(&self.roots);
    }

    fn decode(
        r: &mut crate::persist::ByteReader<'_>,
    ) -> Result<FlatTrees, crate::persist::CodecError> {
        use crate::persist::CodecError;
        let layout = |e: LayoutError| CodecError::invalid(e.to_string());
        let n = r.get_len(16)?;
        if n > MAX_META_NODES {
            return Err(layout(LayoutError::TooManyNodes { nodes: n }));
        }
        let mut thresh = Vec::with_capacity(n);
        let mut feat = Vec::with_capacity(n);
        let mut left = Vec::with_capacity(n);
        for _ in 0..n {
            thresh.push(r.get_f64()?);
            feat.push(r.get_u32()?);
            left.push(r.get_u32()?);
        }
        let value = r.get_f64s()?;
        if value.len() != n {
            return Err(CodecError::invalid(format!(
                "flat ensemble has {n} node(s) but {} leaf value(s)",
                value.len()
            )));
        }
        let roots = r.get_u32s()?;
        // Roots must partition [0, n) into contiguous per-tree segments.
        if roots.is_empty() && n != 0 {
            return Err(CodecError::invalid("flat ensemble has nodes but no roots"));
        }
        if let Some(&first) = roots.first() {
            if first != 0 {
                return Err(CodecError::invalid("first flat tree does not start at node 0"));
            }
        }
        for t in 0..roots.len() {
            let start = roots[t] as usize;
            let end = roots.get(t + 1).map_or(n, |&e| e as usize);
            if start >= end || end > n {
                return Err(CodecError::invalid(format!(
                    "flat tree {t} spans [{start}, {end}) of {n} node(s)"
                )));
            }
            // Within a segment every node is either a self-loop leaf or
            // an internal node whose children (left, left+1) lie
            // strictly deeper in the same segment — this is exactly the
            // acyclicity/progress invariant `from_trees` establishes and
            // the `get_unchecked` traversal in the lockstep kernels
            // depends on.
            for (i, &l) in left.iter().enumerate().take(end).skip(start) {
                let l = l as usize;
                if l == i {
                    // Leaves carry the +∞ sentinel `from_trees` writes;
                    // anything else is not an encoding it produced.
                    if thresh[i] != f64::INFINITY {
                        return Err(CodecError::invalid(format!(
                            "flat leaf {i} threshold is not +inf"
                        )));
                    }
                    continue;
                }
                if l <= i || l + 1 >= end {
                    return Err(CodecError::invalid(format!(
                        "flat node {i} has children [{l}, {}] outside ({i}, {end})",
                        l + 1
                    )));
                }
            }
        }
        // Re-derive max_feat over internal nodes, as `from_trees` does:
        // the packed words of leaves never index a feature.
        let max_feat = (0..n)
            .filter(|&i| left[i] as usize != i)
            .map(|i| feat[i])
            .max()
            .unwrap_or(0);
        let mut flat = FlatTrees {
            thresh,
            feat,
            left,
            value,
            roots,
            depth: Vec::new(),
            max_feat,
            bins: BinPlan::default(),
        };
        for t in 0..flat.roots.len() {
            let d = flat.tree_depth(flat.roots[t] as usize);
            flat.depth.push(d);
        }
        flat.bins = flat.build_bin_plan().map_err(layout)?;
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::tree::{GradTree, Node, SortedColumns, TreeParams};

    fn flatten<'a>(trees: impl IntoIterator<Item = &'a GradTree>, scale: f64) -> FlatTrees {
        FlatTrees::from_trees(trees, scale).expect("small ensembles fit the packed layout")
    }

    fn grown_tree() -> (Dataset, GradTree) {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            let (a, b) = ((i % 10) as f64, (i / 10) as f64);
            d.push(&[a, b], a * 3.0 + b * b);
        }
        let g: Vec<f64> = d.targets().iter().map(|y| -y).collect();
        let h = vec![1.0; d.len()];
        let sorted = SortedColumns::new(&d);
        let params = TreeParams { lambda: 0.0, ..Default::default() };
        let t = GradTree::fit(&d, &sorted, &g, &h, &params, &[0, 1], None);
        (d, t)
    }

    #[test]
    fn flat_matches_pointer_traversal() {
        let (d, t) = grown_tree();
        let flat = flatten([&t], 1.0);
        assert_eq!(flat.num_trees(), 1);
        assert_eq!(flat.num_nodes(), t.node_count());
        for (x, _) in d.iter() {
            assert_eq!(flat.predict_one(x), t.predict(x));
        }
    }

    #[test]
    fn scale_multiplies_leaf_values() {
        let (d, t) = grown_tree();
        let flat = flatten([&t], 0.25);
        for (x, _) in d.iter() {
            assert!((flat.predict_one(x) - 0.25 * t.predict(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_accumulates_over_initialized_output() {
        let (d, t) = grown_tree();
        let flat = flatten([&t, &t], 1.0);
        let mut xs = Vec::new();
        for (x, _) in d.iter() {
            xs.extend_from_slice(x);
        }
        let mut out = vec![10.0; d.len()];
        flat.predict_batch_into(&xs, d.nfeat(), &mut out);
        for (i, (x, _)) in d.iter().enumerate() {
            assert!((out[i] - (10.0 + 2.0 * t.predict(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_matches_scalar_on_blocked_and_tail_rows() {
        let (d, t) = grown_tree();
        let flat = flatten([&t], 1.0);
        // 50 rows = 3 full blocks of 16 + a tail of 2: both paths run.
        let mut xs = Vec::new();
        for (x, _) in d.iter() {
            xs.extend_from_slice(x);
        }
        let mut out = vec![0.0; d.len()];
        flat.predict_batch_into(&xs, d.nfeat(), &mut out);
        for (i, (x, _)) in d.iter().enumerate() {
            assert_eq!(out[i], flat.predict_one(x), "row {i}");
        }
    }

    #[test]
    fn binned_and_unbinned_paths_agree_bitwise() {
        let (d, t) = grown_tree();
        // 4 copies: enough trees that the scalar binned kernel runs a
        // non-trivial lockstep block.
        let flat = flatten([&t, &t, &t, &t], 0.5);
        let mut xs = Vec::new();
        for (x, _) in d.iter() {
            xs.extend_from_slice(x);
        }
        // Off-grid queries too: values between and outside training cuts.
        for shift in [0.0, 0.4, -7.3, 1e9] {
            let moved: Vec<f64> = xs.iter().map(|v| v + shift).collect();
            let mut binned = vec![1.5; d.len()];
            flat.predict_batch_into(&moved, d.nfeat(), &mut binned);
            for i in 0..d.len() {
                let row = &moved[i * d.nfeat()..(i + 1) * d.nfeat()];
                assert_eq!(
                    flat.predict_one_from(row, 1.5),
                    binned[i],
                    "scalar row {i} shift {shift}"
                );
                assert_eq!(
                    flat.predict_one_from_unbinned(row, 1.5),
                    binned[i],
                    "unbinned scalar row {i} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn non_finite_features_route_like_f64_comparisons() {
        let (_, t) = grown_tree();
        let flat = flatten([&t, &t], 1.0);
        // NaN routes right everywhere, ±∞ route to the extremes; both
        // kernels must agree bitwise with the f64 reference and never
        // walk off a leaf (the reserved leaf bin parks the cursor).
        let rows: Vec<[f64; 2]> = vec![
            [f64::NAN, 3.0],
            [3.0, f64::NAN],
            [f64::NAN, f64::NAN],
            [f64::INFINITY, f64::NEG_INFINITY],
            [f64::NEG_INFINITY, f64::INFINITY],
            [f64::INFINITY, f64::NAN],
        ];
        let xs: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut binned = vec![0.0; rows.len()];
        flat.predict_batch_into(&xs, 2, &mut binned);
        for (i, row) in rows.iter().enumerate() {
            assert!(binned[i].is_finite());
            assert_eq!(flat.predict_one(row), binned[i], "scalar row {i}");
            assert_eq!(flat.predict_one_from_unbinned(row, 0.0), binned[i], "ref row {i}");
        }
    }

    #[test]
    fn depth_zero_stump_predicts_in_batch() {
        // A single-leaf tree exercises the depth-0 fast path.
        let mut d = Dataset::new(1);
        d.push(&[1.0], 3.0);
        let g = vec![-3.0];
        let h = vec![1.0];
        let sorted = SortedColumns::new(&d);
        let params = TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() };
        let t = GradTree::fit(&d, &sorted, &g, &h, &params, &[0], None);
        let flat = flatten([&t], 1.0);
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut out = vec![0.0; 20];
        flat.predict_batch_into(&xs, 1, &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, flat.predict_one(&xs[i..i + 1]));
        }
    }

    #[test]
    fn quantize_value_matches_f64_comparisons() {
        let cuts = [-3.5, 0.0, 1.0, 2.5, 100.0];
        for x in [
            -1e300,
            -3.6,
            -3.5,
            -3.4999,
            0.0,
            -0.0,
            0.5,
            1.0,
            2.5,
            99.0,
            100.0,
            101.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let bin = quantize_value(&cuts, x);
            for (j, &c) in cuts.iter().enumerate() {
                let byte = u8::try_from(j).expect("tiny cut set");
                assert_eq!(
                    bin <= byte,
                    x <= c,
                    "x={x} cut[{j}]={c}: bin {bin} disagrees with f64 compare"
                );
            }
        }
    }

    /// One split on `feat` at `thresh` with two leaves.
    fn stump(feat: u32, thresh: f64) -> GradTree {
        let leaf = |value| Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value };
        GradTree { nodes: vec![Node { feat, thresh, left: 1, right: 2, value: 0.0 }, leaf(-1.0), leaf(1.0)] }
    }

    #[test]
    fn ensembles_beyond_the_packed_layout_are_typed_errors() {
        let wide = [stump(256, 0.5)];
        assert_eq!(
            FlatTrees::from_trees(&wide, 1.0).err(),
            Some(LayoutError::FeatureTooHigh { feat: 256 })
        );
        let cuts: Vec<GradTree> = (0..300).map(|k| stump(0, f64::from(k))).collect();
        assert_eq!(
            FlatTrees::from_trees(&cuts, 1.0).err(),
            Some(LayoutError::TooManyCuts { feat: 0, cuts: 300 })
        );
        let inf = [stump(0, f64::INFINITY)];
        assert_eq!(
            FlatTrees::from_trees(&inf, 1.0).err(),
            Some(LayoutError::NonFiniteThreshold { node: 0 })
        );
        // A caterpillar tree (every right child splits again) one node
        // past the 16-bit child field.
        let leaf = Node { feat: LEAF, thresh: 0.0, left: LEAF, right: LEAF, value: 0.0 };
        let mut nodes = vec![leaf.clone(); MAX_META_NODES + 1];
        for i in (0..MAX_META_NODES).step_by(2) {
            let left = u32::try_from(i + 1).expect("below 2^17");
            nodes[i] = Node { feat: 0, thresh: 0.5, left, right: left + 1, value: 0.0 };
        }
        assert_eq!(
            FlatTrees::from_trees([&GradTree { nodes }], 1.0).err(),
            Some(LayoutError::TooManyNodes { nodes: MAX_META_NODES + 1 })
        );
        // Exactly at the limits: 255 cuts on feature 255 still pack.
        let full: Vec<GradTree> = (0..255).map(|k| stump(255, f64::from(k))).collect();
        let flat = flatten(&full, 1.0);
        let mut x = vec![0.0; 256];
        for v in [-1.0, 0.0, 17.5, 254.0, 1e9, f64::NAN] {
            x[255] = v;
            assert_eq!(flat.predict_one(&x), flat.predict_one_from_unbinned(&x, 0.0), "x = {v}");
        }
    }
}
