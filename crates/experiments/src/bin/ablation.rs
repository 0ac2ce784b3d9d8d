//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **Target transform** — absolute runtimes (this paper) vs the
//!    rejected alternatives: speed-up-over-default ratios (the authors'
//!    PMBS'18 approach) and direct best-algorithm classification, both of
//!    which the paper argues introduce bias (§III-A).
//! 2. **Learner family** — the kept learners vs rejected baselines.
//! 3. **Feature set** — with/without the explicit `n·N` interaction and
//!    the log transform on message size.
//!
//! All ablations run on a mid-size Open MPI broadcast grid on Hydra.

use std::collections::{BTreeMap, HashMap};

use mpcp_benchmark::{BenchConfig, DatasetSpec, LibKind, Record};
use mpcp_collectives::Collective;
use mpcp_core::{evaluate, mean_speedup, splits, Instance, RuntimeTable, Selector};
use mpcp_experiments::{load_store, render_table, store_path, write_result_csv};
use mpcp_ml::{Dataset, Learner};
use mpcp_simnet::{Machine, Topology};

fn spec() -> DatasetSpec {
    let fast = mpcp_experiments::fast_mode();
    DatasetSpec {
        id: "ablation",
        coll: Collective::Bcast,
        lib: LibKind::OpenMpi,
        machine: Machine::hydra(),
        nodes: if fast { vec![2, 3, 4, 6] } else { vec![4, 7, 8, 13, 16, 20, 24] },
        ppn: if fast { vec![1, 4] } else { vec![1, 8, 16, 32] },
        msizes: if fast {
            vec![16, 4 << 10, 64 << 10]
        } else {
            vec![1, 16, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 512 << 10, 1 << 20, 4 << 20]
        },
        seed: 0xAB1A,
    }
}

/// A hand-rolled feature encoding `(msize, nodes, ppn) -> features`.
type FeatFn = fn(u64, u32, u32) -> Vec<f64>;

/// Custom-feature selector: same argmin machinery, hand-rolled features.
struct FeatSelector {
    models: Vec<Option<mpcp_ml::Model>>,
    feat: FeatFn,
}

impl FeatSelector {
    fn train(
        records: &[Record],
        n_configs: usize,
        excluded: &[bool],
        feat: FeatFn,
        learner: &Learner,
    ) -> FeatSelector {
        let nfeat = feat(1, 1, 1).len();
        let mut per: Vec<Dataset> = (0..n_configs).map(|_| Dataset::new(nfeat)).collect();
        for r in records {
            if !excluded[r.uid as usize] {
                per[r.uid as usize].push(&feat(r.msize, r.nodes, r.ppn), (r.runtime * 1e6).max(1e-3));
            }
        }
        let models = per
            .iter()
            .enumerate()
            .map(|(u, d)| (!excluded[u] && !d.is_empty()).then(|| learner.fit(d)))
            .collect();
        FeatSelector { models, feat }
    }

    fn select(&self, m: u64, n: u32, ppn: u32) -> u32 {
        let x = (self.feat)(m, n, ppn);
        self.models
            .iter()
            .enumerate()
            .filter_map(|(u, mo)| mo.as_ref().map(|mo| (u as u32, mo.predict(&x))))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0
    }
}

fn eval_feat(
    table: &RuntimeTable,
    library: &mpcp_collectives::MpiLibrary,
    test: &[Record],
    sel: &FeatSelector,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut seen = std::collections::HashSet::new();
    for r in test {
        if !seen.insert((r.nodes, r.ppn, r.msize)) {
            continue;
        }
        let inst = Instance::new(Collective::Bcast, r.msize, r.nodes, r.ppn);
        let uid = sel.select(r.msize, r.nodes, r.ppn);
        let t = table.runtime(&inst, uid).unwrap();
        let d_uid = library.default_choice(
            Collective::Bcast,
            r.msize,
            &Topology::new(r.nodes, r.ppn),
        ) as u32;
        let d = table.runtime(&inst, d_uid).unwrap();
        sum += d / t;
        n += 1;
    }
    sum / n as f64
}

/// PMBS'18-style ratio learner: predict speedup over the default, pick
/// argmax — reproduced here to show why the paper abandoned it.
fn ratio_strategy_speedup(
    train: &[Record],
    test: &[Record],
    library: &mpcp_collectives::MpiLibrary,
    learner: &Learner,
    n_configs: usize,
    excluded: &[bool],
) -> f64 {
    // Default runtime per instance (training side).
    let mut default_t: HashMap<(u32, u32, u64), f64> = HashMap::new();
    for r in train {
        let d_uid =
            library.default_choice(Collective::Bcast, r.msize, &Topology::new(r.nodes, r.ppn));
        if r.uid as usize == d_uid {
            default_t.insert((r.nodes, r.ppn, r.msize), r.runtime);
        }
    }
    let mut per: Vec<Dataset> = (0..n_configs).map(|_| Dataset::new(4)).collect();
    for r in train {
        if excluded[r.uid as usize] {
            continue;
        }
        let Some(&d) = default_t.get(&(r.nodes, r.ppn, r.msize)) else { continue };
        let ratio = (d / r.runtime).clamp(1e-3, 1e3); // speed-up over default
        per[r.uid as usize].push(
            &[((r.msize + 1) as f64).log2(), r.nodes as f64, r.ppn as f64,
              (r.nodes * r.ppn) as f64],
            ratio,
        );
    }
    let models: Vec<Option<mpcp_ml::Model>> = per
        .iter()
        .enumerate()
        .map(|(u, d)| (!excluded[u] && !d.is_empty()).then(|| learner.fit(d)))
        .collect();
    let table = RuntimeTable::new(test);
    let mut sum = 0.0;
    let mut n = 0;
    let mut seen = std::collections::HashSet::new();
    for r in test {
        if !seen.insert((r.nodes, r.ppn, r.msize)) {
            continue;
        }
        let x = [((r.msize + 1) as f64).log2(), r.nodes as f64, r.ppn as f64,
                 (r.nodes * r.ppn) as f64];
        let uid = models
            .iter()
            .enumerate()
            .filter_map(|(u, m)| m.as_ref().map(|m| (u as u32, m.predict(&x))))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        let inst = Instance::new(Collective::Bcast, r.msize, r.nodes, r.ppn);
        let t = table.runtime(&inst, uid).unwrap();
        let d_uid = library
            .default_choice(Collective::Bcast, r.msize, &Topology::new(r.nodes, r.ppn))
            as u32;
        let d = table.runtime(&inst, d_uid).unwrap();
        sum += d / t;
        n += 1;
    }
    sum / n as f64
}

/// The most frequent label; a tie goes to the smallest uid, so the
/// vote never depends on hash or neighbour order.
///
/// # Panics
/// Panics on an empty vote.
fn majority_vote(labels: impl IntoIterator<Item = u32>) -> u32 {
    let mut votes: BTreeMap<u32, usize> = BTreeMap::new();
    for uid in labels {
        *votes.entry(uid).or_default() += 1;
    }
    // `max_by_key` keeps the last maximum; walking the uids downwards
    // makes that the smallest.
    let (&uid, _) = votes.iter().rev().max_by_key(|&(_, &count)| count).expect("empty vote");
    uid
}

/// Direct classification of the best algorithm id (the paper's §III-A
/// third rejected scheme): label each training instance with its best
/// uid, classify unseen instances by majority vote over the K nearest
/// training instances. Biased toward the few algorithms that win most
/// instances — reproduced to show the effect.
fn classification_strategy_speedup(
    train: &[Record],
    test: &[Record],
    library: &mpcp_collectives::MpiLibrary,
) -> f64 {
    use mpcp_ml::kdtree::KdTree;
    use mpcp_ml::scaling::StandardScaler;
    // Best uid per training instance.
    let train_table = RuntimeTable::new(train);
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut feat_ds = mpcp_ml::Dataset::new(4);
    let mut labels = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for r in train {
        if !seen.insert((r.nodes, r.ppn, r.msize)) {
            continue;
        }
        let inst = Instance::new(Collective::Bcast, r.msize, r.nodes, r.ppn);
        let Some((uid, _)) = train_table.best(&inst) else { continue };
        let x = vec![((r.msize + 1) as f64).log2(), r.nodes as f64, r.ppn as f64,
                     (r.nodes * r.ppn) as f64];
        feat_ds.push(&x, 0.0);
        labels.push(uid);
        rows.push((x, uid as f64));
    }
    let scaler = StandardScaler::fit(&feat_ds);
    let scaled: Vec<(Vec<f64>, f64)> =
        rows.iter().map(|(x, y)| (scaler.transform(x), *y)).collect();
    let tree = KdTree::build(scaled);
    let table = RuntimeTable::new(test);
    let mut sum = 0.0;
    let mut n = 0;
    let mut test_seen = std::collections::HashSet::new();
    for r in test {
        if !test_seen.insert((r.nodes, r.ppn, r.msize)) {
            continue;
        }
        let x = scaler.transform(&[((r.msize + 1) as f64).log2(), r.nodes as f64,
                                   r.ppn as f64, (r.nodes * r.ppn) as f64]);
        let uid = majority_vote(tree.nearest(&x, 5).into_iter().map(|(_, y)| y as u32));
        let inst = Instance::new(Collective::Bcast, r.msize, r.nodes, r.ppn);
        let t = table.runtime(&inst, uid).unwrap();
        let d_uid = library
            .default_choice(Collective::Bcast, r.msize, &Topology::new(r.nodes, r.ppn))
            as u32;
        let d = table.runtime(&inst, d_uid).unwrap();
        sum += d / t;
        n += 1;
    }
    sum / n as f64
}

fn main() {
    mpcp_experiments::print_provenance("ablation", None);
    let spec = spec();
    let library = spec.library(None);
    let bench = BenchConfig::paper_default("Hydra");
    let data = load_store(&spec, &library, &bench, &store_path(spec.id));
    let split = splits::paper_split("Hydra");
    let keep =
        |ns: &Vec<u32>| ns.iter().copied().filter(|n| spec.nodes.contains(n)).collect::<Vec<_>>();
    let train_nodes = if mpcp_experiments::fast_mode() { vec![2, 4, 6] } else { keep(&split.train_full) };
    let test_nodes = if mpcp_experiments::fast_mode() { vec![3] } else { keep(&split.test) };
    let train = splits::filter_records(&data.records, &train_nodes);
    let test = splits::filter_records(&data.records, &test_nodes);
    let configs = library.configs(spec.coll);
    let excluded: Vec<bool> = configs.iter().map(|c| c.excluded).collect();
    let table = RuntimeTable::new(&test);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut add = |group: &str, variant: &str, speedup: f64| {
        rows.push(vec![group.to_string(), variant.to_string(), format!("{speedup:.2}")]);
        csv.push(format!("{group},{variant},{speedup:.4}"));
    };

    // 1. Target transform.
    let sel = Selector::train(&Learner::xgboost(), &train, configs).expect("training failed");
    add("target", "absolute runtime (paper)", mean_speedup(&evaluate(&sel, &test, &library, spec.coll)));
    add(
        "target",
        "speedup ratio (PMBS'18, rejected)",
        ratio_strategy_speedup(&train, &test, &library, &Learner::xgboost(), configs.len(), &excluded),
    );
    add(
        "target",
        "best-id classification (rejected)",
        classification_strategy_speedup(&train, &test, &library),
    );

    // 2. Learner family.
    for learner in
        [Learner::knn(), Learner::gam(), Learner::xgboost(), Learner::forest(), Learner::linear()]
    {
        let sel = Selector::train(&learner, &train, configs).expect("training failed");
        add("learner", learner.name(), mean_speedup(&evaluate(&sel, &test, &library, spec.coll)));
    }

    // 3. Feature set (XGBoost).
    let feats: [(&str, FeatFn); 3] = [
        ("log2(m), n, N, nN (paper)", |m, n, ppn| {
            vec![((m + 1) as f64).log2(), n as f64, ppn as f64, (n * ppn) as f64]
        }),
        ("no interaction term", |m, n, ppn| {
            vec![((m + 1) as f64).log2(), n as f64, ppn as f64]
        }),
        ("raw m (no log)", |m, n, ppn| {
            vec![m as f64, n as f64, ppn as f64, (n * ppn) as f64]
        }),
    ];
    for (name, f) in feats {
        let sel = FeatSelector::train(&train, configs.len(), &excluded, f, &Learner::xgboost());
        add("features", name, eval_feat(&table, &library, &test, &sel));
    }

    println!("Ablation study (mean speed-up over the library default; higher is better)");
    println!("{}", render_table(&["group", "variant", "speedup"], &rows));
    write_result_csv("ablation.csv", "group,variant,speedup", &csv);
}

#[cfg(test)]
mod tests {
    use super::majority_vote;

    #[test]
    fn a_tied_vote_goes_to_the_smallest_uid() {
        assert_eq!(majority_vote([7, 3, 7, 3, 9]), 3);
        assert_eq!(majority_vote([9, 5, 2]), 2);
        assert_eq!(majority_vote([4, 8, 8]), 8);
    }
}
