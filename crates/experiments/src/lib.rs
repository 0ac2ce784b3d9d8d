//! # mpcp-experiments — regeneration of every table and figure
//!
//! One binary per experiment (see DESIGN.md §5 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — hardware overview |
//! | `table2` | Table II — dataset overview |
//! | `table3` | Table III — train/test splits |
//! | `fig2` | Fig. 2 — chain vs linear broadcast speed-ups |
//! | `fig4` | Fig. 4 — Bcast, Open MPI, Hydra: Best/Default/Prediction |
//! | `fig5` | Fig. 5 — predicted algorithm ids per learner |
//! | `fig6` | Fig. 6 — Allreduce, Intel MPI, Hydra |
//! | `fig7` | Fig. 7 — Allreduce, Open MPI, Jupiter |
//! | `fig8` | Fig. 8 — Bcast, Open MPI, SuperMUC-NG |
//! | `table4` | Table IV — mean speed-up over the default |
//! | `training_time` | §V text — benchmark-budget accounting |
//!
//! Binaries print the paper's rows/series and write CSVs under
//! `results/`. `MPCP_FAST=1` shrinks grids for smoke runs.
//!
//! This library crate holds the shared pipeline: dataset generation with
//! caching, selector training for the three learners, per-instance
//! comparison rows, and plain-text table rendering.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use mpcp_benchmark::{BenchConfig, DatasetResult, DatasetSpec, Record};
use mpcp_collectives::MpiLibrary;
use mpcp_core::{evaluate, splits, InstanceEval, Selector};
use mpcp_ml::Learner;

/// Stamp the provenance header every experiment binary prints first:
/// git SHA (+dirty), the binary/config it ran as, optional seed, and
/// wall time — so any `results/` artifact can be traced to the exact
/// tree that produced it.
pub fn print_provenance(config: &str, seed: Option<u64>) {
    let config = if std::env::var("MPCP_FAST").is_ok() {
        format!("{config} MPCP_FAST=1")
    } else {
        config.to_string()
    };
    println!("{}", mpcp_obs::provenance::Provenance::capture(&config, seed).header());
}

/// Where experiment outputs land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MPCP_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("cannot create results dir");
    p
}

/// Dataset cache directory.
pub fn cache_dir() -> PathBuf {
    let p = results_dir().join("cache");
    std::fs::create_dir_all(&p).expect("cannot create cache dir");
    p
}

/// Whether fast (smoke-test) mode is requested via `MPCP_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("MPCP_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Shrink a dataset spec for smoke runs: the small training node counts,
/// the smallest node count only the large training set has (so the large
/// and small splits still differ), the first and last test node counts,
/// three ppn values, message sizes capped at 64 KiB.
pub fn shrink_spec(mut spec: DatasetSpec) -> DatasetSpec {
    let split = splits::paper_split(&spec.machine.name);
    let large_only = split.train_full.iter().find(|n| !split.train_small.contains(n));
    let mut nodes: Vec<u32> = spec
        .nodes
        .iter()
        .copied()
        .filter(|n| {
            split.train_small.contains(n)
                || large_only == Some(n)
                || split.test.first() == Some(n)
                || split.test.last() == Some(n)
        })
        .collect();
    nodes.dedup();
    spec.nodes = nodes;
    let keep: Vec<u32> = [1, spec.ppn[spec.ppn.len() / 2], *spec.ppn.last().unwrap()]
        .into_iter()
        .collect();
    spec.ppn.retain(|p| keep.contains(p));
    spec.msizes.retain(|&m| m <= 64 << 10);
    spec
}

/// A fully prepared dataset: spec, library, generated records, split.
pub struct Prepared {
    /// The (possibly shrunk) dataset spec.
    pub spec: DatasetSpec,
    /// The library with its default decision logic.
    pub library: MpiLibrary,
    /// Generated (or cache-loaded) records.
    pub data: DatasetResult,
    /// Table III split for the machine.
    pub split: splits::Split,
}

impl Prepared {
    /// Generate (with caching) everything needed to evaluate a dataset.
    pub fn load(spec: DatasetSpec) -> Prepared {
        let spec = if fast_mode() { shrink_spec(spec) } else { spec };
        let bench = BenchConfig::paper_default(&spec.machine.name);
        let library = spec.library(None);
        eprintln!(
            "[{}] generating {} cells ({} configs) ...",
            spec.id,
            spec.sample_count(&library),
            library.configs(spec.coll).len()
        );
        let t0 = std::time::Instant::now();
        let data = spec.generate_cached(&library, &bench, &cache_dir());
        eprintln!("[{}] ready in {:.1}s", spec.id, t0.elapsed().as_secs_f64());
        let split = splits::paper_split(&spec.machine.name);
        Prepared { spec, library, data, split }
    }

    /// Training records for the full or small Table III training set.
    pub fn train_records(&self, small: bool) -> Vec<Record> {
        let nodes = if small { &self.split.train_small } else { &self.split.train_full };
        let nodes: Vec<u32> =
            nodes.iter().copied().filter(|n| self.spec.nodes.contains(n)).collect();
        splits::filter_records(&self.data.records, &nodes)
    }

    /// Test records (unseen node counts).
    pub fn test_records(&self) -> Vec<Record> {
        let nodes: Vec<u32> =
            self.split.test.iter().copied().filter(|n| self.spec.nodes.contains(n)).collect();
        splits::filter_records(&self.data.records, &nodes)
    }

    /// Train a selector on this dataset.
    pub fn train_selector(&self, learner: &Learner, small: bool) -> Selector {
        Selector::train(learner, &self.train_records(small), self.library.configs(self.spec.coll))
            .expect("selector training failed: no configuration could be trained")
    }

    /// Train + evaluate one learner; returns per-instance evaluations on
    /// the test split.
    pub fn evaluate_learner(&self, learner: &Learner, small: bool) -> Vec<InstanceEval> {
        let selector = self.train_selector(learner, small);
        evaluate(&selector, &self.test_records(), &self.library, self.spec.coll)
    }
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Write a CSV file into the results directory.
pub fn write_result_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    use std::io::Write;
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("cannot write result csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    eprintln!("wrote {}", path.display());
    path
}

/// Format a byte count the way the paper's axes do.
pub fn fmt_bytes(b: u64) -> String {
    b.to_string()
}

/// Human-readable duration from seconds.
pub fn fmt_duration(secs: f64) -> String {
    if secs >= 3600.0 {
        format!("{:.1} h", secs / 3600.0)
    } else if secs >= 60.0 {
        format!("{:.1} min", secs / 60.0)
    } else {
        format!("{secs:.1} s")
    }
}

/// Load a dataset by id, as the binaries do.
pub fn load_dataset(id: &str) -> Prepared {
    let spec = DatasetSpec::by_id(id).unwrap_or_else(|| panic!("unknown dataset {id}"));
    Prepared::load(spec)
}

/// Check whether `path` exists (test helper).
pub fn exists(path: &Path) -> bool {
    path.exists()
}

/// Rows of a Fig.4-style comparison: for each `(nodes, ppn, msize)` test
/// instance, the runtimes of Best / Default / Prediction normalized to
/// Best.
pub struct ComparisonRow {
    /// Node count of the instance.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Message size in bytes.
    pub msize: u64,
    /// Default strategy runtime / best runtime (>= 1).
    pub norm_default: f64,
    /// Predicted strategy runtime / best runtime (>= 1).
    pub norm_predicted: f64,
    /// Best absolute runtime in microseconds (context).
    pub best_us: f64,
    /// Chosen uids (best, default, predicted).
    pub uids: (u32, u32, u32),
}

/// Produce a Fig. 4/6/7/8-style comparison on a dataset: train the given
/// learner on the full Table III training split, evaluate on the listed
/// test nodes and ppn values.
pub fn comparison_figure(
    prepared: &Prepared,
    learner: &Learner,
    show_nodes: &[u32],
    show_ppn: &[u32],
) -> Vec<ComparisonRow> {
    let evals = prepared.evaluate_learner(learner, false);
    let mut rows: Vec<ComparisonRow> = evals
        .iter()
        .filter(|e| {
            show_nodes.contains(&e.instance.nodes) && show_ppn.contains(&e.instance.ppn)
        })
        .map(|e| ComparisonRow {
            nodes: e.instance.nodes,
            ppn: e.instance.ppn,
            msize: e.instance.msize,
            norm_default: e.normalized_default(),
            norm_predicted: e.normalized_predicted(),
            best_us: e.best * 1e6,
            uids: (e.best_uid, e.default_uid, e.predicted_uid),
        })
        .collect();
    rows.sort_by_key(|r| (r.nodes, r.ppn, r.msize));
    rows
}

/// Print a comparison figure as panels (one per nodes × ppn) and write
/// its CSV; returns the rows for further summary.
pub fn print_comparison(
    name: &str,
    title: &str,
    prepared: &Prepared,
    learner: &Learner,
    show_nodes: &[u32],
    show_ppn: &[u32],
) -> Vec<ComparisonRow> {
    let rows = comparison_figure(prepared, learner, show_nodes, show_ppn);
    println!("{title}");
    println!("(normalized running time; Exhaustive Search (Best) = 1.00)\n");
    let mut csv = Vec::new();
    for &n in show_nodes {
        for &ppn in show_ppn {
            let panel: Vec<&ComparisonRow> =
                rows.iter().filter(|r| r.nodes == n && r.ppn == ppn).collect();
            if panel.is_empty() {
                continue;
            }
            println!("nodes: {n}   ppn: {ppn}");
            let table_rows: Vec<Vec<String>> = panel
                .iter()
                .map(|r| {
                    vec![
                        r.msize.to_string(),
                        "1.00".to_string(),
                        format!("{:.2}", r.norm_default),
                        format!("{:.2}", r.norm_predicted),
                        format!("{:.1}", r.best_us),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    &["msize [B]", "Best", "Default", "Prediction", "best [us]"],
                    &table_rows
                )
            );
            for r in &panel {
                csv.push(format!(
                    "{},{},{},{:.6},{:.6},{:.3},{},{},{}",
                    r.nodes,
                    r.ppn,
                    r.msize,
                    r.norm_default,
                    r.norm_predicted,
                    r.best_us,
                    r.uids.0,
                    r.uids.1,
                    r.uids.2
                ));
            }
        }
    }
    let mean_def: f64 = rows.iter().map(|r| r.norm_default).sum::<f64>() / rows.len().max(1) as f64;
    let mean_pred: f64 =
        rows.iter().map(|r| r.norm_predicted).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "mean normalized runtime over shown panels: default {mean_def:.2}, prediction {mean_pred:.2}"
    );
    write_result_csv(
        &format!("{name}.csv"),
        "nodes,ppn,msize,norm_default,norm_predicted,best_us,best_uid,default_uid,predicted_uid",
        &csv,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(&["a", "bb"], &[
            vec!["1".into(), "2".into()],
            vec!["333".into(), "4".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    fn shrink_reduces_grid() {
        let spec = DatasetSpec::d1();
        let small = shrink_spec(spec.clone());
        assert!(small.nodes.len() < spec.nodes.len());
        assert!(small.ppn.len() <= 3);
        assert!(small.msizes.iter().all(|&m| m <= 64 << 10));
        // Fast mode must still tell Table IV(a) from (b): the shrunk grid
        // keeps a node count only the large training set has.
        for spec in [DatasetSpec::d1(), DatasetSpec::d3()] {
            let small = shrink_spec(spec);
            let split = splits::paper_split(&small.machine.name);
            let kept = |train: &[u32]| -> Vec<u32> {
                train.iter().copied().filter(|n| small.nodes.contains(n)).collect()
            };
            let (large, few) = (kept(&split.train_full), kept(&split.train_small));
            assert_ne!(large, few, "{}: large and small training sets coincide", small.machine.name);
            assert_eq!(few, split.train_small, "{}", small.machine.name);
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(10.0), "10.0 s");
        assert_eq!(fmt_duration(120.0), "2.0 min");
        assert_eq!(fmt_duration(7200.0), "2.0 h");
    }
}
