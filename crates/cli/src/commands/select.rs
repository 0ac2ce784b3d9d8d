//! `mpcp train`, `mpcp select` and `mpcp tune`: fit a selector on a
//! dataset CSV, then save it, answer one query, or emit a tuning file.

use std::num::NonZeroU32;
use std::path::Path;

use mpcp_benchmark::record::read_csv;
use mpcp_benchmark::{LibKind, Record};
use mpcp_collectives::{Collective, MpiLibrary};
use mpcp_core::tuning_file::{default_query_sizes, TuningFile};
use mpcp_core::{ArtifactMeta, Instance, RuntimeTable, Selector, TrainOptions, TrainReport};
use mpcp_ml::Learner;
use mpcp_simnet::{Machine, Topology};

use super::{library, library_of, load_model, parse_coll, parse_learner, parse_machine};
use crate::args::{Args, Size};

/// The flags of a command that trains on a dataset CSV, and the library
/// they name.
struct TrainSetup<'a> {
    coll: Collective,
    machine: Machine,
    lib: LibKind,
    library: MpiLibrary,
    data: &'a str,
    train_nodes: Option<Vec<u32>>,
    opts: TrainOptions,
    learner: Learner,
}

impl<'a> TrainSetup<'a> {
    /// Read the training flags as a command's last reads: reject every
    /// flag still unread, and only then build the library (Intel MPI's
    /// runs its tuning sweep).
    fn read(args: &'a Args) -> Result<TrainSetup<'a>, String> {
        let coll = parse_coll(args.require("coll")?)?;
        let machine = parse_machine(args.get_or("machine", "hydra"))?;
        let lib = args.value_or("lib", LibKind::OpenMpi)?;
        let data = args.require("data")?;
        let train_nodes = match args.get("train-nodes") {
            Some(_) => Some(args.list("train-nodes")?),
            None => None,
        };
        let opts = TrainOptions { min_samples: args.value_or("min-samples", 1)? };
        let learner = parse_learner(args.get_or("learner", "gam"))?;
        args.reject_unread()?;
        let library = library(lib, &machine, coll);
        Ok(TrainSetup { coll, machine, lib, library, data, train_nodes, opts, learner })
    }

    /// Read the dataset and fit on its `--train-nodes` rows; returns the
    /// selector, its coverage report and the whole dataset.
    fn train(&self) -> Result<(Selector, TrainReport, Vec<Record>), String> {
        let path = self.data;
        let data = read_csv(Path::new(path)).map_err(|e| e.to_string())?;
        if data.is_empty() {
            return Err(format!("dataset {path} is empty"));
        }
        let train: Vec<Record> = match &self.train_nodes {
            Some(keep) => data.iter().filter(|r| keep.contains(&r.nodes)).copied().collect(),
            None => data.clone(),
        };
        if train.is_empty() {
            return Err("no training records after --train-nodes filter".into());
        }
        let configs = self.library.configs(self.coll);
        let (selector, report) =
            Selector::train_with_report(&self.learner, &train, configs, &self.opts)
                .map_err(|e| format!("training on {path} failed: {e}"))?;
        Ok((selector, report, data))
    }
}

/// Coverage note shown by `select`/`tune` when training was partial.
fn coverage_note(report: &TrainReport) -> String {
    if report.degraded() == 0 && report.records_out_of_range == 0 {
        return String::new();
    }
    format!("training coverage: {}\n", report.summary())
}

/// `mpcp train --data <csv> --coll <c> --save-model <path> [...]`
///
/// Offline half of the serving split: fit a selector from a dataset
/// CSV and persist it (models + coverage + provenance manifest) as a
/// binary artifact that `select --model` / `serve-bench` load without
/// retraining.
pub fn train(args: &Args) -> Result<String, String> {
    let out_path = args.require("save-model")?;
    let seed = args.optional::<u64>("seed")?;
    let setup = TrainSetup::read(args)?;
    let (selector, report, _data) = setup.train()?;
    let meta = ArtifactMeta::capture(
        setup.coll,
        &setup.lib.label(),
        &setup.machine.name,
        seed,
        &setup.opts,
    );
    selector
        .save(Path::new(out_path), &report, &meta)
        .map_err(|e| format!("saving model: {e}"))?;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    let mut out = format!(
        "trained {} selector for {} ({} models)\n",
        selector.learner_name(),
        setup.coll.mpi_name(),
        selector.model_count()
    );
    out.push_str(&coverage_note(&report));
    out.push_str(&format!(
        "saved model artifact to {out_path} ({bytes} bytes, git {})\n",
        meta.git_sha
    ));
    Ok(out)
}

/// `mpcp select ...`: answer one query from a saved artifact
/// (`--model`), or from a selector trained in memory on `--data`.
pub fn select(args: &Args) -> Result<String, String> {
    let nodes: NonZeroU32 = args.required("nodes")?;
    let ppn: NonZeroU32 = args.required("ppn")?;
    let Size(msize) = args.required("msize")?;
    let inst = |coll| Instance::new(coll, msize, nodes.get(), ppn.get());
    let Some(path) = args.get("model") else {
        let setup = TrainSetup::read(args)?;
        let (selector, report, data) = setup.train()?;
        let inst = inst(setup.coll);
        return Ok(render_selection(&selector, &report, &setup.library, &inst, Some(&data), None));
    };
    let want = args.get("coll").map(parse_coll).transpose()?;
    let data = args.get("data");
    args.reject_unread()?;
    let artifact = load_model(path)?;
    let coll = artifact.meta.collective;
    if let Some(want) = want.filter(|w| *w != coll) {
        return Err(format!(
            "--coll {} but {path} was trained for {}",
            want.mpi_name(),
            coll.mpi_name()
        ));
    }
    let lib = library_of(&artifact.meta)?;
    let measured = data.map(|p| read_csv(Path::new(p)).map_err(|e| e.to_string())).transpose()?;
    let model = Some((path, &artifact.meta));
    let (selector, report) = (&artifact.selector, &artifact.report);
    Ok(render_selection(selector, report, &lib, &inst(coll), measured.as_deref(), model))
}

/// The one rendering of a selection: the instance, training coverage,
/// the predicted best (or the DEGRADED fallback), the library default
/// and, when `measured` covers the instance, the measured best. `model`
/// names the saved artifact the selector came from; without one it was
/// just trained on `measured`, and the measured runtime of its own pick
/// is shown too.
fn render_selection(
    selector: &Selector,
    report: &TrainReport,
    lib: &MpiLibrary,
    inst: &Instance,
    measured: Option<&[Record]>,
    model: Option<(&str, &ArtifactMeta)>,
) -> String {
    let configs = lib.configs(inst.coll);
    let mut out = match model {
        Some((path, meta)) => format!(
            "model: {path} ({} on {} / {}, git {})\n",
            selector.learner_name(),
            meta.machine,
            meta.library,
            meta.git_sha
        ),
        None => String::new(),
    };
    out.push_str(&format!("instance: {inst}\n"));
    out.push_str(&coverage_note(report));
    let selection = selector.select_with_fallback(inst, lib);
    let (uid, label) = (selection.uid, configs[selection.uid as usize].label());
    match selection.predicted_us {
        Some(pred) => out.push_str(&format!(
            "predicted best: uid {uid} = {label} (~{pred:.1} us predicted)\n"
        )),
        None => out.push_str(&format!(
            "DEGRADED selection: no trained model covers this instance; \
             falling back to library decision logic: uid {uid} = {label}\n"
        )),
    }
    let topo = Topology::new(inst.nodes, inst.ppn);
    let default_uid = lib.default_choice(inst.coll, inst.msize, &topo);
    let default_label = configs[default_uid].label();
    out.push_str(&format!("library default: uid {default_uid} = {default_label}\n"));
    let Some(table) = measured.map(RuntimeTable::new) else { return out };
    if let Some((best_uid, best)) = table.best(inst) {
        out.push_str(&format!(
            "measured best: uid {best_uid} = {} ({:.1} us)\n",
            configs[best_uid as usize].label(),
            best * 1e6
        ));
        if let (None, Some(t)) = (model, table.runtime(inst, uid)) {
            out.push_str(&format!("predicted algorithm measured at {:.1} us\n", t * 1e6));
        }
    }
    out
}

/// `mpcp tune ...`
pub fn tune(args: &Args) -> Result<String, String> {
    let nodes: NonZeroU32 = args.required("nodes")?;
    let ppn: NonZeroU32 = args.required("ppn")?;
    let out_path = args.get("out");
    let setup = TrainSetup::read(args)?;
    let (selector, report, _) = setup.train()?;
    let tf = TuningFile::generate(
        &selector,
        setup.library.configs(setup.coll),
        setup.coll,
        nodes.get(),
        ppn.get(),
        &default_query_sizes(),
    );
    let rendered = format!("{}{}", coverage_note(&report), tf.render());
    if let Some(path) = out_path {
        tf.write(Path::new(path)).map_err(|e| e.to_string())?;
        Ok(format!("{rendered}\nwritten to {path}\n"))
    } else {
        Ok(rendered)
    }
}
