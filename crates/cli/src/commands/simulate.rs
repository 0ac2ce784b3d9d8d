//! `mpcp machines`, `mpcp algorithms` and `mpcp simulate`: inspect the
//! simulated machines and libraries, and run one collective once.

use std::num::NonZeroU32;

use mpcp_benchmark::LibKind;
use mpcp_simnet::{Machine, Simulator, Topology};

use super::{library, parse_coll, parse_machine};
use crate::args::{Args, Size};

/// `mpcp machines`
pub fn machines() -> Result<String, String> {
    let mut out = String::from("machine       nodes  max_ppn  interconnect\n");
    for m in Machine::all() {
        out.push_str(&format!(
            "{:<12}  {:<5}  {:<7}  {}\n",
            m.name, m.max_nodes, m.max_ppn, m.interconnect
        ));
    }
    Ok(out)
}

/// `mpcp algorithms --coll <c> [--lib openmpi]`
pub fn algorithms(args: &Args) -> Result<String, String> {
    let coll = parse_coll(args.require("coll")?)?;
    let machine = parse_machine(args.get_or("machine", "hydra"))?;
    let lib = args.value_or("lib", LibKind::OpenMpi)?;
    args.reject_unread()?;
    let lib = library(lib, &machine, coll);
    let mut out = format!("{} {} — {} configurations for {}:\n", lib.name, lib.version,
        lib.configs(coll).len(), coll.mpi_name());
    out.push_str("uid   label\n");
    for (uid, cfg) in lib.configs(coll).iter().enumerate() {
        out.push_str(&format!(
            "{uid:<4}  {}{}\n",
            cfg.label(),
            if cfg.excluded { "   [excluded: benchmark-only]" } else { "" }
        ));
    }
    Ok(out)
}

/// `mpcp simulate ...`
pub fn simulate(args: &Args) -> Result<String, String> {
    let machine = parse_machine(args.require("machine")?)?;
    let coll = parse_coll(args.require("coll")?)?;
    let nodes: NonZeroU32 = args.required("nodes")?;
    let ppn: NonZeroU32 = args.required("ppn")?;
    let Size(msize) = args.value_or("msize", Size(0))?;
    let lib = args.value_or("lib", LibKind::OpenMpi)?;
    let alg: Option<usize> = args.optional("alg")?;
    args.reject_unread()?;
    let lib = library(lib, &machine, coll);
    let topo = Topology::new(nodes.get(), ppn.get());
    let uid = alg.unwrap_or_else(|| lib.default_choice(coll, msize, &topo));
    let configs = lib.configs(coll);
    if uid >= configs.len() {
        return Err(format!("--alg {uid} out of range (0..{})", configs.len()));
    }
    let progs = lib.build(coll, uid, &topo, msize);
    let r = Simulator::new(&machine.model, &topo)
        .run(&progs)
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(format!(
        "{} of {} bytes on {} ({}x{} ranks)\nalgorithm: {}\nruntime:   {:.3} us\nmessages:  {} ({} bytes inter-node, {} intra-node)\nevents:    {}\n",
        coll.mpi_name(),
        msize,
        machine.name,
        nodes,
        ppn,
        configs[uid].label(),
        r.makespan().as_micros_f64(),
        r.messages,
        r.bytes_inter,
        r.bytes_intra,
        r.events
    ))
}
