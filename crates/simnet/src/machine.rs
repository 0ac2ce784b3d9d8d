//! Machine profiles mirroring Table I of the paper.
//!
//! The absolute parameter values are synthetic (the paper's testbeds are
//! not available), but they respect the relations the paper states:
//! Hydra has a dual-rail Intel OmniPath interconnect and roughly twice
//! Jupiter's bandwidth and twice its cores per node; Jupiter has an older
//! single-rail InfiniBand QDR fabric and slower (AMD Opteron) cores;
//! SuperMUC-NG is a large OmniPath system with 48-core Skylake nodes.


use crate::model::NetworkModel;

/// A named machine: node/core limits plus a [`NetworkModel`].
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Human-readable machine name (matches the paper: Hydra, Jupiter,
    /// SuperMUC-NG).
    pub name: String,
    /// Number of compute nodes available (Table I column `n`).
    pub max_nodes: u32,
    /// Maximum processes per node (Table I column "Max ppn").
    pub max_ppn: u32,
    /// Processor description, for Table I regeneration.
    pub processor: String,
    /// Interconnect description, for Table I regeneration.
    pub interconnect: String,
    /// The communication cost model.
    pub model: NetworkModel,
}

impl Machine {
    /// Hydra: 36 nodes, 32 ppn, dual-socket Xeon Gold 6130, dual-rail
    /// Intel OmniPath (the machine where most of the paper's datasets were
    /// collected).
    pub fn hydra() -> Machine {
        Machine {
            name: "Hydra".into(),
            max_nodes: 36,
            max_ppn: 32,
            processor: "Intel Xeon Gold 6130, 2.1 GHz, dual socket".into(),
            interconnect: "Intel OmniPath, dual-rail".into(),
            model: NetworkModel {
                alpha_inter: 0.9e-6,
                beta_rail: 1.0 / 12.3e9, // ~12.3 GB/s per rail
                rails: 2,
                alpha_intra: 0.25e-6,
                beta_mem: 1.0 / 8.0e9, // ~8 GB/s per memory channel
                mem_channels: 6,
                o_send: 0.20e-6,
                o_recv: 0.20e-6,
                eager_inter: 12 * 1024,
                eager_intra: 32 * 1024,
                gamma_reduce: 1.0 / 4.0e9,
                beta_unexpected: 1.0 / 10.0e9,
            },
        }
    }

    /// Jupiter: 35 nodes, 16 ppn, AMD Opteron 6134, single-rail Mellanox
    /// InfiniBand QDR — roughly half Hydra's bandwidth and core count.
    pub fn jupiter() -> Machine {
        Machine {
            name: "Jupiter".into(),
            max_nodes: 35,
            max_ppn: 16,
            processor: "AMD Opteron 6134".into(),
            interconnect: "Mellanox InfiniBand (QDR)".into(),
            model: NetworkModel {
                alpha_inter: 1.7e-6,
                beta_rail: 1.0 / 3.4e9, // QDR effective ~3.4 GB/s
                rails: 1,
                alpha_intra: 0.45e-6,
                beta_mem: 1.0 / 4.0e9,
                mem_channels: 4,
                o_send: 0.40e-6,
                o_recv: 0.40e-6,
                eager_inter: 12 * 1024,
                eager_intra: 32 * 1024,
                gamma_reduce: 1.0 / 2.2e9,
                beta_unexpected: 1.0 / 5.0e9,
            },
        }
    }

    /// SuperMUC-NG: large OmniPath system, 48-core Skylake Platinum nodes.
    /// (The simulator only ever instantiates the node counts the paper's
    /// d8 dataset uses, up to 48.)
    pub fn supermuc_ng() -> Machine {
        Machine {
            name: "SuperMUC-NG".into(),
            max_nodes: 6336,
            max_ppn: 48,
            processor: "Intel Skylake Platinum 8174".into(),
            interconnect: "Intel OmniPath".into(),
            model: NetworkModel {
                alpha_inter: 1.1e-6,
                beta_rail: 1.0 / 12.3e9,
                rails: 1,
                alpha_intra: 0.22e-6,
                beta_mem: 1.0 / 9.0e9,
                mem_channels: 6,
                o_send: 0.18e-6,
                o_recv: 0.18e-6,
                eager_inter: 12 * 1024,
                eager_intra: 32 * 1024,
                gamma_reduce: 1.0 / 5.0e9,
                beta_unexpected: 1.0 / 11.0e9,
            },
        }
    }

    /// All machine profiles, in Table I order.
    pub fn all() -> Vec<Machine> {
        vec![Machine::hydra(), Machine::jupiter(), Machine::supermuc_ng()]
    }

    /// Look a machine up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<Machine> {
        Machine::all()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        let hydra = Machine::hydra();
        let jupiter = Machine::jupiter();
        let sng = Machine::supermuc_ng();
        assert_eq!(hydra.max_nodes, 36);
        assert_eq!(hydra.max_ppn, 32);
        assert_eq!(jupiter.max_nodes, 35);
        assert_eq!(jupiter.max_ppn, 16);
        assert_eq!(sng.max_ppn, 48);
        // Hydra: dual rail, roughly twice Jupiter's per-rail bandwidth.
        assert_eq!(hydra.model.rails, 2);
        assert!(hydra.model.beta_rail < jupiter.model.beta_rail / 2.0);
        // Hydra has twice as many cores per node as Jupiter.
        assert_eq!(hydra.max_ppn, 2 * jupiter.max_ppn);
    }

    #[test]
    fn lookup_by_name() {
        assert!(Machine::by_name("hydra").is_some());
        assert!(Machine::by_name("SUPERMUC-NG").is_some());
        assert!(Machine::by_name("frontier").is_none());
    }
}
