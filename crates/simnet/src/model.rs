//! Flow-level network cost model (LogGP-flavoured, with explicit shared
//! resources).
//!
//! A point-to-point message of `b` bytes between ranks on *different*
//! nodes costs, end to end:
//!
//! ```text
//!   o_send                      (sender CPU)
//! + queueing at sender NIC      (FIFO over `rails` parallel rails)
//! + b · beta_rail               (injection on one rail)
//! + alpha_inter                 (wire latency)
//! + queueing at receiver NIC
//! + b · beta_rail               (drain on one rail)
//! + o_recv                      (receiver CPU)
//! ```
//!
//! Messages above `eager_inter` use a rendezvous protocol that adds a
//! request/clear-to-send round trip before the payload moves and makes the
//! send synchronous. Intra-node messages replace the NIC/wire terms with a
//! single reservation of the node's shared-memory channel(s).
//!
//! The per-node NIC FIFO is what produces the processes-per-node
//! sensitivity that the paper's selection problem hinges on: with 32 ranks
//! per node, 32 concurrent inter-node flows share the same rails.


use crate::time::SimTime;

/// All cost parameters of a simulated machine's communication subsystem.
///
/// Bandwidth parameters are expressed as seconds **per byte** (`beta_*`),
/// latencies and overheads in seconds. See the module docs for how they
/// combine.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkModel {
    /// Inter-node wire latency (seconds).
    pub alpha_inter: f64,
    /// Per-rail inter-node time per byte (seconds/byte). One flow occupies
    /// one rail; aggregate node bandwidth is `rails / beta_rail`.
    pub beta_rail: f64,
    /// Number of NIC rails per node and direction (dual-rail OmniPath = 2).
    pub rails: u32,
    /// Intra-node latency (seconds).
    pub alpha_intra: f64,
    /// Shared-memory channel time per byte (seconds/byte), per channel.
    pub beta_mem: f64,
    /// Number of parallel shared-memory channels per node.
    pub mem_channels: u32,
    /// Sender CPU overhead per message (seconds).
    pub o_send: f64,
    /// Receiver CPU overhead per message (seconds).
    pub o_recv: f64,
    /// Eager/rendezvous switch-over for inter-node messages (bytes).
    pub eager_inter: u64,
    /// Eager/rendezvous switch-over for intra-node messages (bytes).
    pub eager_intra: u64,
    /// Local reduction cost per byte (seconds/byte), charged by
    /// `Instr::Compute` for reduction collectives.
    pub gamma_reduce: f64,
    /// Extra copy cost per byte for eager messages that arrive before the
    /// matching receive is posted (unexpected-message buffer copy).
    pub beta_unexpected: f64,
}

impl NetworkModel {
    /// Sender CPU overhead as simulation time.
    #[inline]
    pub fn o_send_t(&self) -> SimTime {
        SimTime::from_secs_f64(self.o_send)
    }

    /// Receiver CPU overhead as simulation time.
    #[inline]
    pub fn o_recv_t(&self) -> SimTime {
        SimTime::from_secs_f64(self.o_recv)
    }

    /// Inter-node wire latency as simulation time.
    #[inline]
    pub fn alpha_inter_t(&self) -> SimTime {
        SimTime::from_secs_f64(self.alpha_inter)
    }

    /// Intra-node latency as simulation time.
    #[inline]
    pub fn alpha_intra_t(&self) -> SimTime {
        SimTime::from_secs_f64(self.alpha_intra)
    }

    /// Rail occupancy for a `bytes`-byte inter-node transfer.
    #[inline]
    pub fn rail_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.beta_rail)
    }

    /// Memory-channel occupancy for a `bytes`-byte intra-node transfer.
    #[inline]
    pub fn mem_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.beta_mem)
    }

    /// Local reduction time for `bytes` bytes.
    #[inline]
    pub fn reduce_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.gamma_reduce)
    }

    /// Unexpected-message copy time for `bytes` bytes.
    #[inline]
    pub fn unexpected_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.beta_unexpected)
    }

    /// Whether an inter-node message of this size is sent eagerly.
    #[inline]
    pub fn is_eager_inter(&self, bytes: u64) -> bool {
        bytes <= self.eager_inter
    }

    /// Whether an intra-node message of this size is sent eagerly.
    #[inline]
    pub fn is_eager_intra(&self, bytes: u64) -> bool {
        bytes <= self.eager_intra
    }

    /// Sanity-check the parameter set; returns a description of the first
    /// violated constraint, if any.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("alpha_inter", self.alpha_inter),
            ("beta_rail", self.beta_rail),
            ("alpha_intra", self.alpha_intra),
            ("beta_mem", self.beta_mem),
            ("o_send", self.o_send),
            ("o_recv", self.o_recv),
            ("gamma_reduce", self.gamma_reduce),
        ];
        for (name, v) in positive {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.beta_unexpected < 0.0 || !self.beta_unexpected.is_finite() {
            return Err(format!(
                "beta_unexpected must be non-negative, got {}",
                self.beta_unexpected
            ));
        }
        if self.rails == 0 {
            return Err("rails must be >= 1".into());
        }
        if self.mem_channels == 0 {
            return Err("mem_channels must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    
    use crate::machine::Machine;

    #[test]
    fn presets_validate() {
        for m in Machine::all() {
            m.model.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn rail_time_scales_linearly() {
        let m = Machine::hydra().model;
        let t1 = m.rail_time(1 << 20);
        let t2 = m.rail_time(1 << 21);
        // Each conversion rounds independently; allow 1 ps of slack.
        assert!(t2.picos().abs_diff(2 * t1.picos()) <= 1);
    }

    #[test]
    fn eager_thresholds() {
        let m = Machine::hydra().model;
        assert!(m.is_eager_inter(1));
        assert!(!m.is_eager_inter(m.eager_inter + 1));
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut m = Machine::hydra().model;
        m.beta_rail = 0.0;
        assert!(m.validate().is_err());
        let mut m = Machine::hydra().model;
        m.rails = 0;
        assert!(m.validate().is_err());
    }
}
