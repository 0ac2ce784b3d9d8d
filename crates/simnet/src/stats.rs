//! Simulation results and statistics.


use crate::time::SimTime;

/// Outcome of one collective simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-rank completion time of the rank's whole program.
    pub finish: Vec<SimTime>,
    /// Per-rank start time (zero unless skew was injected).
    pub start: Vec<SimTime>,
    /// Events processed.
    pub events: u64,
    /// Point-to-point messages fully delivered.
    pub messages: u64,
    /// Bytes moved across the interconnect.
    pub bytes_inter: u64,
    /// Bytes moved through node-local shared memory.
    pub bytes_intra: u64,
    /// Per-rank bytes received (for schedule volume invariants).
    pub recv_bytes: Vec<u64>,
    /// Per-rank bytes sent.
    pub sent_bytes: Vec<u64>,
}

impl SimResult {
    /// The collective's running time: latest finish minus earliest start.
    ///
    /// This matches how MPI benchmarks report a collective's duration
    /// under synchronized (time-window) process starts.
    pub fn makespan(&self) -> SimTime {
        let end = self.finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        let begin = self.start.iter().copied().min().unwrap_or(SimTime::ZERO);
        end.saturating_sub(begin)
    }

    /// Last rank to finish.
    pub fn slowest_rank(&self) -> u32 {
        self.finish
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| **t)
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(finish: Vec<u64>, start: Vec<u64>) -> SimResult {
        SimResult {
            finish: finish.into_iter().map(SimTime).collect(),
            start: start.into_iter().map(SimTime).collect(),
            events: 0,
            messages: 0,
            bytes_inter: 0,
            bytes_intra: 0,
            recv_bytes: vec![],
            sent_bytes: vec![],
        }
    }

    #[test]
    fn makespan_spans_start_to_finish() {
        let r = result_with(vec![100, 250, 200], vec![0, 10, 5]);
        assert_eq!(r.makespan(), SimTime(250));
        assert_eq!(r.slowest_rank(), 1);
    }

    #[test]
    fn makespan_of_empty_result_is_zero() {
        let r = result_with(vec![], vec![]);
        assert_eq!(r.makespan(), SimTime::ZERO);
    }
}
