//! Dataset records: one measured grid cell each. On disk they live in
//! the campaign store ([`crate::store`]), column by column.

/// One measured cell of a dataset: the tuple the paper's regression
/// models train on, plus ground truth for evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Number of compute nodes `n`.
    pub nodes: u32,
    /// Processes per node `N`.
    pub ppn: u32,
    /// Message size in bytes `m`.
    pub msize: u64,
    /// Algorithm-configuration index `u_{j,l}` into the library's list.
    pub uid: u32,
    /// Library-visible algorithm id `j`.
    pub alg_id: u32,
    /// Benchmark-only configuration (never selectable).
    pub excluded: bool,
    /// Measured (noisy median) running time, seconds.
    pub runtime: f64,
    /// Noise-free simulated running time, seconds (ground truth used by
    /// the evaluation, never shown to the learners).
    pub base: f64,
    /// Repetitions the benchmark loop executed.
    pub reps: u32,
}
