//! Checkpointed columnar on-disk store for campaign results.
//!
//! A store file is a concatenation of `persist` codec frames (`MPCP`
//! magic + version + kind + FNV-1a checksum): one
//! [`KIND_CAMPAIGN_HEADER`] frame pinning the campaign's identity (grid,
//! seed, bench/fault/retry configuration), followed by one
//! [`KIND_CAMPAIGN_CHUNK`] frame per committed chunk of cells, in cell-id
//! order. Each chunk holds **column blocks** — per-cell fate bytes and
//! coordinate columns (`m`/`n`/`N`/`uid`), plus measurement columns
//! (`runtime`/`base`/`reps`/`alg_id`/`excluded`) for the cells that
//! produced a record — so downstream consumers can scan a single column
//! without decoding rows.
//!
//! Because every frame is checksummed and self-delimiting, crash
//! recovery is a pure scan: [`CampaignStore::open_or_create`] walks the
//! frames, keeps every chunk that validates, and truncates a torn tail
//! (the unique signature of a crash mid-append) back to the last valid
//! frame boundary. Any *other* corruption — flipped bits, a foreign
//! file, a future format version — is a typed error, never a panic and
//! never a silent heal: a store that lies about its history must not be
//! resumed into.
//!
//! Determinism contract: the bytes of a store are a pure function of
//! `(header, committed results)`. No wall-clock time, thread count, or
//! host identity is ever written, which is what makes the campaign
//! runner's N-thread ≡ 1-thread byte-identity gate possible.
//!
//! The store is the only on-disk dataset format, and a store is reused
//! whenever its header equals the one a run would write. The header
//! therefore pins every input the records depend on: the grid, seed,
//! bench, retry and fault settings, and [`StoreHeader::inputs_digest`]
//! over the machine's network-model parameters, the noise model and the
//! configuration labels. What it cannot pin is the code: an engine,
//! schedule or ReproMPI change that alters records must bump
//! [`STORE_VERSION`], so that every existing store stops matching. Such
//! changes show up in `tests/records_digest.rs`.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

use mpcp_ml::persist::{
    append_framed, decode_payload, ByteReader, ByteWriter, CodecError, FrameScanner, Persist,
    KIND_CAMPAIGN_CHUNK, KIND_CAMPAIGN_HEADER,
};
use mpcp_simnet::SimTime;

use crate::fault::{FaultPlan, FaultSummary};
use crate::record::Record;

/// Version of the campaign-store layout (inside the codec's own
/// format version).
pub const STORE_VERSION: u32 = 2;

/// Per-cell fate byte stored in a chunk's fate column.
pub mod fate {
    /// Cell measured successfully (has measurement columns).
    pub const OK: u8 = 0;
    /// Cell lost to (retry-exhausted) failure.
    pub const FAILED: u8 = 1;
    /// Cell lost to a timeout.
    pub const TIMED_OUT: u8 = 2;
    /// Cell lost to a simulation error.
    pub const SIM_ERROR: u8 = 3;
}

/// Identity of one campaign: everything that determines its results.
///
/// Two stores may only be resumed into one another when their headers
/// are equal; a mismatch is [`StoreError::HeaderMismatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct StoreHeader {
    /// Campaign id (dataset id or CLI-assigned name).
    pub id: String,
    /// Collective name (e.g. `MPI_Allreduce`).
    pub collective: String,
    /// Library name.
    pub library: String,
    /// Library version string.
    pub lib_version: String,
    /// Machine profile name.
    pub machine: String,
    /// Noise seed of the campaign.
    pub seed: u64,
    /// Node counts of the grid, in canonical order.
    pub nodes: Vec<u32>,
    /// Processes-per-node values, in canonical order.
    pub ppn: Vec<u32>,
    /// Message sizes in bytes, in canonical order.
    pub msizes: Vec<u64>,
    /// Algorithm-configuration count of the library.
    pub config_count: u64,
    /// Cells per chunk (the checkpoint granularity).
    pub chunk_size: u64,
    /// Benchmark loop: maximum repetitions per cell.
    pub max_reps: u32,
    /// Benchmark loop: per-cell budget, picoseconds.
    pub budget_picos: u64,
    /// Benchmark loop: per-repetition sync overhead, picoseconds.
    pub sync_picos: u64,
    /// Retry policy: extra attempts after the first failure.
    pub max_retries: u32,
    /// Retry policy: base backoff, picoseconds.
    pub backoff_picos: u64,
    /// Fault plan, if the campaign injects faults.
    pub fault: Option<FaultPlanRepr>,
    /// FNV-1a digest of the simulator and noise inputs the header does
    /// not spell out: the network model's parameter bits, the noise
    /// model's, and every configuration's label and excluded flag.
    pub inputs_digest: u64,
}

/// Serializable mirror of [`FaultPlan`] (probabilities via bit-exact
/// `f64` round trips).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlanRepr {
    /// Per-attempt failure probability.
    pub fail_prob: f64,
    /// Per-attempt timeout probability.
    pub timeout_prob: f64,
    /// Outlier probability.
    pub outlier_prob: f64,
    /// Outlier inflation factor.
    pub outlier_scale: f64,
    /// Blacked-out node counts.
    pub blackout_nodes: Vec<u32>,
    /// Fault-stream seed.
    pub seed: u64,
}

impl FaultPlanRepr {
    /// Capture a plan for the header.
    pub fn from_plan(p: &FaultPlan) -> FaultPlanRepr {
        FaultPlanRepr {
            fail_prob: p.fail_prob,
            timeout_prob: p.timeout_prob,
            outlier_prob: p.outlier_prob,
            outlier_scale: p.outlier_scale,
            blackout_nodes: p.blackout_nodes.clone(),
            seed: p.seed,
        }
    }
}

impl Persist for FaultPlanRepr {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.fail_prob);
        w.put_f64(self.timeout_prob);
        w.put_f64(self.outlier_prob);
        w.put_f64(self.outlier_scale);
        w.put_u32s(&self.blackout_nodes);
        w.put_u64(self.seed);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<FaultPlanRepr, CodecError> {
        Ok(FaultPlanRepr {
            fail_prob: r.get_f64()?,
            timeout_prob: r.get_f64()?,
            outlier_prob: r.get_f64()?,
            outlier_scale: r.get_f64()?,
            blackout_nodes: r.get_u32s()?,
            seed: r.get_u64()?,
        })
    }
}

impl StoreHeader {
    /// Total cells in this campaign's grid.
    pub fn total_cells(&self) -> u64 {
        self.nodes.len() as u64
            * self.ppn.len() as u64
            * self.msizes.len() as u64
            * self.config_count
    }

    /// Total chunks the campaign will commit (last one may be short).
    pub fn total_chunks(&self) -> u64 {
        if self.chunk_size == 0 {
            return 0;
        }
        self.total_cells().div_ceil(self.chunk_size)
    }
}

impl Persist for StoreHeader {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(STORE_VERSION);
        w.put_str(&self.id);
        w.put_str(&self.collective);
        w.put_str(&self.library);
        w.put_str(&self.lib_version);
        w.put_str(&self.machine);
        w.put_u64(self.seed);
        w.put_u32s(&self.nodes);
        w.put_u32s(&self.ppn);
        w.put_u64s(&self.msizes);
        w.put_u64(self.config_count);
        w.put_u64(self.chunk_size);
        w.put_u32(self.max_reps);
        w.put_u64(self.budget_picos);
        w.put_u64(self.sync_picos);
        w.put_u32(self.max_retries);
        w.put_u64(self.backoff_picos);
        match &self.fault {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                f.encode(w);
            }
        }
        w.put_u64(self.inputs_digest);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<StoreHeader, CodecError> {
        let v = r.get_u32()?;
        if v != STORE_VERSION {
            return Err(CodecError::invalid(format!(
                "campaign store version {v} (this build supports {STORE_VERSION})"
            )));
        }
        let header = StoreHeader {
            id: r.get_string()?,
            collective: r.get_string()?,
            library: r.get_string()?,
            lib_version: r.get_string()?,
            machine: r.get_string()?,
            seed: r.get_u64()?,
            nodes: r.get_u32s()?,
            ppn: r.get_u32s()?,
            msizes: r.get_u64s()?,
            config_count: r.get_u64()?,
            chunk_size: r.get_u64()?,
            max_reps: r.get_u32()?,
            budget_picos: r.get_u64()?,
            sync_picos: r.get_u64()?,
            max_retries: r.get_u32()?,
            backoff_picos: r.get_u64()?,
            fault: match r.get_u8()? {
                0 => None,
                1 => Some(FaultPlanRepr::decode(r)?),
                b => return Err(CodecError::invalid(format!("fault-plan tag {b}"))),
            },
            inputs_digest: r.get_u64()?,
        };
        if header.chunk_size == 0 && header.total_cells() != 0 {
            return Err(CodecError::invalid("chunk_size 0 on a non-empty grid"));
        }
        Ok(header)
    }
}

/// One committed chunk: column blocks for a contiguous cell-id range.
///
/// The coordinate columns (`nodes`/`ppn`/`msizes`/`uids`) and the fate
/// column cover **every** cell of the range; the measurement columns
/// (`alg_ids`/`excluded`/`runtimes`/`bases`/`reps`) cover only the cells
/// whose fate is [`fate::OK`], in the same order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ChunkData {
    /// Chunk ordinal (0-based, contiguous).
    pub index: u64,
    /// First cell id of the chunk.
    pub start: u64,
    /// Per-cell fate bytes (`fate::*`).
    pub fates: Vec<u8>,
    /// Per-cell node counts.
    pub nodes: Vec<u32>,
    /// Per-cell processes-per-node.
    pub ppn: Vec<u32>,
    /// Per-cell message sizes.
    pub msizes: Vec<u64>,
    /// Per-cell configuration uids.
    pub uids: Vec<u32>,
    /// Library algorithm ids (OK cells only).
    pub alg_ids: Vec<u32>,
    /// Excluded-configuration flags (OK cells only, 0/1).
    pub excluded: Vec<u8>,
    /// Measured median runtimes, seconds (OK cells only).
    pub runtimes: Vec<f64>,
    /// Noise-free base runtimes, seconds (OK cells only).
    pub bases: Vec<f64>,
    /// Repetition counts (OK cells only).
    pub reps: Vec<u32>,
    /// Retry attempts across the chunk.
    pub retries: u64,
    /// Simulated time charged to retry backoff, picoseconds.
    pub retry_picos: u64,
    /// Total simulated benchmark time consumed, picoseconds.
    pub consumed_picos: u64,
}

impl ChunkData {
    /// Cells covered by this chunk.
    pub fn cells(&self) -> u64 {
        self.fates.len() as u64
    }

    /// Cells that produced a record.
    pub fn ok_cells(&self) -> usize {
        self.fates.iter().filter(|&&f| f == fate::OK).count()
    }

    /// Rebuild this chunk's fault accounting.
    pub fn summary(&self) -> FaultSummary {
        let mut s = FaultSummary {
            retries: self.retries,
            retry_time: SimTime(self.retry_picos),
            ..FaultSummary::default()
        };
        for &f in &self.fates {
            match f {
                fate::OK => s.cells_ok += 1,
                fate::FAILED => s.cells_failed += 1,
                fate::TIMED_OUT => s.cells_timed_out += 1,
                _ => s.sim_errors += 1,
            }
        }
        s
    }

    /// Reconstitute the dataset records of this chunk's OK cells, in
    /// cell-id order.
    pub fn to_records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.runtimes.len());
        let mut ok = 0usize;
        for (i, &f) in self.fates.iter().enumerate() {
            if f != fate::OK {
                continue;
            }
            out.push(Record {
                nodes: self.nodes[i],
                ppn: self.ppn[i],
                msize: self.msizes[i],
                uid: self.uids[i],
                alg_id: self.alg_ids[ok],
                excluded: self.excluded[ok] != 0,
                runtime: self.runtimes[ok],
                base: self.bases[ok],
                reps: self.reps[ok],
            });
            ok += 1;
        }
        out
    }

    fn validate(&self) -> Result<(), CodecError> {
        let n = self.fates.len();
        for (name, len) in [
            ("nodes", self.nodes.len()),
            ("ppn", self.ppn.len()),
            ("msizes", self.msizes.len()),
            ("uids", self.uids.len()),
        ] {
            if len != n {
                return Err(CodecError::invalid(format!(
                    "chunk {}: {name} column has {len} entries for {n} cells",
                    self.index
                )));
            }
        }
        if let Some(&bad) = self.fates.iter().find(|&&f| f > fate::SIM_ERROR) {
            return Err(CodecError::invalid(format!("chunk {}: fate byte {bad}", self.index)));
        }
        let ok = self.ok_cells();
        for (name, len) in [
            ("alg_ids", self.alg_ids.len()),
            ("excluded", self.excluded.len()),
            ("runtimes", self.runtimes.len()),
            ("bases", self.bases.len()),
            ("reps", self.reps.len()),
        ] {
            if len != ok {
                return Err(CodecError::invalid(format!(
                    "chunk {}: {name} column has {len} entries for {ok} OK cells",
                    self.index
                )));
            }
        }
        if let Some(&bad) = self.excluded.iter().find(|&&b| b > 1) {
            return Err(CodecError::invalid(format!("chunk {}: excluded byte {bad}", self.index)));
        }
        Ok(())
    }
}

impl Persist for ChunkData {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.index);
        w.put_u64(self.start);
        w.put_u8s(&self.fates);
        w.put_u32s(&self.nodes);
        w.put_u32s(&self.ppn);
        w.put_u64s(&self.msizes);
        w.put_u32s(&self.uids);
        w.put_u32s(&self.alg_ids);
        w.put_u8s(&self.excluded);
        w.put_f64s(&self.runtimes);
        w.put_f64s(&self.bases);
        w.put_u32s(&self.reps);
        w.put_u64(self.retries);
        w.put_u64(self.retry_picos);
        w.put_u64(self.consumed_picos);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<ChunkData, CodecError> {
        let chunk = ChunkData {
            index: r.get_u64()?,
            start: r.get_u64()?,
            fates: r.get_u8s()?,
            nodes: r.get_u32s()?,
            ppn: r.get_u32s()?,
            msizes: r.get_u64s()?,
            uids: r.get_u32s()?,
            alg_ids: r.get_u32s()?,
            excluded: r.get_u8s()?,
            runtimes: r.get_f64s()?,
            bases: r.get_f64s()?,
            reps: r.get_u32s()?,
            retries: r.get_u64()?,
            retry_picos: r.get_u64()?,
            consumed_picos: r.get_u64()?,
        };
        chunk.validate()?;
        Ok(chunk)
    }
}

/// Why a store file could not be created, read, or appended to.
#[derive(Debug)]
pub enum StoreError {
    /// A frame or payload failed to decode (typed codec error).
    Codec(CodecError),
    /// The filesystem said no.
    Io {
        /// The store path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file holds a valid store for a *different* campaign.
    HeaderMismatch {
        /// Human-readable description of the differing field(s).
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Codec(e) => write!(f, "campaign store: {e}"),
            StoreError::Io { path, source } => {
                write!(f, "campaign store {}: {source}", path.display())
            }
            StoreError::HeaderMismatch { what } => {
                write!(f, "campaign store belongs to a different campaign: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::Io { source, .. } => Some(source),
            StoreError::HeaderMismatch { .. } => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Codec(e)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

/// Which fields of two headers differ (for [`StoreError::HeaderMismatch`]).
fn header_diff(found: &StoreHeader, expected: &StoreHeader) -> String {
    let mut diffs = Vec::new();
    if found.id != expected.id {
        diffs.push(format!("id '{}' vs '{}'", found.id, expected.id));
    }
    if found.seed != expected.seed {
        diffs.push(format!("seed {} vs {}", found.seed, expected.seed));
    }
    if found.collective != expected.collective || found.library != expected.library {
        diffs.push(format!(
            "{} on {} vs {} on {}",
            found.collective, found.library, expected.collective, expected.library
        ));
    }
    if found.inputs_digest != expected.inputs_digest {
        diffs.push("network model, noise model or configurations differ".to_string());
    }
    if diffs.is_empty() {
        diffs.push("grid or configuration differs".to_string());
    }
    diffs.join("; ")
}

/// An append handle over a campaign store file.
///
/// Created by [`CampaignStore::create`] (fresh file) or
/// [`CampaignStore::open_or_create`] (resume). Each [`CampaignStore::append`]
/// writes one complete chunk frame and flushes it — the frame boundary
/// *is* the checkpoint.
#[derive(Debug)]
pub struct CampaignStore {
    path: PathBuf,
    chunks_done: u64,
    cells_done: u64,
}

impl CampaignStore {
    /// Create (or truncate) `path` and write the header frame.
    pub fn create(path: &Path, header: StoreHeader) -> Result<CampaignStore, StoreError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err(path, e))?;
            }
        }
        let mut bytes = Vec::new();
        append_framed(&mut bytes, KIND_CAMPAIGN_HEADER, &header);
        std::fs::write(path, &bytes).map_err(|e| io_err(path, e))?;
        Ok(CampaignStore { path: path.to_path_buf(), chunks_done: 0, cells_done: 0 })
    }

    /// Open `path` for resuming, recovering from a torn tail; create a
    /// fresh store when the file is absent (or died before its header
    /// was durable).
    ///
    /// Returns the handle plus every chunk already committed, in order.
    /// A torn trailing frame — the signature of a crash mid-append — is
    /// truncated away (those cells were never committed, and the
    /// deterministic runner will reproduce them bit-identically). Any
    /// other corruption, and a header that decodes but describes a
    /// different campaign, is a typed error.
    pub fn open_or_create(
        path: &Path,
        header: StoreHeader,
    ) -> Result<(CampaignStore, Vec<ChunkData>), StoreError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((CampaignStore::create(path, header)?, Vec::new()));
            }
            Err(e) => return Err(io_err(path, e)),
        };
        let mut scan = FrameScanner::new(&bytes);
        let found = match scan.next_frame(KIND_CAMPAIGN_HEADER) {
            Ok(Some(payload)) => {
                // An intact store of another layout version holds
                // another campaign's records, whatever its fields say.
                let version = ByteReader::new(payload).get_u32()?;
                if version != STORE_VERSION {
                    return Err(StoreError::HeaderMismatch {
                        what: format!("store version {version} vs {STORE_VERSION}"),
                    });
                }
                decode_payload::<StoreHeader>(payload)?
            }
            // Empty file, or a crash before the header frame was fully
            // on disk: nothing was committed, start fresh.
            Ok(None) | Err(CodecError::Truncated { .. }) => {
                return Ok((CampaignStore::create(path, header)?, Vec::new()));
            }
            Err(e) => return Err(StoreError::Codec(e)),
        };
        if found != header {
            return Err(StoreError::HeaderMismatch { what: header_diff(&found, &header) });
        }
        let mut chunks: Vec<ChunkData> = Vec::new();
        let mut cells_done = 0u64;
        let valid_end = loop {
            match scan.next_frame(KIND_CAMPAIGN_CHUNK) {
                Ok(Some(payload)) => {
                    let chunk = decode_payload::<ChunkData>(payload)?;
                    if chunk.index != chunks.len() as u64 || chunk.start != cells_done {
                        return Err(StoreError::Codec(CodecError::invalid(format!(
                            "chunk {} starting at cell {} found where chunk {} at cell {} belongs",
                            chunk.index,
                            chunk.start,
                            chunks.len(),
                            cells_done
                        ))));
                    }
                    cells_done += chunk.cells();
                    chunks.push(chunk);
                }
                Ok(None) => break scan.offset(),
                // A torn tail: drop the partial frame, keep everything
                // before it.
                Err(CodecError::Truncated { .. }) => break scan.offset(),
                Err(e) => return Err(StoreError::Codec(e)),
            }
        };
        if valid_end < bytes.len() {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err(path, e))?;
            f.set_len(valid_end as u64).map_err(|e| io_err(path, e))?;
            f.sync_all().map_err(|e| io_err(path, e))?;
        }
        let store = CampaignStore {
            path: path.to_path_buf(),
            chunks_done: chunks.len() as u64,
            cells_done,
        };
        Ok((store, chunks))
    }

    /// Cells committed so far.
    pub fn cells_done(&self) -> u64 {
        self.cells_done
    }

    /// Append one chunk frame and flush it (the checkpoint boundary).
    ///
    /// Chunks must arrive in order: `chunk.index` must be the next
    /// ordinal and `chunk.start` the next uncommitted cell id.
    pub fn append(&mut self, chunk: &ChunkData) -> Result<(), StoreError> {
        if chunk.index != self.chunks_done || chunk.start != self.cells_done {
            return Err(StoreError::Codec(CodecError::invalid(format!(
                "append out of order: chunk {} at cell {} offered, chunk {} at cell {} expected",
                chunk.index, chunk.start, self.chunks_done, self.cells_done
            ))));
        }
        chunk.validate()?;
        let mut bytes = Vec::new();
        append_framed(&mut bytes, KIND_CAMPAIGN_CHUNK, chunk);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        f.write_all(&bytes).map_err(|e| io_err(&self.path, e))?;
        f.flush().map_err(|e| io_err(&self.path, e))?;
        self.chunks_done += 1;
        self.cells_done += chunk.cells();
        Ok(())
    }

    /// Strictly load a complete store: header plus every chunk. Unlike
    /// [`CampaignStore::open_or_create`] this heals nothing — any torn
    /// or corrupt byte is a typed error.
    pub fn load(path: &Path) -> Result<(StoreHeader, Vec<ChunkData>), StoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let mut scan = FrameScanner::new(&bytes);
        let header = match scan.next_frame(KIND_CAMPAIGN_HEADER)? {
            Some(payload) => decode_payload::<StoreHeader>(payload)?,
            None => {
                return Err(StoreError::Codec(CodecError::Truncated {
                    offset: 0,
                    needed: mpcp_ml::persist::FRAME_HEADER_LEN,
                }))
            }
        };
        let mut chunks: Vec<ChunkData> = Vec::new();
        let mut cells_done = 0u64;
        while let Some(payload) = scan.next_frame(KIND_CAMPAIGN_CHUNK)? {
            let chunk = decode_payload::<ChunkData>(payload)?;
            if chunk.index != chunks.len() as u64 || chunk.start != cells_done {
                return Err(StoreError::Codec(CodecError::invalid(format!(
                    "chunk {} starting at cell {} found where chunk {} at cell {} belongs",
                    chunk.index,
                    chunk.start,
                    chunks.len(),
                    cells_done
                ))));
            }
            cells_done += chunk.cells();
            chunks.push(chunk);
        }
        Ok((header, chunks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;
    use crate::repro::BenchConfig;

    fn test_header(chunk_size: u64) -> StoreHeader {
        let bench = BenchConfig::quick();
        let retry = RetryPolicy::default();
        StoreHeader {
            id: "t1".into(),
            collective: "MPI_Allreduce".into(),
            library: "Open MPI".into(),
            lib_version: "4.0.2".into(),
            machine: "Hydra".into(),
            seed: 0x7E57,
            nodes: vec![2, 3],
            ppn: vec![1, 2],
            msizes: vec![16, 256],
            config_count: 3,
            chunk_size,
            max_reps: bench.max_reps,
            budget_picos: bench.budget.picos(),
            sync_picos: bench.sync_per_rep.picos(),
            max_retries: retry.max_retries,
            backoff_picos: retry.backoff.picos(),
            fault: Some(FaultPlanRepr::from_plan(&FaultPlan::uniform(0.25, 9))),
            inputs_digest: 0xD16E57,
        }
    }

    fn test_chunk(index: u64, start: u64, cells: u64) -> ChunkData {
        let mut c = ChunkData { index, start, ..ChunkData::default() };
        for i in 0..cells {
            let id = start + i;
            // Every 4th cell fails, every 7th is a sim error.
            let f = if id % 7 == 3 {
                fate::SIM_ERROR
            } else if id % 4 == 1 {
                fate::FAILED
            } else {
                fate::OK
            };
            c.fates.push(f);
            c.nodes.push(2 + (id % 2) as u32);
            c.ppn.push(1 + (id % 2) as u32);
            c.msizes.push(16 << (id % 3));
            c.uids.push((id % 3) as u32);
            if f == fate::OK {
                c.alg_ids.push((id % 5) as u32);
                c.excluded.push(u8::from(id % 6 == 0));
                c.runtimes.push(1e-5 * (id + 1) as f64);
                c.bases.push(0.9e-5 * (id + 1) as f64);
                c.reps.push(10 + (id % 3) as u32);
            }
        }
        c.retries = cells / 3;
        c.retry_picos = 1000 * cells;
        c.consumed_picos = 50_000 * cells;
        c
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpcp_store_{name}_{}", std::process::id()))
    }

    #[test]
    fn header_and_chunks_round_trip() {
        let path = tmp("roundtrip");
        let header = test_header(4);
        let mut store = CampaignStore::create(&path, header.clone()).unwrap();
        let chunks = vec![test_chunk(0, 0, 4), test_chunk(1, 4, 4), test_chunk(2, 8, 2)];
        for c in &chunks {
            store.append(c).unwrap();
        }
        let (h, back) = CampaignStore::load(&path).unwrap();
        assert_eq!(h, header);
        assert_eq!(back, chunks);
        assert_eq!(store.cells_done(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_summary_and_records_agree_with_fates() {
        let c = test_chunk(0, 0, 16);
        let s = c.summary();
        assert_eq!(s.total(), 16);
        assert_eq!(s.cells_ok, c.ok_cells());
        assert_eq!(s.retries, c.retries);
        assert_eq!(s.retry_time, SimTime(c.retry_picos));
        let records = c.to_records();
        assert_eq!(records.len(), c.ok_cells());
        assert_eq!(records[0].nodes, c.nodes[0]);
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let path = tmp("order");
        let mut store = CampaignStore::create(&path, test_header(4)).unwrap();
        store.append(&test_chunk(0, 0, 4)).unwrap();
        // Wrong index.
        assert!(matches!(store.append(&test_chunk(0, 0, 4)), Err(StoreError::Codec(_))));
        // Right index, wrong start.
        assert!(matches!(store.append(&test_chunk(1, 9, 4)), Err(StoreError::Codec(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_chunk_columns_are_rejected() {
        let mut c = test_chunk(0, 0, 4);
        c.runtimes.pop();
        assert!(c.validate().is_err());
        let mut c = test_chunk(0, 0, 4);
        c.fates[0] = 9;
        assert!(c.validate().is_err());
        let mut c = test_chunk(0, 0, 4);
        c.nodes.pop();
        assert!(c.validate().is_err());
    }

    #[test]
    fn resume_recovers_from_a_torn_tail() {
        let path = tmp("torn");
        let header = test_header(4);
        let mut store = CampaignStore::create(&path, header.clone()).unwrap();
        store.append(&test_chunk(0, 0, 4)).unwrap();
        let committed = std::fs::read(&path).unwrap();
        store.append(&test_chunk(1, 4, 4)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear the second chunk at an arbitrary mid-frame byte.
        std::fs::write(&path, &full[..committed.len() + 11]).unwrap();
        let (resumed, chunks) = CampaignStore::open_or_create(&path, header).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(resumed.cells_done(), 4);
        // The torn tail was truncated back to the last valid frame.
        assert_eq!(std::fs::read(&path).unwrap(), committed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_is_typed() {
        let path = tmp("mismatch");
        let mut store = CampaignStore::create(&path, test_header(4)).unwrap();
        store.append(&test_chunk(0, 0, 4)).unwrap();
        let mut other = test_header(4);
        other.seed ^= 1;
        let err = CampaignStore::open_or_create(&path, other).unwrap_err();
        assert!(matches!(err, StoreError::HeaderMismatch { .. }), "{err}");
        assert!(format!("{err}").contains("different campaign"));
        let other = StoreHeader { inputs_digest: 1, ..test_header(4) };
        let err = CampaignStore::open_or_create(&path, other).unwrap_err().to_string();
        assert!(err.contains("network model"), "{err}");
        // An intact header of another layout version is another
        // campaign too, not a corrupt file.
        let mut bytes = Vec::new();
        append_framed(&mut bytes, KIND_CAMPAIGN_HEADER, &test_header(4));
        let at = mpcp_ml::persist::FRAME_HEADER_LEN;
        bytes[at..at + 4].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        let payload_sum = mpcp_ml::persist::fnv1a64(&bytes[at..]);
        bytes[at - 8..at].copy_from_slice(&payload_sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = CampaignStore::open_or_create(&path, test_header(4)).unwrap_err().to_string();
        assert!(err.contains("store version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_bytes_are_typed_errors() {
        let path = tmp("flip");
        let header = test_header(4);
        let mut store = CampaignStore::create(&path, header.clone()).unwrap();
        store.append(&test_chunk(0, 0, 4)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flipping any byte of the committed prefix must never panic:
        // it either surfaces as a typed error or (when the flip mimics
        // a torn tail) heals by truncation.
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x5A;
            std::fs::write(&path, &dirty).unwrap();
            match CampaignStore::open_or_create(&path, header.clone()) {
                Ok((s, chunks)) => assert!(chunks.len() <= 1 && s.cells_done() <= 4),
                Err(StoreError::Codec(_) | StoreError::HeaderMismatch { .. }) => {}
                Err(e) => panic!("flip at {i}: unexpected {e}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_math() {
        let h = test_header(4);
        assert_eq!(h.total_cells(), 2 * 2 * 2 * 3);
        assert_eq!(h.total_chunks(), 6);
        assert_eq!(test_header(5).total_chunks(), 5);
    }
}
