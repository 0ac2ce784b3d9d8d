//! # mpcp-serve — concurrent in-process serving of saved selectors
//!
//! PR 4 made selection fast per call; this crate makes trained
//! selectors *deployable*: load [`Selector`] artifacts saved by
//! `mpcp train --save-model` into a [`PredictionService`], shard them
//! by (collective, machine/library), and answer argmin queries from
//! many threads at once. Repeated queries for the same grid cell —
//! the common case when an MPI runtime asks about the same
//! `(F, m, n, N)` over and over — hit a bounded per-shard LRU cache
//! instead of re-evaluating every model.
//!
//! ```no_run
//! use mpcp_core::Instance;
//! use mpcp_collectives::Collective;
//! use mpcp_serve::PredictionService;
//!
//! let svc = PredictionService::new(4096);
//! let key = svc.load_artifact("models/bcast.mpcp".as_ref())?;
//! let inst = Instance::new(Collective::Bcast, 65536, 27, 16);
//! let sel = svc.select(&key, &inst)?;
//! println!("predicted best: {} (~{:?} us)", sel.uid, sel.predicted_us);
//! # Ok::<(), mpcp_serve::ServeError>(())
//! ```
//!
//! [`batch::BatchServer`] adds a request queue drained in batches by
//! worker threads through [`Selector::select_batch`], amortizing the
//! per-model dispatch cost across concurrent misses.
//!
//! Everything degrades into typed [`ServeError`]s — corrupt artifacts,
//! unknown shards, collective mismatches, models with no finite
//! prediction — and the whole crate is `#![forbid(unsafe_code)]`.
//!
//! [`Selector`]: mpcp_core::Selector
//! [`Selector::select_batch`]: mpcp_core::Selector::select_batch

#![forbid(unsafe_code)]

pub mod batch;
pub mod lru;
pub mod net;
mod snapshot;
pub mod telemetry;

pub use batch::{BatchConfig, BatchServer, Ticket};
pub use lru::LruCache;
pub use net::{NetClient, NetConfig, NetError, NetServer, NetStatsSnapshot, Reply, ShedFn};
pub use telemetry::{LiveStats, ShardLiveStats, TelemetryConfig};

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use mpcp_collectives::Collective;
use mpcp_core::{
    ArtifactError, ArtifactMeta, Instance, Selection, Selector, SelectorArtifact, TrainReport,
};
use mpcp_obs::metrics::HistSnapshot;

/// Lock a mutex, recovering the data on poisoning: a panicking writer
/// can at worst leave a *stale* cache entry or counter, never a torn
/// one, so continuing to serve beats propagating the panic.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why a serve request failed. Every failure is typed; the service
/// never panics on bad inputs or bad artifacts.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// No artifact is loaded under this shard key.
    UnknownShard {
        /// The key the request named.
        key: ShardKey,
    },
    /// The instance's collective differs from the shard's.
    CollectiveMismatch {
        /// Collective the shard's selector was trained for.
        shard: Collective,
        /// Collective the query asked about.
        instance: Collective,
    },
    /// No trained model produced a finite prediction for the instance.
    NoFinitePrediction {
        /// The offending query.
        instance: Instance,
    },
    /// The artifact could not be read or decoded.
    Artifact(ArtifactError),
    /// The batch server shut down (or its worker died) before replying.
    Disconnected,
    /// Admission is full — the batch queue, or the daemon's miss slots
    /// with its shedding saturated too: the request was refused rather
    /// than queued.
    Overloaded,
    /// The reply did not arrive within the caller's deadline
    /// ([`Ticket::wait_timeout`]); the request may still complete.
    Timeout,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownShard { key } => {
                write!(f, "no model loaded for shard {key}")
            }
            ServeError::CollectiveMismatch { shard, instance } => write!(
                f,
                "shard serves {shard} but the query is for {instance}"
            ),
            ServeError::NoFinitePrediction { instance } => write!(
                f,
                "no trained model produced a finite prediction for {instance}"
            ),
            ServeError::Artifact(e) => write!(f, "{e}"),
            ServeError::Disconnected => {
                write!(f, "batch server disconnected before replying")
            }
            ServeError::Overloaded => {
                write!(f, "server overloaded: admission full")
            }
            ServeError::Timeout => {
                write!(f, "timed out waiting for a batch worker to reply")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> ServeError {
        ServeError::Artifact(e)
    }
}

/// Which selector a request is routed to: one trained artifact per
/// (collective, machine/library) pair.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardKey {
    /// The collective operation the shard answers for.
    pub coll: Collective,
    /// Machine/library scope, e.g. `"Hydra/Open MPI 4.0.2"`.
    pub scope: String,
}

impl ShardKey {
    /// The routing key an artifact's manifest implies.
    pub fn of_meta(meta: &ArtifactMeta) -> ShardKey {
        ShardKey {
            coll: meta.collective,
            scope: format!("{}/{}", meta.machine, meta.library),
        }
    }
}

impl fmt::Display for ShardKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.coll, self.scope)
    }
}

/// Cache key: the query grid cell. The collective is fixed per shard,
/// so `(m, n, N)` identifies the instance within it.
type CacheKey = (u64, u32, u32);

/// How [`PredictionService::select_admitted`] answered a selection.
pub(crate) enum Answer {
    /// The shard's LRU held the cell.
    Hit(Selection),
    /// A miss, computed under the granted slot and now in the LRU.
    Computed(Selection),
    /// A miss the admission refused: nothing was computed.
    Refused,
}

/// One loaded artifact plus its private result cache and counters.
/// Crate-visible so the batch workers can share the cache and
/// counters with the scalar path.
pub(crate) struct Shard {
    pub(crate) selector: Selector,
    meta: ArtifactMeta,
    report: TrainReport,
    cache: Mutex<LruCache<CacheKey, Selection>>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// Handle of the per-shard latency histogram
    /// (`serve.latency_ns.<coll>`), looked up once at load. The name is
    /// interned: one allocation per *unique* name for the process
    /// lifetime, not one per shard reload (see
    /// `mpcp_obs::metrics::interned`).
    pub(crate) latency: Arc<mpcp_obs::metrics::Histogram>,
    /// Rolling-window recorders, attached once telemetry is enabled
    /// (empty until then: the hot path pays one `OnceLock` load).
    pub(crate) telemetry: OnceLock<telemetry::ShardTelemetry>,
}

impl Shard {
    fn new(artifact: SelectorArtifact, cache_capacity: usize) -> Shard {
        let name =
            mpcp_obs::metrics::interned(&format!("serve.latency_ns.{}", artifact.meta.collective));
        Shard {
            selector: artifact.selector,
            meta: artifact.meta,
            report: artifact.report,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            latency: mpcp_obs::metrics::histogram(name),
            telemetry: OnceLock::new(),
        }
    }

    pub(crate) fn attach_telemetry(&self, tel: &telemetry::ServiceTelemetry) {
        let _ = self.telemetry.set(tel.shard_telemetry());
    }

    pub(crate) fn check_collective(&self, instance: &Instance) -> Result<(), ServeError> {
        if instance.coll != self.meta.collective {
            return Err(ServeError::CollectiveMismatch {
                shard: self.meta.collective,
                instance: instance.coll,
            });
        }
        Ok(())
    }

    /// Uncached argmin through the selector. A selection with no
    /// finite prediction also emits a `serve.degraded.no_finite`
    /// instant event — one of the flight recorder's dump triggers.
    fn compute(&self, instance: &Instance) -> Result<Selection, ServeError> {
        match self.selector.try_select(instance) {
            Some((uid, pred)) => {
                Ok(Selection { uid, predicted_us: Some(pred), degraded: false })
            }
            None => {
                mpcp_obs::event("serve.degraded.no_finite")
                    .attr("msize", instance.msize)
                    .attr("nodes", instance.nodes)
                    .attr("ppn", instance.ppn)
                    .emit();
                Err(ServeError::NoFinitePrediction { instance: *instance })
            }
        }
    }

    fn select(&self, instance: &Instance) -> Result<Selection, ServeError> {
        match self.select_admitted(instance, || Some(()))? {
            Answer::Hit(sel) | Answer::Computed(sel) => Ok(sel),
            // `admit` above never refuses.
            Answer::Refused => Err(ServeError::Overloaded),
        }
    }

    /// [`Shard::select`] with a say over misses: after one LRU probe, a
    /// miss is computed only if `admit` grants it a slot, which is held
    /// until the result is in the LRU. A refused miss computes nothing
    /// and moves no hit or miss counter.
    fn select_admitted<G>(
        &self,
        instance: &Instance,
        admit: impl FnOnce() -> Option<G>,
    ) -> Result<Answer, ServeError> {
        self.check_collective(instance)?;
        let t = mpcp_obs::maybe_now();
        // Windowed recording is active only after `enable_telemetry`,
        // and the scalar path is *sampled*: most requests pay one
        // `OnceLock` load plus a thread-local tick, and only every
        // `scalar_sample`-th request reads the clock and records (with
        // matching weight, so windowed counts and rates stay unbiased).
        let tel = self
            .telemetry
            .get()
            .and_then(|tl| match tl.scalar_weight() {
                0 => None,
                w => Some((tl, w)),
            });
        let start_ns = tel.as_ref().map_or(0, |(tl, _)| tl.now_ns());
        let cell: CacheKey = (instance.msize, instance.nodes, instance.ppn);
        if let Some(sel) = lock(&self.cache).get(&cell) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mpcp_obs::counter_add!("serve.cache_hits", 1);
            mpcp_obs::record_elapsed_in(&self.latency, t);
            if let Some((tl, w)) = tel {
                tl.record_hit(start_ns, w);
            }
            return Ok(Answer::Hit(sel));
        }
        let probe_ns = tel.as_ref().map_or(0, |(tl, _)| tl.now_ns());
        let Some(_slot) = admit() else {
            return Ok(Answer::Refused);
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        mpcp_obs::counter_add!("serve.cache_misses", 1);
        // Computed outside the cache lock: two threads racing on the
        // same cold cell both evaluate the models (identical, pure
        // results), which is cheaper than serializing every miss.
        let sel = self.compute(instance)?;
        lock(&self.cache).put(cell, sel);
        mpcp_obs::record_elapsed_in(&self.latency, t);
        if let Some((tl, w)) = tel {
            tl.record_scalar_miss(start_ns, probe_ns, tl.now_ns(), w);
        }
        Ok(Answer::Computed(sel))
    }

    pub(crate) fn cache_insert(&self, instance: &Instance, sel: Selection) {
        lock(&self.cache).put((instance.msize, instance.nodes, instance.ppn), sel);
    }

    pub(crate) fn cache_lookup(&self, instance: &Instance) -> Option<Selection> {
        lock(&self.cache).get(&(instance.msize, instance.nodes, instance.ppn))
    }

    /// A minimal real shard (tiny KNN fixture, trained once per test
    /// binary) for routing-table tests.
    #[cfg(test)]
    pub(crate) fn for_tests() -> Shard {
        Shard::new(test_artifact(), 16)
    }
}

/// A tiny real selector artifact (KNN on the benchmark fixture grid),
/// trained once per test binary — shared by routing-table and batch
/// unit tests.
#[cfg(test)]
pub(crate) fn test_artifact() -> SelectorArtifact {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    let bytes = BYTES.get_or_init(|| {
        let spec = mpcp_benchmark::DatasetSpec::tiny_for_tests();
        let lib = spec.library(None);
        let data = spec.generate(&lib, &mpcp_benchmark::BenchConfig::quick());
        let (selector, report) = Selector::train_with_report(
            &mpcp_ml::Learner::knn(),
            &data.records,
            lib.configs(spec.coll),
            &mpcp_core::TrainOptions::default(),
        )
        .expect("tiny fixture trains");
        let meta = ArtifactMeta::capture(
            spec.coll,
            &format!("{} {}", lib.name, lib.version),
            &spec.machine.name,
            Some(spec.seed),
            &mpcp_core::TrainOptions::default(),
        );
        selector.to_artifact_bytes(&report, &meta)
    });
    SelectorArtifact::from_bytes(bytes).expect("fixture artifact decodes")
}

/// Per-shard serving counters, as observed by [`PredictionService::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's routing key.
    pub key: ShardKey,
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that evaluated the models.
    pub misses: u64,
    /// Entries currently cached.
    pub cached_entries: usize,
    /// Entries evicted since load.
    pub evictions: u64,
    /// New cache entries inserted since load (refreshes excluded).
    pub inserts: u64,
    /// Trained models in the shard's selector.
    pub models: usize,
}

/// A snapshot of the whole service's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// One entry per loaded shard, in shard-key order.
    pub shards: Vec<ShardStats>,
}

impl ServeStats {
    /// Total cache hits across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    /// Total cache misses across shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Hits over total queries, `0.0` before any traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// An in-process prediction service over loaded selector artifacts.
///
/// Shards are immutable once loaded (models are pure functions) and
/// routed through an epoch-swapped snapshot table: every publication
/// installs a fresh immutable map, and query threads revalidate a
/// thread-local handle with one atomic load per call — readers never
/// block, not even during artifact loading (the `snapshot` module
/// documents the protocol). All query-path mutation — the LRU cache,
/// hit/miss counters — is per-shard.
pub struct PredictionService {
    shards: snapshot::SnapshotCell,
    cache_capacity: usize,
    telemetry: OnceLock<telemetry::ServiceTelemetry>,
}

impl PredictionService {
    /// A service whose per-shard result caches hold `cache_capacity`
    /// grid cells each.
    pub fn new(cache_capacity: usize) -> PredictionService {
        PredictionService {
            shards: snapshot::SnapshotCell::new(),
            cache_capacity,
            telemetry: OnceLock::new(),
        }
    }

    /// Turn on rolling-window telemetry: every loaded shard (and every
    /// shard loaded later) gets its own windowed latency, queue-wait,
    /// cache-probe, and compute recorders, readable without pausing
    /// traffic via [`PredictionService::live_stats`]. Idempotent —
    /// returns `false` (and changes nothing) if telemetry was already
    /// enabled; the first configuration wins.
    pub fn enable_telemetry(&self, cfg: TelemetryConfig) -> bool {
        if self.telemetry.set(telemetry::ServiceTelemetry::new(cfg)).is_err() {
            return false;
        }
        if let Some(tel) = self.telemetry.get() {
            self.shards.with(|map| {
                for shard in map.values() {
                    shard.attach_telemetry(tel);
                }
            });
        }
        true
    }

    /// Whether [`PredictionService::enable_telemetry`] has run.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.get().is_some()
    }

    pub(crate) fn telemetry(&self) -> Option<&telemetry::ServiceTelemetry> {
        self.telemetry.get()
    }

    /// Rolling-window stats for every shard — p50/p95/p99 over the
    /// retained windows, request rate, windowed hit ratio, SLO
    /// burn-rate, and the queue-wait/cache-probe/compute split — read
    /// without stopping the world: query threads keep recording while
    /// the snapshot is taken. `None` until telemetry is enabled.
    ///
    /// Also publishes the merged windowed summary as gauges
    /// (`serve.window.p50_ns`, `serve.window.p99_ns`,
    /// `serve.window.rate_per_sec`, `serve.window.burn_rate`) so
    /// metric dumps and `mpcp report --require-metric` see them.
    pub fn live_stats(&self) -> Option<LiveStats> {
        let tel = self.telemetry.get()?;
        let now = tel.now_ns();
        let map = self.shards.arc();
        let mut shards: Vec<ShardLiveStats> = Vec::with_capacity(map.len());
        let mut merged = HistSnapshot::default();
        for (key, shard) in map.iter() {
            if let Some(st) = shard.telemetry.get() {
                let (stats, total) = st.live(key, now);
                merged.merge(&total);
                shards.push(stats);
            }
        }
        shards.sort_by(|a, b| a.key.cmp(&b.key));
        let stats = LiveStats {
            now_ns: now,
            slot_ns: tel.cfg.window.slot_ns,
            slots: tel.cfg.window.slots,
            epoch: self.shards.epoch(),
            shards,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
        }
        .finish(&merged);
        mpcp_obs::gauge_set!("serve.window.p50_ns", stats.p50_ns as f64);
        mpcp_obs::gauge_set!("serve.window.p99_ns", stats.p99_ns as f64);
        mpcp_obs::gauge_set!("serve.window.rate_per_sec", stats.rate_per_sec());
        mpcp_obs::gauge_set!("serve.window.burn_rate", stats.worst_burn_rate());
        Some(stats)
    }

    /// Load a saved artifact from disk and route its manifest's
    /// (collective, machine/library) to it. Replaces any shard already
    /// at that key (a model refresh), returning the routing key.
    pub fn load_artifact(&self, path: &Path) -> Result<ShardKey, ServeError> {
        let artifact = Selector::load(path)?;
        Ok(self.insert_artifact(artifact))
    }

    /// Register an already-decoded artifact (the file-free half of
    /// [`PredictionService::load_artifact`]).
    pub fn insert_artifact(&self, artifact: SelectorArtifact) -> ShardKey {
        let key = ShardKey::of_meta(&artifact.meta);
        let shard = Arc::new(Shard::new(artifact, self.cache_capacity));
        if let Some(tel) = self.telemetry.get() {
            shard.attach_telemetry(tel);
        }
        self.shards.update(|map| {
            map.insert(key.clone(), shard);
        });
        mpcp_obs::counter_add!("serve.shards_loaded", 1);
        key
    }

    /// Register several artifacts in **one** publication: a reader (or
    /// a [`PredictionService::snapshot`]) observes either none or all
    /// of them, never a partially-updated routing table. This is what
    /// coordinated multi-shard refreshes need — e.g. swapping the
    /// selectors for every collective of a machine at once.
    pub fn insert_artifacts(&self, artifacts: Vec<SelectorArtifact>) -> Vec<ShardKey> {
        let shards: Vec<(ShardKey, Arc<Shard>)> = artifacts
            .into_iter()
            .map(|a| {
                let key = ShardKey::of_meta(&a.meta);
                let shard = Arc::new(Shard::new(a, self.cache_capacity));
                if let Some(tel) = self.telemetry.get() {
                    shard.attach_telemetry(tel);
                }
                (key, shard)
            })
            .collect();
        let keys: Vec<ShardKey> = shards.iter().map(|(k, _)| k.clone()).collect();
        let loaded = shards.len() as u64;
        self.shards.update(|map| {
            for (key, shard) in shards {
                map.insert(key, shard);
            }
        });
        mpcp_obs::counter_add!("serve.shards_loaded", loaded);
        keys
    }

    /// Keys of all loaded shards, sorted.
    pub fn shard_keys(&self) -> Vec<ShardKey> {
        let mut keys: Vec<ShardKey> = self.shards.with(|map| map.keys().cloned().collect());
        keys.sort();
        keys
    }

    /// The manifest of the artifact behind `key`.
    pub fn meta(&self, key: &ShardKey) -> Result<ArtifactMeta, ServeError> {
        Ok(self.shard(key)?.meta.clone())
    }

    /// The training coverage of the artifact behind `key`.
    pub fn report(&self, key: &ShardKey) -> Result<TrainReport, ServeError> {
        Ok(self.shard(key)?.report.clone())
    }

    pub(crate) fn shard(&self, key: &ShardKey) -> Result<Arc<Shard>, ServeError> {
        self.shards
            .with(|map| map.get(key).cloned())
            .ok_or_else(|| ServeError::UnknownShard { key: key.clone() })
    }

    /// An immutable snapshot of the current routing table. Every read
    /// through one snapshot sees the same set of shards; a
    /// multi-artifact [`PredictionService::insert_artifacts`] is either
    /// fully visible in it or not at all.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot { map: self.shards.arc() }
    }

    /// Answer an argmin query through the shard's LRU cache.
    ///
    /// Cache hits skip model evaluation entirely; misses run
    /// [`Selector::try_select`] and populate the cache. Identical to
    /// [`PredictionService::select_uncached`] result-wise — the cache
    /// stores exactly what the selector computed, keyed by grid cell.
    /// Shard routing is lock-free (no reader ever blocks on a writer);
    /// the whole query runs against one consistent snapshot.
    pub fn select(&self, key: &ShardKey, instance: &Instance) -> Result<Selection, ServeError> {
        self.shards.with(|map| match map.get(key) {
            Some(shard) => shard.select(instance),
            None => Err(ServeError::UnknownShard { key: key.clone() }),
        })
    }

    /// [`PredictionService::select`] for the daemon's admission: a
    /// miss is computed only under a slot `admit` grants
    /// ([`Shard::select_admitted`]).
    pub(crate) fn select_admitted<G>(
        &self,
        key: &ShardKey,
        instance: &Instance,
        admit: impl FnOnce() -> Option<G>,
    ) -> Result<Answer, ServeError> {
        self.shards.with(|map| match map.get(key) {
            Some(shard) => shard.select_admitted(instance, admit),
            None => Err(ServeError::UnknownShard { key: key.clone() }),
        })
    }

    /// Answer an argmin query evaluating every model, bypassing (and
    /// not populating) the cache. The baseline for the cached path in
    /// `mpcp serve-bench`.
    pub fn select_uncached(
        &self,
        key: &ShardKey,
        instance: &Instance,
    ) -> Result<Selection, ServeError> {
        self.shards.with(|map| {
            let shard = map
                .get(key)
                .ok_or_else(|| ServeError::UnknownShard { key: key.clone() })?;
            shard.check_collective(instance)?;
            let t = mpcp_obs::maybe_now();
            let sel = shard.compute(instance)?;
            mpcp_obs::record_elapsed_in(&shard.latency, t);
            Ok(sel)
        })
    }

    /// Snapshot all per-shard counters and publish the global hit
    /// ratio gauge.
    pub fn stats(&self) -> ServeStats {
        let map = self.shards.arc();
        let mut shards: Vec<ShardStats> = map
            .iter()
            .map(|(key, s)| {
                let cache = lock(&s.cache);
                ShardStats {
                    key: key.clone(),
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    cached_entries: cache.len(),
                    evictions: cache.evictions(),
                    inserts: cache.inserts(),
                    models: s.selector.model_count(),
                }
            })
            .collect();
        shards.sort_by(|a, b| a.key.cmp(&b.key));
        let stats = ServeStats { shards };
        mpcp_obs::gauge_set!("serve.cache_hit_ratio", stats.hit_ratio());
        stats
    }
}

/// An immutable view of a [`PredictionService`]'s routing table at one
/// publication epoch (see [`PredictionService::snapshot`]).
///
/// Queries through a snapshot share the per-shard LRU caches and
/// hit/miss counters with the live service — only the *routing* is
/// frozen.
pub struct ServiceSnapshot {
    map: Arc<snapshot::ShardMap>,
}

impl ServiceSnapshot {
    /// Keys of the shards in this snapshot, sorted.
    pub fn shard_keys(&self) -> Vec<ShardKey> {
        let mut keys: Vec<ShardKey> = self.map.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Shards in this snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the snapshot holds no shards.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The manifest of the artifact behind `key`, if present.
    pub fn meta(&self, key: &ShardKey) -> Option<ArtifactMeta> {
        self.map.get(key).map(|s| s.meta.clone())
    }

    /// [`PredictionService::select`] against this snapshot's routing.
    pub fn select(&self, key: &ShardKey, instance: &Instance) -> Result<Selection, ServeError> {
        match self.map.get(key) {
            Some(shard) => shard.select(instance),
            None => Err(ServeError::UnknownShard { key: key.clone() }),
        }
    }

    pub(crate) fn shard(&self, key: &ShardKey) -> Option<&Arc<Shard>> {
        self.map.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_shard_is_a_typed_error() {
        let svc = PredictionService::new(16);
        let key = ShardKey { coll: Collective::Bcast, scope: "nowhere/NoMPI".into() };
        let inst = Instance::new(Collective::Bcast, 64, 2, 2);
        let err = svc.select(&key, &inst).unwrap_err();
        assert_eq!(err, ServeError::UnknownShard { key: key.clone() });
        assert!(format!("{err}").contains("no model loaded"));
        assert!(svc.shard_keys().is_empty());
    }

    #[test]
    fn missing_artifact_file_is_an_io_error() {
        let svc = PredictionService::new(16);
        let err = svc
            .load_artifact(Path::new("/nonexistent/path/model.mpcp"))
            .unwrap_err();
        assert!(matches!(err, ServeError::Artifact(ArtifactError::Io { .. })));
    }

    #[test]
    fn stats_start_empty() {
        let svc = PredictionService::new(16);
        let stats = svc.stats();
        assert_eq!(stats.hits() + stats.misses(), 0);
        assert_eq!(stats.hit_ratio(), 0.0);
    }
}
