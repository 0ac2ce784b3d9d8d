//! A process-global registry of named counters, gauges, and
//! log-bucketed histograms.
//!
//! Recording is lock-free (atomic adds); the registry lock is taken
//! only on name lookup and when snapshotting. A metric, once
//! registered, stays registered for the life of the process, so a
//! handle may be held for as long as the caller likes: [`reset`] zeroes
//! every metric in place and marks it untouched, and [`snapshot`] lists
//! only the metrics recorded into since the last reset. The
//! [`crate::counter_add!`] / [`crate::gauge_set!`] /
//! [`crate::hist_record!`] / [`crate::record_elapsed!`] macros
//! therefore look their handle up once
//! per call site and cache it; a second recording session after a
//! reset is still counted. The disabled path stays a single atomic
//! load.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: values 0..15 exact, then 4 sub-buckets
/// per power of two up to `u64::MAX`.
pub const NBUCKETS: usize = 256;

/// Bucket index for a value: monotone in `v`, exact below 16,
/// ≤ 25% relative bucket width above.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // ≥ 4
        let sub = ((v >> (exp - 2)) & 3) as usize;
        16 + (exp - 4) * 4 + sub
    }
}

/// Smallest value mapping to bucket `b`.
#[inline]
pub fn bucket_lo(b: usize) -> u64 {
    if b < 16 {
        b as u64
    } else {
        let exp = 4 + (b - 16) / 4;
        let sub = ((b - 16) % 4) as u64;
        (4 + sub) << (exp - 2)
    }
}

/// Largest value mapping to bucket `b`.
#[inline]
pub fn bucket_hi(b: usize) -> u64 {
    if b < 16 {
        b as u64
    } else if b + 1 < NBUCKETS {
        bucket_lo(b + 1) - 1
    } else {
        u64::MAX
    }
}

// ORDERING: Relaxed on every metric atomic in this file, values and
// `touched` flags alike — each is an independent statistic; nothing is
// published under any of them, and a snapshot or reset racing a
// recording may see it or not.

/// A monotonically increasing counter (back to zero on [`reset`]).
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
    /// Added to since the last [`reset`].
    touched: AtomicBool,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.touched.store(false, Ordering::Relaxed);
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
    /// Set since the last [`reset`].
    touched: AtomicBool,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.touched.store(false, Ordering::Relaxed);
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds or
/// sizes). Recording is an atomic add on one bucket; threads share one
/// instance, so per-thread recordings merge implicitly, and snapshots
/// of separate histograms merge exactly ([`HistSnapshot::merge`]).
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Recorded into since the last [`reset`].
    touched: AtomicBool,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            touched: AtomicBool::new(false),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.touched.store(false, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Copy out an immutable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NBUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot: bucket counts plus the exact sum
/// and exact min/max of recorded values. The extremes bound the
/// interpolated [`HistSnapshot::quantile`] estimate so reported tails
/// never exceed any value actually observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Count per bucket (see [`bucket_of`]).
    pub buckets: [u64; NBUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: [0; NBUCKETS], sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Merge another snapshot into this one. Equivalent to having
    /// recorded the concatenation of both sample streams.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        // Wrapping, like the atomic `record` sum itself.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate `q ∈ [0, 1]`, `None` when empty.
    ///
    /// The estimate locates the bucket holding the order statistic
    /// `ceil(q·n)` (clamped to `[1, n]`, matching "smallest x with
    /// CDF(x) ≥ q"), linearly interpolates within that bucket by the
    /// statistic's rank among the bucket's samples, and finally clamps
    /// to the exact recorded `[min, max]`. Error bound: the result is
    /// always inside the true quantile's bucket, i.e. within one
    /// bucket width (≤ 25% relative above 16) of the true sample
    /// quantile, and never outside the observed value range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, hi) = (bucket_lo(b), bucket_hi(b));
                // rank_in ∈ [1, c]; interpolate lo..=hi at rank_in/c.
                let rank_in = rank - seen;
                let est = lo + (u128::from(hi - lo) * u128::from(rank_in) / u128::from(c)) as u64;
                // min ≤ hi and max ≥ lo because the bucket is nonempty,
                // so the clamp keeps the estimate inside the bucket.
                return Some(est.clamp(self.min, self.max));
            }
            seen += c;
        }
        unreachable!("rank ≤ total count")
    }

    /// Largest nonempty bucket's upper bound (0 when empty).
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_hi)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter named `name` (created on first use).
pub fn counter(name: &'static str) -> Arc<Counter> {
    Arc::clone(registry().counters.lock().unwrap().entry(name).or_default())
}

/// The gauge named `name` (created on first use).
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    Arc::clone(registry().gauges.lock().unwrap().entry(name).or_default())
}

/// The histogram named `name` (created on first use).
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    Arc::clone(registry().histograms.lock().unwrap().entry(name).or_default())
}

/// Intern a dynamically built metric name, leaking at most once per
/// unique string for the life of the process. Callers that derive
/// metric names from runtime data (e.g. one latency histogram per
/// serving shard) must intern instead of `Box::leak`-ing per call, so
/// repeated shard reloads reuse the same allocation.
pub fn interned(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED.get_or_init(Default::default).lock().unwrap();
    match set.get(name) {
        Some(s) => s,
        None => {
            let s: &'static str = Box::leak(name.to_owned().into_boxed_str());
            set.insert(s);
            s
        }
    }
}

/// Add to a named counter iff recording is enabled (disabled path: one
/// atomic load).
///
/// Each call site looks its handle up in the registry once and caches
/// it, so an enabled call takes no lock. The cache stays valid across
/// [`reset`], which zeroes metrics in place instead of detaching them:
/// the second traced run in a process is counted like the first.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::counter($name)).add($n);
        }
    }};
}

/// Set a named gauge iff recording is enabled (the handle is cached per
/// call site, as in [`counter_add!`]).
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::gauge($name)).set($v);
        }
    }};
}

/// Record into a named histogram iff recording is enabled (the handle
/// is cached per call site, as in [`counter_add!`]).
#[macro_export]
macro_rules! hist_record {
    ($name:literal, $v:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
                ::std::sync::OnceLock::new();
            HANDLE.get_or_init(|| $crate::metrics::histogram($name)).record($v);
        }
    }};
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → snapshot.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Snapshot every metric recorded into since the last [`reset`]
/// (sorted by name).
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, v)| v.touched.load(Ordering::Relaxed))
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, v)| v.touched.load(Ordering::Relaxed))
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, v)| v.touched.load(Ordering::Relaxed))
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect(),
    }
}

/// Zero every registered metric in place and mark it untouched, so the
/// next [`snapshot`] lists only what is recorded after this call
/// (tests and between-run isolation). Handles stay valid.
pub fn reset() {
    let r = registry();
    r.counters.lock().unwrap().values().for_each(|c| c.reset());
    r.gauges.lock().unwrap().values().for_each(|g| g.reset());
    r.histograms.lock().unwrap().values().for_each(|h| h.reset());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for b in 0..NBUCKETS {
            assert!(bucket_lo(b) <= bucket_hi(b), "bucket {b}");
            assert_eq!(bucket_of(bucket_lo(b)), b);
            assert_eq!(bucket_of(bucket_hi(b)), b);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        let p50 = s.quantile(0.5).unwrap();
        // True median 50: estimate within the 25% bucket width.
        assert!((38..=63).contains(&p50), "p50 {p50}");
        assert!(s.quantile(1.0).unwrap() >= 100);
        assert_eq!(Histogram::default().snapshot().quantile(0.5), None);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::default();
        let b = Histogram::default();
        let all = Histogram::default();
        for v in [0u64, 3, 17, 200, 1 << 40, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 17, 999_999] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn min_max_are_exact_and_bound_quantiles() {
        let h = Histogram::default();
        for v in [7u64, 100, 3, 999] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (3, 999));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!((3..=999).contains(&est), "q={q} est={est}");
        }
        // A single sample reports itself exactly at every quantile.
        let one = Histogram::default();
        one.record(42);
        assert_eq!(one.snapshot().quantile(0.99), Some(42));
    }

    #[test]
    fn interned_names_are_deduplicated() {
        let a = interned("test.interned.serve.latency_ns.bcast");
        let b = interned(&format!("test.interned.serve.latency_ns.{}", "bcast"));
        assert_eq!(a, b);
        // Same allocation, not merely equal contents.
        assert!(std::ptr::eq(a, b));
    }

    /// One call site per macro, shared by every recording session of
    /// the tests below.
    fn record_session(v: u64) {
        crate::counter_add!("test.session.count", v);
        crate::gauge_set!("test.session.gauge", v as f64);
        crate::hist_record!("test.session.hist", v);
        crate::record_elapsed!("test.session.elapsed", crate::maybe_now());
    }

    fn session_names(snap: &MetricsSnapshot) -> Vec<&str> {
        let names = snap.counters.iter().map(|(n, _)| n);
        let names = names.chain(snap.gauges.iter().map(|(n, _)| n));
        let names = names.chain(snap.histograms.iter().map(|(n, _)| n));
        names.filter(|n| n.starts_with("test.session.")).map(String::as_str).collect()
    }

    #[test]
    fn a_cached_call_site_counts_again_after_reset() {
        let _lock = crate::span::test_lock();
        crate::set_enabled(true);
        record_session(5);
        record_session(7);
        reset();
        assert!(session_names(&snapshot()).is_empty(), "reset metrics must not be listed");
        record_session(3);
        crate::set_enabled(false);
        let snap = snapshot();
        reset();
        let count = snap.counters.iter().find(|(n, _)| n == "test.session.count");
        assert_eq!(count.map(|(_, v)| *v), Some(3));
        let gauge = snap.gauges.iter().find(|(n, _)| n == "test.session.gauge");
        assert_eq!(gauge.map(|(_, v)| *v), Some(3.0));
        let hist = snap.histograms.iter().find(|(n, _)| n == "test.session.hist");
        let hist = hist.map(|(_, h)| (h.count(), h.sum, h.min, h.max));
        assert_eq!(hist, Some((1, 3, 3, 3)));
        let elapsed = snap.histograms.iter().find(|(n, _)| n == "test.session.elapsed");
        assert_eq!(elapsed.map(|(_, h)| h.count()), Some(1));
    }

    #[test]
    fn cached_handles_race_reset_without_losing_the_registration() {
        let _lock = crate::span::test_lock();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| (0..2000).for_each(|_| record_session(1)));
            }
            for _ in 0..50 {
                reset();
                let _ = snapshot();
            }
        });
        reset();
        record_session(1);
        crate::set_enabled(false);
        let snap = snapshot();
        reset();
        let count = snap.counters.iter().find(|(n, _)| n == "test.session.count");
        assert_eq!(count.map(|(_, v)| *v), Some(1));
        assert_eq!(session_names(&snap).len(), 4);
    }

    #[test]
    fn registry_reuses_handles() {
        let _lock = crate::span::test_lock();
        let c1 = counter("test.metric.reuse");
        let c2 = counter("test.metric.reuse");
        c1.add(2);
        c2.add(3);
        assert_eq!(c1.get(), 5);
        gauge("test.gauge.reuse").set(1.5);
        assert_eq!(gauge("test.gauge.reuse").get(), 1.5);
        let snap = snapshot();
        assert!(snap.counters.iter().any(|(n, v)| n == "test.metric.reuse" && *v == 5));
    }
}
