//! The traced run's spans: collection, per-layer totals and self times.
//!
//! The benchmark opens every span itself, around one call into a layer,
//! through the `mpcp_obs` span API. Its span names read `layer:call`
//! (`simnet:run`, `ml:train`, ...), which keeps them apart from the
//! spans the crates record internally while tracing is on. Spans of one
//! grid cell carry a `cell` attribute and spans of one request a `req`
//! attribute, so a cell's or a request's spans can be joined.

use std::collections::HashMap;
use std::path::Path;

use mpcp_obs::{AttrValue, EventKind, TraceEvent};

/// The layer a benchmark span belongs to (`simnet` for `simnet:run`).
fn layer_of(name: &str) -> &str {
    name.split_once(':').map_or(name, |(layer, _)| layer)
}

/// The benchmark's own spans of one traced pass.
pub struct Spans {
    events: Vec<TraceEvent>,
}

impl Spans {
    /// Drain every recorded event and keep the benchmark's spans and
    /// its point events (`serve:reply`, one per wire round trip).
    pub fn collect() -> Spans {
        let events = mpcp_obs::drain()
            .into_iter()
            .filter(|e| e.name.contains(':'))
            .collect();
        Spans { events }
    }

    /// Durations, in seconds, of the spans called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Total duration, in seconds, of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Total duration of the spans called `name` whose attribute `key`
    /// equals the string `value`.
    pub fn total_s_where(&self, name: &str, key: &str, value: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .filter(|e| {
                e.attrs
                    .iter()
                    .any(|(k, v)| *k == key && *v == AttrValue::Str(value.to_string()))
            })
            .map(|e| e.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// Ids of the spans called `name`.
    pub fn ids(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.id)
            .collect()
    }

    /// Self time per layer over the span trees rooted at `roots`, plus
    /// the roots' total duration.
    ///
    /// A span's self time is its duration minus the part of its
    /// interval that its child spans cover. Children are the spans whose
    /// recorded parent is the span, so they ran on its thread. Over
    /// whole trees the self times add up to the roots' durations (up to
    /// nanosecond rounding at each span boundary).
    pub fn self_times(&self, roots: &[u64]) -> (HashMap<String, f64>, f64, usize) {
        let spans = self.events.iter().filter(|e| e.kind == EventKind::Span);
        let by_id: HashMap<u64, &TraceEvent> = spans.clone().map(|e| (e.id, e)).collect();
        let mut children: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        for e in spans {
            children.entry(e.parent).or_default().push(e);
        }
        let mut per_layer: HashMap<String, f64> = HashMap::new();
        let mut roots_s = 0.0;
        let mut visited = 0usize;
        let mut stack: Vec<&TraceEvent> = roots
            .iter()
            .filter_map(|id| by_id.get(id).copied())
            .collect();
        roots_s += stack.iter().map(|e| e.dur_ns as f64 * 1e-9).sum::<f64>();
        while let Some(e) = stack.pop() {
            visited += 1;
            let kids = children.get(&e.id).map(Vec::as_slice).unwrap_or(&[]);
            let covered = covered_ns(e, kids);
            *per_layer.entry(layer_of(e.name).to_string()).or_default() +=
                e.dur_ns.saturating_sub(covered) as f64 * 1e-9;
            stack.extend(kids.iter().copied());
        }
        (per_layer, roots_s, visited)
    }

    /// Write the spans as JSONL (one object per span, provenance first).
    pub fn write(
        &self,
        path: &Path,
        prov: &mpcp_obs::provenance::Provenance,
    ) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let text = mpcp_obs::export::events_jsonl(&self.events, Some(prov));
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of `kids`.
fn covered_ns(parent: &TraceEvent, kids: &[&TraceEvent]) -> u64 {
    let (lo, hi) = (parent.ts_ns, parent.ts_ns + parent.dur_ns);
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.ts_ns.clamp(lo, hi), (k.ts_ns + k.dur_ns).clamp(lo, hi)))
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            kind: EventKind::Span,
            ts_ns: ts,
            dur_ns: dur,
            tid: 1,
            id,
            parent,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = Spans {
            events: vec![
                span(1, 0, "benchmark:generate", 0, 100),
                span(2, 1, "benchmark:cell", 10, 50),
                span(3, 2, "collectives:build", 10, 10),
                span(4, 2, "simnet:run", 25, 30),
                span(5, 1, "simnet:run", 70, 20),
            ],
        };
        let (per_layer, roots_s, n) = spans.self_times(&[1]);
        assert_eq!(n, 5);
        assert!((roots_s - 100e-9).abs() < 1e-15);
        assert!((per_layer["simnet"] - 50e-9).abs() < 1e-15);
        assert!((per_layer["collectives"] - 10e-9).abs() < 1e-15);
        // generate: 100 - 50 - 20; cell: 50 - 10 - 30.
        assert!((per_layer["benchmark"] - 40e-9).abs() < 1e-15);
        let total: f64 = per_layer.values().sum();
        assert!((total - roots_s).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_count_once() {
        let parent = span(1, 0, "a:b", 0, 100);
        let k1 = span(2, 1, "a:c", 10, 40);
        let k2 = span(3, 1, "a:c", 30, 40);
        let k3 = span(4, 1, "a:c", 95, 20);
        assert_eq!(covered_ns(&parent, &[&k1, &k2, &k3]), 60 + 5);
    }
}
