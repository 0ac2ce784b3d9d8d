//! The traced cell-by-cell walk measures the same computation as the
//! program's `DatasetSpec::generate`: on a miniature grid its records
//! are bit-identical, and its layer self times cover its span time.

use mpcp_perfbench::golden::records_digest;
use mpcp_perfbench::pipeline::{generate, traced_walk, Prep};
use mpcp_perfbench::trace::Spans;
use mpcp_perfbench::workload::{Scale, Workload};

#[test]
fn traced_walk_is_bit_identical_to_generate() {
    for w in Workload::ALL {
        let prep = Prep::new(w.spec(Scale::Mini, 11));
        let generated = generate(&prep);
        mpcp_obs::set_enabled(true);
        let walk = traced_walk(&prep);
        mpcp_obs::set_enabled(false);
        let spans = Spans::collect();

        assert_eq!(
            walk.records.len(),
            prep.spec.sample_count(&prep.library),
            "{}",
            w.name()
        );
        assert_eq!(walk.records, generated.records, "{}", w.name());
        assert_eq!(
            records_digest(&walk.records),
            records_digest(&generated.records)
        );
        assert_eq!(walk.counts.lost, generated.lost);
        assert!(walk.counts.events > 0 && walk.counts.instrs > 0);

        // One build, run and measure span per cell, joined by cell id.
        let cells = walk.records.len();
        for name in [
            "collectives:build",
            "simnet:run",
            "benchmark:measure",
            "benchmark:cell",
        ] {
            assert_eq!(spans.durations_s(name).len(), cells, "{name}");
        }
        let mut roots = vec![walk.generate_span];
        roots.extend(spans.ids("benchmark:worker"));
        let (self_s, roots_s, n) = spans.self_times(&roots);
        let total: f64 = self_s.values().sum();
        assert!(
            (total - roots_s).abs() <= 4e-9 * n as f64,
            "{total} vs {roots_s}"
        );
        assert!(self_s["simnet"] > 0.0 && self_s["collectives"] > 0.0 && self_s["benchmark"] > 0.0);
    }
}
