//! Bit-level pin of `generate`'s records.
//!
//! `golden_corpus` pins the noise-free makespans (`base`). This suite
//! also pins what the ReproMPI loop makes of them: each record's noisy
//! median `runtime`, its `base` and its repetition count `reps`, digested
//! with FNV-1a in record order. The digests were captured before the
//! repetition summary was rewritten (one pass for mean and min, a
//! selection instead of a sort for the median); a change that moves one
//! has changed a dataset.

use mpcp_benchmark::{BenchConfig, DatasetSpec, Record};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(records: &[Record]) -> String {
    let mut h = Fnv::new();
    for r in records {
        h.word(r.runtime.to_bits());
        h.word(r.base.to_bits());
        h.word(u64::from(r.reps));
    }
    format!("{:016x} over {} records", h.0, records.len())
}

fn generate(spec: &DatasetSpec, bench: &BenchConfig) -> String {
    digest(&spec.generate(&spec.library(None), bench).records)
}

/// A d2-shaped slice: d2's machine, library, collective and seed on two
/// node counts, two ppn values and four message sizes, small enough
/// that the budget and the 500-repetition cap both bind.
fn d2_slice() -> DatasetSpec {
    DatasetSpec {
        nodes: vec![4, 8],
        ppn: vec![1, 4],
        msizes: vec![1, 1 << 10, 64 << 10, 1 << 20],
        ..DatasetSpec::d2()
    }
}

#[test]
fn tiny_records_are_pinned_under_the_quick_loop() {
    assert_eq!(
        generate(&DatasetSpec::tiny_for_tests(), &BenchConfig::quick()),
        "8f4267df6e5ff30a over 180 records"
    );
}

#[test]
fn tiny_records_are_pinned_under_the_paper_loop() {
    assert_eq!(
        generate(&DatasetSpec::tiny_for_tests(), &BenchConfig::paper_default("Hydra")),
        "25b20b31b807a781 over 180 records"
    );
}

#[test]
fn d2_slice_records_are_pinned_under_the_paper_loop() {
    let spec = d2_slice();
    let records = spec.generate(&spec.library(None), &BenchConfig::paper_default("Hydra")).records;
    // Both parities of the repetition count occur, so both median
    // branches are pinned.
    assert!(records.iter().any(|r| r.reps % 2 == 0) && records.iter().any(|r| r.reps % 2 == 1));
    assert_eq!(digest(&records), "0331ffe66a4d0412 over 160 records");
}
