//! Golden digests of the Table IV workloads.
//!
//! Each table4 workload has a file under `golden/` with two kinds of
//! line:
//!
//! ```text
//! base <digest>
//! seed <n> records <digest> speedups <bits>,<bits>,...
//! ```
//!
//! `base` digests the noise-free simulated makespan of every cell. The
//! simulation does not depend on the seed, so this one line pins the
//! simulator's output for every run: it is the corpus a change to the
//! engine must reproduce bit for bit. A `seed` line pins, for one seed,
//! every generated record and the six Table IV speed-ups (as `f64` bit
//! patterns). Seeds without a line are checked against `base` only.
//! `mpcp-perfbench --record-golden` prints the lines for a seed.

use mpcp_benchmark::Record;

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

/// Digest of every field of every record, in order.
pub fn records_digest(records: &[Record]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        for w in [
            u64::from(r.nodes),
            u64::from(r.ppn),
            r.msize,
            u64::from(r.uid),
            u64::from(r.alg_id),
            u64::from(r.excluded),
            r.runtime.to_bits(),
            r.base.to_bits(),
            u64::from(r.reps),
        ] {
            h.word(w);
        }
    }
    h.0
}

/// Digest of the cells and their noise-free makespans only.
pub fn base_digest(records: &[Record]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        for w in [
            u64::from(r.nodes),
            u64::from(r.ppn),
            r.msize,
            u64::from(r.uid),
            r.base.to_bits(),
        ] {
            h.word(w);
        }
    }
    h.0
}

/// The golden lines for one seed's records and speed-ups.
pub fn lines(seed: u64, records: &[Record], speedups: &[f64]) -> String {
    let bits: Vec<String> = speedups
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect();
    format!(
        "base {:016x}\nseed {seed} records {:016x} speedups {}\n",
        base_digest(records),
        records_digest(records),
        bits.join(",")
    )
}

/// Check one run against the golden file `text`.
///
/// Returns whether a per-seed line was found (the base line must exist
/// and match whenever the file has one).
pub fn check(text: &str, seed: u64, records: &[Record], speedups: &[f64]) -> Result<bool, String> {
    let mut seed_found = false;
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["base", digest] => {
                let got = format!("{:016x}", base_digest(records));
                if got != *digest {
                    return Err(format!(
                        "simulated makespans changed: base digest {got}, golden {digest}"
                    ));
                }
            }
            ["seed", s, "records", digest, "speedups", bits] if s.parse::<u64>() == Ok(seed) => {
                seed_found = true;
                let got = format!("{:016x}", records_digest(records));
                if got != *digest {
                    return Err(format!(
                        "records of seed {seed} changed: digest {got}, golden {digest}"
                    ));
                }
                let want: Vec<&str> = bits.split(',').collect();
                let got: Vec<String> = speedups
                    .iter()
                    .map(|s| format!("{:016x}", s.to_bits()))
                    .collect();
                if got != want {
                    return Err(format!(
                        "Table IV speed-ups of seed {seed} changed: {speedups:?} (bits {got:?}, golden {want:?})"
                    ));
                }
            }
            ["seed", ..] => {}
            _ => return Err(format!("malformed golden line: {line}")),
        }
    }
    Ok(seed_found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(runtime: f64) -> Record {
        Record {
            nodes: 4,
            ppn: 1,
            msize: 16,
            uid: 0,
            alg_id: 1,
            excluded: false,
            runtime,
            base: 1e-6,
            reps: 500,
        }
    }

    #[test]
    fn golden_round_trip_and_mismatches() {
        let records = vec![rec(1.5e-6), rec(2.5e-6)];
        let speedups = [1.25, 1.0 / 3.0];
        let text = lines(7, &records, &speedups);
        assert_eq!(check(&text, 7, &records, &speedups), Ok(true));
        // Another seed: the base line still applies, the seed line not.
        assert_eq!(check(&text, 8, &records, &speedups), Ok(false));
        // Noise changes the records but not the makespans.
        let noisy = vec![rec(1.5e-6), rec(2.6e-6)];
        assert!(check(&text, 7, &noisy, &speedups).is_err());
        assert_eq!(check(&text, 8, &noisy, &speedups), Ok(false));
        // A changed makespan fails every seed.
        let mut moved = records.clone();
        moved[1].base = 1.1e-6;
        assert!(check(&text, 8, &moved, &speedups).is_err());
        assert!(check(&text, 7, &records, &[1.25, 0.3]).is_err());
    }
}
