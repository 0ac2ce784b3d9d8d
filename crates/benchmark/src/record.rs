//! Dataset records and a small CSV (de)serializer for caching generated
//! datasets on disk.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;


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

impl Record {
    /// CSV header matching [`Record::to_csv`].
    pub const CSV_HEADER: &'static str =
        "nodes,ppn,msize,uid,alg_id,excluded,runtime,base,reps";

    /// Serialize as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.17e},{:.17e},{}",
            self.nodes,
            self.ppn,
            self.msize,
            self.uid,
            self.alg_id,
            u8::from(self.excluded),
            self.runtime,
            self.base,
            self.reps
        )
    }

    /// Parse one CSV line.
    pub fn from_csv(line: &str) -> Result<Record, String> {
        let f: Vec<&str> = line.trim().split(',').collect();
        if f.len() != 9 {
            return Err(format!("expected 9 fields, got {}: {line}", f.len()));
        }
        let err = |e: &str| format!("bad field ({e}): {line}");
        Ok(Record {
            nodes: f[0].parse().map_err(|_| err("nodes"))?,
            ppn: f[1].parse().map_err(|_| err("ppn"))?,
            msize: f[2].parse().map_err(|_| err("msize"))?,
            uid: f[3].parse().map_err(|_| err("uid"))?,
            alg_id: f[4].parse().map_err(|_| err("alg_id"))?,
            excluded: f[5] == "1",
            runtime: f[6].parse().map_err(|_| err("runtime"))?,
            base: f[7].parse().map_err(|_| err("base"))?,
            reps: f[8].parse().map_err(|_| err("reps"))?,
        })
    }
}

/// Write records to a CSV file (with header).
pub fn write_csv(path: &Path, records: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", Record::CSV_HEADER)?;
    for r in records {
        writeln!(out, "{}", r.to_csv())?;
    }
    Ok(())
}

/// Read records from a CSV file written by [`write_csv`].
pub fn read_csv(path: &Path) -> std::io::Result<Vec<Record>> {
    let file = BufReader::new(std::fs::File::open(path)?);
    let mut records = Vec::new();
    for (i, line) in file.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if line.trim() != Record::CSV_HEADER {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected CSV header: {line}"),
                ));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        records.push(
            Record::from_csv(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            nodes: 16,
            ppn: 32,
            msize: 4 << 20,
            uid: 7,
            alg_id: 2,
            excluded: false,
            runtime: 8.4e-5,
            base: 8.21e-5,
            reps: 500,
        }
    }

    #[test]
    fn csv_roundtrip() {
        let r = sample();
        let parsed = Record::from_csv(&r.to_csv()).unwrap();
        assert_eq!(parsed.nodes, r.nodes);
        assert_eq!(parsed.msize, r.msize);
        assert!((parsed.runtime - r.runtime).abs() < 1e-18);
        assert_eq!(parsed.excluded, r.excluded);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mpcp_record_test");
        let path = dir.join("x.csv");
        let records = vec![sample(), Record { uid: 8, excluded: true, ..sample() }];
        write_csv(&path, &records).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[1].excluded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Record::from_csv("1,2,3").is_err());
        assert!(Record::from_csv("a,b,c,d,e,f,g,h,i").is_err());
    }
}
