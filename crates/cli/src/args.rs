//! Tiny dependency-free argument parsing: `--key value` flags plus a
//! leading subcommand, with human-friendly size and list syntax.
//!
//! Every lookup marks its flag as read. A command reads all of its
//! flags up front and then calls [`Args::reject_unread`], so a mistyped
//! flag is an error instead of a silently ignored option.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command line: subcommand + `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Each option's value and whether a command has read it.
    opts: BTreeMap<String, (String, Cell<bool>)>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        if let Some(cmd) = it.next() {
            if cmd.starts_with("--") {
                return Err(format!("expected a subcommand before {cmd}"));
            }
            out.command = cmd;
        }
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            // A flag followed by another flag (or nothing) is a bare
            // boolean switch, e.g. `mpcp top --once --json`.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                _ => "true".to_string(),
            };
            if out.opts.insert(key.to_string(), (value, Cell::new(false))).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(out)
    }

    /// Raw option lookup; marks the flag as read.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(|(v, read)| {
            read.set(true);
            v.as_str()
        })
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// All option keys (for provenance).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.opts.keys().map(|s| s.as_str())
    }

    /// Boolean switch: present (bare or `--key true`) and not
    /// explicitly `false`.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some(v) if v != "false")
    }

    /// Optional typed option.
    pub fn optional<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key).map(|v| v.parse().map_err(|e| bad(key, v, e))).transpose()
    }

    /// Required typed option.
    pub fn required<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        self.optional(key)?.ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Typed option with default.
    pub fn value_or<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.optional(key)?.unwrap_or(default))
    }

    /// Required comma-separated list: `1,8,16`.
    pub fn list<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Vec<T>, String> {
        let v = self.require(key)?;
        v.split(',').map(|x| x.trim().parse().map_err(|e| bad(key, v, e))).collect()
    }

    /// The one unknown-flag check: an error naming the first option no
    /// lookup has read. Commands call it after reading their flags and
    /// before doing any work.
    pub fn reject_unread(&self) -> Result<(), String> {
        match self.opts.iter().find(|(_, (_, read))| !read.get()) {
            Some((key, _)) => Err(format!("unknown flag --{key} for {}", self.command)),
            None => Ok(()),
        }
    }
}

/// The uniform bad-value error.
fn bad(key: &str, value: &str, err: impl Display) -> String {
    format!("bad --{key} {value:?}: {err}")
}

/// A byte size: `4096`, `1K`, `64K`, `2M`, `1G` (binary multiples, as
/// MPI benchmarks use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size(pub u64);

impl FromStr for Size {
    type Err = String;

    fn from_str(s: &str) -> Result<Size, String> {
        parse_size(s).map(Size)
    }
}

/// Parse a human byte size (see [`Size`]).
pub fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (num, mult) = match t.chars().last() {
        Some('K') | Some('k') => (&t[..t.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&t[..t.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    num.parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(mult))
        .ok_or_else(|| format!("bad size {s:?} (use e.g. 4096, 64K, 2M)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = args(&["bench", "--machine", "hydra", "--ppn", "1,8"]).unwrap();
        assert_eq!(a.command, "bench");
        assert_eq!(a.get("machine"), Some("hydra"));
        assert_eq!(a.require("ppn").unwrap(), "1,8");
        assert!(a.require("nope").is_err());
        assert_eq!(a.get_or("learner", "gam"), "gam");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(args(&["--machine", "hydra"]).is_err()); // flag before cmd
        assert!(args(&["bench", "stray"]).is_err());
        assert!(args(&["bench", "--x", "1", "--x", "2"]).is_err()); // dup
    }

    #[test]
    fn bare_flags_parse_as_boolean_switches() {
        let a = args(&["top", "--once", "--json", "--stats", "f.json"]).unwrap();
        assert!(a.flag("once"));
        assert!(a.flag("json"));
        assert_eq!(a.get("stats"), Some("f.json"));
        assert!(!a.flag("absent"));
        let b = args(&["top", "--once", "false"]).unwrap();
        assert!(!b.flag("once"));
        // A trailing bare flag is also a switch.
        assert!(args(&["top", "--once"]).unwrap().flag("once"));
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("64K").unwrap(), 65536);
        assert_eq!(parse_size("2M").unwrap(), 2 << 20);
        assert_eq!(parse_size("1g").unwrap(), 1 << 30);
        assert!(parse_size("x").is_err());
        assert!(parse_size("4.5K").is_err());
    }

    #[test]
    fn lists() {
        let a = args(&["bench", "--ppn", "1, 8,16", "--msizes", "16,1K", "--nodes", "1,x"])
            .unwrap();
        assert_eq!(a.list::<u32>("ppn").unwrap(), vec![1, 8, 16]);
        assert_eq!(a.list::<Size>("msizes").unwrap(), vec![Size(16), Size(1024)]);
        assert!(a.list::<u32>("nodes").is_err());
    }

    #[test]
    fn typed_reads_report_the_flag_and_value() {
        let a = args(&["simulate", "--nodes", "0", "--ppn", "x", "--msize", "4K"]).unwrap();
        let err = a.required::<std::num::NonZeroU32>("nodes").unwrap_err();
        assert!(err.starts_with("bad --nodes \"0\""), "{err}");
        assert!(a.value_or("ppn", 1u32).unwrap_err().starts_with("bad --ppn \"x\""));
        assert_eq!(a.required::<Size>("msize").unwrap(), Size(4096));
        assert_eq!(a.value_or("alg", 3usize).unwrap(), 3);
        assert!(a.required::<u32>("alg").unwrap_err().contains("missing required option --alg"));
    }
}
