//! The rule registry.
//!
//! Every rule works on the token stream of a [`SourceFile`] — never on
//! raw text — and confines itself to the paths where its invariant
//! matters. Scopes are *substring* matches on the workspace-relative
//! path; the defaults below are overridable per rule in `lint.toml`
//! (`[rule.<name>] include/exclude`), and individual findings are
//! silenced only by a justified `[[allow]]` entry.
//!
//! Adding a rule: implement [`LintRule`], register it in
//! [`all_rules`], add a fixture pair under
//! `crates/lint/tests/fixtures/<rule>/`, and document it in
//! DESIGN.md §11.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::syntax::Syntax;
use crate::{Finding, SourceFile};

/// A single static-analysis rule.
pub trait LintRule {
    /// Stable kebab-case name (the key used in `lint.toml`).
    fn name(&self) -> &'static str;
    /// One-line description for `mpcp-lint rules`.
    fn summary(&self) -> &'static str;
    /// Default path-substring scope; empty means "every file".
    fn default_include(&self) -> &'static [&'static str] {
        &[]
    }
    /// Default path-substring exclusions.
    fn default_exclude(&self) -> &'static [&'static str] {
        &[]
    }
    /// Per-file check.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
    /// Whole-workspace check (crate-level attribute requirements).
    fn check_workspace(&self, _files: &[SourceFile], _cfg: &Config, _out: &mut Vec<Finding>) {}
}

/// Is `file` in scope for `rule`, honoring `lint.toml` overrides?
pub fn in_scope(rule: &dyn LintRule, file: &SourceFile, cfg: &Config) -> bool {
    let scope = cfg.rule_scopes.get(rule.name());
    let include: Vec<&str> = match scope.and_then(|s| s.include.as_ref()) {
        Some(v) => v.iter().map(String::as_str).collect(),
        None => rule.default_include().to_vec(),
    };
    let exclude: Vec<&str> = match scope.and_then(|s| s.exclude.as_ref()) {
        Some(v) => v.iter().map(String::as_str).collect(),
        None => rule.default_exclude().to_vec(),
    };
    let included =
        include.is_empty() || include.iter().any(|p| file.rel_path.contains(p));
    included && !exclude.iter().any(|p| file.rel_path.contains(p))
}

/// All shipped rules, in catalog order.
pub fn all_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(NoFloatPartialOrder),
        Box::new(NoPanicPaths),
        Box::new(SafetyCommentRequired),
        Box::new(NoWallclockInDeterministic),
        Box::new(NoLossyCast),
        Box::new(OrderingCommentRequired),
        Box::new(NoRelaxedPublish),
        Box::new(NoLockAcrossBlocking),
    ]
}

/// Build a finding at a byte offset.
fn finding(
    rule: &'static str,
    file: &SourceFile,
    offset: usize,
    message: String,
) -> Finding {
    let (line, col) = file.lexed.line_col(offset);
    Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        col,
        line_text: file.lexed.line_text(&file.text, offset).to_string(),
        message,
        allowed: None,
    }
}

/// Indices of non-comment tokens, in order.
fn code_indices(file: &SourceFile) -> Vec<usize> {
    (0..file.lexed.toks.len())
        .filter(|&i| {
            !matches!(
                file.lexed.toks[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rule 1: no-float-partial-order
// ---------------------------------------------------------------------

/// Float orderings must use `total_cmp`: `partial_cmp` on a NaN returns
/// `None` and a raw `<` in a comparator breaks totality, which turns a
/// degenerate model prediction into a panic (or, worse, an
/// order-dependent selection) instead of a deterministic ordering.
pub struct NoFloatPartialOrder;

const COMPARATOR_METHODS: &[&str] =
    &["sort_by", "sort_unstable_by", "min_by", "max_by", "binary_search_by"];
const ORDERING_OPS: &[&str] = &["<", ">", "<=", ">=", "==", "!="];

impl LintRule for NoFloatPartialOrder {
    fn name(&self) -> &'static str {
        "no-float-partial-order"
    }

    fn summary(&self) -> &'static str {
        "float orderings must use total_cmp, not partial_cmp or raw comparison operators"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let code = code_indices(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
        for k in 0..code.len() {
            let t = &toks[code[k]];
            if file.in_test_code(t.start) {
                continue;
            }
            // `.partial_cmp(` / `T::partial_cmp` in call position.
            if t.kind == TokKind::Ident
                && txt(k) == "partial_cmp"
                && k > 0
                && matches!(txt(k - 1), "." | "::")
            {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    "partial_cmp yields None on NaN; use f64::total_cmp for a total, \
                     deterministic order"
                        .to_string(),
                ));
            }
            // Raw ordering operators inside a comparator closure:
            // `xs.sort_by(|a, b| a < b ...)` compiles but is not a
            // total order. Scan the balanced argument list.
            if t.kind == TokKind::Ident
                && COMPARATOR_METHODS.contains(&txt(k))
                && k > 0
                && txt(k - 1) == "."
                && k + 1 < code.len()
                && txt(k + 1) == "("
            {
                let mut depth = 1usize;
                let mut m = k + 2;
                while m < code.len() && depth > 0 {
                    match txt(m) {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        op if depth > 0 && ORDERING_OPS.contains(&op) => {
                            out.push(finding(
                                self.name(),
                                file,
                                toks[code[m]].start,
                                format!(
                                    "raw `{op}` inside a `{}` comparator is not a total \
                                     order on floats; use total_cmp",
                                    txt(k)
                                ),
                            ));
                        }
                        _ => {}
                    }
                    m += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: no-panic-paths
// ---------------------------------------------------------------------

/// Library code in `cli`, `core`, and `ml` must return typed errors:
/// a panic in the selection path takes down the whole serving process,
/// and PR 3's graceful-degradation guarantees only hold if nothing
/// underneath them panics first. (Supersedes the PR 3 grep lint, which
/// could neither see `expect` nor tell code from comments.)
pub struct NoPanicPaths;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl LintRule for NoPanicPaths {
    fn name(&self) -> &'static str {
        "no-panic-paths"
    }

    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic! in non-test cli/core/ml code"
    }

    fn default_include(&self) -> &'static [&'static str] {
        &["crates/cli/src/", "crates/core/src/", "crates/ml/src/"]
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let code = code_indices(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
        for k in 0..code.len() {
            let t = &toks[code[k]];
            if t.kind != TokKind::Ident || file.in_test_code(t.start) {
                continue;
            }
            let name = txt(k);
            if (name == "unwrap" || name == "expect") && k > 0 && txt(k - 1) == "." {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    format!(
                        ".{name}() panics on the error path; propagate a typed error \
                         (FitError / SelectorError) instead"
                    ),
                ));
            }
            if PANIC_MACROS.contains(&name) && k + 1 < code.len() && txt(k + 1) == "!" {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    format!("{name}! in library code aborts the serving process; return an error"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: safety-comment-required
// ---------------------------------------------------------------------

/// `unsafe` is confined to the one crate with a measured need for it
/// (`ml`'s bounds-check-elided inference kernel), and every occurrence
/// must carry an adjacent `// SAFETY:` comment stating the invariant
/// that makes it sound. Crates with no unsafe must say so with
/// `#![forbid(unsafe_code)]` so a stray block is a compile error, not a
/// review hazard.
pub struct SafetyCommentRequired;

/// Crates permitted to contain `unsafe` (must carry
/// `#![deny(unsafe_op_in_unsafe_fn)]`).
const UNSAFE_CRATES: &[&str] = &["ml"];

impl LintRule for SafetyCommentRequired {
    fn name(&self) -> &'static str {
        "safety-comment-required"
    }

    fn summary(&self) -> &'static str {
        "unsafe only in allowlisted crates, always under a // SAFETY: comment"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.lexed.toks;
        for t in toks {
            if t.kind != TokKind::Ident || file.tok_text(t) != "unsafe" {
                continue;
            }
            let crate_ok = file
                .crate_name
                .as_deref()
                .is_some_and(|c| UNSAFE_CRATES.contains(&c));
            if !crate_ok {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    "unsafe outside the allowlisted unsafe crates (ml); keep this crate \
                     #![forbid(unsafe_code)]"
                        .to_string(),
                ));
                continue;
            }
            if !has_adjacent_safety_comment(file, t.start) {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    "unsafe without a // SAFETY: comment on the preceding line(s) stating \
                     why it is sound"
                        .to_string(),
                ));
            }
        }
    }

    /// Crate-level attribute requirements: `#![forbid(unsafe_code)]`
    /// everywhere unsafe is banned, `#![deny(unsafe_op_in_unsafe_fn)]`
    /// where it is not.
    fn check_workspace(&self, files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
        for file in files {
            if cfg.global_exclude.iter().any(|p| file.rel_path.contains(p.as_str())) {
                continue;
            }
            let Some(crate_name) = file.crate_name.as_deref() else { continue };
            if file.rel_path != format!("crates/{crate_name}/src/lib.rs") {
                continue;
            }
            if UNSAFE_CRATES.contains(&crate_name) {
                if !has_inner_attr(file, "deny", "unsafe_op_in_unsafe_fn") {
                    out.push(finding(
                        self.name(),
                        file,
                        0,
                        "unsafe-allowlisted crate must declare #![deny(unsafe_op_in_unsafe_fn)]"
                            .to_string(),
                    ));
                }
            } else if !has_inner_attr(file, "forbid", "unsafe_code") {
                out.push(finding(
                    self.name(),
                    file,
                    0,
                    "crate has no unsafe and must declare #![forbid(unsafe_code)]".to_string(),
                ));
            }
        }
    }
}

/// Scan upward from the line above `offset` through contiguous `//`
/// comment lines, looking for `SAFETY:`.
fn has_adjacent_safety_comment(file: &SourceFile, offset: usize) -> bool {
    let (line, _) = file.lexed.line_col(offset);
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let start = file.lexed.line_start(l);
        let text = file.lexed.line_text(&file.text, start);
        let trimmed = text.trim_start();
        if !trimmed.starts_with("//") {
            return false;
        }
        if trimmed.contains("SAFETY:") {
            return true;
        }
        l -= 1;
    }
    false
}

/// Does the file carry the inner attribute `#![<level>(<lint>)]`?
fn has_inner_attr(file: &SourceFile, level: &str, lint: &str) -> bool {
    let toks = &file.lexed.toks;
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
    (0..code.len().saturating_sub(6)).any(|k| {
        txt(k) == "#"
            && txt(k + 1) == "!"
            && txt(k + 2) == "["
            && txt(k + 3) == level
            && txt(k + 4) == "("
            && txt(k + 5) == lint
            && txt(k + 6) == ")"
    })
}

// ---------------------------------------------------------------------
// Rule 4: no-wallclock-in-deterministic
// ---------------------------------------------------------------------

/// `benchmark`, `simnet`, `ml`, and `core` must be bit-deterministic:
/// given the same seed, the same records, models, and selections come
/// out — the paper's reproducibility claim and the fault-injection
/// harness's byte-identity guarantee both depend on it. Wall-clock
/// reads and thread-count-dependent control flow are how that breaks.
/// (Timing belongs in `mpcp-obs`, whose spans are no-ops unless tracing
/// is explicitly enabled.)
pub struct NoWallclockInDeterministic;

const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];
const THREAD_COUNT_IDENTS: &[&str] = &["current_num_threads", "available_parallelism"];

impl LintRule for NoWallclockInDeterministic {
    fn name(&self) -> &'static str {
        "no-wallclock-in-deterministic"
    }

    fn summary(&self) -> &'static str {
        "determinism-critical crates never read clocks or depend on thread counts"
    }

    fn default_include(&self) -> &'static [&'static str] {
        &[
            "crates/benchmark/src/",
            "crates/simnet/src/",
            "crates/ml/src/",
            "crates/core/src/",
        ]
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.lexed.toks;
        for t in toks {
            if t.kind != TokKind::Ident || file.in_test_code(t.start) {
                continue;
            }
            let name = file.tok_text(t);
            if WALLCLOCK_IDENTS.contains(&name) {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    format!(
                        "{name} is wall-clock state in a determinism-critical crate; \
                         route timing through mpcp-obs (no-op unless tracing is on)"
                    ),
                ));
            }
            if THREAD_COUNT_IDENTS.contains(&name) {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    format!(
                        "{name} makes behavior depend on the host's parallelism; results \
                         must be identical at any thread count"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: no-lossy-cast
// ---------------------------------------------------------------------

/// Serialization paths (dataset records, store columns, selector uid
/// tables) must not truncate silently: an `as u32` that wraps corrupts
/// the dataset instead of erroring. Use `From`/`TryFrom` and propagate.
pub struct NoLossyCast;

/// Narrowing `as` targets. 64-bit targets and `usize` are not flagged:
/// on every supported platform they only widen the types these paths
/// use.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

impl LintRule for NoLossyCast {
    fn name(&self) -> &'static str {
        "no-lossy-cast"
    }

    fn summary(&self) -> &'static str {
        "no truncating `as` casts in record/dataset/selector serialization paths"
    }

    fn default_include(&self) -> &'static [&'static str] {
        &[
            "crates/benchmark/src/record.rs",
            "crates/benchmark/src/datasets.rs",
            "crates/ml/src/dataset.rs",
            "crates/core/src/selector.rs",
            "crates/core/src/instance.rs",
            "crates/core/src/tuning_file.rs",
        ]
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let code = code_indices(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
        for k in 0..code.len().saturating_sub(1) {
            let t = &toks[code[k]];
            if t.kind != TokKind::Ident || txt(k) != "as" || file.in_test_code(t.start) {
                continue;
            }
            let target = txt(k + 1);
            if toks[code[k + 1]].kind == TokKind::Ident
                && NARROWING_TARGETS.contains(&target)
            {
                out.push(finding(
                    self.name(),
                    file,
                    t.start,
                    format!(
                        "`as {target}` can truncate silently in a serialization path; \
                         use {target}::try_from (or From) and handle the error"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: ordering-comment-required
// ---------------------------------------------------------------------

/// Every atomic operation that names an explicit memory ordering in the
/// lock-free modules must justify it: the seqlock windows, the flight
/// ring, the snapshot epochs, and the daemon's shutdown/admission flags
/// are all hand-rolled protocols whose correctness lives entirely in
/// *which* `Ordering` each site uses. Mirroring the SAFETY rule, an
/// adjacent `// ORDERING:` comment (same line, or a comment block
/// immediately above the statement — one comment covers a contiguous
/// run of atomic statements) states the pairing that makes it sound.
pub struct OrderingCommentRequired;

const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The hand-rolled lock-free modules the ordering rules default to.
const LOCKFREE_MODULES: &[&str] = &[
    "crates/obs/src/window.rs",
    "crates/obs/src/flight.rs",
    "crates/serve/src/snapshot.rs",
    "crates/serve/src/net.rs",
    "crates/serve/src/batch.rs",
];

impl LintRule for OrderingCommentRequired {
    fn name(&self) -> &'static str {
        "ordering-comment-required"
    }

    fn summary(&self) -> &'static str {
        "explicit atomic Ordering in lock-free modules needs an adjacent // ORDERING: comment"
    }

    fn default_include(&self) -> &'static [&'static str] {
        LOCKFREE_MODULES
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let code = code_indices(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
        let sites = ordering_sites(file, &code);
        // First atomic site per line, for the contiguous-cluster walk.
        let mut site_by_line: std::collections::BTreeMap<u32, usize> =
            std::collections::BTreeMap::new();
        for &k in &sites {
            let (line, _) = file.lexed.line_col(toks[code[k]].start);
            site_by_line.entry(line).or_insert(k);
        }
        for &k in &sites {
            let off = toks[code[k]].start;
            if file.in_test_code(off) {
                continue;
            }
            if has_ordering_justification(file, &code, k, &site_by_line) {
                continue;
            }
            out.push(finding(
                self.name(),
                file,
                off,
                format!(
                    "atomic op with explicit `Ordering::{}` has no adjacent // ORDERING: \
                     justification (same line, or a comment immediately above the statement)",
                    txt(k + 2)
                ),
            ));
        }
    }
}

/// Code indices of `Ordering` tokens in `Ordering::<memory-ordering>`
/// position.
fn ordering_sites(file: &SourceFile, code: &[usize]) -> Vec<usize> {
    let toks = &file.lexed.toks;
    let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
    (0..code.len().saturating_sub(2))
        .filter(|&k| {
            toks[code[k]].kind == TokKind::Ident
                && txt(k) == "Ordering"
                && txt(k + 1) == "::"
                && MEMORY_ORDERINGS.contains(&txt(k + 2))
        })
        .collect()
}

/// First line of the statement containing code token `ci`: walk back to
/// the nearest `;`/`}`, or to a `{` that *opens a block* — a `{` with
/// an expression still in flight before it (struct literal, `if`/
/// `while`/`match` header, fn signature) is transparent, so a comment
/// above `let hs = HistSnapshot {` or above an `if` header covers the
/// atomics on the lines inside.
fn statement_first_line(file: &SourceFile, code: &[usize], ci: usize) -> u32 {
    let toks = &file.lexed.toks;
    let txt = |c: usize| file.tok_text(&toks[code[c]]);
    let mut k = ci;
    while k > 0 {
        match txt(k - 1) {
            ";" | "}" => break,
            "{" => {
                let opens_block = k < 2
                    || matches!(txt(k - 2), ";" | "{" | "}" | "=>" | "|" | "||")
                    || matches!(txt(k - 2), "else" | "loop" | "unsafe" | "move" | "try");
                if opens_block {
                    break;
                }
                k -= 1; // mid-statement `{`: keep walking
            }
            _ => k -= 1,
        }
    }
    file.lexed.line_col(toks[code[k]].start).0
}

/// Is the atomic site at code index `ci` covered by an `// ORDERING:`
/// comment? Accepted placements: a line comment on the same source
/// line, or a contiguous `//` block immediately above the statement (or
/// above the site's own line, for multi-line expressions like a stats
/// struct literal) — where "immediately above" may skip over earlier
/// statements that are themselves atomic sites, so one comment covers a
/// cluster of consecutive atomic statements (a seqlock write sequence,
/// a stats snapshot) without nine copies of itself.
fn has_ordering_justification(
    file: &SourceFile,
    code: &[usize],
    ci: usize,
    site_by_line: &std::collections::BTreeMap<u32, usize>,
) -> bool {
    let toks = &file.lexed.toks;
    let (site_line, _) = file.lexed.line_col(toks[code[ci]].start);
    // Trailing (or leading) comment on the atomic's own line.
    for t in &file.lexed.toks {
        if t.kind == TokKind::LineComment
            && file.lexed.line_col(t.start).0 == site_line
            && file.tok_text(t).contains("ORDERING:")
        {
            return true;
        }
    }
    // Upward search from both anchors: the statement's first line (a
    // comment above `let hs = HistSnapshot {` covers the loads inside)
    // and the site's own line (right when the "statement" is one big
    // tail expression whose first line is far above, e.g. a stats
    // struct literal returned from a fn).
    let mut work = vec![statement_first_line(file, code, ci), site_line];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(l) = work.pop() {
        if l <= 1 || !seen.insert(l) {
            continue;
        }
        let above = l - 1;
        let line_start = file.lexed.line_start(above);
        let text = file.lexed.line_text(&file.text, line_start);
        let trimmed = text.trim_start();
        if trimmed.starts_with("//") {
            // Scan the contiguous comment block upward for the tag.
            let mut c = above;
            loop {
                let s = file.lexed.line_start(c);
                let t = file.lexed.line_text(&file.text, s);
                let tr = t.trim_start();
                if !tr.starts_with("//") {
                    break;
                }
                if tr.contains("ORDERING:") {
                    return true;
                }
                if c == 1 {
                    break;
                }
                c -= 1;
            }
            continue;
        }
        // Pure-closer lines (`}`, `});`) between atomic statements do
        // not break the cluster.
        if !trimmed.is_empty()
            && trimmed
                .chars()
                .all(|c| matches!(c, '}' | ')' | ']' | ';' | ',') || c.is_whitespace())
        {
            work.push(above);
            continue;
        }
        // A preceding atomic statement keeps the cluster alive: keep
        // walking up — from its own line and from its statement's
        // first line (it may itself sit mid-expression).
        if let Some(&k) = site_by_line.get(&above) {
            work.push(above);
            let stmt = statement_first_line(file, code, k);
            if stmt < l {
                work.push(stmt);
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Rule 7: no-relaxed-publish
// ---------------------------------------------------------------------

/// `Ordering::Relaxed` on a store/RMW to a *publish word* — a
/// sequence/epoch counter whose value tells readers that other data is
/// ready — is the classic lock-free bug: the data writes can reorder
/// past the publication and readers observe torn state. Seqlock
/// sequence words and snapshot epochs must publish with `Release` (or
/// sit behind an explicit fence, in which case the site carries a
/// justified `[[allow]]`).
pub struct NoRelaxedPublish;

/// Receiver-ident fragments that mark a publish word. Matched
/// case-insensitively against the field/static being written.
const PUBLISH_IDENTS: &[&str] = &["seq", "sequence", "epoch"];

const ATOMIC_WRITE_METHODS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

impl LintRule for NoRelaxedPublish {
    fn name(&self) -> &'static str {
        "no-relaxed-publish"
    }

    fn summary(&self) -> &'static str {
        "seqlock/epoch publish words are never written with Ordering::Relaxed"
    }

    fn default_include(&self) -> &'static [&'static str] {
        &["crates/obs/src/", "crates/serve/src/", "crates/ml/src/"]
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let code = code_indices(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[code[ci]]);
        for k in 2..code.len().saturating_sub(1) {
            let t = &toks[code[k]];
            if t.kind != TokKind::Ident
                || !ATOMIC_WRITE_METHODS.contains(&txt(k))
                || txt(k - 1) != "."
                || txt(k + 1) != "("
                || file.in_test_code(t.start)
            {
                continue;
            }
            let recv = txt(k - 2);
            let recv_lower = recv.to_ascii_lowercase();
            if toks[code[k - 2]].kind != TokKind::Ident
                || !PUBLISH_IDENTS.iter().any(|p| recv_lower.contains(p))
            {
                continue;
            }
            // Scan the balanced argument list for Ordering::Relaxed.
            let mut depth = 1usize;
            let mut m = k + 2;
            while m < code.len() && depth > 0 {
                match txt(m) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "Ordering"
                        if m + 2 < code.len()
                            && txt(m + 1) == "::"
                            && txt(m + 2) == "Relaxed" =>
                    {
                        out.push(finding(
                            self.name(),
                            file,
                            t.start,
                            format!(
                                "`{recv}.{}` with Ordering::Relaxed: `{recv}` looks like a \
                                 publish word (seq/epoch); readers may observe data writes \
                                 reordered past it — use Release (or justify the fence \
                                 protocol in an [[allow]])",
                                txt(k)
                            ),
                        ));
                        break;
                    }
                    _ => {}
                }
                m += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 8: no-lock-across-blocking
// ---------------------------------------------------------------------

/// A `Mutex`/`RwLock` guard that stays live across a blocking call
/// (socket I/O, channel recv, condvar timeouts, thread joins) turns a
/// slow peer into a lock-convoy: every other thread needing that lock
/// waits on the network. The PR 8 daemon's threads-per-connection
/// design makes this the single easiest deadlock/latency wedge to
/// grow, so the rule walks each guard's binding scope (via the
/// [`Syntax`] block tree) and flags blocking calls before the guard
/// dies — unless the guard is handed *to* the call (condvar wait) or
/// explicitly `drop()`ed first. Closure bodies in between are skipped:
/// they run later, not under the guard.
pub struct NoLockAcrossBlocking;

const BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "connect",
    "accept",
    "join",
    "sleep",
];

impl LintRule for NoLockAcrossBlocking {
    fn name(&self) -> &'static str {
        "no-lock-across-blocking"
    }

    fn summary(&self) -> &'static str {
        "Mutex/RwLock guards must not stay live across blocking calls in the same block"
    }

    fn default_include(&self) -> &'static [&'static str] {
        &["crates/obs/src/", "crates/serve/src/"]
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let syn = Syntax::parse(file);
        let toks = &file.lexed.toks;
        let txt = |ci: usize| file.tok_text(&toks[syn.code[ci]]);
        let kind = |ci: usize| toks[syn.code[ci]].kind;
        for lb in &syn.lets {
            let bind_off = toks[syn.code[lb.name_ci]].start;
            if file.in_test_code(bind_off) {
                continue;
            }
            let Some(semi) = lb.semi else { continue };
            if !init_is_guard_acquisition(&syn, file, lb.init_start, semi) {
                continue;
            }
            let (bind_line, _) = file.lexed.line_col(bind_off);
            let block_end = syn.blocks[lb.block].close.unwrap_or(syn.code.len());
            let mut k = semi + 1;
            while k < block_end {
                // Closure bodies execute later, not under the guard.
                if let Some(cb) = syn.closure_block_at(k) {
                    match syn.blocks[cb].close {
                        Some(c) => {
                            k = c + 1;
                            continue;
                        }
                        None => break,
                    }
                }
                // Token-level closure starts (`|x| expr`, `move || f()`)
                // that the block tree can't see (braceless bodies).
                if let Some(next) = skip_closure_expr(&syn, file, k) {
                    k = next;
                    continue;
                }
                let t = txt(k);
                // `drop(guard)` ends the live range — but only at the
                // binding's own nesting level: a drop inside one match
                // arm or `if` branch says nothing about the fallthrough
                // path that reaches the code below it.
                if kind(k) == TokKind::Ident
                    && t == "drop"
                    && k + 3 < syn.code.len()
                    && txt(k + 1) == "("
                    && txt(k + 2) == lb.name
                    && txt(k + 3) == ")"
                    && syn.block_of[k] == lb.block
                {
                    break;
                }
                if kind(k) == TokKind::Ident
                    && BLOCKING_CALLS.contains(&t)
                    && k > 0
                    && matches!(txt(k - 1), "." | "::")
                    && k + 1 < syn.code.len()
                    && txt(k + 1) == "("
                {
                    let close = syn
                        .matching_close(file, k + 1)
                        .unwrap_or(syn.code.len().saturating_sub(1));
                    // Guard handed to the call (condvar wait) releases it.
                    let consumed = (k + 2..close)
                        .any(|a| kind(a) == TokKind::Ident && txt(a) == lb.name);
                    if consumed {
                        k = close + 1;
                        continue;
                    }
                    out.push(finding(
                        self.name(),
                        file,
                        toks[syn.code[k]].start,
                        format!(
                            "guard `{}` (locked at line {bind_line}) is still live across \
                             blocking `{t}()`; drop it or scope it before blocking",
                            lb.name
                        ),
                    ));
                    break; // one finding per guard binding is enough
                }
                k += 1;
            }
        }
    }
}

/// Does `init_start..semi` bind a lock guard? True when the
/// initializer is a lock acquisition — `.lock()`, `.read()`, `.write()`
/// with empty args, or a free `lock(..)`/`lock_*(..)` helper —
/// optionally chained through `.unwrap()`/`.expect(..)`/
/// `.unwrap_or_else(..)`, and nothing else: `lock(&m).get(..)` is a
/// temporary that dies at the `;`, not a live guard.
fn init_is_guard_acquisition(
    syn: &Syntax,
    file: &SourceFile,
    init_start: usize,
    semi: usize,
) -> bool {
    let toks = &file.lexed.toks;
    let txt = |ci: usize| file.tok_text(&toks[syn.code[ci]]);
    let kind = |ci: usize| toks[syn.code[ci]].kind;
    for k in init_start..semi {
        if kind(k) != TokKind::Ident || k + 1 >= syn.code.len() || txt(k + 1) != "(" {
            continue;
        }
        let name = txt(k);
        let prev = if k > init_start { txt(k - 1) } else { "" };
        let is_method = prev == "."
            && matches!(name, "lock" | "read" | "write")
            && k + 2 < syn.code.len()
            && txt(k + 2) == ")";
        let is_free = prev != "." && (name == "lock" || name.starts_with("lock_"));
        if !is_method && !is_free {
            continue;
        }
        let Some(close) = syn.matching_close(file, k + 1) else { return false };
        let mut m = close + 1;
        while m + 2 < syn.code.len()
            && txt(m) == "."
            && matches!(txt(m + 1), "unwrap" | "expect" | "unwrap_or_else")
            && txt(m + 2) == "("
        {
            match syn.matching_close(file, m + 2) {
                Some(c) => m = c + 1,
                None => return false,
            }
        }
        return m == semi;
    }
    false
}

/// If code index `k` starts a closure expression (`|..| ..` or
/// `move |..| ..` — `k` at the opening `|`/`||`), return the code index
/// just past its body so guard scans skip the deferred code. Braced
/// bodies skip to the matching `}`; braceless bodies skip to the next
/// `,`/`;`/`)` at depth 0.
fn skip_closure_expr(syn: &Syntax, file: &SourceFile, k: usize) -> Option<usize> {
    let toks = &file.lexed.toks;
    let txt = |ci: usize| file.tok_text(&toks[syn.code[ci]]);
    let params_close = match txt(k) {
        "||" => k,
        "|" => {
            // Only in closure-head position: after `(`/`,`/`=`/`=>`/
            // `;`/`{`/`move`/`return` — a `|` after an operand is
            // bitwise-or.
            let prev = if k > 0 { txt(k - 1) } else { "" };
            if !matches!(prev, "(" | "," | "=" | "=>" | ";" | "{" | "move" | "return") {
                return None;
            }
            let mut m = k + 1;
            loop {
                if m >= syn.code.len() {
                    return None;
                }
                if txt(m) == "|" {
                    break m;
                }
                // Param lists hold patterns/types, never blocks.
                if matches!(txt(m), "{" | "}" | ";") {
                    return None;
                }
                m += 1;
            }
        }
        _ => return None,
    };
    let mut b = params_close + 1;
    // Optional `-> Type` before a braced body.
    if b < syn.code.len() && txt(b) == "->" {
        while b < syn.code.len() && txt(b) != "{" {
            if matches!(txt(b), ";" | ")") {
                return None;
            }
            b += 1;
        }
    }
    if b < syn.code.len() && txt(b) == "{" {
        return syn.matching_close(file, b).map(|c| c + 1);
    }
    // Braceless body: runs to the next `,`/`;`/`)` at depth 0.
    let mut depth = 0usize;
    let mut m = b;
    while m < syn.code.len() {
        match txt(m) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return Some(m),
            ")" | "]" | "}" => depth -= 1,
            "," | ";" if depth == 0 => return Some(m),
            _ => {}
        }
        m += 1;
    }
    Some(m)
}
