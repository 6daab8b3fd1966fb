//! Workspace automation for the CRAID simulator.
//!
//! The only subcommand today is `lint`, the workspace determinism lint:
//!
//! ```text
//! cargo xtask lint
//! ```
//!
//! The simulator's reproducibility contract is that identical inputs produce
//! identical outputs, bit for bit. Three classes of std APIs silently break
//! that contract, so the lint greps non-test source for them:
//!
//! * `std-hash` — `HashMap`/`HashSet` (iteration order varies per process
//!   unless the hasher is seeded deterministically),
//! * `wall-clock` — `std::time::*` / `SystemTime` / `Instant::now` (simulated
//!   time must come from the simulation clock, never the host clock),
//! * `ambient-randomness` — `thread_rng`, `from_entropy`, `RandomState`,
//!   `getrandom`, `/dev/urandom` (all randomness must flow through the
//!   seeded `rand` shim).
//!
//! A fourth rule, `wildcard-match`, guards the analyzer's exhaustiveness
//! rather than determinism: a `_ =>` arm in a `match` that also names
//! `ScheduledEvent::` variants or diagnostic-code `codes::` constants
//! would let a newly added event variant or code silently bypass the
//! rule that match implements, so such matches must stay exhaustive.
//!
//! A fifth rule, `float-eq`, flags `==`/`!=` comparisons against a float
//! literal in non-test source: floating-point equality is never a sound
//! determinism pin (one rounding change flips it silently), so exact
//! comparisons must go through `f64::to_bits`. The scan is lexical — it
//! recognises literal operands (`x == 0.0`, `1.5 != y`), not inferred
//! float types, which covers the pins the rule exists to stop.
//!
//! A sixth rule, `dead-pub`, keeps the workspace free of code nothing
//! calls: it flags a `pub fn` or `pub const fn` defined outside
//! `#[cfg(test)]` code under `crates/` (shims exempt) whose name appears as
//! an identifier in no `.rs` file under `crates/`, `tests/`, `examples/` or
//! `replaybench/`, apart from its own definition and its own file's
//! `#[cfg(test)]` code. Comments and string literals are not uses. A method
//! whose name another item shares escapes the rule; it only catches names
//! no caller spells.
//!
//! Pre-existing uses are grandfathered in `crates/xtask/lint.allow`, one
//! `<path> <rule>` pair per line. The lint fails on any *new* violation and
//! on any *stale* allowlist entry, so the allowlist can only shrink.
//!
//! `#[cfg(test)]` modules are exempt (tests may use wall-clock timeouts and
//! unordered sets freely), as are the root `tests/` directory, generated
//! `target/` trees, and this crate itself (its source spells out the very
//! patterns it greps for). The root `tests/` directory and `replaybench/`
//! are read only as callers for `dead-pub`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A determinism rule: a short stable name plus the substrings that flag it.
struct LintRule {
    name: &'static str,
    patterns: &'static [&'static str],
}

const RULES: &[LintRule] = &[
    LintRule {
        name: "std-hash",
        patterns: &["HashMap", "HashSet"],
    },
    LintRule {
        name: "wall-clock",
        patterns: &["std::time::", "SystemTime", "Instant::now"],
    },
    LintRule {
        name: "ambient-randomness",
        patterns: &[
            "thread_rng",
            "from_entropy",
            "RandomState",
            "getrandom",
            "/dev/urandom",
        ],
    },
];

/// One flagged `(file, rule)` pair, with a sample line for the report.
struct Violation {
    path: String,
    rule: &'static str,
    line: usize,
    excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

mod mutate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("mutate") => mutate::run(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown subcommand '{other}'");
            eprintln!("usage: cargo xtask <lint|mutate>");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint|mutate>");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let allow_path = root.join("crates/xtask/lint.allow");
    let allowlist = match load_allowlist(&allow_path) {
        Ok(list) => list,
        Err(err) => {
            eprintln!("xtask lint: cannot read {}: {err}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };

    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests", "replaybench"] {
        collect_rust_files(&root.join(dir), &root, &mut files);
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(source) => sources.push((rel, source)),
            Err(err) => {
                eprintln!("xtask lint: cannot read {rel}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut violations = Vec::new();
    let mut scanned = 0;
    for (rel, source) in &sources {
        if !(rel.starts_with("crates/") || rel.starts_with("examples/")) {
            continue;
        }
        scanned += 1;
        scan_file(rel, source, &mut violations);
        let lines = effective_lines(source);
        scan_wildcard_arms(rel, &lines, &mut violations);
        scan_float_eq(rel, &lines, &mut violations);
    }
    scan_dead_pub(&sources, &mut violations);

    let mut fresh: Vec<&Violation> = Vec::new();
    let mut used = vec![false; allowlist.len()];
    for v in &violations {
        match allowlist
            .iter()
            .position(|entry| entry.path == v.path && entry.rule == v.rule)
        {
            Some(i) => used[i] = true,
            None => fresh.push(v),
        }
    }
    let stale: Vec<&AllowEntry> = allowlist
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e)
        .collect();

    if !fresh.is_empty() {
        eprintln!("xtask lint: new determinism violations:");
        for v in &fresh {
            eprintln!("  {v}");
        }
        eprintln!(
            "\nSimulated code must use BTreeMap/BTreeSet, SimTime, and the seeded \
             rand shim; matches over ScheduledEvent variants or diagnostic codes \
             must stay exhaustive; exact float pins must compare via to_bits; a \
             pub fn nothing calls must be deleted. If a use is genuinely \
             deterministic (order never observed, shim-internal, a zero-guard \
             rather than a pin), add '<path> <rule>' to crates/xtask/lint.allow \
             with a justifying comment."
        );
    }
    if !stale.is_empty() {
        eprintln!("xtask lint: stale allowlist entries (no matching violation; remove them):");
        for e in &stale {
            eprintln!("  {} {}", e.path, e.rule);
        }
    }

    if fresh.is_empty() && stale.is_empty() {
        println!(
            "xtask lint: {scanned} files scanned, {} grandfathered use(s), no new violations",
            violations.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repo root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Recursively collect `.rs` files under `dir` as root-relative slash paths,
/// skipping `target/` trees and this crate's own source.
fn collect_rust_files(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            if path == root.join("crates/xtask") {
                continue;
            }
            collect_rust_files(&path, root, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("collected file lives under the workspace root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

/// Scan one file, recording at most one violation per `(file, rule)` pair.
fn scan_file(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let lines = effective_lines(source);
    for rule in RULES {
        let hit = lines.iter().find_map(|(lineno, text)| {
            rule.patterns
                .iter()
                .any(|p| text.contains(p))
                .then_some((*lineno, text.clone()))
        });
        if let Some((line, excerpt)) = hit {
            out.push(Violation {
                path: rel.to_string(),
                rule: rule.name,
                line,
                excerpt,
            });
        }
    }
}

/// Flags `_ =>` arms inside `match` blocks that also name `ScheduledEvent::`
/// variants or diagnostic-code `codes::` constants in their arm patterns.
/// Such matches implement analyzer rules; a wildcard arm would swallow any
/// newly added variant instead of forcing the rule to take a position.
/// Records at most one violation per file.
fn scan_wildcard_arms(rel: &str, lines: &[(usize, String)], out: &mut Vec<Violation>) {
    /// One open `match` block: the brace depth outside it, whether any arm
    /// pattern names a guarded enum, and the first wildcard arm seen.
    struct MatchCtx {
        outer_depth: usize,
        sensitive: bool,
        wildcard: Option<(usize, String)>,
    }

    let mut depth = 0usize;
    let mut stack: Vec<MatchCtx> = Vec::new();
    let mut hit: Option<(usize, String)> = None;
    for (lineno, text) in lines {
        let trimmed = text.trim();
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();

        if let Some(ctx) = stack.last_mut() {
            // An arm line: everything before `=>` is (the tail of) its
            // pattern — under rustfmt a multi-line pattern keeps its last
            // alternative on the `=>` line, so this sees every arm. Text
            // *after* `=>` is arm body and deliberately ignored (naming a
            // code while constructing a diagnostic is not matching on one).
            if let Some(pos) = text.find("=>") {
                let pattern = &text[..pos];
                if pattern.contains("ScheduledEvent::") || pattern.contains("codes::") {
                    ctx.sensitive = true;
                }
                let pattern = pattern.trim();
                if pattern == "_" || pattern.starts_with("_ if ") {
                    ctx.wildcard.get_or_insert((*lineno, text.clone()));
                }
            }
        }
        if (trimmed.starts_with("match ") || trimmed.contains(" match ")) && opens > closes {
            stack.push(MatchCtx {
                outer_depth: depth,
                sensitive: false,
                wildcard: None,
            });
        }
        depth = (depth + opens).saturating_sub(closes);
        while let Some(ctx) = stack.last() {
            if depth > ctx.outer_depth {
                break;
            }
            let ctx = stack.pop().expect("peeked entry");
            if ctx.sensitive {
                if let Some((line, excerpt)) = ctx.wildcard {
                    hit.get_or_insert((line, excerpt));
                }
            }
        }
    }
    if let Some((line, excerpt)) = hit {
        out.push(Violation {
            path: rel.to_string(),
            rule: "wildcard-match",
            line,
            excerpt,
        });
    }
}

/// Flags `==`/`!=` comparisons whose immediate operand is a float literal.
/// Exact-equality pins on floats silently flip under any rounding change;
/// determinism pins must compare `f64::to_bits` instead. Lexical by design:
/// it sees literal operands, not inferred types. Records at most one
/// violation per file.
fn scan_float_eq(rel: &str, lines: &[(usize, String)], out: &mut Vec<Violation>) {
    for (lineno, text) in lines {
        if line_has_float_eq(text) {
            out.push(Violation {
                path: rel.to_string(),
                rule: "float-eq",
                line: *lineno,
                excerpt: text.clone(),
            });
            return;
        }
    }
}

/// True when `text` contains an `==` or `!=` whose left or right operand
/// token is a float literal. String literals are skipped; `==` preceded by
/// another operator char (`<=`, `>=`, `+=`, ...) is not a comparison.
fn line_has_float_eq(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i + 1 < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => {
                i += 2;
                continue;
            }
            b'"' => in_str = !in_str,
            b'=' | b'!' if !in_str && bytes[i + 1] == b'=' => {
                let is_comparison = bytes[i] == b'!'
                    || i == 0
                    || !matches!(
                        bytes[i - 1],
                        b'<' | b'>'
                            | b'!'
                            | b'='
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    );
                if is_comparison
                    && (is_float_literal(operand_before(text, i))
                        || is_float_literal(operand_after(text, i + 2)))
                {
                    return true;
                }
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// The operand token ending just before byte `idx`: trailing spaces skipped,
/// then the longest run of identifier/number chars (`[A-Za-z0-9_.]`).
fn operand_before(text: &str, idx: usize) -> &str {
    let bytes = text.as_bytes();
    let mut end = idx;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0
        && (bytes[start - 1].is_ascii_alphanumeric() || matches!(bytes[start - 1], b'_' | b'.'))
    {
        start -= 1;
    }
    &text[start..end]
}

/// The operand token starting at or after byte `idx`: leading spaces and an
/// optional unary minus skipped, then the longest identifier/number run.
fn operand_after(text: &str, idx: usize) -> &str {
    let bytes = text.as_bytes();
    let mut start = idx;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    if start < bytes.len() && bytes[start] == b'-' {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len()
        && (bytes[end].is_ascii_alphanumeric() || matches!(bytes[end], b'_' | b'.'))
    {
        end += 1;
    }
    &text[start..end]
}

/// True for tokens that lex as float literals: they start with a digit (so
/// `a.0` tuple access never qualifies) and carry a `.`, a decimal exponent,
/// or an `f32`/`f64` suffix. Hex/octal/binary literals are exempt.
fn is_float_literal(token: &str) -> bool {
    let token = token.trim_start_matches('-');
    let mut chars = token.chars();
    if !chars.next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    if token.starts_with("0x") || token.starts_with("0b") || token.starts_with("0o") {
        return false;
    }
    let digits = token.trim_end_matches("f64").trim_end_matches("f32");
    digits.contains('.')
        || digits.bytes().zip(digits.bytes().skip(1)).any(|(a, b)| {
            matches!(a, b'e' | b'E') && (b.is_ascii_digit() || b == b'-' || b == b'+')
        })
        || digits.len() < token.len()
}

/// Flags every `pub fn` / `pub const fn` defined in non-test code under
/// `crates/` (shims exempt) whose name no other identifier spells: none in
/// another file, and none in its own file outside `#[cfg(test)]` code.
/// `sources` holds every caller-bearing file as `(root-relative path,
/// text)`. Records one violation per uncalled function.
fn scan_dead_pub(sources: &[(String, String)], out: &mut Vec<Violation>) {
    let lives: Vec<Vec<(usize, String)>> =
        sources.iter().map(|(_, s)| effective_lines(s)).collect();
    let all: Vec<BTreeMap<&str, usize>> = sources
        .iter()
        .map(|(_, s)| ident_counts(s.lines().map(strip_line_comment)))
        .collect();
    let mut total: BTreeMap<&str, usize> = BTreeMap::new();
    for (ident, n) in all.iter().flatten() {
        *total.entry(ident).or_default() += n;
    }

    for (f, (path, _)) in sources.iter().enumerate() {
        if !path.starts_with("crates/") || path.starts_with("crates/shims/") {
            continue;
        }
        let live = ident_counts(lives[f].iter().map(|(_, code)| code.as_str()));
        for (lineno, code) in &lives[f] {
            let idents = line_idents(code);
            let after_pub = idents
                .iter()
                .position(|&t| t == "pub")
                .map(|i| &idents[i + 1..]);
            let name = match after_pub {
                Some(["fn", name, ..] | ["const", "fn", name, ..]) => *name,
                _ => continue,
            };
            // Uses: every mention in other files, plus the live mentions in
            // this one other than the definition itself.
            if total[name] - all[f][name] == 0 && live[name] == 1 {
                out.push(Violation {
                    path: path.clone(),
                    rule: "dead-pub",
                    line: *lineno,
                    excerpt: code.clone(),
                });
            }
        }
    }
}

/// How often each identifier occurs across `lines`.
fn ident_counts<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for ident in lines.flat_map(line_idents) {
        *counts.entry(ident).or_default() += 1;
    }
    counts
}

/// The identifiers (and keywords) of one comment-stripped line, skipping
/// string literals. A char literal or lifetime yields its letters, which
/// can only make a name look used, never unused.
fn line_idents(code: &str) -> Vec<&str> {
    let bytes = code.as_bytes();
    let mut idents = Vec::new();
    // The current identifier as `start..end`; it ends at any byte that is
    // not an identifier byte or sits inside a string literal.
    let mut run: Option<(usize, usize)> = None;
    let mut flush = |run: Option<(usize, usize)>| {
        if let Some((start, end)) = run {
            if !bytes[start].is_ascii_digit() {
                idents.push(&code[start..end]);
            }
        }
    };
    for i in mutate::code_positions(code) {
        let ident_byte = bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_';
        match run {
            Some((start, end)) if ident_byte && end == i => run = Some((start, i + 1)),
            _ => {
                flush(run.take());
                run = ident_byte.then_some((i, i + 1));
            }
        }
    }
    flush(run);
    idents
}

/// The lines of `source` that the lint actually inspects: comments stripped,
/// `#[cfg(test)]` items (modules or functions) skipped by brace matching.
fn effective_lines(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut skip_depth: Option<usize> = None; // brace depth at which the skip ends
    let mut pending_cfg_test = false;
    let mut depth: usize = 0;

    for (idx, raw) in source.lines().enumerate() {
        let code = strip_line_comment(raw);
        let trimmed = code.trim();
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();

        if skip_depth.is_none() && (pending_cfg_test || trimmed.contains("#[cfg(test)]")) {
            if trimmed.contains("#[cfg(test)]") || !trimmed.starts_with("#[") {
                // Either the gating attribute itself or the item it gates;
                // intervening attributes (`#[allow(...)]`) keep the skip
                // pending without consuming it.
                if opens > closes {
                    skip_depth = Some(depth);
                    pending_cfg_test = false;
                } else {
                    // Item not opened yet (bare attribute line or a
                    // brace-less item like `mod tests;`).
                    pending_cfg_test = trimmed.ends_with(']') || trimmed.is_empty();
                }
            }
            depth = (depth + opens).saturating_sub(closes);
            continue;
        }

        let in_skip = skip_depth.is_some();
        depth = (depth + opens).saturating_sub(closes);
        if let Some(end) = skip_depth {
            if depth <= end {
                skip_depth = None;
            }
            continue;
        }
        if !in_skip && !trimmed.is_empty() {
            out.push((idx + 1, code.to_string()));
        }
    }
    out
}

/// Truncate a line at `//`, ignoring occurrences inside string literals.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped byte
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// One grandfathered `(path, rule)` pair from `lint.allow`.
struct AllowEntry {
    path: String,
    rule: String,
}

/// Parse `lint.allow`: `<path> <rule>` per line, `#` comments, blanks ignored.
fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, std::io::Error> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(p), Some(r), None) => entries.push(AllowEntry {
                path: p.to_string(),
                rule: r.to_string(),
            }),
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed allowlist line: '{raw}'"),
                ));
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wildcard_hits(source: &str) -> Vec<usize> {
        let mut out = Vec::new();
        scan_wildcard_arms("test.rs", &effective_lines(source), &mut out);
        out.iter()
            .filter(|v| v.rule == "wildcard-match")
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn wildcard_arm_on_scheduled_event_is_flagged() {
        let source = "fn f(e: &ScheduledEvent) -> u32 {\n\
                      \x20   match e {\n\
                      \x20       ScheduledEvent::Expand { .. } => 1,\n\
                      \x20       _ => 0,\n\
                      \x20   }\n\
                      }\n";
        assert_eq!(wildcard_hits(source), vec![4]);
    }

    #[test]
    fn wildcard_arm_on_diagnostic_codes_is_flagged() {
        let source = "fn f(code: &str) -> bool {\n\
                      \x20   match code {\n\
                      \x20       codes::EXPAND_BREAKS_PARITY => true,\n\
                      \x20       _ if code.is_empty() => false,\n\
                      \x20   }\n\
                      }\n";
        assert_eq!(wildcard_hits(source), vec![4]);
    }

    #[test]
    fn unrelated_wildcards_and_exhaustive_matches_pass() {
        // A wildcard over a non-guarded enum is fine; so is an exhaustive
        // ScheduledEvent match; so is a code named only in an arm *body*.
        let source = "fn f(e: &ScheduledEvent, n: u32) -> u32 {\n\
                      \x20   match n {\n\
                      \x20       0 => 1,\n\
                      \x20       _ => 0,\n\
                      \x20   };\n\
                      \x20   match e {\n\
                      \x20       ScheduledEvent::Expand { .. } => 1,\n\
                      \x20       ScheduledEvent::DiskFailure { .. } => 2,\n\
                      \x20   };\n\
                      \x20   match n {\n\
                      \x20       1 => codes::EXPAND_BREAKS_PARITY.len() as u32,\n\
                      \x20       _ => 0,\n\
                      \x20   }\n\
                      }\n";
        assert_eq!(wildcard_hits(source), Vec::<usize>::new());
    }

    fn float_eq_hits(source: &str) -> Vec<usize> {
        let mut out = Vec::new();
        scan_float_eq("test.rs", &effective_lines(source), &mut out);
        out.iter()
            .filter(|v| v.rule == "float-eq")
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn float_literal_comparisons_are_flagged() {
        assert_eq!(
            float_eq_hits("fn f(x: f64) -> bool {\n    x == 0.0\n}\n"),
            vec![2]
        );
        assert_eq!(
            float_eq_hits("fn f(y: f64) -> bool {\n    1.5 != y\n}\n"),
            vec![2]
        );
        assert_eq!(
            float_eq_hits("fn f(x: f64) -> bool {\n    x == -2.25\n}\n"),
            vec![2]
        );
        assert_eq!(
            float_eq_hits("fn f(x: f64) -> bool {\n    x == 1e9\n}\n"),
            vec![2]
        );
        assert_eq!(
            float_eq_hits("fn f(x: f32) -> bool {\n    x != 1f32\n}\n"),
            vec![2]
        );
        // One violation per file: only the first line is reported.
        assert_eq!(
            float_eq_hits("fn f(x: f64) -> bool {\n    x == 0.0 || x == 1.0\n}\nfn g(x: f64) -> bool {\n    x == 2.0\n}\n"),
            vec![2]
        );
    }

    #[test]
    fn non_float_comparisons_pass() {
        // Integers, tuple-field access, to_bits pins, compound assignment,
        // floats inside strings: none of these are float-equality pins.
        let source = "fn f(n: u64, a: (f64,), b: (f64,), x: f64, mut acc: f64) -> bool {\n\
                      \x20   let hex = n == 0x10;\n\
                      \x20   let tup = a.0.to_bits() == b.0.to_bits();\n\
                      \x20   acc += 1.0;\n\
                      \x20   let s = \"x == 0.0\";\n\
                      \x20   n == 0 && hex && tup && !s.is_empty() && n <= 1\n\
                      }\n";
        assert_eq!(float_eq_hits(source), Vec::<usize>::new());
    }

    #[test]
    fn cfg_test_float_comparisons_are_exempt() {
        let source = "#[cfg(test)]\n\
                      mod tests {\n\
                      \x20   fn f(x: f64) -> bool {\n\
                      \x20       x == 0.5\n\
                      \x20   }\n\
                      }\n";
        assert_eq!(float_eq_hits(source), Vec::<usize>::new());
    }

    fn dead_pub_hits(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let mut out = Vec::new();
        scan_dead_pub(&sources, &mut out);
        out.iter().map(|v| (v.path.clone(), v.line)).collect()
    }

    #[test]
    fn uncalled_pub_fn_is_flagged() {
        // Called only from its own tests, named in a comment, a doc comment
        // and a string: none of these is a use.
        let lib = "/// `orphan` is documented here.\n\
                   pub const fn orphan() -> u32 {\n\
                   \x20   7\n\
                   }\n\
                   pub fn used() -> u32 {\n\
                   \x20   let _ = \"orphan\"; // orphan\n\
                   \x20   1\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() {\n\
                   \x20       assert_eq!(super::orphan(), 7);\n\
                   \x20   }\n\
                   }\n";
        let caller = "fn main() {\n    let _ = craid::used();\n}\n";
        assert_eq!(
            dead_pub_hits(&[("crates/a/src/lib.rs", lib), ("examples/x.rs", caller)]),
            vec![("crates/a/src/lib.rs".to_string(), 2)]
        );
    }

    #[test]
    fn pub_fn_called_from_another_files_tests_passes() {
        let lib = "pub fn helper(n: u64) -> u64 {\n    n + 1\n}\n";
        let other = "#[cfg(test)]\n\
                     mod tests {\n\
                     \x20   #[test]\n\
                     \x20   fn t() {\n\
                     \x20       assert_eq!(crate::a::helper(1), 2);\n\
                     \x20   }\n\
                     }\n";
        assert_eq!(
            dead_pub_hits(&[("crates/a/src/a.rs", lib), ("crates/a/src/b.rs", other)]),
            Vec::<(String, usize)>::new()
        );
    }

    #[test]
    fn dead_pub_needs_a_whole_identifier_use() {
        // `count_all` and `count` share a prefix with `count_ios`, not a name.
        let lib = "pub fn count_ios() -> u64 {\n    0\n}\n";
        let caller = "fn main() {\n    let _ = count_all() + count();\n}\n";
        assert_eq!(
            dead_pub_hits(&[("crates/a/src/lib.rs", lib), ("tests/it.rs", caller)]),
            vec![("crates/a/src/lib.rs".to_string(), 1)]
        );
    }

    #[test]
    fn dead_pub_reads_callers_in_tests_examples_and_replaybench() {
        let lib = "pub fn a() {}\npub fn b() {}\npub fn c() {}\npub fn d() {\n    a();\n}\n";
        let hits = dead_pub_hits(&[
            ("crates/a/src/lib.rs", lib),
            ("tests/it.rs", "fn t() {\n    b();\n}\n"),
            ("examples/x.rs", "pub fn unchecked() {\n    c();\n}\n"),
            ("replaybench/src/main.rs", "fn main() {\n    d();\n}\n"),
        ]);
        // `a` has a live caller in its own file; only `crates/` is checked.
        assert_eq!(hits, Vec::<(String, usize)>::new());
    }

    #[test]
    fn dead_pub_skips_shims_test_code_and_narrower_visibility() {
        let test_only = "#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n";
        let hits = dead_pub_hits(&[
            ("crates/shims/s/src/lib.rs", "pub fn shim_only() {}\n"),
            ("crates/a/src/lib.rs", test_only),
            ("crates/a/src/b.rs", "pub(crate) fn internal() {}\n"),
        ]);
        assert_eq!(hits, Vec::<(String, usize)>::new());
    }

    #[test]
    fn line_idents_skip_strings_and_numbers() {
        assert_eq!(
            line_idents("let x1 = f(\"g h\", 42, y_2.0);"),
            vec!["let", "x1", "f", "y_2"]
        );
    }

    #[test]
    fn determinism_patterns_are_flagged_once_per_rule() {
        let source = "use std::collections::HashMap;\n\
                      fn f() -> HashSet<u8> {\n\
                      \x20   let _ = Instant::now(); // thread_rng\n\
                      \x20   HashSet::new()\n\
                      }\n";
        let mut out = Vec::new();
        scan_file("test.rs", source, &mut out);
        let hits: Vec<_> = out.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(hits, vec![("std-hash", 1), ("wall-clock", 3)]);
    }

    #[test]
    fn cfg_test_matches_are_exempt() {
        let source = "#[cfg(test)]\n\
                      mod tests {\n\
                      \x20   fn f(e: &ScheduledEvent) -> u32 {\n\
                      \x20       match e {\n\
                      \x20           ScheduledEvent::Expand { .. } => 1,\n\
                      \x20           _ => 0,\n\
                      \x20       }\n\
                      \x20   }\n\
                      }\n";
        assert_eq!(wildcard_hits(source), Vec::<usize>::new());
    }
}
