//! `cargo xtask mutate` — source-level mutation testing over the workspace.
//!
//! The engine enumerates small, deterministic source mutations (operator
//! swaps, condition negation, boundary-constant perturbation, early returns,
//! match-arm deletion — each family with a stable `M###` id), applies them
//! one at a time in a scratch checkout under `target/mutate/scratch`, and
//! judges each mutant against the repo's own suites in escalating tiers:
//!
//! 1. `unit` — `cargo test --release -p craid-core --lib`
//! 2. `integration` — every `[[test]]` target of `craid-repro`, in
//!    manifest order, fail-fast
//! 3. `explore` — for engine-adjacent files, the `--explore` small-scope
//!    model checker over every drill in `examples/scenarios/` plus the
//!    shipped stale-generation reproducer; a counterexample's oracle code
//!    (`E4xx`) is the killer
//!
//! A mutant that fails to build is *unviable* (it proves nothing about the
//! suites); one that exceeds the per-step timeout is *timeout-killed* (a
//! runaway loop is a detected defect). Everything else either dies to a
//! named killer or *survives*. Survivors fail the run unless justified in
//! `crates/xtask/mutants.allow`, which follows the `lint.allow` contract:
//! every entry carries a justification and stale entries fail the run, so
//! the list can only shrink. The kill matrix is written to `MUTATION.json`
//! (deterministic: no timestamps, sorted keys) and printed as a table.
//!
//! Builds reuse one incremental release target dir (`target/mutate/build`),
//! so after the first warm-up build each mutant costs roughly one
//! incremental rebuild plus the (release-profile) test time of whichever
//! tier kills it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::{effective_lines, workspace_root};

/// The mutation operators, in id order. The id is stable across releases:
/// new operators append, existing ones never renumber (mutants.allow keys
/// and burn-down tests reference them).
pub(crate) const MUTATORS: &[(&str, &str)] = &[
    ("M101", "swap binary `+` -> `-`"),
    ("M102", "swap binary `-` -> `+`"),
    ("M103", "swap comparison `<` -> `<=`"),
    ("M104", "swap comparison `<=` -> `<`"),
    ("M105", "swap comparison `>` -> `>=`"),
    ("M106", "swap comparison `>=` -> `>`"),
    ("M107", "swap logical `&&` -> `||`"),
    ("M108", "swap logical `||` -> `&&`"),
    ("M201", "negate `if` condition"),
    (
        "M301",
        "off-by-one: bump integer literal beside a comparison",
    ),
    ("M401", "early `return true` from a `-> bool` fn"),
    ("M402", "early `return false` from a `-> bool` fn"),
    ("M403", "early `return None` from a `-> Option<..>` fn"),
    ("M404", "early `return 0` from a numeric fn"),
    ("M501", "delete a single-line match arm"),
];

/// Files whose mutants graduate to the `explore` tier: the background
/// engine and everything the model checker's decision points thread
/// through. Entries ending in `/` match by prefix.
const EXPLORE_ADJACENT: &[&str] = &[
    "crates/core/src/background.rs",
    "crates/core/src/restripe.rs",
    "crates/core/src/qos.rs",
    "crates/core/src/sim.rs",
    "crates/core/src/choice.rs",
    "crates/core/src/array/",
];

/// The shipped stale-generation reproducer, which only the E404 oracle
/// can distinguish from a healthy engine. The explore tier judges it after
/// the drills.
const EXPLORE_REPRODUCER: &str = "examples/scenarios/invalid/stale_generation_collision.toml";

/// Statically-clean scenarios the explore tier judges against: every drill
/// shipped as `examples/scenarios/*.toml`, in name order (CI and
/// `tests/integration_trace.rs` scan the same set, so a new drill is judged
/// without being listed), then [`EXPLORE_REPRODUCER`]. Counterexamples the
/// explorer writes next to a drill are not drills.
fn explore_scenarios(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("examples/scenarios");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut scenarios: Vec<String> = entries
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".toml") && !name.ends_with(".counterexample.toml"))
        .map(|name| format!("examples/scenarios/{name}"))
        .collect();
    scenarios.sort();
    scenarios.push(EXPLORE_REPRODUCER.to_string());
    Ok(scenarios)
}

/// One concrete mutation site: a single-line rewrite (or deletion) of a
/// workspace file.
#[derive(Debug, Clone)]
pub(crate) struct Mutant {
    /// Mutation-operator id (`M###`).
    pub(crate) mutator: &'static str,
    /// Workspace-relative path with `/` separators.
    pub(crate) file: String,
    /// 1-based line number in the unmutated file.
    pub(crate) line: usize,
    /// 1-based byte column of the mutation site within the line.
    pub(crate) col: usize,
    /// Human description of the rewrite.
    pub(crate) description: String,
    /// Full replacement for the raw line; `None` deletes the line.
    pub(crate) mutated_line: Option<String>,
}

impl Mutant {
    /// The stable identity used in `MUTATION.json` and `mutants.allow`.
    pub(crate) fn key(&self) -> String {
        format!("{}:{}:{} {}", self.file, self.line, self.col, self.mutator)
    }
}

/// How a judged mutant fared.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// Failed to compile: proves nothing about the suites.
    Unviable,
    /// A suite or oracle caught it. `killer` names the specific test,
    /// suite, or oracle code.
    Killed { tier: &'static str, killer: String },
    /// Exceeded the per-step timeout: a runaway loop, counted as killed.
    TimedOut { tier: &'static str },
    /// Built and passed every judged tier.
    Survived,
}

struct Config {
    paths: Vec<String>,
    mutators: Option<BTreeSet<String>>,
    grep: Option<String>,
    sample: Option<usize>,
    seed: u64,
    list_only: bool,
    out: PathBuf,
    timeout: Duration,
    /// 1 = unit, 2 = integration, 3 = explore; run-steps below this tier
    /// are skipped (builds still run, for viability).
    start_tier: u8,
}

pub(crate) fn run(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let config = match parse_args(args, &root) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("xtask mutate: {msg}");
            eprintln!(
                "usage: cargo xtask mutate [paths...] [--mutators M101,M201] [--grep SUBSTR] \
                 [--sample N] [--seed S] [--tier unit|integration|explore] [--timeout SECS] \
                 [--out PATH] [--list]"
            );
            return ExitCode::FAILURE;
        }
    };
    match mutate(&root, &config) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xtask mutate: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String], root: &Path) -> Result<Config, String> {
    let mut config = Config {
        paths: Vec::new(),
        mutators: None,
        grep: None,
        sample: None,
        seed: 1,
        list_only: false,
        out: root.join("MUTATION.json"),
        timeout: Duration::from_secs(300),
        start_tier: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--mutators" => {
                let list = value("--mutators")?;
                let set: BTreeSet<String> = list.split(',').map(str::to_string).collect();
                for id in &set {
                    if !MUTATORS.iter().any(|(known, _)| known == id) {
                        return Err(format!("unknown mutator '{id}'"));
                    }
                }
                config.mutators = Some(set);
            }
            "--grep" => config.grep = Some(value("--grep")?),
            "--sample" => {
                config.sample = Some(
                    value("--sample")?
                        .parse()
                        .map_err(|e| format!("bad --sample: {e}"))?,
                );
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--timeout" => {
                let secs: u64 = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                config.timeout = Duration::from_secs(secs);
            }
            "--out" => config.out = root.join(value("--out")?),
            "--tier" => {
                config.start_tier = match value("--tier")?.as_str() {
                    "unit" => 1,
                    "integration" => 2,
                    "explore" => 3,
                    other => return Err(format!("unknown tier '{other}'")),
                };
            }
            "--list" => config.list_only = true,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            path => config.paths.push(path.to_string()),
        }
    }
    if config.paths.is_empty() {
        config.paths.push("crates/core/src".to_string());
    }
    Ok(config)
}

fn mutate(root: &Path, config: &Config) -> Result<ExitCode, String> {
    let files = resolve_scope(root, &config.paths)?;
    if files.is_empty() {
        return Err("scope matches no source files".to_string());
    }

    // Enumerate deterministically: files sorted, sites in (line, col,
    // mutator) order within each file.
    let mut sources = BTreeMap::new();
    let mut mutants = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let mut found = enumerate_file(rel, &source);
        found.retain(|m| {
            config
                .mutators
                .as_ref()
                .is_none_or(|set| set.contains(m.mutator))
        });
        if let Some(grep) = &config.grep {
            found.retain(|m| {
                source
                    .lines()
                    .nth(m.line - 1)
                    .is_some_and(|l| l.contains(grep.as_str()))
            });
        }
        mutants.extend(found);
        sources.insert(rel.clone(), source);
    }
    let enumerated = mutants.len();

    // Allow-file: parse up front so malformed entries and entries pointing
    // at sites that no longer exist fail before any build runs.
    let allow_path = root.join("crates/xtask/mutants.allow");
    let allow = load_mutants_allow(&allow_path)?;
    let enumerated_keys: BTreeSet<String> = mutants.iter().map(Mutant::key).collect();
    let mut stale: Vec<&MutantAllowEntry> = allow
        .iter()
        .filter(|e| files.contains(&e.file) && !enumerated_keys.contains(&e.key))
        .collect();
    if !stale.is_empty() {
        for e in &stale {
            eprintln!(
                "xtask mutate: stale mutants.allow entry (no such site): {}",
                e.key
            );
        }
        return Ok(ExitCode::FAILURE);
    }

    if config.list_only {
        println!("{enumerated} mutant(s) over {} file(s):", files.len());
        for m in &mutants {
            println!("  {:<55} {}", m.key(), m.description);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(n) = config.sample {
        mutants = sample_mutants(mutants, n, config.seed);
        println!(
            "sampled {} of {enumerated} mutant(s) (seed {})",
            mutants.len(),
            config.seed
        );
    }

    // Scratch checkout + warm-up: the baseline must be green before any
    // mutant is blamed for breaking it.
    let scratch = root.join("target/mutate/scratch");
    let build_dir = root.join("target/mutate/build");
    prepare_scratch(root, &scratch)?;
    let suites = integration_suites(root)?;
    let runner = Runner {
        scratch,
        build_dir,
        suites,
        scenarios: explore_scenarios(root)?,
        timeout: config.timeout,
        start_tier: config.start_tier,
    };
    let needs_explore = mutants.iter().any(|m| explore_adjacent(&m.file));
    runner.baseline(needs_explore)?;

    // Judge each mutant, reverting the touched file afterwards.
    let total = mutants.len();
    let mut results: Vec<(Mutant, Outcome, Duration)> = Vec::with_capacity(total);
    for (i, mutant) in mutants.into_iter().enumerate() {
        let source = &sources[&mutant.file];
        let mutated = apply_to_source(source, &mutant);
        let started = Instant::now();
        let scratch_file = runner.scratch.join(&mutant.file);
        std::fs::write(&scratch_file, mutated)
            .map_err(|e| format!("cannot write mutant to {}: {e}", scratch_file.display()))?;
        let outcome = runner.judge(&mutant);
        std::fs::write(&scratch_file, source)
            .map_err(|e| format!("cannot revert {}: {e}", scratch_file.display()))?;
        scrub_counterexamples(&runner.scratch);
        let elapsed = started.elapsed();
        let outcome = outcome?;
        println!(
            "[{}/{}] {:<52} {:<44} {} ({:.1}s)",
            i + 1,
            total,
            mutant.key(),
            mutant.description,
            describe_outcome(&outcome),
            elapsed.as_secs_f64()
        );
        let _ = std::io::stdout().flush();
        results.push((mutant, outcome, elapsed));
    }

    // Second staleness pass: an allow entry whose mutant actually ran and
    // died is stale — the justification outlived the survivor.
    for e in &allow {
        if results
            .iter()
            .any(|(m, o, _)| m.key() == e.key && *o != Outcome::Survived)
        {
            stale.push(e);
        }
    }
    report(root, config, &files, enumerated, &results, &allow, &stale)
}

/// Expand the positional scope arguments (files or directories, workspace
/// relative) into a sorted set of mutable source files. Integration-test
/// trees, benches and the xtask itself are never in scope.
fn resolve_scope(root: &Path, paths: &[String]) -> Result<BTreeSet<String>, String> {
    let mut files = BTreeSet::new();
    for arg in paths {
        let rel = arg.trim_end_matches('/').replace('\\', "/");
        let abs = root.join(&rel);
        if abs.is_file() {
            files.insert(rel);
        } else if abs.is_dir() {
            let mut found = Vec::new();
            crate::collect_rust_files(&abs, root, &mut found);
            files.extend(found);
        } else {
            return Err(format!("scope path '{arg}' does not exist"));
        }
    }
    files.retain(|rel| {
        !rel.starts_with("tests/")
            && !rel.contains("/tests/")
            && !rel.contains("/benches/")
            && !rel.starts_with("crates/xtask/")
    });
    Ok(files)
}

fn explore_adjacent(file: &str) -> bool {
    EXPLORE_ADJACENT.iter().any(|p| {
        if p.ends_with('/') {
            file.starts_with(p)
        } else {
            file == *p
        }
    })
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

/// All mutants of one file, in (line, col, mutator) order. Only lines the
/// determinism lint would inspect are eligible: comments are stripped and
/// `#[cfg(test)]` items skipped, so test-only code is never mutated.
pub(crate) fn enumerate_file(rel: &str, source: &str) -> Vec<Mutant> {
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (lineno, stripped) in effective_lines(source) {
        let raw = raw_lines[lineno - 1];
        mutants_for_line(rel, lineno, raw, stripped.as_str(), &mut out);
    }
    out.sort_by(|a, b| (a.line, a.col, a.mutator).cmp(&(b.line, b.col, b.mutator)));
    out
}

fn mutants_for_line(rel: &str, lineno: usize, raw: &str, stripped: &str, out: &mut Vec<Mutant>) {
    // `stripped` is a byte prefix of `raw` (the comment tail removed), so
    // site columns are valid in both and a rewritten line keeps its
    // trailing comment by re-appending `raw`'s tail.
    let tail = &raw[stripped.len()..];
    let mut push =
        |mutator: &'static str, col: usize, description: String, mutated: Option<String>| {
            out.push(Mutant {
                mutator,
                file: rel.to_string(),
                line: lineno,
                col,
                description,
                mutated_line: mutated.map(|s| format!("{s}{tail}")),
            });
        };

    scan_operator_swaps(stripped, &mut push);
    scan_condition_negation(stripped, &mut push);
    scan_boundary_literals(stripped, &mut push);
    scan_early_returns(stripped, &mut push);
    scan_arm_deletion(stripped, raw, rel, lineno, out);
}

/// Binary-operator swaps. Rustfmt spaces every binary operator, so a site
/// is an operator token with a space on both sides — which also excludes
/// `->`, `=>`, generics (`Vec<u64>`), shifts (`<<`), unary minus (`-1`)
/// and compound assignment (`+=`) without any parsing.
fn scan_operator_swaps(
    s: &str,
    push: &mut impl FnMut(&'static str, usize, String, Option<String>),
) {
    const SWAPS: &[(&str, &str, &str)] = &[
        ("M101", "+", "-"),
        ("M102", "-", "+"),
        ("M103", "<", "<="),
        ("M104", "<=", "<"),
        ("M105", ">", ">="),
        ("M106", ">=", ">"),
        ("M107", "&&", "||"),
        ("M108", "||", "&&"),
    ];
    let bytes = s.as_bytes();
    for i in code_positions(s) {
        for (id, from, to) in SWAPS {
            let end = i + from.len();
            if i == 0
                || end >= bytes.len()
                || bytes[i - 1] != b' '
                || bytes[end] != b' '
                || !s[i..].starts_with(from)
            {
                continue;
            }
            // ` < ` must not be the head of ` <= `; the longer token wins.
            if from.len() == 1 && matches!(bytes[i + 1], b'=') {
                continue;
            }
            push(
                id,
                i + 1,
                format!("`{from}` -> `{to}`"),
                Some(format!("{}{to}{}", &s[..i], &s[end..])),
            );
        }
    }
}

/// `if cond {` -> `if !(cond) {`. Skips `if let` (not an expression
/// condition) and multi-line conditions (no `{` on the line).
fn scan_condition_negation(
    s: &str,
    push: &mut impl FnMut(&'static str, usize, String, Option<String>),
) {
    let trimmed = s.trim_start();
    let kw = if trimmed.starts_with("if ") {
        Some(s.len() - trimmed.len())
    } else if trimmed.starts_with("} else if ") {
        Some(s.len() - trimmed.len() + 7)
    } else {
        None
    };
    let Some(kw) = kw else { return };
    let cond_start = kw + 3;
    let Some(brace) = s[cond_start..].find('{').map(|p| cond_start + p) else {
        return;
    };
    let cond = s[cond_start..brace].trim();
    if cond.is_empty()
        || cond.starts_with("let ")
        || cond.contains(" let ")
        || cond.matches('(').count() != cond.matches(')').count()
    {
        return;
    }
    push(
        "M201",
        cond_start + 1,
        format!("negate `{cond}`"),
        Some(format!("{}!({cond}) {}", &s[..cond_start], &s[brace..])),
    );
}

/// Integer literals adjacent to a comparison operator get bumped by one:
/// `x < 10` -> `x < 11`, `0 == n` -> `1 == n`. The perturbation targets
/// boundary conditions, where off-by-one defects live.
fn scan_boundary_literals(
    s: &str,
    push: &mut impl FnMut(&'static str, usize, String, Option<String>),
) {
    const CMP: &[&str] = &["<=", ">=", "==", "!=", "<", ">"];
    let bytes = s.as_bytes();
    let mut seen = BTreeSet::new();
    for i in code_positions(s) {
        let Some(op) = CMP.iter().find(|op| {
            let end = i + op.len();
            i > 0
                && end < bytes.len()
                && bytes[i - 1] == b' '
                && bytes[end] == b' '
                && s[i..].starts_with(**op)
        }) else {
            continue;
        };
        for (start, lit) in [
            integer_literal_ending_at(s, i.saturating_sub(1)),
            integer_literal_starting_at(s, i + op.len() + 1),
        ]
        .into_iter()
        .flatten()
        {
            if !seen.insert(start) {
                continue;
            }
            let digits: String = lit.chars().filter(char::is_ascii_digit).collect();
            let suffix = &lit[lit
                .rfind(|c: char| c.is_ascii_digit() || c == '_')
                .map_or(0, |p| p + 1)..];
            let Ok(value) = digits.parse::<u128>() else {
                continue;
            };
            let Some(bumped) = value.checked_add(1) else {
                continue;
            };
            push(
                "M301",
                start + 1,
                format!("boundary `{lit}` -> `{bumped}{suffix}`"),
                Some(format!(
                    "{}{bumped}{suffix}{}",
                    &s[..start],
                    &s[start + lit.len()..]
                )),
            );
        }
    }
}

/// The integer literal (digits, `_` separators, optional type suffix)
/// whose last byte sits at `end`, if any.
fn integer_literal_ending_at(s: &str, end: usize) -> Option<(usize, &str)> {
    let bytes = s.as_bytes();
    let mut last = end;
    while last > 0 && bytes[last] == b' ' {
        last -= 1;
    }
    let mut start = last;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    validate_integer_literal(s, start, last + 1)
}

/// The integer literal starting at or after `from` (spaces skipped).
fn integer_literal_starting_at(s: &str, from: usize) -> Option<(usize, &str)> {
    let bytes = s.as_bytes();
    let mut start = from;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len()
        && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_' || bytes[end] == b'.')
    {
        end += 1;
    }
    validate_integer_literal(s, start, end)
}

fn validate_integer_literal(s: &str, start: usize, end: usize) -> Option<(usize, &str)> {
    let lit = &s[start..end];
    let first = lit.chars().next()?;
    if !first.is_ascii_digit()
        || lit.contains('.')
        || lit.starts_with("0x")
        || lit.starts_with("0b")
        || lit.starts_with("0o")
        || lit.contains('e')
        || lit.contains('E')
        || lit.ends_with("f32")
        || lit.ends_with("f64")
    {
        return None;
    }
    Some((start, lit))
}

/// Early returns from functions whose single-line-visible return type is
/// `bool`, `Option<..>` or a bare numeric. The line must *end* with the
/// return type and opening brace (`-> bool {`), which excludes closure
/// parameters like `f: impl Fn(&T) -> bool) {`.
fn scan_early_returns(s: &str, push: &mut impl FnMut(&'static str, usize, String, Option<String>)) {
    let t = s.trim_end();
    let brace_col = t.len(); // 1-based column of the trailing `{`
    let mut early = |id: &'static str, stmt: &str, ty: &str| {
        push(
            id,
            brace_col,
            format!("early `{stmt}` from `-> {ty}`"),
            Some(format!("{t} {stmt}")),
        );
    };
    if t.ends_with("-> bool {") {
        early("M401", "return true;", "bool");
        early("M402", "return false;", "bool");
    } else if t.ends_with("> {") && t.contains("-> Option<") {
        early("M403", "return None;", "Option<..>");
    } else {
        const NUMERIC: &[(&str, &str)] = &[
            ("usize", "return 0;"),
            ("u128", "return 0;"),
            ("u64", "return 0;"),
            ("u32", "return 0;"),
            ("u8", "return 0;"),
            ("i64", "return 0;"),
            ("f64", "return 0.0;"),
        ];
        for (ty, stmt) in NUMERIC {
            if t.ends_with(&format!("-> {ty} {{")) {
                early("M404", stmt, ty);
                break;
            }
        }
    }
}

/// Deletion of a complete single-line match arm (`pat => expr,`). Wildcard
/// arms are skipped — deleting `_ =>` trades one mutant for a guaranteed
/// non-exhaustiveness build failure in most matches.
fn scan_arm_deletion(s: &str, _raw: &str, rel: &str, lineno: usize, out: &mut Vec<Mutant>) {
    let trimmed = s.trim_start();
    if trimmed.starts_with('_') || !s.trim_end().ends_with(',') {
        return;
    }
    let Some(arrow) = code_positions(s).find(|&i| s[i..].starts_with(" => ")) else {
        return;
    };
    if s.matches('{').count() != s.matches('}').count()
        || s.matches('(').count() != s.matches(')').count()
    {
        return;
    }
    out.push(Mutant {
        mutator: "M501",
        file: rel.to_string(),
        line: lineno,
        col: arrow + 2,
        description: format!("delete arm `{}`", trimmed.trim_end()),
        mutated_line: None,
    });
}

/// Byte positions of `s` outside string literals, for site scanners and
/// the lint's identifier scan.
pub(crate) fn code_positions(s: &str) -> impl Iterator<Item = usize> + '_ {
    let bytes = s.as_bytes();
    let mut in_str = false;
    let mut skip_next = false;
    (0..bytes.len()).filter(move |&i| {
        if skip_next {
            skip_next = false;
            return false;
        }
        match bytes[i] {
            b'\\' if in_str => {
                skip_next = true;
                false
            }
            b'"' => {
                in_str = !in_str;
                false
            }
            _ => !in_str,
        }
    })
}

/// Apply `mutant` to `source`, returning the mutated file contents.
pub(crate) fn apply_to_source(source: &str, mutant: &Mutant) -> String {
    let mut out = String::with_capacity(source.len() + 32);
    for (idx, line) in source.lines().enumerate() {
        if idx + 1 == mutant.line {
            if let Some(new) = &mutant.mutated_line {
                out.push_str(new);
                out.push('\n');
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Deterministic sampling: a seeded xorshift64* partial shuffle picks `n`
/// mutants, then the pick is re-sorted into enumeration order.
fn sample_mutants(mut mutants: Vec<Mutant>, n: usize, seed: u64) -> Vec<Mutant> {
    if n >= mutants.len() {
        return mutants;
    }
    let mut state = if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    };
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let len = mutants.len();
    for i in 0..n {
        let j = i + (next() % (len - i) as u64) as usize;
        mutants.swap(i, j);
    }
    mutants.truncate(n);
    mutants.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.mutator).cmp(&(&b.file, b.line, b.col, b.mutator))
    });
    mutants
}

// ---------------------------------------------------------------------------
// Allow file
// ---------------------------------------------------------------------------

/// One justified survivor from `mutants.allow`.
struct MutantAllowEntry {
    /// `file:line:col M###`
    key: String,
    file: String,
    justification: String,
}

/// Parse `mutants.allow`: `<file>:<line>:<col> <M###>  # justification`
/// per line. The justification is mandatory — an unexplained survivor is
/// exactly what the kill matrix exists to surface.
fn load_mutants_allow(path: &Path) -> Result<Vec<MutantAllowEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut entries = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (code, comment) = line
            .split_once('#')
            .ok_or_else(|| format!("mutants.allow entry missing a justification: '{raw}'"))?;
        let justification = comment.trim();
        let mut parts = code.split_whitespace();
        let (Some(site), Some(mutator), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("malformed mutants.allow line: '{raw}'"));
        };
        let mut site_parts = site.rsplitn(3, ':');
        let col = site_parts.next().and_then(|s| s.parse::<usize>().ok());
        let lineno = site_parts.next().and_then(|s| s.parse::<usize>().ok());
        let file = site_parts.next();
        let (Some(_), Some(_), Some(file)) = (col, lineno, file) else {
            return Err(format!("malformed mutants.allow site: '{site}'"));
        };
        if justification.is_empty() || !MUTATORS.iter().any(|(id, _)| *id == mutator) {
            return Err(format!("malformed mutants.allow line: '{raw}'"));
        }
        entries.push(MutantAllowEntry {
            key: format!("{site} {mutator}"),
            file: file.to_string(),
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

struct Runner {
    scratch: PathBuf,
    build_dir: PathBuf,
    suites: Vec<String>,
    /// The explore tier's scenarios ([`explore_scenarios`]).
    scenarios: Vec<String>,
    timeout: Duration,
    start_tier: u8,
}

enum Step {
    Pass,
    Fail { detail: String },
    Timeout,
}

impl Runner {
    /// Run the unmutated tiers once: proves the baseline is green and
    /// warms the incremental build cache that makes per-mutant rebuilds
    /// cheap.
    fn baseline(&self, needs_explore: bool) -> Result<(), String> {
        println!("warming scratch build (first run compiles the workspace in release)...");
        let checks: &[(&str, Vec<String>)] = &[
            ("unit build", self.unit_args(true)),
            ("unit run", self.unit_args(false)),
            ("integration build", self.integration_build_args()),
        ];
        for (label, args) in checks {
            let started = Instant::now();
            match self.cargo(args)? {
                Step::Pass => println!(
                    "  baseline {label}: ok ({:.1}s)",
                    started.elapsed().as_secs_f64()
                ),
                Step::Fail { detail } => {
                    return Err(format!(
                        "baseline {label} failed ({detail}); refusing to judge mutants"
                    ))
                }
                Step::Timeout => return Err(format!("baseline {label} timed out")),
            }
        }
        for suite in &self.suites {
            let started = Instant::now();
            match self.cargo(&self.suite_args(suite))? {
                Step::Pass => println!(
                    "  baseline suite {suite}: ok ({:.1}s)",
                    started.elapsed().as_secs_f64()
                ),
                Step::Fail { detail } => {
                    return Err(format!("baseline suite {suite} failed ({detail})"))
                }
                Step::Timeout => return Err(format!("baseline suite {suite} timed out")),
            }
        }
        if needs_explore {
            match self.cargo(&self.explore_build_args())? {
                Step::Pass => {}
                Step::Fail { detail } => {
                    return Err(format!("baseline explore build failed ({detail})"))
                }
                Step::Timeout => return Err("baseline explore build timed out".to_string()),
            }
            for scenario in &self.scenarios {
                let started = Instant::now();
                match self.cargo(&self.explore_args(scenario))? {
                    Step::Pass => println!(
                        "  baseline explore {scenario}: clean ({:.1}s)",
                        started.elapsed().as_secs_f64()
                    ),
                    Step::Fail { detail } => {
                        return Err(format!("baseline explore on {scenario} found {detail}"))
                    }
                    Step::Timeout => {
                        return Err(format!("baseline explore on {scenario} timed out"))
                    }
                }
            }
        }
        Ok(())
    }

    /// The tiered verdict for one applied mutant.
    fn judge(&self, mutant: &Mutant) -> Result<Outcome, String> {
        // Tier 1: the mutated crate must build (else the mutant is
        // unviable), then the unit suite gets first crack at it.
        match self.cargo(&self.unit_args(true))? {
            Step::Pass => {}
            Step::Fail { .. } => return Ok(Outcome::Unviable),
            Step::Timeout => return Ok(Outcome::TimedOut { tier: "unit" }),
        }
        if self.start_tier <= 1 {
            match self.cargo(&self.unit_args(false))? {
                Step::Pass => {}
                Step::Fail { detail } => {
                    return Ok(Outcome::Killed {
                        tier: "unit",
                        killer: detail,
                    })
                }
                Step::Timeout => return Ok(Outcome::TimedOut { tier: "unit" }),
            }
        }
        if self.start_tier <= 2 {
            match self.cargo(&self.integration_build_args())? {
                Step::Pass => {}
                Step::Fail { .. } => return Ok(Outcome::Unviable),
                Step::Timeout => {
                    return Ok(Outcome::TimedOut {
                        tier: "integration",
                    })
                }
            }
            for suite in &self.suites {
                match self.cargo(&self.suite_args(suite))? {
                    Step::Pass => {}
                    Step::Fail { detail } => {
                        return Ok(Outcome::Killed {
                            tier: "integration",
                            killer: format!("{suite}: {detail}"),
                        })
                    }
                    Step::Timeout => {
                        return Ok(Outcome::TimedOut {
                            tier: "integration",
                        })
                    }
                }
            }
        }
        if explore_adjacent(&mutant.file) {
            match self.cargo(&self.explore_build_args())? {
                Step::Pass => {}
                Step::Fail { .. } => return Ok(Outcome::Unviable),
                Step::Timeout => return Ok(Outcome::TimedOut { tier: "explore" }),
            }
            for scenario in &self.scenarios {
                match self.cargo(&self.explore_args(scenario))? {
                    Step::Pass => {}
                    Step::Fail { detail } => {
                        return Ok(Outcome::Killed {
                            tier: "explore",
                            killer: detail,
                        })
                    }
                    Step::Timeout => return Ok(Outcome::TimedOut { tier: "explore" }),
                }
            }
        }
        Ok(Outcome::Survived)
    }

    fn unit_args(&self, build_only: bool) -> Vec<String> {
        let mut args = vec!["test", "-q", "--release", "-p", "craid-core", "--lib"]
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>();
        if build_only {
            args.push("--no-run".to_string());
        }
        args
    }

    fn integration_build_args(&self) -> Vec<String> {
        [
            "test",
            "-q",
            "--release",
            "-p",
            "craid-repro",
            "--tests",
            "--no-run",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn suite_args(&self, suite: &str) -> Vec<String> {
        [
            "test",
            "-q",
            "--release",
            "-p",
            "craid-repro",
            "--test",
            suite,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn explore_build_args(&self) -> Vec<String> {
        [
            "build",
            "-q",
            "--release",
            "-p",
            "craid-repro",
            "--example",
            "scenario_file",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn explore_args(&self, scenario: &str) -> Vec<String> {
        [
            "run",
            "-q",
            "--release",
            "-p",
            "craid-repro",
            "--example",
            "scenario_file",
            "--",
            scenario,
            "--explore",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Run one cargo step in the scratch checkout with the shared
    /// incremental build dir, bounded by the configured timeout.
    fn cargo(&self, args: &[String]) -> Result<Step, String> {
        let logs = self.build_dir.join("logs");
        std::fs::create_dir_all(&logs)
            .map_err(|e| format!("cannot create {}: {e}", logs.display()))?;
        let stdout_path = logs.join("step-stdout.log");
        let stderr_path = logs.join("step-stderr.log");
        let stdout = std::fs::File::create(&stdout_path).map_err(|e| e.to_string())?;
        let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
        let mut child = std::process::Command::new("cargo")
            .args(args)
            .current_dir(&self.scratch)
            .env("CARGO_TARGET_DIR", &self.build_dir)
            .env("CARGO_PROFILE_RELEASE_INCREMENTAL", "true")
            .stdin(std::process::Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn cargo: {e}"))?;
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if started.elapsed() > self.timeout {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(Step::Timeout);
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        if status.success() {
            return Ok(Step::Pass);
        }
        let stdout_text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
        let stderr_text = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        Ok(Step::Fail {
            detail: failure_detail(&stdout_text, &stderr_text),
        })
    }
}

/// Name the most specific killer visible in a failing step's output: the
/// first failed test, an explore counterexample's oracle codes, or the
/// first compiler error line.
fn failure_detail(stdout: &str, stderr: &str) -> String {
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("counterexample (") {
            if let Some(codes) = rest.split(')').next() {
                return codes.to_string();
            }
        }
    }
    let mut in_failures = false;
    for line in stdout.lines() {
        if line.trim() == "failures:" {
            in_failures = true;
            continue;
        }
        if in_failures {
            // Libtest prints the `failures:` header twice: first over the
            // captured-stdout blocks, then over the bare-name list. Only a
            // whitespace-free line is a test name; panic text never is.
            let name = line.trim();
            if !name.is_empty() && !name.starts_with("----") && !name.contains(' ') {
                return name.to_string();
            }
        }
    }
    for line in stderr.lines() {
        if line.starts_with("error") {
            return line.chars().take(100).collect();
        }
    }
    "nonzero exit".to_string()
}

/// Remove reproducer files the explore tier writes next to a scenario, so
/// later mutants' scenario-directory globs never see them.
fn scrub_counterexamples(scratch: &Path) {
    for dir in ["examples/scenarios", "examples/scenarios/invalid"] {
        let Ok(entries) = std::fs::read_dir(scratch.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .ends_with(".counterexample.toml")
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// (Re)build the scratch checkout: a fresh copy of the working tree minus
/// `.git` and `target`, so every run judges exactly the sources on disk.
fn prepare_scratch(root: &Path, scratch: &Path) -> Result<(), String> {
    if scratch.exists() {
        std::fs::remove_dir_all(scratch)
            .map_err(|e| format!("cannot clear {}: {e}", scratch.display()))?;
    }
    copy_tree(root, scratch).map_err(|e| format!("cannot populate scratch checkout: {e}"))
}

fn copy_tree(src: &Path, dst: &Path) -> Result<(), std::io::Error> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        let name_str = name.to_string_lossy();
        if name_str == ".git" || name_str == "target" {
            continue;
        }
        let from = entry.path();
        let to = dst.join(&name);
        if from.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// The `[[test]]` targets of the harness crate, in manifest order, read
/// from the manifest itself so the judge never drifts from the suite list.
fn integration_suites(root: &Path) -> Result<Vec<String>, String> {
    let manifest_path = root.join("crates/harness/Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let mut suites = Vec::new();
    let mut in_test = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_test = line == "[[test]]";
            continue;
        }
        if in_test {
            if let Some(rest) = line.strip_prefix("name = \"") {
                if let Some(name) = rest.strip_suffix('"') {
                    suites.push(name.to_string());
                }
            }
        }
    }
    if suites.is_empty() {
        return Err("no [[test]] targets found in crates/harness/Cargo.toml".to_string());
    }
    Ok(suites)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn describe_outcome(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Unviable => "unviable".to_string(),
        Outcome::Killed { tier, killer } => format!("killed ({tier}: {killer})"),
        Outcome::TimedOut { tier } => format!("timeout ({tier})"),
        Outcome::Survived => "SURVIVED".to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn report(
    root: &Path,
    config: &Config,
    files: &BTreeSet<String>,
    enumerated: usize,
    results: &[(Mutant, Outcome, Duration)],
    allow: &[MutantAllowEntry],
    stale: &[&MutantAllowEntry],
) -> Result<ExitCode, String> {
    let allowed_key = |m: &Mutant| allow.iter().find(|e| e.key == m.key());
    let mut killed = 0usize;
    let mut timeout = 0usize;
    let mut unviable = 0usize;
    let mut survivors: Vec<&Mutant> = Vec::new();
    let mut killers: BTreeMap<String, usize> = BTreeMap::new();
    for (m, outcome, _) in results {
        match outcome {
            Outcome::Unviable => unviable += 1,
            Outcome::Killed { tier, killer } => {
                killed += 1;
                let bucket = match *tier {
                    "integration" => {
                        format!("integration:{}", killer.split(':').next().unwrap_or("?"))
                    }
                    "explore" => {
                        format!("explore:{}", killer.split(',').next().unwrap_or("?").trim())
                    }
                    t => t.to_string(),
                };
                *killers.entry(bucket).or_default() += 1;
            }
            Outcome::TimedOut { tier } => {
                timeout += 1;
                *killers.entry(format!("timeout:{tier}")).or_default() += 1;
            }
            Outcome::Survived => survivors.push(m),
        }
    }
    let viable = results.len() - unviable;
    let dead = killed + timeout;
    let ratio_permille = (dead * 1000).checked_div(viable).unwrap_or(0);

    // Human summary.
    println!();
    println!("mutation kill matrix ({} file(s) in scope):", files.len());
    for (bucket, count) in &killers {
        println!("  {bucket:<40} {count:>4} kill(s)");
    }
    println!(
        "  {total} mutant(s): {dead} killed ({killed} by suite, {timeout} by timeout), \
         {survived} survived, {unviable} unviable — kill ratio {whole}.{frac}% of {viable} viable",
        total = results.len(),
        survived = survivors.len(),
        whole = ratio_permille / 10,
        frac = ratio_permille % 10,
    );
    let mut unallowed = 0usize;
    if !survivors.is_empty() {
        println!();
        println!("survivors:");
        for m in &survivors {
            let justified = allowed_key(m);
            println!(
                "  {} {} [{}]",
                m.key(),
                m.description,
                justified.map_or("UNJUSTIFIED", |e| e.justification.as_str())
            );
            if justified.is_none() {
                unallowed += 1;
            }
            let source = std::fs::read_to_string(root.join(&m.file)).unwrap_or_default();
            for (idx, line) in source.lines().enumerate() {
                if idx + 2 >= m.line && idx < m.line + 2 {
                    let marker = if idx + 1 == m.line { '>' } else { ' ' };
                    println!("    {marker} {:>4} | {line}", idx + 1);
                }
            }
        }
        if unallowed > 0 {
            println!(
                "\n{unallowed} survivor(s) lack a mutants.allow justification: kill each with a \
                 test or add '<file>:<line>:<col> <M###>  # why it is equivalent' to \
                 crates/xtask/mutants.allow"
            );
        }
    }
    if !stale.is_empty() {
        println!();
        for e in stale {
            println!(
                "stale mutants.allow entry (mutant no longer survives): {}",
                e.key
            );
        }
    }

    write_json(
        config,
        files,
        enumerated,
        results,
        allow,
        &killers,
        ratio_permille,
    )?;
    println!("\nkill matrix written to {}", config.out.display());

    if unallowed > 0 || !stale.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn write_json(
    config: &Config,
    files: &BTreeSet<String>,
    enumerated: usize,
    results: &[(Mutant, Outcome, Duration)],
    allow: &[MutantAllowEntry],
    killers: &BTreeMap<String, usize>,
    ratio_permille: usize,
) -> Result<(), String> {
    let mut unviable = 0usize;
    let mut killed = 0usize;
    let mut timeout = 0usize;
    let mut survived = 0usize;
    for (_, outcome, _) in results {
        match outcome {
            Outcome::Unviable => unviable += 1,
            Outcome::Killed { .. } => killed += 1,
            Outcome::TimedOut { .. } => timeout += 1,
            Outcome::Survived => survived += 1,
        }
    }
    let mut json = String::from("{\n  \"scope\": [");
    for (i, f) in files.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\"",
            if i > 0 { ", " } else { "" },
            json_escape(f)
        );
    }
    let _ = write!(
        json,
        "],\n  \"sample\": {},\n",
        match config.sample {
            Some(n) => format!(
                "{{\"requested\": {n}, \"seed\": {}, \"enumerated\": {enumerated}}}",
                config.seed
            ),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(
        json,
        "  \"summary\": {{\"total\": {}, \"viable\": {}, \"killed\": {}, \"timeout_killed\": {}, \
         \"survived\": {}, \"unviable\": {}, \"kill_ratio_permille\": {}}},",
        results.len(),
        results.len() - unviable,
        killed,
        timeout,
        survived,
        unviable,
        ratio_permille
    );
    json.push_str("  \"killers\": {");
    for (i, (bucket, count)) in killers.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {count}",
            if i > 0 { ", " } else { "" },
            json_escape(bucket)
        );
    }
    json.push_str("},\n  \"mutants\": [\n");
    for (i, (m, outcome, _)) in results.iter().enumerate() {
        let (status, tier, killer) = match outcome {
            Outcome::Unviable => ("unviable", "", String::new()),
            Outcome::Killed { tier, killer } => ("killed", *tier, killer.clone()),
            Outcome::TimedOut { tier } => ("timeout", *tier, String::new()),
            Outcome::Survived => ("survived", "", String::new()),
        };
        let justified = allow.iter().find(|e| e.key == m.key());
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"mutator\": \"{}\", \"description\": \"{}\", \
             \"outcome\": \"{status}\", \"tier\": \"{tier}\", \"killed_by\": \"{}\", \
             \"allowed\": {}}}{}",
            json_escape(&m.key()),
            m.mutator,
            json_escape(&m.description),
            json_escape(&killer),
            justified.is_some(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&config.out, json)
        .map_err(|e| format!("cannot write {}: {e}", config.out.display()))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(mutants: &[Mutant]) -> Vec<String> {
        mutants.iter().map(Mutant::key).collect()
    }

    #[test]
    fn operator_swaps_hit_spaced_binary_operators_only() {
        let src = "fn f(a: u64, b: u64) -> u64 {\n    if a < b && a + 1 > 2 {\n        return a - b;\n    }\n    a\n}\n";
        let mutants = enumerate_file("x.rs", src);
        let keys = ids(&mutants);
        assert!(keys.contains(&"x.rs:2:10 M103".to_string()), "{keys:?}"); // a < b
        assert!(keys.contains(&"x.rs:2:14 M107".to_string()), "{keys:?}"); // &&
        assert!(keys.contains(&"x.rs:2:19 M101".to_string()), "{keys:?}"); // a + 1
        assert!(keys.contains(&"x.rs:3:18 M102".to_string()), "{keys:?}"); // a - b
                                                                           // `-> u64 {` on line 1 must not be read as a minus swap...
        assert!(!keys
            .iter()
            .any(|k| k.starts_with("x.rs:1:") && k.ends_with("M102")));
        // ...but it is an early-return site.
        assert!(keys
            .iter()
            .any(|k| k.starts_with("x.rs:1:") && k.ends_with("M404")));
    }

    #[test]
    fn generics_shifts_and_compound_assignment_are_not_sites() {
        let src = "fn f(v: &mut Vec<u64>, x: u64) {\n    let y = x << 2;\n    let z = -1i64;\n    v[0] += y + (z as u64);\n}\n";
        let mutants = enumerate_file("x.rs", src);
        for m in &mutants {
            assert_eq!(
                (m.mutator, m.line),
                ("M101", 4),
                "unexpected site {} {}",
                m.key(),
                m.description
            );
        }
        assert_eq!(mutants.len(), 1);
    }

    #[test]
    fn string_literals_are_opaque_to_site_scanners() {
        let src =
            "fn f(a: u64, b: u64) -> bool {\n    println!(\"a < b && a - b\");\n    a == b\n}\n";
        let mutants = enumerate_file("x.rs", src);
        assert!(mutants.iter().all(|m| m.line != 2), "{:?}", ids(&mutants));
    }

    #[test]
    fn condition_negation_wraps_the_condition_and_skips_if_let() {
        let src = "fn f(a: u64) {\n    if a > 1 && a < 9 {\n        g();\n    }\n    if let Some(x) = h(a) {\n        g(x);\n    }\n}\n";
        let mutants = enumerate_file("x.rs", src);
        let neg: Vec<&Mutant> = mutants.iter().filter(|m| m.mutator == "M201").collect();
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].line, 2);
        assert_eq!(
            neg[0].mutated_line.as_deref(),
            Some("    if !(a > 1 && a < 9) {")
        );
    }

    #[test]
    fn boundary_literals_bump_on_either_side_of_a_comparison() {
        let src = "fn f(n: usize) -> bool {\n    n < 10 || 0 == n\n}\n";
        let mutants = enumerate_file("x.rs", src);
        let bumps: Vec<&Mutant> = mutants.iter().filter(|m| m.mutator == "M301").collect();
        assert_eq!(bumps.len(), 2, "{:?}", ids(&mutants));
        assert_eq!(
            bumps[0].mutated_line.as_deref(),
            Some("    n < 11 || 0 == n")
        );
        assert_eq!(
            bumps[1].mutated_line.as_deref(),
            Some("    n < 10 || 1 == n")
        );
    }

    #[test]
    fn early_returns_require_the_line_to_end_in_the_return_type() {
        let src = "fn pick(xs: &[u64]) -> Option<u64> {\n    xs.first().copied()\n}\nfn all(xs: &[u64], f: impl Fn(u64) -> bool) {\n    let _ = xs.iter().all(|&x| f(x));\n}\n";
        let mutants = enumerate_file("x.rs", src);
        let early: Vec<&Mutant> = mutants
            .iter()
            .filter(|m| m.mutator.starts_with("M40"))
            .collect();
        assert_eq!(early.len(), 1, "{:?}", ids(&mutants));
        assert_eq!(early[0].mutator, "M403");
        assert_eq!(
            early[0].mutated_line.as_deref(),
            Some("fn pick(xs: &[u64]) -> Option<u64> { return None;")
        );
    }

    #[test]
    fn arm_deletion_takes_single_line_non_wildcard_arms() {
        let src = "fn f(x: u64) -> u64 {\n    match x {\n        0 => 1,\n        n if n > 5 => {\n            n\n        }\n        _ => 0,\n    }\n}\n";
        let mutants = enumerate_file("x.rs", src);
        let arms: Vec<&Mutant> = mutants.iter().filter(|m| m.mutator == "M501").collect();
        assert_eq!(arms.len(), 1, "{:?}", ids(&mutants));
        assert_eq!(arms[0].line, 3);
        assert!(arms[0].mutated_line.is_none());
    }

    #[test]
    fn cfg_test_items_are_never_mutated() {
        let src = "fn f(a: u64) -> bool {\n    a < 3\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert!(super::f(1) && 1 < 2);\n    }\n}\n";
        let mutants = enumerate_file("x.rs", src);
        assert!(!mutants.is_empty());
        assert!(mutants.iter().all(|m| m.line <= 3), "{:?}", ids(&mutants));
    }

    #[test]
    fn apply_and_delete_rewrite_exactly_one_line() {
        let src = "a\nb\nc\n";
        let swap = Mutant {
            mutator: "M101",
            file: "x.rs".into(),
            line: 2,
            col: 1,
            description: String::new(),
            mutated_line: Some("B".into()),
        };
        assert_eq!(apply_to_source(src, &swap), "a\nB\nc\n");
        let del = Mutant {
            mutated_line: None,
            ..swap
        };
        assert_eq!(apply_to_source(src, &del), "a\nc\n");
    }

    #[test]
    fn enumeration_is_deterministic_and_sorted() {
        let src = "fn f(a: u64, b: u64) -> u64 {\n    if a < b {\n        a + 1\n    } else {\n        b - 1\n    }\n}\n";
        let a = enumerate_file("x.rs", src);
        let b = enumerate_file("x.rs", src);
        assert_eq!(ids(&a), ids(&b));
        let mut sorted = ids(&a);
        sorted.sort();
        let mut actual = ids(&a);
        actual.sort();
        assert_eq!(actual, sorted);
    }

    #[test]
    fn sampling_is_seed_deterministic_and_order_preserving() {
        let src = "fn f(a: u64, b: u64) -> u64 {\n    if a < b {\n        a + 1\n    } else {\n        b - 1\n    }\n}\n";
        let mutants = enumerate_file("x.rs", src);
        assert!(mutants.len() > 3);
        let s1 = sample_mutants(mutants.clone(), 3, 7);
        let s2 = sample_mutants(mutants.clone(), 3, 7);
        let s3 = sample_mutants(mutants.clone(), 3, 8);
        assert_eq!(ids(&s1), ids(&s2));
        assert_ne!(ids(&s1), ids(&s3));
        // Picks stay in enumeration order.
        let all = ids(&mutants);
        let picked: Vec<usize> = ids(&s1)
            .iter()
            .map(|k| all.iter().position(|x| x == k).unwrap())
            .collect();
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mutants_allow_requires_a_justification() {
        let dir = std::env::temp_dir().join("xtask-mutants-allow-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutants.allow");
        std::fs::write(
            &path,
            "# comment\ncrates/core/src/qos.rs:10:4 M301  # equivalent: saturating\n",
        )
        .unwrap();
        let entries = load_mutants_allow(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "crates/core/src/qos.rs:10:4 M301");
        assert_eq!(entries[0].file, "crates/core/src/qos.rs");

        std::fs::write(&path, "crates/core/src/qos.rs:10:4 M301\n").unwrap();
        assert!(load_mutants_allow(&path).is_err());
        std::fs::write(&path, "crates/core/src/qos.rs:10:4 M999  # nope\n").unwrap();
        assert!(load_mutants_allow(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_tier_judges_every_shipped_drill() {
        let root = workspace_root();
        let scenarios = explore_scenarios(&root).unwrap();
        let dir = root.join("examples/scenarios");
        let mut drills = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                let name = path.file_name().unwrap().to_string_lossy();
                let rel = format!("examples/scenarios/{name}");
                assert!(
                    scenarios.contains(&rel),
                    "{rel} is not judged: {scenarios:?}"
                );
                drills += 1;
            }
        }
        // The only drill that runs a paced RAID-5 restripe is among them.
        assert!(scenarios.contains(&"examples/scenarios/restripe_drill.toml".to_string()));
        assert!(drills >= 5, "found {drills} drills in {}", dir.display());
        assert_eq!(scenarios.len(), drills + 1);
        assert_eq!(scenarios.last().unwrap(), EXPLORE_REPRODUCER);
        assert!(scenarios[..drills].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn explore_adjacency_matches_engine_files_and_array_dir() {
        assert!(explore_adjacent("crates/core/src/background.rs"));
        assert!(explore_adjacent("crates/core/src/array/craid_array.rs"));
        assert!(!explore_adjacent("crates/core/src/report.rs"));
        assert!(!explore_adjacent("crates/cache/src/lru.rs"));
    }

    #[test]
    fn failure_detail_prefers_oracle_codes_then_test_names() {
        let explore = "counterexample (E404): path [2, 0, 1]\n";
        assert_eq!(failure_detail(explore, ""), "E404");
        let test = "\nfailures:\n    background::tests::pace_floor\n\ntest result: FAILED.\n";
        assert_eq!(failure_detail(test, ""), "background::tests::pace_floor");
        // Panic text in the captured-stdout block must not shadow the name.
        let with_stdout = "\nfailures:\n\n---- background::tests::pace_floor stdout ----\n\
             thread 'background::tests::pace_floor' panicked at src/background.rs:1:1:\n\
             assertion failed\n\nfailures:\n    background::tests::pace_floor\n";
        assert_eq!(
            failure_detail(with_stdout, ""),
            "background::tests::pace_floor"
        );
        assert_eq!(
            failure_detail("", "error[E0308]: mismatched types\n"),
            "error[E0308]: mismatched types"
        );
    }
}
