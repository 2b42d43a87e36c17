//! Source-level determinism and panic-hygiene lint for the workspace.
//!
//! The codebase enforces several rules only by convention: solver paths
//! must not iterate hash containers (iteration order would leak into
//! results), library code must not panic on recoverable conditions, index
//! casts must be checked, `unsafe` blocks need a `SAFETY:` argument, and
//! library results must not depend on the clock. This module makes the
//! conventions checkable: a comment/string-stripping scanner plus six
//! textual rules and a committed allowlist that turns every pre-existing
//! justified site into an explicit, reviewable line.
//!
//! The scanner is deliberately lexical (no type information): it
//! over-approximates, and the allowlist file — see `lint_allowlist.txt` and
//! the crate README — is where a human signs off each site. Rules:
//!
//! * `hash-iter` — iteration over an identifier bound to a `HashMap` /
//!   `HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in`).
//! * `panic-site` — `.unwrap()` / `.expect(` outside test code.
//! * `direct-index` — `expr[…]` indexing outside test code.
//! * `unchecked-cast` — `as usize` / `as u32` narrowing or widening index
//!   casts outside test code.
//! * `unsafe-no-safety` — an `unsafe` token with no `SAFETY:` comment within
//!   the three preceding lines.
//! * `wall-clock` — the `Instant` or `SystemTime` clock types outside test
//!   code: timing belongs to the benchmark harnesses, not to the library.
//!
//! Code under `#[cfg(test)]` is skipped entirely (unit tests may unwrap).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The rule identifiers, in report order.
pub const RULES: [&str; 6] = [
    "hash-iter",
    "panic-site",
    "direct-index",
    "unchecked-cast",
    "unsafe-no-safety",
    "wall-clock",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule (one of [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Result of linting a file tree against an allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintOutcome {
    /// Findings not covered by the allowlist — any entry here fails the
    /// gate.
    pub findings: Vec<Finding>,
    /// Number of findings the allowlist covered.
    pub allowlisted: usize,
    /// Allowlist entries (`"rule path"`) that matched no finding. The gate
    /// fails on any, so the allowlist can only shrink.
    pub stale: Vec<String>,
}

/// Parses the allowlist format: one `rule path` pair per line,
/// whitespace-separated, `#` comments and blank lines ignored.
///
/// # Errors
///
/// Returns a description of the first malformed line or unknown rule.
pub fn parse_allowlist(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut entries = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let rule = parts.next().unwrap_or_default();
        let path = parts
            .next()
            .ok_or_else(|| format!("allowlist line {}: expected `rule path`", index + 1))?;
        if parts.next().is_some() {
            return Err(format!(
                "allowlist line {}: trailing tokens after `rule path`",
                index + 1
            ));
        }
        if !RULES.contains(&rule) {
            return Err(format!(
                "allowlist line {}: unknown rule {rule:?} (expected one of {RULES:?})",
                index + 1
            ));
        }
        entries.push((rule.to_string(), path.to_string()));
    }
    Ok(entries)
}

/// Replaces comments and the contents of string/char literals with spaces
/// (newlines preserved), so the textual rules cannot match inside them.
/// Byte-oriented: all Rust syntax is ASCII and non-ASCII bytes can only
/// occur inside literals, comments or identifiers.
fn mask_source(source: &str) -> String {
    let bytes = source.as_bytes();
    let len = bytes.len();
    let mut out = Vec::with_capacity(len);
    let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    while i < len {
        let b = at(i);
        // Raw (byte) strings: r"…", r#"…"#, br"…", … — opener only when the
        // `r` does not continue an identifier.
        let raw_start = if (b == b'r' || (b == b'b' && at(i + 1) == b'r'))
            && (i == 0 || !is_ident(at(i.wrapping_sub(1))))
        {
            let mut j = i + if b == b'b' { 2 } else { 1 };
            let hash_start = j;
            while at(j) == b'#' {
                j += 1;
            }
            (at(j) == b'"').then_some((j, j - hash_start))
        } else {
            None
        };
        if let Some((quote, hashes)) = raw_start {
            // Copy the prefix, mask to the closing `"` + hashes.
            for k in i..=quote {
                out.push(at(k));
            }
            let mut j = quote + 1;
            loop {
                if j >= len {
                    break;
                }
                if at(j) == b'"' && (1..=hashes).all(|h| at(j + h) == b'#') {
                    out.resize(out.len() + 1 + hashes, b' ');
                    j += 1 + hashes;
                    break;
                }
                out.push(if at(j) == b'\n' { b'\n' } else { b' ' });
                j += 1;
            }
            i = j;
        } else if b == b'/' && at(i + 1) == b'/' {
            while i < len && at(i) != b'\n' {
                out.push(b' ');
                i += 1;
            }
        } else if b == b'/' && at(i + 1) == b'*' {
            let mut depth = 0usize;
            while i < len {
                if at(i) == b'/' && at(i + 1) == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if at(i) == b'*' && at(i + 1) == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(if at(i) == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
        } else if b == b'"' {
            out.push(b'"');
            i += 1;
            while i < len {
                match at(i) {
                    b'\\' => {
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    }
                    b'"' => {
                        out.push(b'"');
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        out.push(b'\n');
                        i += 1;
                    }
                    _ => {
                        out.push(b' ');
                        i += 1;
                    }
                }
            }
        } else if b == b'\'' {
            // Char/byte literal vs lifetime: a literal closes with `'` after
            // one (possibly escaped or multi-byte) character.
            let close = if at(i + 1) == b'\\' {
                // Escaped: scan to the terminating quote (bounded — `\u{…}`
                // escapes are the longest).
                (i + 2..(i + 12).min(len)).find(|&j| at(j) == b'\'')
            } else {
                let step = match at(i + 1) {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => 1,
                };
                (at(i + 1 + step) == b'\'').then_some(i + 1 + step)
            };
            if let Some(close) = close {
                out.push(b'\'');
                out.resize(out.len() + (close - i - 1), b' ');
                out.push(b'\'');
                i = close + 1;
            } else {
                // A lifetime; copy verbatim.
                out.push(b);
                i += 1;
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    // Masking only ever replaces bytes with ASCII spaces, so the result is
    // valid UTF-8 whenever the input was.
    String::from_utf8(out).unwrap_or_default()
}

/// Byte ranges of `#[cfg(test)]`-gated items (attribute through matching
/// closing brace, or through `;` for brace-less items), found on the masked
/// text so literals cannot fake an attribute.
fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(offset) = masked.get(from..).and_then(|s| s.find("#[cfg(test)]")) {
        let start = from + offset;
        let mut i = start + "#[cfg(test)]".len();
        // Find the item's opening brace (or `;` for brace-less items).
        let mut open = None;
        while i < bytes.len() {
            match bytes.get(i) {
                Some(b'{') => {
                    open = Some(i);
                    break;
                }
                Some(b';') => break,
                _ => i += 1,
            }
        }
        let end = match open {
            Some(open) => {
                let mut depth = 0usize;
                let mut j = open;
                loop {
                    match bytes.get(j) {
                        Some(b'{') => depth += 1,
                        Some(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break j + 1;
                            }
                        }
                        None => break j,
                        _ => {}
                    }
                    j += 1;
                }
            }
            None => i + 1,
        };
        regions.push((start, end));
        from = end.max(start + 1);
    }
    regions
}

/// Identifiers the file binds to `HashMap` / `HashSet` values: `let` (and
/// `let mut`) bindings and `name: HashMap<…>` field/parameter declarations.
fn hash_bound_idents(masked: &str) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in masked.lines() {
        if !line.contains("HashMap") && !line.contains("HashSet") {
            continue;
        }
        if let Some(after_let) = line.split("let ").nth(1) {
            let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let ident: String = after_let
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                idents.insert(ident);
            }
        }
        // `name: HashMap<…>` — the ident immediately before the first `:`
        // that precedes the container type.
        if let Some(colon) = line.find(':') {
            let (head, tail) = line.split_at(colon);
            if tail.contains("HashMap") || tail.contains("HashSet") {
                let ident: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if !ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    idents.insert(ident);
                }
            }
        }
    }
    idents
}

/// Whether `line` contains `needle` as a whole word (non-identifier
/// characters, or line edges, on both sides). Distinguishes the `unsafe`
/// keyword from `unsafe_code` in `#![forbid(unsafe_code)]` attributes.
fn whole_word(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(offset) = line.get(from..).and_then(|s| s.find(needle)) {
        let at = from + offset;
        let before_ok = at == 0
            || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
        let after = line
            .as_bytes()
            .get(at + needle.len())
            .copied()
            .unwrap_or(b' ');
        if before_ok && !(after.is_ascii_alphanumeric() || after == b'_') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Whether `needle` occurs in `line` starting at a non-identifier boundary.
fn word_start_occurrence(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(offset) = line.get(from..).and_then(|s| s.find(needle)) {
        let at = from + offset;
        let boundary = at == 0
            || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
        if boundary {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Whether the masked line iterates one of the hash-bound identifiers.
fn iterates_hash(line: &str, idents: &BTreeSet<String>) -> bool {
    const ITER_METHODS: [&str; 10] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
        ".retain(",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
    ];
    for ident in idents {
        for method in ITER_METHODS {
            if word_start_occurrence(line, &format!("{ident}{method}")) {
                return true;
            }
        }
        for prefix in ["in ", "in &", "in &mut "] {
            let pattern = format!("{prefix}{ident}");
            let mut from = 0;
            while let Some(offset) = line.get(from..).and_then(|s| s.find(&pattern)) {
                let at = from + offset;
                let before_ok = at == 0
                    || !line.as_bytes()[at - 1].is_ascii_alphanumeric()
                        && line.as_bytes()[at - 1] != b'_';
                let end = at + pattern.len();
                let after = line.as_bytes().get(end).copied().unwrap_or(b' ');
                // `map.keys()` style is caught above; here only bare
                // iteration (`for k in map {`, `in map;`, end of line).
                let after_ok = !(after.is_ascii_alphanumeric() || after == b'_' || after == b'.');
                if before_ok && after_ok {
                    return true;
                }
                from = at + 1;
            }
        }
    }
    false
}

/// Whether the masked line contains `expr[` indexing (an identifier, `)` or
/// `]` immediately followed by `[`).
fn has_direct_index(line: &str) -> bool {
    let bytes = line.as_bytes();
    bytes.iter().enumerate().any(|(i, &b)| {
        b == b'['
            && i > 0
            && matches!(bytes[i - 1], b')' | b']' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
    })
}

/// Whether the masked line contains an `as usize` / `as u32` cast.
fn has_unchecked_cast(line: &str) -> bool {
    for needle in ["as usize", "as u32"] {
        let mut from = 0;
        while let Some(offset) = line.get(from..).and_then(|s| s.find(needle)) {
            let at = from + offset;
            let before_ok = at == 0
                || !line.as_bytes()[at - 1].is_ascii_alphanumeric()
                    && line.as_bytes()[at - 1] != b'_';
            let end = at + needle.len();
            let after = line.as_bytes().get(end).copied().unwrap_or(b' ');
            let after_ok = !(after.is_ascii_alphanumeric() || after == b'_');
            if before_ok && after_ok {
                return true;
            }
            from = at + 1;
        }
    }
    false
}

/// Lints one file's source, returning findings with `path` as given.
pub fn lint_source(source: &str, path: &str) -> Vec<Finding> {
    let masked = mask_source(source);
    let regions = test_regions(&masked);
    let idents = hash_bound_idents(&masked);
    let original_lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    let mut offset = 0usize;
    for (index, line) in masked.lines().enumerate() {
        let line_start = offset;
        offset += line.len() + 1;
        let in_test = regions
            .iter()
            .any(|&(start, end)| line_start < end && start < line_start + line.len().max(1));
        if in_test {
            continue;
        }
        let snippet = original_lines
            .get(index)
            .map(|l| {
                let trimmed = l.trim();
                trimmed.chars().take(120).collect::<String>()
            })
            .unwrap_or_default();
        let mut push = |rule: &'static str| {
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line: index + 1,
                snippet: snippet.clone(),
            });
        };
        if iterates_hash(line, &idents) {
            push("hash-iter");
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            push("panic-site");
        }
        if has_direct_index(line) {
            push("direct-index");
        }
        if has_unchecked_cast(line) {
            push("unchecked-cast");
        }
        if whole_word(line, "unsafe") {
            let lookback = index.saturating_sub(3);
            let documented = (lookback..=index)
                .any(|i| original_lines.get(i).is_some_and(|l| l.contains("SAFETY:")));
            if !documented {
                push("unsafe-no-safety");
            }
        }
        if whole_word(line, "Instant") || whole_word(line, "SystemTime") {
            push("wall-clock");
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The source roots the workspace lint scans, relative to the repo root:
/// every member crate's `src` tree plus the umbrella crate's `src`.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut members: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            collect_rs_files(&member.join("src"), &mut files);
        }
    }
    collect_rs_files(&root.join("src"), &mut files);
    files
}

/// Lints every member crate's `src` tree (plus the umbrella `src`) under
/// `root` against an allowlist (see [`parse_allowlist`] for the format).
///
/// # Errors
///
/// Returns a description if the allowlist is malformed or a source file
/// cannot be read.
pub fn lint_workspace(root: &Path, allowlist_text: &str) -> Result<LintOutcome, String> {
    let allowlist = parse_allowlist(allowlist_text)?;
    let mut all_findings = Vec::new();
    for file in workspace_sources(root) {
        let source = fs::read_to_string(&file)
            .map_err(|err| format!("cannot read {}: {err}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        all_findings.extend(lint_source(&source, &rel));
    }
    let mut used: Vec<bool> = vec![false; allowlist.len()];
    let mut findings = Vec::new();
    let mut allowlisted = 0usize;
    for finding in all_findings {
        match allowlist
            .iter()
            .position(|(rule, path)| *rule == finding.rule && *path == finding.path)
        {
            Some(index) => {
                used[index] = true;
                allowlisted += 1;
            }
            None => findings.push(finding),
        }
    }
    let stale = allowlist
        .iter()
        .zip(&used)
        .filter(|(_, &was_used)| !was_used)
        .map(|((rule, path), _)| format!("{rule} {path}"))
        .collect();
    Ok(LintOutcome {
        findings,
        allowlisted,
        stale,
    })
}

/// Renders findings as stable `rule path` allowlist lines (deduplicated,
/// sorted) — the `--list` mode of the lint binary, for reviewing or
/// regenerating the allowlist.
pub fn allowlist_lines(findings: &[Finding]) -> Vec<String> {
    let set: BTreeSet<String> = findings
        .iter()
        .map(|f| format!("{} {}", f.rule, f.path))
        .collect();
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(source: &str) -> Vec<&'static str> {
        lint_source(source, "x.rs")
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_unwrap_and_expect_outside_tests() {
        assert_eq!(rules_of("fn f() { x.unwrap(); }"), vec!["panic-site"]);
        assert_eq!(
            rules_of("fn f() { x.expect(\"msg\"); }"),
            vec!["panic-site"]
        );
        assert!(rules_of("fn f() { x.unwrap_or_else(g); }").is_empty());
        assert!(rules_of("fn f() { x.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn skips_cfg_test_modules() {
        let source = "fn f() { g(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_of(source).is_empty());
        let outside = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(rules_of(outside), vec!["panic-site"]);
    }

    #[test]
    fn masks_strings_comments_and_chars() {
        assert!(rules_of("fn f() { g(\"call .unwrap() ok\"); } // x.unwrap()").is_empty());
        assert!(rules_of("/* x.unwrap() */ fn f() {}").is_empty());
        assert!(rules_of("fn f() { let c = '['; }").is_empty());
        assert!(rules_of("fn f() -> &'static str { r#\"a[0].unwrap()\"# }").is_empty());
        // A lifetime tick must not swallow the rest of the line.
        assert_eq!(
            rules_of("fn f<'a>(x: &'a Foo) { y.unwrap(); }"),
            vec!["panic-site"]
        );
    }

    #[test]
    fn flags_direct_indexing_and_casts() {
        assert_eq!(rules_of("fn f() { let y = xs[0]; }"), vec!["direct-index"]);
        assert_eq!(rules_of("fn f() { let y = g()[k]; }"), vec!["direct-index"]);
        assert!(rules_of("fn f(xs: &[u32]) { let y = xs.get(0); }").is_empty());
        assert!(rules_of("#[derive(Debug)]\nstruct S;").is_empty());
        assert_eq!(
            rules_of("fn f() { let y = x as usize; }"),
            vec!["unchecked-cast"]
        );
        assert_eq!(
            rules_of("fn f() { let y = x as u32; }"),
            vec!["unchecked-cast"]
        );
        assert!(rules_of("fn f() { let y = x as u64; }").is_empty());
        assert!(rules_of("fn has_usize() {}").is_empty());
    }

    #[test]
    fn flags_hash_iteration_but_not_lookup() {
        let iterating = "use std::collections::HashMap;\n\
                         fn f() {\n    let mut ids: HashMap<u32, u32> = HashMap::new();\n\
                         \x20   for k in ids.keys() { g(k); }\n}\n";
        assert!(rules_of(iterating).contains(&"hash-iter"));
        let lookup = "use std::collections::HashMap;\n\
                      fn f() {\n    let ids: HashMap<u32, u32> = HashMap::new();\n\
                      \x20   let v = ids.get(&3);\n}\n";
        assert!(!rules_of(lookup).contains(&"hash-iter"));
        let for_loop = "fn f(pool: HashSet<u32>) {\n    for x in &pool { g(x); }\n}\n";
        assert!(rules_of(for_loop).contains(&"hash-iter"));
    }

    #[test]
    fn flags_undocumented_unsafe_only() {
        let documented =
            "fn f() {\n    // SAFETY: the slice outlives the call.\n    unsafe { g() }\n}\n";
        assert!(!rules_of(documented).contains(&"unsafe-no-safety"));
        let bare = "fn f() {\n    unsafe { g() }\n}\n";
        assert!(rules_of(bare).contains(&"unsafe-no-safety"));
        // `unsafe_code` in a forbid attribute is not the `unsafe` keyword.
        assert!(!rules_of("#![forbid(unsafe_code)]\n").contains(&"unsafe-no-safety"));
    }

    #[test]
    fn flags_clock_types_outside_tests_only() {
        assert_eq!(
            rules_of("use std::time::{Duration, Instant};"),
            vec!["wall-clock"]
        );
        assert_eq!(
            rules_of("fn f() { let t = std::time::SystemTime::now(); }"),
            vec!["wall-clock"]
        );
        assert!(rules_of("use std::time::Duration;").is_empty());
        // Identifiers that merely contain the word, comments and strings.
        assert!(rules_of("fn f(instant_ms: u64, t: InstantLike) {}").is_empty());
        assert!(rules_of("// Instant::now() belongs to the harness\nfn f() {}").is_empty());
        assert!(rules_of("fn f() -> &'static str { \"SystemTime\" }").is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(rules_of(in_test).is_empty());
    }

    #[test]
    fn allowlist_parses_and_rejects_unknown_rules() {
        let parsed = parse_allowlist("# comment\npanic-site crates/x/src/lib.rs\n\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parse_allowlist("no-such-rule crates/x/src/lib.rs").is_err());
        assert!(parse_allowlist("panic-site").is_err());
        assert!(parse_allowlist("panic-site a b").is_err());
    }

    #[test]
    fn allowlist_lines_are_sorted_and_deduplicated() {
        let findings = vec![
            Finding {
                rule: "panic-site",
                path: "b.rs".to_string(),
                line: 2,
                snippet: String::new(),
            },
            Finding {
                rule: "panic-site",
                path: "a.rs".to_string(),
                line: 1,
                snippet: String::new(),
            },
            Finding {
                rule: "panic-site",
                path: "b.rs".to_string(),
                line: 9,
                snippet: String::new(),
            },
        ];
        assert_eq!(
            allowlist_lines(&findings),
            vec!["panic-site a.rs", "panic-site b.rs"]
        );
    }
}
