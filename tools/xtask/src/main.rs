//! Workspace verification tasks, runnable as `cargo run -p xtask -- <task>`.
//!
//! `check-json <file>...` verifies that hand-rendered JSON artifacts
//! (exported traces, power waveforms, the sweep matrix) parse as
//! well-formed documents — the workspace vendors no JSON library, so the
//! exporters render by hand and this gate catches envelope bugs in CI.
//!
//! `lint` is a token-level source scan that denies
//! the constructs this workspace's determinism story cannot tolerate.
//! Every simulated number in the repo is pinned by bit-for-bit digest
//! tables, which only works if no code path's behaviour depends on hash
//! iteration order, wall-clock time, or ambient entropy:
//!
//! * `hash-iter` — `HashMap`/`HashSet` in the deterministic-order-critical
//!   crates (`npu-compiler`, `npu-sim`, `npu-serving`). Iteration order of
//!   std's hashers is randomized per process; one stray iteration turns a
//!   digest table into a coin flip. Use `BTreeMap`/`BTreeSet`, or carry a
//!   `// lint:allow(hash-iter)` with a justification for lookup-only maps.
//! * `wall-clock` — `Instant::now`/`SystemTime` anywhere outside the
//!   `bench` crate (and `benches/` harnesses). Simulated time comes from
//!   the event timeline; host time in a model is a reproducibility bug.
//! * `unseeded-rng` — `thread_rng`, `from_entropy`, `OsRng`, `getrandom`,
//!   `rand::random`. The only sanctioned randomness is the seeded
//!   `npu_sim::rng::SplitMix64`.
//! * `no-unwrap` — `.unwrap()`, and `.expect(` on a non-literal argument,
//!   in non-test library code. Library invariants must either hold a
//!   typed error or die with a message that states the invariant
//!   (`.expect("...")`); a bare unwrap reports `Option::unwrap` and a
//!   line number, which tells a user nothing.
//!
//! The scanner strips comments and string/char literals before matching
//! (string *contents* are blanked but the quotes survive, so
//! `.expect("msg")` is still recognizably literal), skips `#[cfg(test)]`
//! modules by brace tracking, and honours an inline escape hatch: a
//! `// lint:allow(<rule>)` comment on the offending line or the line
//! directly above suppresses that rule for that line. Output order is a
//! pure function of the tree (files sorted by path, rules in a fixed
//! order), so CI diffs are stable.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose output is pinned by bit-for-bit digests: hash-order
/// nondeterminism anywhere in them (tests included) is a denial.
const DETERMINISM_CRATES: &[&str] = &["npu-compiler", "npu-sim", "npu-serving"];

/// The one crate allowed to read the host clock (it measures the
/// simulator itself).
const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// Crates whose `src/` is *library* code subject to `no-unwrap`
/// (everything but the binary/bench crate; `src/bin/`, `tests/`,
/// `benches/`, and `examples/` are excluded everywhere).
const UNWRAP_EXEMPT_CRATES: &[&str] = &["bench"];

/// Lint rule identifiers, in reporting order.
const RULE_HASH_ITER: &str = "hash-iter";
const RULE_WALL_CLOCK: &str = "wall-clock";
const RULE_UNSEEDED_RNG: &str = "unseeded-rng";
const RULE_NO_UNWRAP: &str = "no-unwrap";

/// One lint finding.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    /// Workspace-relative path.
    file: String,
    /// 1-based line number.
    line: usize,
    /// Rule identifier.
    rule: &'static str,
    /// The offending source line, trimmed.
    snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.snippet)
    }
}

/// What kind of code a file holds, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileContext<'a> {
    /// Name of the crate the file belongs to.
    crate_name: &'a str,
    /// `src/**` excluding `src/bin/**` — the code other crates link.
    is_library: bool,
    /// `tests/`, `benches/`, or `examples/` — harness code.
    is_harness: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("check-json") => run_check_json(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | check-json <file>...>");
            eprintln!();
            eprintln!("tasks:");
            eprintln!("  lint        deny hash-iteration, wall-clock, unseeded RNG, and bare");
            eprintln!("              unwrap/expect in the workspace sources");
            eprintln!("  check-json  verify each file parses as a single well-formed JSON");
            eprintln!("              document (exported traces, the sweep matrix)");
            ExitCode::from(2)
        }
    }
}

/// Verifies each listed file is one well-formed JSON document — the CI
/// gate over exported traces, power waveforms, and the sweep matrix
/// (all hand-rendered, none produced by a JSON library).
fn run_check_json(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("check-json: no files given");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("check-json: {file}: {e}");
                failed = true;
                continue;
            }
        };
        match json::validate(&text) {
            Ok(()) => println!("check-json: {file}: ok ({} bytes)", text.len()),
            Err(e) => {
                eprintln!("check-json: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A minimal recursive-descent JSON well-formedness checker (RFC 8259
/// grammar, no value materialization). Kept dependency-free on purpose:
/// the workspace vendors no JSON library, and the exporters it checks
/// render their documents by hand.
mod json {
    /// Validates that `text` is exactly one JSON value plus whitespace.
    pub fn validate(text: &str) -> Result<(), String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(at(bytes, pos, "trailing content after the document"));
        }
        Ok(())
    }

    /// Renders an error with its 1-based line and column.
    fn at(bytes: &[u8], pos: usize, what: &str) -> String {
        let mut line = 1usize;
        let mut column = 1usize;
        for &b in &bytes[..pos.min(bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        format!("line {line}, column {column}: {what}")
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *pos += 1;
        }
    }

    fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        match bytes.get(*pos) {
            Some(b'{') => object(bytes, pos),
            Some(b'[') => array(bytes, pos),
            Some(b'"') => string(bytes, pos),
            Some(b'-' | b'0'..=b'9') => number(bytes, pos),
            Some(b't') => literal(bytes, pos, b"true"),
            Some(b'f') => literal(bytes, pos, b"false"),
            Some(b'n') => literal(bytes, pos, b"null"),
            Some(&b) => Err(at(bytes, *pos, &format!("unexpected byte {:?}", b as char))),
            None => Err(at(bytes, *pos, "unexpected end of input")),
        }
    }

    fn literal(bytes: &[u8], pos: &mut usize, expected: &[u8]) -> Result<(), String> {
        if bytes[*pos..].starts_with(expected) {
            *pos += expected.len();
            Ok(())
        } else {
            Err(at(bytes, *pos, &format!("expected `{}`", String::from_utf8_lossy(expected))))
        }
    }

    fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume `{`
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(at(bytes, *pos, "expected a string object key"));
            }
            string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(at(bytes, *pos, "expected `:` after object key"));
            }
            *pos += 1;
            skip_ws(bytes, pos);
            value(bytes, pos)?;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(at(bytes, *pos, "expected `,` or `}` in object")),
            }
        }
    }

    fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume `[`
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(bytes, pos);
            value(bytes, pos)?;
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(at(bytes, *pos, "expected `,` or `]` in array")),
            }
        }
    }

    fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // consume opening quote
        loop {
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            *pos += 1;
                            for _ in 0..4 {
                                if !matches!(
                                    bytes.get(*pos),
                                    Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
                                ) {
                                    return Err(at(bytes, *pos, "bad \\u escape"));
                                }
                                *pos += 1;
                            }
                        }
                        _ => return Err(at(bytes, *pos, "bad escape in string")),
                    }
                }
                Some(&b) if b < 0x20 => {
                    return Err(at(bytes, *pos, "unescaped control character in string"));
                }
                Some(_) => *pos += 1,
                None => return Err(at(bytes, *pos, "unterminated string")),
            }
        }
    }

    fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match bytes.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => digits(bytes, pos),
            _ => return Err(at(bytes, *pos, "expected a digit")),
        }
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                return Err(at(bytes, *pos, "expected a digit after `.`"));
            }
            digits(bytes, pos);
        }
        if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                return Err(at(bytes, *pos, "expected a digit in exponent"));
            }
            digits(bytes, pos);
        }
        Ok(())
    }

    fn digits(bytes: &[u8], pos: &mut usize) {
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::validate;

        #[test]
        fn accepts_well_formed_documents() {
            for ok in [
                "{}",
                "[]",
                "null",
                "-12.5e-3",
                r#"{"a": [1, 2, {"b": "c\né"}], "d": true}"#,
                "{\n  \"schema_version\": 1,\n  \"rows\": [\n    { \"x\": 1.0e9 }\n  ]\n}\n",
            ] {
                assert!(validate(ok).is_ok(), "rejected valid JSON: {ok}");
            }
        }

        #[test]
        fn rejects_malformed_documents() {
            for bad in [
                "",
                "{",
                "[1,]",
                "{\"a\" 1}",
                "{'a': 1}",
                "01",
                "1.",
                "\"unterminated",
                "[1] trailing",
                "{\"a\": 1,}",
                "nul",
            ] {
                assert!(validate(bad).is_err(), "accepted malformed JSON: {bad}");
            }
        }
    }
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rust_files(&root.join("crates"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let Some(context) = classify(&rel) else { continue };
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("xtask lint: unreadable file {rel}");
            return ExitCode::from(2);
        };
        violations.extend(scan_source(context, &rel, &text));
    }

    if violations.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("xtask lint: {} violations in {} files scanned", violations.len(), files.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Recursively collects `.rs` files (skipping `target/`).
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Derives the file's lint context from its workspace-relative path
/// (`crates/<name>/...`). Returns `None` for files outside `crates/`.
fn classify(rel: &str) -> Option<FileContext<'_>> {
    let rest = rel.strip_prefix("crates/")?;
    let (crate_name, inner) = rest.split_once('/')?;
    let is_library = inner.starts_with("src/") && !inner.starts_with("src/bin/");
    let is_harness = inner.starts_with("tests/")
        || inner.starts_with("benches/")
        || inner.starts_with("examples/");
    Some(FileContext { crate_name, is_library, is_harness })
}

/// Scans one file's source text and returns its violations.
fn scan_source(context: FileContext<'_>, rel: &str, text: &str) -> Vec<Violation> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let stripped = strip_comments_and_strings(text);
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let in_test_mod = test_module_lines(&stripped_lines);

    let hash_iter_applies = DETERMINISM_CRATES.contains(&context.crate_name);
    let wall_clock_applies =
        !WALL_CLOCK_EXEMPT_CRATES.contains(&context.crate_name) && !context.is_harness;
    let unwrap_applies = context.is_library && !UNWRAP_EXEMPT_CRATES.contains(&context.crate_name);

    let allowed = |raw_lines: &[&str], index: usize, rule: &str| {
        let marker = format!("lint:allow({rule})");
        raw_lines[index].contains(&marker) || (index > 0 && raw_lines[index - 1].contains(&marker))
    };
    let mut out = Vec::new();
    let mut push = |index: usize, rule: &'static str| {
        if !allowed(&raw_lines, index, rule) {
            out.push(Violation {
                file: rel.to_string(),
                line: index + 1,
                rule,
                snippet: raw_lines[index].trim().chars().take(120).collect(),
            });
        }
    };

    for (index, line) in stripped_lines.iter().enumerate() {
        if hash_iter_applies && (contains_token(line, "HashMap") || contains_token(line, "HashSet"))
        {
            push(index, RULE_HASH_ITER);
        }
        if wall_clock_applies
            && (line.contains("Instant::now") || contains_token(line, "SystemTime"))
        {
            push(index, RULE_WALL_CLOCK);
        }
        if line.contains("thread_rng")
            || line.contains("from_entropy")
            || contains_token(line, "OsRng")
            || line.contains("getrandom")
            || line.contains("rand::random")
        {
            push(index, RULE_UNSEEDED_RNG);
        }
        if unwrap_applies && !in_test_mod[index] {
            if line.contains(".unwrap()") {
                push(index, RULE_NO_UNWRAP);
            }
            if let Some(pos) = line.find(".expect(") {
                let after = line[pos + ".expect(".len()..].trim_start();
                // String contents are blanked but the quotes survive, so a
                // literal message still starts with `"`. A line-ending
                // `(` means the argument is a wrapped expression — treat
                // it as non-literal unless the next line opens with `"`.
                let literal = after.starts_with('"')
                    || (after.is_empty()
                        && stripped_lines
                            .get(index + 1)
                            .is_some_and(|next| next.trim_start().starts_with('"')));
                if !literal {
                    push(index, RULE_NO_UNWRAP);
                }
            }
        }
    }
    out
}

/// Whether `token` occurs in `line` *as a whole word* (not as a substring
/// of a longer identifier).
fn contains_token(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(found) = line[start..].find(token) {
        let begin = start + found;
        let end = begin + token.len();
        let boundary = |b: u8| !(b.is_ascii_alphanumeric() || b == b'_');
        let left_ok = begin == 0 || boundary(bytes[begin - 1]);
        let right_ok = end == bytes.len() || boundary(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        start = end;
    }
    false
}

/// Replaces comment bodies and string/char-literal *contents* with spaces
/// (string delimiters survive; newlines survive everywhere, so line
/// numbers are preserved).
fn strip_comments_and_strings(text: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Str;
                    out.push(b'"');
                    i += 1;
                } else if b == b'r' && matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) {
                    // Raw string: r"..." or r#"..."# (any hash depth).
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        state = State::RawStr(hashes);
                        out.resize(out.len() + (j - i), b' ');
                        out.push(b'"');
                        i = j + 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // few bytes (`'x'`, `'\n'`, `'\u{..}'`); a lifetime
                    // never has a closing quote nearby.
                    let close =
                        bytes[i + 1..].iter().take(12).position(|&c| c == b'\'').map(|p| i + 1 + p);
                    let is_char = match close {
                        Some(c) if c == i + 1 => false, // `''` is not a char
                        Some(c) => bytes[i + 1] == b'\\' || c == i + 2,
                        None => false,
                    };
                    if is_char {
                        state = State::Char;
                        out.push(b'\'');
                        i += 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' && i + 1 < bytes.len() {
                    // `\<newline>` is a line continuation: the newline must
                    // survive so line numbers stay aligned.
                    out.push(b' ');
                    out.push(if bytes[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b == b'"' {
                    state = State::Code;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let closes = (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'));
                    if closes {
                        state = State::Code;
                        out.push(b'"');
                        out.resize(out.len() + hashes, b' ');
                        i += 1 + hashes;
                        continue;
                    }
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            State::Char => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.push(b' ');
                    out.push(if bytes[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b == b'\'' {
                    state = State::Code;
                    out.push(b'\'');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
        }
    }
    String::from_utf8(out).expect("stripping replaces bytes with ASCII only")
}

/// Marks the lines that sit inside a `#[cfg(test)]`-gated item (module or
/// function) by tracking brace depth from the attribute's item.
fn test_module_lines(stripped_lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; stripped_lines.len()];
    let mut i = 0;
    while i < stripped_lines.len() {
        if stripped_lines[i].contains("#[cfg(test)]") {
            // Find the opening brace of the gated item, then consume until
            // its matching close. Everything in between is test code.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            while j < stripped_lines.len() {
                for c in stripped_lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                in_test[j] = true;
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileContext<'_> =
        FileContext { crate_name: "npu-sim", is_library: true, is_harness: false };

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn every_rule_fires_on_a_minimal_repro() {
        let src = "use std::collections::HashMap;\n\
                   let t = std::time::Instant::now();\n\
                   let r = rand::thread_rng();\n\
                   let v = x.unwrap();\n\
                   let w = y.expect(msg);\n";
        let rules = rules_of(&scan_source(LIB, "crates/npu-sim/src/x.rs", src));
        assert_eq!(
            rules,
            [RULE_HASH_ITER, RULE_WALL_CLOCK, RULE_UNSEEDED_RNG, RULE_NO_UNWRAP, RULE_NO_UNWRAP]
        );
    }

    #[test]
    fn expect_with_a_literal_message_is_allowed() {
        let src = "let a = x.expect(\"the invariant\");\n\
                   let b = y.expect(\n    \"wrapped literal\",\n);\n\
                   let c = z.expect(message());\n";
        let violations = scan_source(LIB, "crates/npu-sim/src/x.rs", src);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 5);
    }

    #[test]
    fn lint_allow_suppresses_on_same_and_preceding_line() {
        let src = "use std::collections::HashMap; // lint:allow(hash-iter) lookup-only\n\
                   // lint:allow(no-unwrap) justified\n\
                   let v = x.unwrap();\n\
                   let w = y.unwrap();\n";
        let violations = scan_source(LIB, "crates/npu-sim/src/x.rs", src);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 4);
        assert_eq!(violations[0].rule, RULE_NO_UNWRAP);
    }

    #[test]
    fn comments_strings_and_test_modules_do_not_fire() {
        let src = "// a HashMap in a comment\n\
                   /* Instant::now() in a block\n   spanning lines */\n\
                   let s = \".unwrap() thread_rng HashMap\";\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f() { x.unwrap(); }\n\
                   }\n";
        assert_eq!(scan_source(LIB, "crates/npu-sim/src/x.rs", src), Vec::new());
    }

    #[test]
    fn rules_scope_by_crate_and_file_kind() {
        let src = "use std::collections::HashMap;\nlet v = x.unwrap();\n";
        // npu-arch: not a determinism crate, but still a library → only
        // the unwrap fires.
        let arch = FileContext { crate_name: "npu-arch", is_library: true, is_harness: false };
        assert_eq!(rules_of(&scan_source(arch, "f.rs", src)), [RULE_NO_UNWRAP]);
        // bench: exempt from unwrap and wall-clock, but not from RNG.
        let bench = FileContext { crate_name: "bench", is_library: true, is_harness: false };
        assert_eq!(
            scan_source(bench, "f.rs", "let t = Instant::now();\nx.unwrap();\n"),
            Vec::new()
        );
        assert_eq!(rules_of(&scan_source(bench, "f.rs", "thread_rng()\n")), [RULE_UNSEEDED_RNG]);
        // A test harness file of a determinism crate: hash-iter still
        // applies (digest tables run there), unwrap does not.
        let harness = FileContext { crate_name: "npu-sim", is_library: false, is_harness: true };
        assert_eq!(rules_of(&scan_source(harness, "f.rs", src)), [RULE_HASH_ITER]);
    }

    #[test]
    fn token_matching_requires_word_boundaries() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_token("let hashmap = 1;", "HashMap"));
    }

    #[test]
    fn classify_maps_paths_to_contexts() {
        assert_eq!(
            classify("crates/npu-sim/src/engine.rs"),
            Some(FileContext { crate_name: "npu-sim", is_library: true, is_harness: false })
        );
        assert_eq!(
            classify("crates/bench/src/bin/evaluation.rs"),
            Some(FileContext { crate_name: "bench", is_library: false, is_harness: false })
        );
        assert_eq!(
            classify("crates/bench/benches/engine_hot_loop.rs"),
            Some(FileContext { crate_name: "bench", is_library: false, is_harness: true })
        );
        assert_eq!(classify("tools/xtask/src/main.rs"), None);
    }

    #[test]
    fn stripping_preserves_line_numbers_through_string_continuations() {
        // A `\`-newline continuation inside a string literal spans lines;
        // losing that newline would shift every report below it.
        let src =
            "let m = format!(\n    \"first half \\\n     second half\",\n);\nlet v = x.unwrap();\n";
        assert_eq!(strip_comments_and_strings(src).lines().count(), src.lines().count());
        let violations = scan_source(LIB, "f.rs", src);
        assert_eq!(rules_of(&violations), [RULE_NO_UNWRAP]);
        assert_eq!(violations[0].line, 5);
    }

    #[test]
    fn raw_strings_and_char_literals_survive_stripping() {
        let src = "let a = r#\"HashMap inside raw\"#;\nlet b = '\\n';\nlet c: &'static str = \"x\";\nlet d = x.unwrap();\n";
        let violations = scan_source(LIB, "f.rs", src);
        assert_eq!(rules_of(&violations), [RULE_NO_UNWRAP]);
        assert_eq!(violations[0].line, 4);
    }
}
