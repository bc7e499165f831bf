//! Shared pieces of the harness binaries' JSON output.
//!
//! Documents carry a `schema_version` field so downstream tooling (the CI
//! JSON check, dashboards) can detect layout changes instead of
//! mis-parsing them.

/// Version stamped into every JSON document the harness binaries write.
/// Bump when a document's envelope (not a row's metric set) changes shape.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Quotes and escapes a string for JSON output.
#[must_use]
pub fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
