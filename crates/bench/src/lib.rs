//! # regate-bench — experiment harness for the ReGate reproduction
//!
//! The `src/bin` binaries regenerate the data behind every table and figure
//! of the paper, and the workspace-level examples and integration tests are
//! wired through this package. Host-time performance is measured by the
//! standalone `perfbench` package (see `BENCHMARK.json`).

#![warn(missing_docs)]

/// Version stamped into every JSON document the harness binaries write,
/// so downstream tooling (the CI JSON check, dashboards) can detect a
/// layout change instead of mis-parsing it. Bump when a document's
/// envelope (not a row's metric set) changes shape.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Formats a fraction as a percentage with one decimal place.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a section header in the style used by all harness binaries.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a key/value line with aligned columns.
pub fn kv(key: &str, value: impl std::fmt::Display) {
    println!("{key:<44} {value}");
}

/// The table cell of a deployment the evaluator denied: the analyzer's
/// denial rule ids (for example `topo.parallelism-infeasible` when no
/// parallelism fits the deployment's HBM).
#[must_use]
pub fn infeasible(report: &npu_sim::AnalysisReport) -> String {
    let rules: Vec<&str> = report.denials().map(|d| d.rule_id.as_str()).collect();
    format!("infeasible ({})", rules.join(", "))
}

/// The deterministic PRNG shared by the seeded invariant harnesses and
/// the serving layer's arrival sampling. The implementation was promoted
/// from this crate into [`npu_sim::rng`] so production code (Poisson
/// arrivals) and the test corpora draw from the *same* generator; this
/// re-export keeps the harness-facing path stable.
pub use npu_sim::rng::SplitMix64;

/// FNV-1a 64-bit digest over a stream of `u64` values — the hash behind
/// every digest-pinned golden value (`tests/dag_invariants.rs` chain
/// regressions, `tests/serving_invariants.rs` schedule digests). One
/// implementation, so a change to the stepping cannot silently diverge
/// the pinned digests between suites.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a digest at the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value into the digest, little-endian byte by byte.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The current digest value.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// Folds every field of an event-loop counter block, in declaration
    /// order, with the link list's length ahead of its entries.
    pub fn push_counters(&mut self, counters: &npu_sim::RunCounters) {
        let npu_sim::RunCounters {
            events_popped,
            heap_peak,
            ops_retired,
            release_stalls,
            release_stall_cycles,
            collectives_issued,
            collective_hops,
            link_busy_cycles,
        } = counters;
        for v in [
            events_popped,
            heap_peak,
            ops_retired,
            release_stalls,
            release_stall_cycles,
            collectives_issued,
            collective_hops,
        ] {
            self.push(*v);
        }
        self.push(link_busy_cycles.len() as u64);
        for v in link_busy_cycles {
            self.push(*v);
        }
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_one_decimal() {
        assert_eq!(pct(0.155), "15.5%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
