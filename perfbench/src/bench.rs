//! What every workload provides to the closed loop: points, each checked,
//! each reporting its model outputs and layer counters.

use crate::trace::Tracer;

/// Layer counters of one point (or, summed, of many). Counts, not times:
/// they repeat exactly for the same inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Anchors produced by `Compiler::compile`.
    pub anchors_compiled: u64,
    /// Anchors replayed by `PreparedSimulator::run_with_scratch`.
    pub anchors_replayed: u64,
    /// Engine events popped (`RunCounters::events_popped`).
    pub events_popped: u64,
    /// Largest engine heap seen (`RunCounters::heap_peak`).
    pub heap_peak: u64,
    /// Per-hop collective steps (`RunCounters::collective_hops`).
    pub collective_hops: u64,
    /// Serving trace-cache hits/misses inside `ServingSimulator::run`.
    pub trace_hits: u64,
    pub trace_misses: u64,
    /// Serving batch-template hits/misses inside `ServingSimulator::run`.
    pub batch_hits: u64,
    pub batch_misses: u64,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        self.anchors_compiled += other.anchors_compiled;
        self.anchors_replayed += other.anchors_replayed;
        self.events_popped += other.events_popped;
        self.heap_peak = self.heap_peak.max(other.heap_peak);
        self.collective_hops += other.collective_hops;
        self.trace_hits += other.trace_hits;
        self.trace_misses += other.trace_misses;
        self.batch_hits += other.batch_hits;
        self.batch_misses += other.batch_misses;
    }
}

/// The outcome of one point: whether its checks passed, its model
/// outputs (simulated, not host time) and its layer counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Point {
    pub ok: bool,
    /// Simulated makespan, in cycles.
    pub makespan_cycles: u64,
    /// ReGate-Full energy savings over NoPG (whole-chip savings on pods).
    pub full_savings: f64,
    /// 99th-percentile request latency, in cycles (the makespan for a
    /// single-batch point, where every sample completes at the end).
    pub p99_latency_cycles: u64,
    pub counts: Counts,
}

/// One workload of the closed loop.
pub trait Bench {
    /// Points per round. Rounds always run whole, so every run covers
    /// each slot equally often; the loop visits a round's slots in a
    /// seeded order.
    fn round_len(&self) -> usize;

    /// Runs the point in `slot` with the per-point seed `seed`, timing
    /// each layer call through `tr`.
    fn point(&mut self, slot: usize, seed: u64, tr: &mut Tracer) -> Point;

    /// Rounds of the set-up reference pass: by default the fewest whole
    /// rounds that reach 16 points.
    fn reference_rounds(&self) -> usize {
        16usize.div_ceil(self.round_len())
    }

    /// Untimed work between two rounds.
    fn between_rounds(&mut self) {}

    /// Table 4 rows left out because no parallelism fits them.
    fn infeasible_configs(&self) -> u64 {
        0
    }
}
