//! Static schedule analysis: verify the compile→gate→serve pipeline
//! before a single event fires.
//!
//! The simulator's correctness story so far has been *post-hoc*: run the
//! event engine, then assert invariants on the schedule it produced
//! (capacity audits, digest tables, conservation checks). This module adds
//! the *a-priori* half — a pass pipeline over the compiled artifacts
//! ([`npu_compiler::CompiledGraph`], the engine's
//! [`PhaseGraph`], the [`SramAllocation`], the
//! [`npu_power::GatingParams`], a serving release trace)
//! that emits structured [`Diagnostic`]s without running anything:
//!
//! * **DAG defects** — producer edges out of range or non-topological,
//!   producer lists referencing fused-away operators, folded operators
//!   that kept edges or point at invalid anchors, operators a scheduler
//!   can never make ready, isolated operators, redundant transitive edges.
//! * **Makespan bounds** — a `[lower, upper]` window derived from the
//!   critical path (with release clamping) and per-resource serial work;
//!   any *measured* makespan outside the window indicates a broken engine
//!   or a broken model, and is a hard [`Severity::Deny`].
//! * **SRAM capacity** — the allocation's static live-byte peak versus the
//!   target chip's scratchpad (subsuming the post-hoc
//!   [`SramCapacityReport`] audit, which now lives here).
//! * **Gating-config consistency** — break-even times below the wake-up
//!   amortization point, drowsy/off threshold misordering, leakage ratios
//!   outside `[0, 1)`, `setpm` lead times no compiler-visible gap can
//!   hide, duty cycles outside `(0, 1]`.
//! * **Serving-trace sanity** — the `serve.*` rules, emitted by the
//!   serving layer's checks on its inputs and on the batch and request
//!   records of a served trace: batch dispatch monotonicity, batch
//!   operator ranges that tile the combined graph, and requests that
//!   partition the trace in order.
//!
//! Every rule has a stable string id (`dag.cycle`, `time.makespan-above-
//! ceiling`, …) listed in [`rules`], so tests assert on exact ids and the
//! README can catalogue them. The analyzer never panics on malformed
//! input — malformed input is its *subject matter* — and its output is a
//! pure function of its input, byte for byte.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use npu_compiler::{CompiledGraph, SramAllocation};
use npu_models::{Adjacency, Workload};
use npu_power::{GatingParams, GatingRule, PolicyRule, PowerPolicy};

use npu_arch::{LinkGraph, NpuSpec, ParallelismConfig};

use crate::engine::{SimulationResult, DISPATCH_OVERHEAD_CYCLES};
use crate::timeline::{
    CycleInterval, OpPhases, PhaseGraph, Resource, ResourceId, ResourceSet, ResourceTimeline,
};
use crate::trace::{TraceRecorder, TraceSlice};

/// Stable rule identifiers, grouped by pass family. These strings are a
/// public contract: tests assert on them, `// lint:allow(...)`-style
/// suppressions reference them, and the README catalogues them.
pub mod rules {
    /// The graph has no operators — nothing to schedule (note).
    pub const DAG_EMPTY_GRAPH: &str = "dag.empty-graph";
    /// A producer edge references an operator id outside the graph (deny).
    pub const DAG_PRODUCER_OUT_OF_RANGE: &str = "dag.producer-out-of-range";
    /// A producer edge does not precede its consumer — the id order is not
    /// topological, so the dependency relation has a cycle (deny).
    pub const DAG_CYCLE: &str = "dag.cycle";
    /// A producer list references an operator that was fused away; the
    /// engine's anchor remap would read a `usize::MAX` position (deny).
    pub const DAG_PRODUCER_FUSED_AWAY: &str = "dag.producer-fused-away";
    /// A folded operator still carries producer edges of its own — fusion
    /// must remap group-internal edges onto the anchor (deny).
    pub const DAG_FOLDED_OP_KEEPS_EDGES: &str = "dag.folded-op-keeps-edges";
    /// `folded_into` points outside the graph, at the operator itself, or
    /// at another folded operator instead of an anchor (deny).
    pub const DAG_FOLDED_INTO_INVALID: &str = "dag.folded-into-invalid";
    /// No dependency-respecting order can ever make this operator ready
    /// (it sits on a cycle or behind a dangling producer) (deny).
    pub const DAG_UNREACHABLE_OP: &str = "dag.unreachable-op";
    /// An anchor with neither producers nor consumers in a multi-anchor
    /// graph — almost always a lowering bug such as a request subgraph
    /// that lost its merge edge (warn).
    pub const DAG_ORPHAN_SINK: &str = "dag.orphan-sink";
    /// A producer edge transitively implied by the rest of the graph;
    /// harmless to correctness but it inflates fan-in and hides the real
    /// critical path (note).
    pub const DAG_REDUNDANT_EDGE: &str = "dag.redundant-edge";
    /// The redundancy pass was skipped because the graph exceeds the
    /// ancestor-bitset budget — reported so the cap is never silent (note).
    pub const DAG_REDUNDANT_EDGE_SKIPPED: &str = "dag.redundant-edge-skipped";

    /// The release vector is neither empty nor one entry per operator
    /// (deny).
    pub const TIME_RELEASE_LENGTH_MISMATCH: &str = "time.release-length-mismatch";
    /// A measured makespan below the static lower bound: the engine
    /// finished faster than the critical path / resource work allows
    /// (deny).
    pub const TIME_MAKESPAN_BELOW_FLOOR: &str = "time.makespan-below-floor";
    /// A measured makespan above the static upper bound: the engine lost
    /// more time than a fully serial schedule (deny).
    pub const TIME_MAKESPAN_ABOVE_CEILING: &str = "time.makespan-above-ceiling";

    /// The allocation's static live-byte peak exceeds the target chip's
    /// scratchpad capacity (deny).
    pub const SRAM_PEAK_OVER_CAPACITY: &str = "sram.peak-over-capacity";
    /// One operator's reported live bytes exceed the capacity (deny).
    pub const SRAM_OP_OVER_CAPACITY: &str = "sram.op-over-capacity";
    /// The allocation was produced for a larger scratchpad than the target
    /// chip carries — its addresses do not all exist (warn).
    pub const SRAM_GEOMETRY_OVER_CAPACITY: &str = "sram.geometry-over-capacity";
    /// A tile's post-tiling SRAM footprint exceeds the scratchpad — the
    /// tiling pass failed to make the operator fit (warn).
    pub const SRAM_TILE_OVER_CAPACITY: &str = "sram.tile-over-capacity";

    /// A component's break-even time is below its wake-up amortization
    /// point: gating at exactly BET costs more energy than it saves
    /// (deny).
    pub const GATE_BET_BELOW_AMORTIZATION: &str = "gate.bet-below-amortization";
    /// SRAM drowsy/off thresholds are misordered: the state-destroying
    /// mode engages before the state-retaining one, or leaks more (deny).
    pub const GATE_SRAM_MODE_ORDERING: &str = "gate.sram-mode-ordering";
    /// A leakage ratio is outside `[0, 1)` — a gated component may not
    /// leak more than an idle-ungated one (deny).
    pub const GATE_LEAKAGE_OUT_OF_RANGE: &str = "gate.leakage-out-of-range";
    /// A component's wake-up delay exceeds the dispatch overhead, the
    /// minimum compiler-visible gap — `setpm` cannot hide the wake-up
    /// behind dispatch and every gated interval pays exposed latency
    /// (warn).
    pub const GATE_SETPM_LEAD_EXCEEDS_DISPATCH: &str = "gate.setpm-lead-exceeds-dispatch";
    /// A duty cycle outside `(0, 1]` (deny).
    pub const GATE_DUTY_CYCLE_OUT_OF_RANGE: &str = "gate.duty-cycle-out-of-range";

    /// A per-request workload with zero samples — a request that carries
    /// nothing cannot be lowered (deny). Emitted by
    /// `npu_serving::ServingSimulator::try_new`.
    pub const SERVE_EMPTY_REQUEST: &str = "serve.empty-request";
    /// An arrival trace with no requests — nothing to serve (deny).
    /// Emitted by `npu_serving::ServingSimulator::try_run`.
    pub const SERVE_EMPTY_TRACE: &str = "serve.empty-trace";
    /// A batch dispatches before an earlier batch — the admission queue
    /// is FIFO, so the records are corrupt — or an arrival trace
    /// decreases (deny). Emitted by `npu_serving::ServingSimulator::try_run`
    /// and the serving layer's outcome checks.
    pub const SERVE_RELEASE_REGRESSION: &str = "serve.release-regression";
    /// The batches do not partition the trace's requests in order, or a
    /// request names a batch that does not carry it (deny). Emitted by
    /// the serving layer's outcome checks.
    pub const SERVE_BATCH_NOT_CONSERVED: &str = "serve.batch-not-conserved";
    /// A batch's operator range is empty, does not start where the
    /// previous batch's ended, or reaches past the combined graph, or the
    /// batches leave operators of the combined graph uncovered (deny).
    /// Emitted by the serving layer's outcome checks.
    pub const SERVE_SPAN_OUT_OF_RANGE: &str = "serve.span-out-of-range";
    /// A request's batch was dispatched before the request arrived —
    /// causality violated in the trace (deny). Emitted by the serving
    /// layer's outcome checks.
    pub const SERVE_DISPATCH_BEFORE_ARRIVAL: &str = "serve.dispatch-before-arrival";
    /// A batch (or request) completes before it was dispatched (deny).
    /// Emitted by the serving layer's outcome checks.
    pub const SERVE_COMPLETION_BEFORE_DISPATCH: &str = "serve.completion-before-dispatch";

    /// A DVFS scale factor outside `(0, 1]` — a zero or negative scale
    /// claims free idleness, a scale above 1 makes DVFS worse than doing
    /// nothing (deny).
    pub const POLICY_SCALE_OUT_OF_RANGE: &str = "policy.scale-out-of-range";
    /// A clock-gating residual outside `[0, 1]` — the surviving fraction
    /// of idle power cannot be negative or exceed the ungated cost
    /// (deny).
    pub const POLICY_RESIDUAL_OUT_OF_RANGE: &str = "policy.residual-out-of-range";
    /// A write-back cost inconsistent with the segment size, streaming
    /// bandwidth, or break-even time — the policy would claim savings it
    /// cannot physically deliver (deny).
    pub const POLICY_WRITEBACK_INCONSISTENT: &str = "policy.writeback-inconsistent";
    /// A transition-cost configuration contradicting the hardware
    /// structure it models, e.g. a tile waking slower than the full
    /// array it is a fraction of (deny).
    pub const POLICY_TRANSITION_INCONSISTENT: &str = "policy.transition-inconsistent";

    /// A fabric link's endpoint is outside the pod's chip range (deny).
    pub const TOPO_LINK_ENDPOINT_OUT_OF_RANGE: &str = "topo.link-endpoint-out-of-range";
    /// The routing table has no route for some ordered chip pair — the
    /// fabric is disconnected or routing is broken (deny).
    pub const TOPO_ROUTE_INCOMPLETE: &str = "topo.route-incomplete";
    /// A pod's resource set disagrees with its link graph (chip count or
    /// link count), so phase link ids and fabric links cannot correspond
    /// (deny).
    pub const TOPO_CHIP_COUNT_MISMATCH: &str = "topo.chip-count-mismatch";
    /// A lowered collective phase disagrees with the fabric: no link at
    /// all, a link id outside the resource set, a link set that is not
    /// the collective ring the graph routes, or per-hop step cycles that
    /// do not sum to the phase's transfer (deny).
    pub const TOPO_COLLECTIVE_LINKS_MISMATCH: &str = "topo.collective-links-mismatch";
    /// No valid parallelism configuration exists for the requested
    /// (workload, chip count) — the evaluation would have to fabricate
    /// one (deny). Emitted by [`super::feasible_parallelism`].
    pub const TOPO_PARALLELISM_INFEASIBLE: &str = "topo.parallelism-infeasible";

    /// Two slices of one exported display track overlap — a resource with
    /// a single in-order issue port cannot run two operators at once, so
    /// the trace misrepresents the schedule (deny). Abutting slices are
    /// fine.
    pub const OBS_TRACK_OVERLAP: &str = "obs.track-overlap";
    /// An exported trace event extends past the schedule's makespan —
    /// the trace claims activity after the run ended (deny).
    pub const OBS_EVENT_OUT_OF_WINDOW: &str = "obs.event-out-of-window";
    /// The merged busy intervals an exported track implies disagree,
    /// record for record, with the schedule's own finalized
    /// `ResourceTimeline` track — the trace and the run it claims to
    /// depict have diverged (deny).
    pub const OBS_TIMELINE_MISMATCH: &str = "obs.timeline-mismatch";
}

/// How many diagnostics one repeating rule may emit before the remainder
/// collapses into a single summary diagnostic of the same rule id.
const PER_RULE_CAP: usize = 16;

/// Largest anchor count the redundant-edge pass will build ancestor
/// bitsets for (quadratic bits); beyond it the pass reports itself
/// skipped instead of silently not running.
const REDUNDANT_EDGE_ANCHOR_CAP: usize = 4096;

/// Diagnostic severity, ascending: notes inform, warnings smell, denials
/// make the artifact unschedulable (or the measurement unexplainable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: worth a look, never blocks.
    Note,
    /// Suspicious but runnable: almost always a lowering or config smell.
    Warn,
    /// The artifact must not be run (or the measurement cannot be
    /// trusted).
    Deny,
}

impl Severity {
    /// Lower-case label used in rendered reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// An inclusive index range `[first, last]` locating a diagnostic in
/// whatever sequence the pass analyzed — compiled-operator ids for graph
/// passes, anchor positions for phase/SRAM passes, span indices for
/// serving passes. Single-element spans have `first == last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSpan {
    /// First index of the span.
    pub first: usize,
    /// Last index of the span (inclusive).
    pub last: usize,
}

impl OpSpan {
    /// A one-element span.
    #[must_use]
    pub fn single(index: usize) -> Self {
        OpSpan { first: index, last: index }
    }

    /// A two-endpoint span (endpoints need not be ordered; they are
    /// normalized so `first <= last`).
    #[must_use]
    pub fn between(a: usize, b: usize) -> Self {
        OpSpan { first: a.min(b), last: a.max(b) }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier from [`rules`].
    pub rule_id: String,
    /// How bad it is.
    pub severity: Severity,
    /// Where it is, in the index domain of the analyzed sequence
    /// (`None` for whole-artifact findings such as config inconsistency).
    pub span: Option<OpSpan>,
    /// Human-readable explanation with the offending values inlined.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    #[must_use]
    pub fn new(
        severity: Severity,
        rule_id: &str,
        span: Option<OpSpan>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { rule_id: rule_id.to_string(), severity, span, message: message.into() }
    }

    /// A [`Severity::Deny`] diagnostic.
    #[must_use]
    pub fn deny(rule_id: &str, span: Option<OpSpan>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Deny, rule_id, span, message)
    }

    /// A [`Severity::Warn`] diagnostic.
    #[must_use]
    pub fn warn(rule_id: &str, span: Option<OpSpan>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warn, rule_id, span, message)
    }

    /// A [`Severity::Note`] diagnostic.
    #[must_use]
    pub fn note(rule_id: &str, span: Option<OpSpan>, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Note, rule_id, span, message)
    }
}

/// The static `[lower, upper]` window (inclusive, in cycles) every
/// measured makespan of the analyzed phase vector must land in.
///
/// * `lower` is the larger of the dependency critical path (with release
///   clamping: an operator starts no earlier than its release, and its
///   DMA stream alone already forces `release + dma` cycles) and the
///   serial work bound of each single-issue resource (the SA gang, the VU
///   gang including fused tails, the demand-HBM channel, the prefetch
///   channel, the ICI port). No schedule can beat either.
/// * `upper` is the latest release plus the sum of serial per-operator
///   costs — the fully serialized schedule the event engine provably
///   never does worse than.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MakespanWindow {
    /// No schedule of the phase vector can finish before this cycle.
    pub lower_cycles: u64,
    /// No engine run of the phase vector may finish after this cycle.
    pub upper_cycles: u64,
}

impl MakespanWindow {
    /// Whether a measured makespan lands inside the window.
    #[must_use]
    pub fn contains(&self, measured_cycles: u64) -> bool {
        self.lower_cycles <= measured_cycles && measured_cycles <= self.upper_cycles
    }
}

/// The analyzer's output: an ordered diagnostic list plus the makespan
/// window when one could be established. Byte-for-byte a pure function of
/// the analyzed input.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Findings in emission order (passes run in a fixed order, so this
    /// is deterministic).
    pub diagnostics: Vec<Diagnostic>,
    /// Static makespan bounds, when the phase-level pass ran on a graph
    /// free of structural denials.
    pub makespan_window: Option<MakespanWindow>,
}

impl AnalysisReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends another pass's diagnostics.
    pub fn extend(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Merges another report (its window wins when this one has none).
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
        if self.makespan_window.is_none() {
            self.makespan_window = other.makespan_window;
        }
    }

    /// Number of diagnostics at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Number of [`Severity::Deny`] diagnostics.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Whether the analyzed artifacts may be scheduled: no denials.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.deny_count() == 0
    }

    /// The denial diagnostics, in emission order.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Deny)
    }

    /// Renders the report as a stable, line-oriented string — the byte
    /// form the determinism tests compare and the CLI tools print.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "analysis: {} deny, {} warn, {} note",
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Note),
        );
        match self.makespan_window {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "; makespan window [{}, {}] cycles",
                    w.lower_cycles, w.upper_cycles
                );
            }
            None => out.push('\n'),
        }
        for d in &self.diagnostics {
            let _ = match d.span {
                Some(s) if s.first == s.last => writeln!(
                    out,
                    "  {} {} @{}: {}",
                    d.severity.label(),
                    d.rule_id,
                    s.first,
                    d.message
                ),
                Some(s) => writeln!(
                    out,
                    "  {} {} @{}..{}: {}",
                    d.severity.label(),
                    d.rule_id,
                    s.first,
                    s.last,
                    d.message
                ),
                None => writeln!(out, "  {} {}: {}", d.severity.label(), d.rule_id, d.message),
            };
        }
        out
    }
}

/// Emits per-item diagnostics for one rule with the [`PER_RULE_CAP`]
/// applied: the first `PER_RULE_CAP` findings verbatim, then one summary
/// diagnostic (same rule id and severity) carrying the overflow count.
fn push_capped(out: &mut Vec<Diagnostic>, findings: Vec<Diagnostic>) {
    let total = findings.len();
    if total == 0 {
        return;
    }
    let severity = findings[0].severity;
    let rule_id = findings[0].rule_id.clone();
    for d in findings.into_iter().take(PER_RULE_CAP) {
        out.push(d);
    }
    if total > PER_RULE_CAP {
        out.push(Diagnostic::new(
            severity,
            &rule_id,
            None,
            format!("... and {} more {} findings", total - PER_RULE_CAP, rule_id),
        ));
    }
}

// ---------------------------------------------------------------------------
// DAG pass: compiled-graph defects
// ---------------------------------------------------------------------------

/// Checks a compiled graph's dependency structure without running it:
/// every defect the timeline engine would otherwise hit as an assertion
/// (or, worse, silently misschedule) becomes a [`Severity::Deny`]
/// diagnostic, and legal-but-suspicious shapes become warnings/notes.
/// Spans are compiled-operator ids.
///
/// Kahn's readiness pass runs only when some producer edge does not
/// precede its consumer (`p >= id`, which includes out-of-range ids):
/// when every edge points backwards the id order is a topological order,
/// every operator drains, and the pass could report nothing.
#[must_use]
pub fn check_compiled_graph(graph: &CompiledGraph) -> Vec<Diagnostic> {
    if graph.is_empty() {
        return vec![Diagnostic::note(
            rules::DAG_EMPTY_GRAPH,
            None,
            format!("graph '{}' has no operators", graph.name()),
        )];
    }
    let mut structure = check_edges(graph);
    if structure.forward_edge {
        structure.diagnostics.extend(unreachable_ops(graph));
    }
    // Anchor-level smells need a structurally sound graph to be
    // meaningful (and the redundancy pass needs topological ids).
    if !structure.deny {
        structure.diagnostics.extend(check_anchor_connectivity(graph));
    }
    structure.diagnostics
}

/// What the per-edge pass of [`check_compiled_graph`] found.
struct EdgeVerdict {
    diagnostics: Vec<Diagnostic>,
    /// Some structural rule denied the graph.
    deny: bool,
    /// Some producer edge does not precede its consumer (`p >= id`).
    forward_edge: bool,
}

/// The per-operator and per-edge rules of [`check_compiled_graph`].
fn check_edges(graph: &CompiledGraph) -> EdgeVerdict {
    let mut out = Vec::new();
    let ops = graph.ops();
    let n = ops.len();
    let mut structural_deny = false;
    let mut forward_edge = false;
    for (id, op) in ops.iter().enumerate() {
        if let Some(anchor) = op.folded_into {
            let anchor_ok = anchor < n && anchor != id && ops[anchor].folded_into.is_none();
            if !anchor_ok {
                structural_deny = true;
                out.push(Diagnostic::deny(
                    rules::DAG_FOLDED_INTO_INVALID,
                    Some(OpSpan::single(id)),
                    format!(
                        "operator {id} ('{}') folds into {anchor}, which is {}",
                        op.op.name,
                        if anchor >= n {
                            "outside the graph"
                        } else if anchor == id {
                            "itself"
                        } else {
                            "itself a folded operator, not an anchor"
                        }
                    ),
                ));
            }
            if !graph.producers_of(id).is_empty() {
                structural_deny = true;
                out.push(Diagnostic::deny(
                    rules::DAG_FOLDED_OP_KEEPS_EDGES,
                    Some(OpSpan::single(id)),
                    format!(
                        "folded operator {id} ('{}') still carries {} producer edges; fusion \
                         must remap them onto its anchor",
                        op.op.name,
                        graph.producers_of(id).len()
                    ),
                ));
            }
        }
        for &p in graph.producers_of(id) {
            forward_edge |= p >= id;
            if p >= n {
                structural_deny = true;
                out.push(Diagnostic::deny(
                    rules::DAG_PRODUCER_OUT_OF_RANGE,
                    Some(OpSpan::single(id)),
                    format!(
                        "operator {id} ('{}') lists producer {p}, but the graph has only {n} \
                         operators",
                        op.op.name
                    ),
                ));
                continue;
            }
            if p >= id {
                structural_deny = true;
                out.push(Diagnostic::deny(
                    rules::DAG_CYCLE,
                    Some(OpSpan::between(p, id)),
                    format!(
                        "operator {id} ('{}') lists producer {p}, which does not precede it — \
                         the id order is not topological",
                        op.op.name
                    ),
                ));
            }
            if ops[p].folded_into.is_some() {
                structural_deny = true;
                out.push(Diagnostic::deny(
                    rules::DAG_PRODUCER_FUSED_AWAY,
                    Some(OpSpan::between(p, id)),
                    format!(
                        "operator {id} ('{}') lists producer {p} ('{}'), which was fused away \
                         into operator {}; the engine's anchor remap has no position for it",
                        op.op.name,
                        ops[p].op.name,
                        ops[p].folded_into.map_or(0, |a| a)
                    ),
                ));
            }
        }
    }
    EdgeVerdict { diagnostics: out, deny: structural_deny, forward_edge }
}

/// Kahn's readiness pass of [`check_compiled_graph`]: one
/// `dag.unreachable-op` denial (capped) per operator no pop order can
/// ever make ready.
fn unreachable_ops(graph: &CompiledGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ops = graph.ops();
    let n = ops.len();
    // Readiness: Kahn's algorithm over the producer relation. An edge
    // whose producer is out of range (or the operator itself) never
    // drains, so operators behind dangling producers and operators on
    // cycles are exactly the leftovers — a set no pop order changes.
    // The consumer lists are one `Adjacency`, so the pass allocates a
    // fixed handful of vectors however large the graph.
    let drains = |id: usize, p: usize| p < n && p != id;
    let mut indegree: Vec<usize> = (0..n).map(|id| graph.producers_of(id).len()).collect();
    let consumers = Adjacency::from_edges(
        n,
        (0..n).flat_map(|id| {
            graph.producers_of(id).iter().filter(move |&&p| drains(id, p)).map(move |&p| (p, id))
        }),
    );
    let mut ready: Vec<usize> = (0..n).filter(|&id| indegree[id] == 0).collect();
    let mut ordered = 0usize;
    while let Some(id) = ready.pop() {
        ordered += 1;
        for &c in consumers.of(id) {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(c);
            }
        }
    }
    if ordered < n {
        let stuck: Vec<Diagnostic> = (0..n)
            .filter(|&id| indegree[id] > 0)
            .map(|id| {
                Diagnostic::deny(
                    rules::DAG_UNREACHABLE_OP,
                    Some(OpSpan::single(id)),
                    format!(
                        "operator {id} ('{}') can never become ready: it waits on a dependency \
                         cycle or a dangling producer",
                        ops[id].op.name
                    ),
                )
            })
            .collect();
        push_capped(&mut out, stuck);
    }
    out
}

/// Orphan anchors and redundant transitive edges, on a structurally sound
/// compiled graph. Spans are compiled-operator ids.
fn check_anchor_connectivity(graph: &CompiledGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ops = graph.ops();
    let anchor_ids = graph.anchor_ids();
    let num_anchors = anchor_ids.len();
    if num_anchors <= 1 {
        return out;
    }
    // Every producer is an anchor here (structurally sound), so the
    // recorded op → anchor-position map resolves each edge.
    let position = graph.anchor_positions();

    // Degree count over the anchor-level edge relation.
    let mut degree = vec![0usize; num_anchors];
    for (pos, &id) in anchor_ids.iter().enumerate() {
        for &p in graph.producers_of(id) {
            degree[pos] += 1;
            degree[position[p]] += 1;
        }
    }
    let orphans: Vec<Diagnostic> = anchor_ids
        .iter()
        .enumerate()
        .filter(|&(pos, _)| degree[pos] == 0)
        .map(|(_, &id)| {
            Diagnostic::warn(
                rules::DAG_ORPHAN_SINK,
                Some(OpSpan::single(id)),
                format!(
                    "anchor {id} ('{}') has no producers and no consumers in a {num_anchors}-\
                     anchor graph",
                    ops[id].op.name
                ),
            )
        })
        .collect();
    push_capped(&mut out, orphans);

    if num_anchors > REDUNDANT_EDGE_ANCHOR_CAP {
        out.push(Diagnostic::note(
            rules::DAG_REDUNDANT_EDGE_SKIPPED,
            None,
            format!(
                "redundant-edge pass skipped: {num_anchors} anchors exceed the \
                 {REDUNDANT_EDGE_ANCHOR_CAP}-anchor ancestor-bitset budget"
            ),
        ));
        return out;
    }

    // Strict-ancestor bitsets per anchor position; an edge p→k is
    // redundant when p is already a strict ancestor of another producer
    // of k (so a length-≥2 path p→…→k exists without the edge).
    let words = num_anchors.div_ceil(64);
    let mut ancestors = vec![0u64; num_anchors * words];
    let mut redundant = Vec::new();
    for (pos, &id) in anchor_ids.iter().enumerate() {
        let producer_positions: Vec<usize> =
            graph.producers_of(id).iter().map(|&p| position[p]).collect();
        for &pp in &producer_positions {
            let implied = producer_positions
                .iter()
                .any(|&qq| qq != pp && ancestors[qq * words + pp / 64] >> (pp % 64) & 1 == 1);
            if implied {
                redundant.push(Diagnostic::note(
                    rules::DAG_REDUNDANT_EDGE,
                    Some(OpSpan::between(anchor_ids[pp], id)),
                    format!(
                        "edge {} → {id} ('{}' → '{}') is transitively implied by the rest of \
                         the graph",
                        anchor_ids[pp], ops[anchor_ids[pp]].op.name, ops[id].op.name
                    ),
                ));
            }
        }
        // ancestors[pos] = ∪ producers (ancestors[p] | {p}); rows of
        // producers are final because ids are topological here.
        for &pp in &producer_positions {
            let (head, tail) = ancestors.split_at_mut(pos * words);
            let row = &mut tail[..words];
            let src = &head[pp * words..(pp + 1) * words];
            for (dst, &s) in row.iter_mut().zip(src) {
                *dst |= s;
            }
            row[pp / 64] |= 1 << (pp % 64);
        }
    }
    push_capped(&mut out, redundant);
    out
}

// ---------------------------------------------------------------------------
// Time pass: phase-level structure and makespan bounds
// ---------------------------------------------------------------------------

/// Phase-level dependency checks — the contract
/// [`crate::timeline::TimelineEngine::new`] enforces by assertion, as
/// diagnostics. Spans are phase-vector (anchor) positions.
#[must_use]
pub fn check_phase_graph(phases: &PhaseGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = phases.len();
    for k in 0..n {
        for &q in phases.producers().of(k) {
            if q >= n {
                out.push(Diagnostic::deny(
                    rules::DAG_PRODUCER_OUT_OF_RANGE,
                    Some(OpSpan::single(k)),
                    format!("phase {k} lists producer {q}, but the vector has only {n} phases"),
                ));
            } else if q >= k {
                out.push(Diagnostic::deny(
                    rules::DAG_CYCLE,
                    Some(OpSpan::between(q, k)),
                    format!("phase {k} lists producer {q}, which does not precede it"),
                ));
            }
        }
    }
    out
}

/// Computes the static makespan window of a phase graph scheduled
/// against an explicit [`ResourceSet`] under a release vector
/// (`releases` empty = every operator released at cycle 0). Serial work
/// accumulates per resource *instance* (each chip's units and each ICI
/// link separately), so the floor of a pod run reflects the busiest
/// single resource, not the merged kind. Units or links outside the set
/// are skipped here (the `topo.*` pass reports them); on the single-chip
/// set the result is identical to the pre-refactor per-kind
/// accumulation.
///
/// Requires a structurally sound phase graph — run [`check_phase_graph`]
/// first; producer indices `>= k` are ignored here rather than trusted.
#[must_use]
pub fn makespan_window_for(
    phases: &PhaseGraph,
    releases: &[u64],
    set: &ResourceSet,
) -> MakespanWindow {
    let n = phases.len();
    // An empty release vector releases every operator at cycle 0.
    let release = |k: usize| -> u64 { releases.get(k).copied().unwrap_or(0) };

    // Critical path with release clamping: finish[k] is a lower bound on
    // operator k's completion in ANY schedule the engine can produce —
    // the main phase cannot start before its producers finish or before
    // the release, and the DMA stream alone needs `release + dma`.
    let mut finish = vec![0u64; n];
    let mut critical_path = 0u64;
    let mut serial_sum = 0u64;
    let mut max_release = 0u64;
    let mut work = vec![0u64; set.num_resources()];
    let mut work_prefetch = vec![0u64; set.num_chips()];
    for (k, p) in phases.ops().iter().enumerate() {
        let rel = release(k);
        let producers = phases.producers().of(k);
        let ready = producers.iter().filter(|&&q| q < k).map(|&q| finish[q]).fold(rel, u64::max);
        let f = (ready + p.dispatch_cycles + p.main_cycles.max(p.fused_vu_cycles))
            .max(rel + p.dma_cycles);
        finish[k] = f;
        critical_path = critical_path.max(f);

        let occupancy = p.dispatch_cycles + p.main_cycles;
        match &p.collective {
            Some(c) => {
                // A collective holds each of its links for its whole
                // duration, so every link accumulates the occupancy.
                for link in &c.links {
                    if let Some(w) = work.get_mut(link.index()) {
                        *w += occupancy;
                    }
                }
            }
            None => {
                if let Some(w) = work.get_mut(p.unit.index()) {
                    *w += occupancy;
                    if set.kind(p.unit) == Resource::Sa {
                        // Fused VU tails of SA anchors queue on the same
                        // chip's VU gang.
                        let chip = set.chip_of(p.unit).unwrap_or(0);
                        work[set.unit(chip, Resource::Vu).index()] += p.fused_vu_cycles;
                    }
                }
            }
        }
        work_prefetch[set.chip_of(p.unit).unwrap_or(0)] += p.dma_cycles;

        serial_sum += p.main_cycles.max(p.dma_cycles).max(p.fused_vu_cycles) + p.dispatch_cycles;
        max_release = max_release.max(rel);
    }

    let resource_floor = work.iter().chain(work_prefetch.iter()).copied().max().unwrap_or(0);
    let lower = critical_path.max(resource_floor);
    MakespanWindow { lower_cycles: lower, upper_cycles: max_release + serial_sum }
}

/// The full phase-level pass over a single-chip phase graph: structural
/// checks, the makespan window when they are clean, and — when a measured
/// makespan is supplied — the containment verdict. Spans are phase-vector
/// (anchor) positions. This is [`analyze_pod`]'s time pass on the
/// single-chip resource set, without the fabric checks.
#[must_use]
pub fn analyze_phases(
    phases: &PhaseGraph,
    releases: &[u64],
    measured_makespan: Option<u64>,
) -> AnalysisReport {
    let set = ResourceSet::single_chip();
    time_pass(AnalysisReport::new(), phases, releases, &set, measured_makespan)
}

/// Appends the time pass to `report`: the phase-graph structure checks,
/// the release-vector length check, and — when the report is still
/// schedulable — the makespan window over `set` with the containment
/// verdict for a measured makespan.
fn time_pass(
    mut report: AnalysisReport,
    phases: &PhaseGraph,
    releases: &[u64],
    set: &ResourceSet,
    measured_makespan: Option<u64>,
) -> AnalysisReport {
    report.extend(check_phase_graph(phases));
    if !releases.is_empty() && releases.len() != phases.len() {
        report.diagnostics.push(Diagnostic::deny(
            rules::TIME_RELEASE_LENGTH_MISMATCH,
            None,
            format!(
                "release vector covers {} operators but the phase vector has {}",
                releases.len(),
                phases.len()
            ),
        ));
        return report;
    }
    if phases.is_empty() || !report.is_schedulable() {
        return report;
    }
    let window = makespan_window_for(phases, releases, set);
    if let Some(measured) = measured_makespan {
        if measured < window.lower_cycles {
            report.diagnostics.push(Diagnostic::deny(
                rules::TIME_MAKESPAN_BELOW_FLOOR,
                None,
                format!(
                    "measured makespan {measured} is below the static floor {} (critical path \
                     / per-resource serial work) — the engine finished impossibly fast",
                    window.lower_cycles
                ),
            ));
        }
        if measured > window.upper_cycles {
            report.diagnostics.push(Diagnostic::deny(
                rules::TIME_MAKESPAN_ABOVE_CEILING,
                None,
                format!(
                    "measured makespan {measured} exceeds the static ceiling {} (latest \
                     release + fully serial schedule) — the engine lost time no schedule \
                     should lose",
                    window.upper_cycles
                ),
            ));
        }
    }
    report.makespan_window = Some(window);
    report
}

// ---------------------------------------------------------------------------
// Topo pass: fabric structure, routing coverage, collective lowering
// ---------------------------------------------------------------------------

/// Structural checks of a pod fabric: every link endpoint must be a real
/// node and every ordered chip pair must have a route. Spans are link ids
/// for the endpoint rule and `(src, dst)` chip pairs for the route rule.
#[must_use]
pub fn check_link_graph(graph: &LinkGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let nodes = graph.num_nodes();
    let endpoints: Vec<Diagnostic> = graph
        .links()
        .iter()
        .enumerate()
        .filter(|&(_, link)| link.src >= nodes || link.dst >= nodes)
        .map(|(id, link)| {
            Diagnostic::deny(
                rules::TOPO_LINK_ENDPOINT_OUT_OF_RANGE,
                Some(OpSpan::single(id)),
                format!(
                    "link {id} ({} -> {}) has an endpoint outside the {nodes}-node fabric",
                    link.src, link.dst
                ),
            )
        })
        .collect();
    push_capped(&mut out, endpoints);
    let mut unrouted = Vec::new();
    for src in 0..graph.num_chips() {
        for dst in 0..graph.num_chips() {
            if src != dst && graph.route(src, dst).is_empty() {
                unrouted.push(Diagnostic::deny(
                    rules::TOPO_ROUTE_INCOMPLETE,
                    Some(OpSpan::between(src, dst)),
                    format!(
                        "no route from chip {src} to chip {dst} — the fabric is disconnected \
                         or routing failed"
                    ),
                ));
            }
        }
    }
    push_capped(&mut out, unrouted);
    out
}

/// Checks that a pod's [`ResourceSet`] and its [`LinkGraph`] describe the
/// same machine: same chip count, one link resource per fabric link.
#[must_use]
pub fn check_pod_consistency(set: &ResourceSet, graph: &LinkGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if set.num_chips() != graph.num_chips() {
        out.push(Diagnostic::deny(
            rules::TOPO_CHIP_COUNT_MISMATCH,
            None,
            format!(
                "resource set has {} chips but the fabric wires {}",
                set.num_chips(),
                graph.num_chips()
            ),
        ));
    }
    if set.num_links() != graph.num_links() {
        out.push(Diagnostic::deny(
            rules::TOPO_CHIP_COUNT_MISMATCH,
            None,
            format!(
                "resource set has {} link resources but the fabric has {} links",
                set.num_links(),
                graph.num_links()
            ),
        ));
    }
    out
}

/// Checks every lowered collective phase against the fabric it claims to
/// run on: the phase must occupy at least one link (a collective's busy
/// time lives only on its links, see [`OpPhases::collective`]), link ids
/// must name link resources of the set, the link set must be exactly the
/// fabric's collective-ring links, and the per-hop step cycles must sum
/// to the phase's transfer. Spans are phase-vector positions.
#[must_use]
pub fn check_collective_phases(
    phases: &[OpPhases],
    set: &ResourceSet,
    graph: &LinkGraph,
) -> Vec<Diagnostic> {
    let mut ring: Vec<usize> = graph.collective_ring().into_iter().flatten().collect();
    ring.sort_unstable();
    ring.dedup();
    let mut findings = Vec::new();
    for (k, p) in phases.iter().enumerate() {
        let Some(c) = &p.collective else { continue };
        let mut used = Vec::with_capacity(c.links.len());
        let mut in_range = true;
        for link in &c.links {
            match set.link_of(*link) {
                Some(l) => used.push(l),
                None => {
                    in_range = false;
                    findings.push(Diagnostic::deny(
                        rules::TOPO_COLLECTIVE_LINKS_MISMATCH,
                        Some(OpSpan::single(k)),
                        format!(
                            "phase {k}: collective link id {} is not a link resource of the \
                             {}-chip / {}-link set",
                            link.0,
                            set.num_chips(),
                            set.num_links()
                        ),
                    ));
                }
            }
        }
        used.sort_unstable();
        used.dedup();
        if in_range && (used.is_empty() || used != ring) {
            findings.push(Diagnostic::deny(
                rules::TOPO_COLLECTIVE_LINKS_MISMATCH,
                Some(OpSpan::single(k)),
                format!(
                    "phase {k}: collective occupies links {used:?}, but it must occupy at least \
                     one link and exactly the fabric's collective ring {ring:?}"
                ),
            ));
        }
        let step_sum: u64 = c.step_cycles.iter().sum();
        if step_sum != p.main_cycles {
            findings.push(Diagnostic::deny(
                rules::TOPO_COLLECTIVE_LINKS_MISMATCH,
                Some(OpSpan::single(k)),
                format!(
                    "phase {k}: per-hop step cycles sum to {step_sum} but the phase transfers \
                     for {} cycles",
                    p.main_cycles
                ),
            ));
        }
    }
    let mut out = Vec::new();
    push_capped(&mut out, findings);
    out
}

/// The full pod-level pass: fabric structure, set/graph consistency,
/// collective lowering agreement, then the time pass of
/// [`analyze_phases`] against the pod's resource set — phase-graph
/// structure and the multi-chip makespan window (with the containment
/// verdict when a measured makespan is supplied).
#[must_use]
pub fn analyze_pod(
    phases: &PhaseGraph,
    releases: &[u64],
    set: &ResourceSet,
    graph: &LinkGraph,
    measured_makespan: Option<u64>,
) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    report.extend(check_link_graph(graph));
    report.extend(check_pod_consistency(set, graph));
    report.extend(check_collective_phases(phases.ops(), set, graph));
    time_pass(report, phases, releases, set, measured_makespan)
}

/// The workload's default parallelism on `num_chips` chips of `spec`
/// ([`Workload::default_parallelism`]), or a report carrying a
/// `topo.parallelism-infeasible` denial when no legal split fits — the
/// one check every entry point runs instead of fabricating a split whose
/// weights do not fit the deployment's HBM.
///
/// # Errors
///
/// Returns the denial report when the workload's memory demand exceeds
/// the deployment's aggregate HBM under every (data, tensor, pipeline)
/// split.
pub fn feasible_parallelism(
    workload: &Workload,
    spec: &NpuSpec,
    num_chips: usize,
) -> Result<ParallelismConfig, AnalysisReport> {
    workload.default_parallelism(spec, num_chips).ok_or_else(|| {
        let mut report = AnalysisReport::new();
        report.extend([Diagnostic::deny(
            rules::TOPO_PARALLELISM_INFEASIBLE,
            None,
            format!(
                "no valid parallelism configuration for {workload} on {num_chips} chip(s): the \
                 workload's memory demand exceeds the deployment's aggregate HBM under every \
                 legal (data, tensor, pipeline) split"
            ),
        )]);
        report
    })
}

// ---------------------------------------------------------------------------
// SRAM pass: static capacity
// ---------------------------------------------------------------------------

/// Checks an SRAM allocation's static live-byte peak against a target
/// chip's scratchpad capacity. The allocation is valid for the geometry
/// it was built with by construction; what can still go wrong — and what
/// this rule catches — is deploying it on a chip with *less* SRAM than
/// the allocator assumed. Spans are anchor positions.
#[must_use]
pub fn check_sram_allocation(
    allocation: &SramAllocation,
    target_capacity_bytes: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let geometry_bytes = allocation.geometry().total_bytes();
    if geometry_bytes > target_capacity_bytes {
        out.push(Diagnostic::warn(
            rules::SRAM_GEOMETRY_OVER_CAPACITY,
            None,
            format!(
                "allocation was laid out for a {geometry_bytes}-byte scratchpad, but the \
                 target chip has only {target_capacity_bytes} bytes"
            ),
        ));
    }
    let peak = allocation.static_peak();
    if peak.peak_bytes > target_capacity_bytes {
        out.push(Diagnostic::deny(
            rules::SRAM_PEAK_OVER_CAPACITY,
            Some(OpSpan::single(peak.anchor_index)),
            format!(
                "static live-byte peak {} at anchor {} exceeds the {target_capacity_bytes}-\
                 byte scratchpad",
                peak.peak_bytes, peak.anchor_index
            ),
        ));
    }
    out
}

/// Checks each compiled operator's post-tiling SRAM footprint against the
/// scratchpad: a tile that cannot fit means the tiling pass failed, and
/// the allocator downstream will misbehave. Spans are compiled-operator
/// ids. (Pre-tiling *demand* above capacity is expected — it is the
/// paper's Figure 7 motivation — and is not flagged.)
#[must_use]
pub fn check_tile_footprints(graph: &CompiledGraph, capacity_bytes: u64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let over: Vec<Diagnostic> = graph
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| op.tile.sram_used_bytes > capacity_bytes)
        .map(|(id, op)| {
            Diagnostic::warn(
                rules::SRAM_TILE_OVER_CAPACITY,
                Some(OpSpan::single(id)),
                format!(
                    "operator {id} ('{}') was tiled to {} SRAM bytes, more than the \
                     {capacity_bytes}-byte scratchpad",
                    op.op.name, op.tile.sram_used_bytes
                ),
            )
        })
        .collect();
    push_capped(&mut out, over);
    out
}

// ---------------------------------------------------------------------------
// Gating pass: configuration consistency
// ---------------------------------------------------------------------------

/// Checks a gating configuration for internal consistency, plus the
/// caller's duty cycle (the busy fraction a power projection scales by).
/// The component-level rules come from
/// [`GatingParams::consistency`](npu_power::GatingParams::consistency);
/// this pass maps them onto the analyzer's rule catalog and adds the
/// `setpm` lead check against the engine's dispatch overhead — the
/// minimum compiler-visible gap a wake-up could hide behind.
#[must_use]
pub fn check_gating_config(params: &GatingParams, duty_cycle: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for finding in params.consistency() {
        let rule_id = match finding.rule {
            GatingRule::BetBelowAmortization => rules::GATE_BET_BELOW_AMORTIZATION,
            GatingRule::SramModeOrdering => rules::GATE_SRAM_MODE_ORDERING,
            GatingRule::LeakageOutOfRange => rules::GATE_LEAKAGE_OUT_OF_RANGE,
        };
        out.push(Diagnostic::deny(
            rule_id,
            None,
            format!("{}: {}", finding.component, finding.message),
        ));
    }
    let lead = params.max_component_delay();
    if lead > DISPATCH_OVERHEAD_CYCLES {
        out.push(Diagnostic::warn(
            rules::GATE_SETPM_LEAD_EXCEEDS_DISPATCH,
            None,
            format!(
                "slowest component wake-up ({lead} cycles) exceeds the \
                 {DISPATCH_OVERHEAD_CYCLES}-cycle dispatch overhead — `setpm` cannot hide \
                 wake-ups behind the minimum compiler-visible gap"
            ),
        ));
    }
    if !duty_cycle.is_finite() || duty_cycle <= 0.0 || duty_cycle > 1.0 {
        out.push(Diagnostic::deny(
            rules::GATE_DUTY_CYCLE_OUT_OF_RANGE,
            None,
            format!("duty cycle {duty_cycle} is outside (0, 1]"),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Policy pass: power-management-policy consistency
// ---------------------------------------------------------------------------

/// Checks one power-management policy's parameterization for internal
/// consistency. The findings come from
/// [`PowerPolicy::consistency`];
/// this pass maps them onto the analyzer's `policy.*` rule catalog so
/// sweeps can gate a policy matrix the same way deployments gate their
/// gating parameters.
#[must_use]
pub fn check_power_policy(policy: &dyn PowerPolicy) -> Vec<Diagnostic> {
    policy
        .consistency()
        .into_iter()
        .map(|finding| {
            let rule_id = match finding.rule {
                PolicyRule::ScaleOutOfRange => rules::POLICY_SCALE_OUT_OF_RANGE,
                PolicyRule::ResidualOutOfRange => rules::POLICY_RESIDUAL_OUT_OF_RANGE,
                PolicyRule::WritebackInconsistent => rules::POLICY_WRITEBACK_INCONSISTENT,
                PolicyRule::TransitionInconsistent => rules::POLICY_TRANSITION_INCONSISTENT,
            };
            Diagnostic::deny(rule_id, None, format!("{}: {}", policy.label(), finding.message))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Whole-deployment convenience
// ---------------------------------------------------------------------------

/// The static deployment pass: graph defects, tile footprints, and the
/// SRAM allocation peak for one compiled graph against one chip, plus —
/// when gating parameters are supplied — the gating-config pass. This is
/// what the evaluation and serving-sweep binaries run on every
/// configuration before trusting a single simulated number.
#[must_use]
pub fn analyze_deployment(
    graph: &CompiledGraph,
    spec: &npu_arch::NpuSpec,
    gating: Option<&GatingParams>,
) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    report.extend(check_compiled_graph(graph));
    let capacity = spec.sram_bytes();
    report.extend(check_tile_footprints(graph, capacity));
    // The allocator requires a sound graph; with structural denials the
    // allocation itself is the next thing that would crash, so stop here.
    if report.is_schedulable() && !graph.is_empty() {
        let allocation = SramAllocation::allocate(graph, spec.sram_geometry());
        report.extend(check_sram_allocation(&allocation, capacity));
    }
    if let Some(params) = gating {
        report.extend(check_gating_config(params, 1.0));
    }
    report
}

// ---------------------------------------------------------------------------
// Post-hoc SRAM capacity audit (moved here from `validation`)
// ---------------------------------------------------------------------------

/// One operator whose allocator-reported live SRAM bytes exceed the
/// scratchpad capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramCapacityViolation {
    /// Index of the offending operator.
    pub op_index: usize,
    /// Live bytes the allocator reported for it.
    pub live_bytes: u64,
}

/// Capacity audit of the SRAM allocation as simulated.
///
/// An allocation reporting more live bytes than the scratchpad holds is an
/// allocator bug that must fail loudly — the energy model consumes these
/// numbers as-is, and silently clamping them (as the evaluator's old
/// `live_frac.min(1.0)` did) hides the bug behind a plausible fraction.
/// The simulator debug-asserts the per-operator bound at construction;
/// this report is the release-mode equivalent, covering both the
/// per-operator totals and the instantaneous union of live segments on
/// the clock. The *static* half of the same question — will the
/// allocation fit before we run anything — is [`check_sram_allocation`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramCapacityReport {
    /// Scratchpad capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak instantaneous live bytes on the segment timeline.
    pub peak_live_bytes: u64,
    /// Operators whose reported live bytes exceed the capacity.
    pub violations: Vec<SramCapacityViolation>,
}

impl SramCapacityReport {
    /// Audits one simulation.
    #[must_use]
    pub fn for_simulation(result: &SimulationResult) -> Self {
        Self::from_parts(
            result.chip().spec().sram_bytes(),
            result.timings().iter().map(|t| t.sram_live_bytes),
            result.segment_timeline().peak_live_bytes(),
        )
    }

    /// Builds the report from raw per-operator live-byte counts and the
    /// timeline's peak (split out so the violation path is testable
    /// without forging a whole simulation).
    #[must_use]
    pub fn from_parts(
        capacity_bytes: u64,
        live_bytes: impl IntoIterator<Item = u64>,
        peak_live_bytes: u64,
    ) -> Self {
        let violations = live_bytes
            .into_iter()
            .enumerate()
            .filter(|&(_, live)| live > capacity_bytes)
            .map(|(op_index, live_bytes)| SramCapacityViolation { op_index, live_bytes })
            .collect();
        SramCapacityReport { capacity_bytes, peak_live_bytes, violations }
    }

    /// Whether the allocation respects the capacity everywhere.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.peak_live_bytes <= self.capacity_bytes
    }

    /// The audit as analyzer diagnostics (spans are operator indices).
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let over: Vec<Diagnostic> = self
            .violations
            .iter()
            .map(|v| {
                Diagnostic::deny(
                    rules::SRAM_OP_OVER_CAPACITY,
                    Some(OpSpan::single(v.op_index)),
                    format!(
                        "operator {} reports {} live SRAM bytes in a {}-byte scratchpad",
                        v.op_index, v.live_bytes, self.capacity_bytes
                    ),
                )
            })
            .collect();
        push_capped(&mut out, over);
        if self.peak_live_bytes > self.capacity_bytes {
            out.push(Diagnostic::deny(
                rules::SRAM_PEAK_OVER_CAPACITY,
                None,
                format!(
                    "timeline peak of {} live SRAM bytes exceeds the {}-byte scratchpad",
                    self.peak_live_bytes, self.capacity_bytes
                ),
            ));
        }
        out
    }
}

/// Validates a [`TraceRecorder`] export against the schedule that
/// produced it: slices on each display track must not overlap one
/// another (abutting slices are fine — they are distinct queue grants),
/// every slice must end inside the measured makespan, and the merged
/// busy intervals each resource's slices imply must agree record for
/// record with the schedule's finalized [`ResourceTimeline`] track. Any
/// disagreement is a hard [`Severity::Deny`]: the trace claims a run
/// that did not happen.
#[must_use]
pub fn check_trace_export(
    trace: &TraceRecorder,
    timeline: &ResourceTimeline,
    makespan: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let mut overlaps = Vec::new();
    let mut out_of_window = Vec::new();
    for (name, slices) in trace.display_tracks() {
        let mut sorted: Vec<&TraceSlice> = slices.iter().collect();
        sorted.sort_by_key(|s| (s.start, s.end));
        for pair in sorted.windows(2) {
            if pair[1].start < pair[0].end {
                overlaps.push(Diagnostic::deny(
                    rules::OBS_TRACK_OVERLAP,
                    Some(OpSpan::between(pair[0].op, pair[1].op)),
                    format!(
                        "track {name}: operator {} slice [{}, {}) overlaps operator {} slice [{}, {})",
                        pair[0].op, pair[0].start, pair[0].end, pair[1].op, pair[1].start, pair[1].end
                    ),
                ));
            }
        }
        for s in slices {
            if s.end > makespan {
                out_of_window.push(Diagnostic::deny(
                    rules::OBS_EVENT_OUT_OF_WINDOW,
                    Some(OpSpan::single(s.op)),
                    format!(
                        "track {name}: operator {} slice [{}, {}) ends past the {makespan}-cycle makespan",
                        s.op, s.start, s.end
                    ),
                ));
            }
        }
    }
    push_capped(&mut out, overlaps);
    push_capped(&mut out, out_of_window);

    let set = trace.resources();
    let mut mismatches = Vec::new();
    for index in 0..set.num_resources() {
        let id = ResourceId(index as u32);
        let merged = trace.merged_resource_intervals(id);
        let finalized = timeline.track(id);
        if merged != finalized {
            mismatches.push(Diagnostic::deny(
                rules::OBS_TIMELINE_MISMATCH,
                None,
                format!(
                    "resource {}: trace implies {} busy interval(s), schedule recorded {}{}",
                    trace.track_name(id),
                    merged.len(),
                    finalized.len(),
                    first_interval_divergence(&merged, finalized),
                ),
            ));
        }
    }
    push_capped(&mut out, mismatches);

    out
}

/// Locates the first record where a trace-implied interval list diverges
/// from the schedule's, for the `obs.timeline-mismatch` message. Empty
/// when one list is a strict prefix of the other (the counts in the
/// message already tell that story).
fn first_interval_divergence(merged: &[CycleInterval], finalized: &[CycleInterval]) -> String {
    for (index, (m, f)) in merged.iter().zip(finalized.iter()).enumerate() {
        if m != f {
            return format!(
                "; first divergence at record {index}: trace [{}, {}) vs schedule [{}, {})",
                m.start, m.end, f.start, f.end
            );
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::{NpuGeneration, NpuSpec, ParallelismConfig};
    use npu_compiler::{CompiledOp, Compiler};
    use npu_models::{fixtures, LlamaModel, LlmPhase, Workload};

    fn compile(graph: &npu_models::OperatorGraph) -> CompiledGraph {
        Compiler::new(NpuSpec::generation(NpuGeneration::D)).compile(graph)
    }

    #[test]
    fn clean_fixture_and_real_workload_pass_every_dag_rule() {
        let diamond = compile(&fixtures::clean_diamond());
        assert_eq!(check_compiled_graph(&diamond), Vec::new());

        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let compiled = compile(&wl.build_graph(&ParallelismConfig::single()));
        let diags = check_compiled_graph(&compiled);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Deny),
            "real workload must not deny: {diags:?}"
        );
    }

    #[test]
    fn redundant_edge_fixture_is_noted() {
        let compiled = compile(&fixtures::redundant_transitive_edge());
        let diags = check_compiled_graph(&compiled);
        let hit = diags.iter().find(|d| d.rule_id == rules::DAG_REDUNDANT_EDGE);
        let hit = hit.unwrap_or_else(|| panic!("expected a redundant-edge note in {diags:?}"));
        assert_eq!(hit.severity, Severity::Note);
        assert!(diags.iter().all(|d| d.severity < Severity::Deny));
    }

    #[test]
    fn disconnected_fixture_is_flagged_as_orphan() {
        let compiled = compile(&fixtures::disconnected_op());
        let diags = check_compiled_graph(&compiled);
        let hit: Vec<_> = diags.iter().filter(|d| d.rule_id == rules::DAG_ORPHAN_SINK).collect();
        assert_eq!(hit.len(), 1, "{diags:?}");
        assert_eq!(hit[0].severity, Severity::Warn);
        assert_eq!(hit[0].span, Some(OpSpan::single(2)));
    }

    #[test]
    fn window_brackets_the_measured_makespan_on_a_real_workload() {
        let chip = npu_arch::ChipConfig::new(NpuGeneration::D, 1);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let compiled = Compiler::new(chip.spec().clone())
            .compile(&wl.build_graph(&ParallelismConfig::single()));
        let prepared = crate::engine::Simulator::new(chip).prepare(&compiled);
        let measured = prepared.run_with_releases(&[]).total_cycles();
        let report = prepared.analyze(&[], Some(measured));
        assert!(report.is_schedulable(), "{}", report.render());
        let window = report.makespan_window.expect("window must exist");
        assert!(window.contains(measured));
        assert!(window.lower_cycles > 0);
        assert!(window.lower_cycles < window.upper_cycles);
    }

    #[test]
    fn impossible_measurements_are_denied() {
        let chip = npu_arch::ChipConfig::new(NpuGeneration::D, 1);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let compiled = Compiler::new(chip.spec().clone())
            .compile(&wl.build_graph(&ParallelismConfig::single()));
        let prepared = crate::engine::Simulator::new(chip).prepare(&compiled);
        let window = prepared.analyze(&[], None).makespan_window.expect("window");

        let fast = prepared.analyze(&[], Some(window.lower_cycles - 1));
        assert!(fast.denials().any(|d| d.rule_id == rules::TIME_MAKESPAN_BELOW_FLOOR));
        let slow = prepared.analyze(&[], Some(window.upper_cycles + 1));
        assert!(slow.denials().any(|d| d.rule_id == rules::TIME_MAKESPAN_ABOVE_CEILING));
    }

    #[test]
    fn release_length_mismatch_is_denied_without_a_window() {
        let phases = PhaseGraph::chain(vec![
            OpPhases {
                unit: Resource::Vu.into(),
                main_cycles: 10,
                dma_cycles: 0,
                dma_lead_cycles: 0,
                fused_vu_cycles: 0,
                dispatch_cycles: 1,
                sa_active_cycles: 0,
                collective: None,
            };
            3
        ]);
        let report = analyze_phases(&phases, &[0, 5], None);
        assert!(report.denials().any(|d| d.rule_id == rules::TIME_RELEASE_LENGTH_MISMATCH));
        assert_eq!(report.makespan_window, None);
    }

    #[test]
    fn default_gating_config_is_clean_and_broken_ones_are_not() {
        let params = GatingParams::default();
        assert_eq!(check_gating_config(&params, 1.0), Vec::new());

        let broken = GatingParams { vu_bet: 3, vu_delay: 2, ..params };
        let diags = check_gating_config(&broken, 0.0);
        assert!(diags.iter().any(|d| d.rule_id == rules::GATE_BET_BELOW_AMORTIZATION));
        assert!(diags.iter().any(|d| d.rule_id == rules::GATE_DUTY_CYCLE_OUT_OF_RANGE));
    }

    #[test]
    fn report_render_is_stable_and_counts_severities() {
        let mut report = AnalysisReport::new();
        report.diagnostics.push(Diagnostic::deny("dag.cycle", Some(OpSpan::between(2, 5)), "x"));
        report.diagnostics.push(Diagnostic::warn("dag.orphan-sink", Some(OpSpan::single(7)), "y"));
        report.diagnostics.push(Diagnostic::note("dag.redundant-edge", None, "z"));
        report.makespan_window = Some(MakespanWindow { lower_cycles: 10, upper_cycles: 20 });
        assert_eq!(report.deny_count(), 1);
        assert!(!report.is_schedulable());
        let rendered = report.render();
        assert_eq!(
            rendered,
            "analysis: 1 deny, 1 warn, 1 note; makespan window [10, 20] cycles\n  deny \
             dag.cycle @2..5: x\n  warn dag.orphan-sink @7: y\n  note dag.redundant-edge: z\n"
        );
    }

    /// The DAG verdict with Kahn's readiness pass run on every graph, as
    /// it was before the pass learned to skip graphs whose edges all
    /// point backwards — the oracle of the skip.
    fn always_kahn(graph: &CompiledGraph) -> Vec<Diagnostic> {
        if graph.is_empty() {
            return check_compiled_graph(graph);
        }
        let mut structure = check_edges(graph);
        structure.diagnostics.extend(unreachable_ops(graph));
        if !structure.deny {
            structure.diagnostics.extend(check_anchor_connectivity(graph));
        }
        structure.diagnostics
    }

    /// Every `analysis_rules` DAG fixture: the clean compilations and each
    /// corruption of the diamond assembled through `from_parts`.
    fn dag_rule_fixtures() -> Vec<CompiledGraph> {
        let diamond = compile(&fixtures::clean_diamond());
        let parts = || {
            let producers: Vec<Vec<usize>> =
                (0..diamond.len()).map(|id| diamond.producers_of(id).to_vec()).collect();
            (diamond.ops().to_vec(), producers)
        };
        let corrupt = |edit: fn(&mut Vec<CompiledOp>, &mut Vec<Vec<usize>>)| {
            let (mut ops, mut producers) = parts();
            edit(&mut ops, &mut producers);
            CompiledGraph::from_parts("broken", ops, producers)
        };
        let chain_op = diamond.ops()[0].clone();
        let chain = CompiledGraph::from_parts(
            "mega-chain",
            vec![chain_op; 4097],
            (0..4097).map(|id| if id == 0 { vec![] } else { vec![id - 1] }).collect(),
        );
        vec![
            compile(&fixtures::clean_diamond()),
            compile(&fixtures::disconnected_op()),
            compile(&fixtures::redundant_transitive_edge()),
            CompiledGraph::empty("void"),
            corrupt(|_, producers| producers[3].push(99)),
            corrupt(|_, producers| producers[1].push(2)),
            corrupt(|ops, producers| {
                ops[1].folded_into = Some(0);
                producers[1].clear();
            }),
            corrupt(|ops, _| ops[1].folded_into = Some(0)),
            corrupt(|ops, producers| {
                ops[1].folded_into = Some(1);
                producers[1].clear();
            }),
            corrupt(|_, producers| producers[1].push(1)),
            chain,
        ]
    }

    /// Seeded random graphs through `from_parts`: backward edges mostly,
    /// and in some graphs a forward, self or out-of-range edge, or a
    /// random fold.
    fn random_dag_corpus() -> Vec<CompiledGraph> {
        let template = compile(&fixtures::clean_diamond()).ops()[0].clone();
        let mut rng = crate::rng::SplitMix64::new(0x0DA6_CAFE);
        (0..300)
            .map(|case| {
                let n = rng.range(1, 40) as usize;
                let mut ops = vec![template.clone(); n];
                let mut producers: Vec<Vec<usize>> = (0..n)
                    .map(|id| {
                        let fan_in = if id == 0 { 0 } else { rng.range(0, 3) };
                        (0..fan_in).map(|_| rng.range(0, id as u64 - 1) as usize).collect()
                    })
                    .collect();
                let victim = rng.range(0, n as u64 - 1) as usize;
                match case % 5 {
                    1 => producers[victim].push(rng.range(victim as u64, n as u64 + 2) as usize),
                    2 if victim > 0 => {
                        ops[victim].folded_into = Some(rng.range(0, victim as u64 - 1) as usize);
                    }
                    _ => {}
                }
                CompiledGraph::from_parts(format!("random-{case}"), ops, producers)
            })
            .collect()
    }

    #[test]
    fn skipping_kahn_on_backward_edges_reports_what_always_kahn_reports() {
        let compiler = Compiler::new(NpuSpec::generation(NpuGeneration::D));
        let single = ParallelismConfig::single();
        let decode = compiler.compile(
            &Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode)
                .with_batch(6)
                .build_request_graph(&single, 3),
        );
        let dlrm = compiler.compile(
            &Workload::dlrm(npu_models::DlrmSize::Small)
                .with_batch(64)
                .build_request_graph(&single, 2),
        );
        let mut serving = CompiledGraph::empty("serving");
        for template in [&decode, &dlrm, &decode, &decode] {
            serving.extend_from(template);
        }
        let mut skipped = 0;
        let graphs = dag_rule_fixtures().into_iter().chain(random_dag_corpus()).chain([serving]);
        for graph in graphs {
            let all_backward =
                (0..graph.len()).all(|id| graph.producers_of(id).iter().all(|&p| p < id));
            skipped += usize::from(all_backward && !graph.is_empty());
            assert_eq!(check_compiled_graph(&graph), always_kahn(&graph), "{}", graph.name());
        }
        assert!(skipped > 100, "only {skipped} graphs exercised the skip");
    }

    #[test]
    fn per_rule_cap_collapses_overflow_into_a_summary() {
        let findings: Vec<Diagnostic> = (0..PER_RULE_CAP + 5)
            .map(|i| Diagnostic::deny(rules::DAG_UNREACHABLE_OP, Some(OpSpan::single(i)), "stuck"))
            .collect();
        let mut out = Vec::new();
        push_capped(&mut out, findings);
        assert_eq!(out.len(), PER_RULE_CAP + 1);
        assert!(out.last().is_some_and(|d| d.message.contains("5 more")));
        assert!(out.iter().all(|d| d.rule_id == rules::DAG_UNREACHABLE_OP));
    }
}
